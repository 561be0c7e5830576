"""The congruence of finite state-strings as a finite monoid of signatures.

Two nonempty strings over automaton states are identified when they share
first and last states, the same set of (state, states-strictly-before)
pairs, and the same per-input-letter path validity.  A signature is the
normal form of that relation, five ints over state numbers (positions in the
sorted ``ctx.states``) and letter numbers (positions in ``ctx.relations``):
the ``first`` and ``last`` state, the mask ``occ`` of states that occur,
``levels`` with bit ``j*n + q`` set iff q occurs with exactly j distinct
states before it, and the mask ``flags`` of letters a for which the string
is an E_a-path.  The sets before each position form a chain, so j names one
of them and ``levels`` holds the pair set exactly.  Appending a state adds
the one pair at level ``|occ|``: the class table and absorption run on bits.

The class table closes the length-1 generators under right multiplication,
keeps shortest (lexicographically least) witnesses, and yields the move
vocabulary for the game arenas: the ultimately periodic words built from an
absorbing representative and an idempotent period representative.
"""

from __future__ import annotations

from typing import NamedTuple

MONOID_CAP = 200_000  # classes in a table, and (class, idempotent) pairs for `monoid`


class MonoidError(Exception):
    pass


class ResourceCapError(Exception):
    """A resource cap stopped a build."""


def _cap_exceeded(count) -> ResourceCapError:
    return ResourceCapError(f"signature cap exceeded; {count} classes built so far")


class MonoidContext:
    """State universe plus, per input letter, the one-step relation E_a; read-only.

    ``index`` numbers the states, and ``steps[p][q]`` is the mask of the
    letters a with (p, q) in E_a, over state numbers.
    """

    __slots__ = ("states", "relations", "index", "steps")

    def __init__(self, states, relations):
        states = tuple(sorted(set(states)))
        index = {q: i for i, q in enumerate(states)}
        relations = {a: frozenset(r) for a, r in relations.items()}
        steps = [[0] * len(states) for _ in states]
        for bit, pairs in enumerate(relations.values()):
            for p, q in pairs:
                if p not in index or q not in index:
                    raise MonoidError(f"relation edge {(p, q)!r} leaves the states")
                steps[index[p]][index[q]] |= 1 << bit
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "relations", relations)  # letter -> frozenset of (q, q') pairs
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "steps", tuple(map(tuple, steps)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a MonoidContext")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a MonoidContext")


def context_from_automaton(a) -> MonoidContext:
    return MonoidContext(states=tuple(a.states), relations=a.edge_relations())


def signature_of(u, ctx: MonoidContext) -> tuple:
    """Direct computation of the invariant; u must be nonempty."""
    if not u:
        raise MonoidError("signatures are defined for nonempty strings only")
    try:
        first, *rest = (ctx.index[q] for q in u)
    except KeyError as exc:
        raise MonoidError(f"unknown state {exc.args[0]!r}") from None
    n, steps = len(ctx.states), ctx.steps
    last, occ, levels, flags = first, 1 << first, 1 << first, (1 << len(ctx.relations)) - 1
    for q in rest:  # appending q adds the pair (q, the states so far)
        last, occ, levels, flags = (
            q, occ | 1 << q, levels | 1 << (occ.bit_count() * n + q), flags & steps[last][q]
        )
    return first, last, occ, levels, flags


def late_states(ctx: MonoidContext, s: tuple) -> int:
    """Mask of the states that occur again after every state of s has occurred."""
    n = len(ctx.states)
    return s[3] >> (s[2].bit_count() * n) & ((1 << n) - 1)


def absorbs(ctx: MonoidContext, s: tuple, e: tuple) -> bool:
    """Whether appending a string of class e to one of class s stays in class s.

    The last state must stay.  Every state of e then occurs after all of s's
    states, which adds no pair iff it is late in s; and every letter of s's
    flags must be in e's and step from s's last state to e's first.
    """
    late, last = late_states(ctx, s), s[1]
    return e[1] == last and not e[2] & ~late and not s[4] & ~(e[4] & ctx.steps[last][e[0]])


class ClassTable(NamedTuple):
    """All signature classes with shortest witnesses, ordered by discovery."""

    ctx: MonoidContext
    witnesses: dict  # signature -> tuple (shortest, lex least), in (length, lex) order
    idempotents: frozenset
    d_q: int

    @property
    def class_count(self) -> int:
        return len(self.witnesses)


def build_class_table(
    ctx: MonoidContext, cap: int = MONOID_CAP, letter=None, pair_cap: int | None = None
) -> ClassTable:
    """Close length-1 generators under appending states, breadth-first.

    Witnesses are generated level by level in lexicographic order, so the
    first witness found for a class is the canonical one.  With ``letter``
    given, only strings that are E_letter-paths are enumerated, which gives
    the path classes of that input letter.  Each class is tested for
    idempotence as it is found; with ``pair_cap`` given, the build stops as
    soon as the classes times the idempotents found so far exceed it.
    """
    if letter is not None and letter not in ctx.relations:
        raise MonoidError(f"unknown input letter {letter!r}")
    states, steps, n = ctx.states, ctx.steps, len(ctx.states)
    bit = 1 << list(ctx.relations).index(letter) if letter is not None else 0
    # the states that may follow each last state, in lexicographic order
    nexts = [[q for q in range(n) if not bit or steps[p][q] & bit] for p in range(n)]
    witnesses, idem = {}, set()

    def add(sig, witness):
        witnesses[sig] = witness
        if absorbs(ctx, sig, sig):
            idem.add(sig)
        if pair_cap is not None and len(witnesses) * len(idem) > pair_cap:
            raise ResourceCapError(
                f"{len(witnesses)} classes x {len(idem)} idempotents = "
                f"{len(witnesses) * len(idem)} pairs so far, over the pair cap {pair_cap}"
            )

    level = [((q,), signature_of((q,), ctx)) for q in states]  # (witness, signature) of one length
    for witness, sig in level:
        add(sig, witness)
    if len(witnesses) > cap:
        raise _cap_exceeded(len(witnesses))
    while level:
        next_level = []
        for witness, (first, last, occ, levels, flags) in level:
            shift, row = occ.bit_count() * n, steps[last]
            for q in nexts[last]:
                new_sig = (first, q, occ | 1 << q, levels | 1 << (shift + q), flags & row[q])
                if new_sig in witnesses:
                    continue
                if len(witnesses) >= cap:
                    raise _cap_exceeded(cap + 1)
                new_witness = witness + (states[q],)
                add(new_sig, new_witness)
                next_level.append((new_witness, new_sig))
        level = next_level
    return ClassTable(ctx, witnesses, frozenset(idem), max(map(len, witnesses.values())))


class UPMember(NamedTuple):
    """An ultimately periodic state-word: absorbing lag, idempotent period."""

    lag: tuple
    period: tuple

    def letter(self, n: int):
        """1-indexed position: lag first, then the period cycles."""
        if n < 1:
            raise MonoidError("positions are 1-indexed")
        if n <= len(self.lag):
            return self.lag[n - 1]
        return self.period[(n - len(self.lag) - 1) % len(self.period)]


def vocabulary(table: ClassTable):
    """Each class, in table order, with the idempotents it absorbs: the block vocabulary.

    Yields (signature, late, witness, groups), late being the class's
    ``late_states``.  ``absorbs`` is decided in closed form: an idempotent
    qualifies only if it ends where the class ends, and its flags all step
    from its last state to its first (squaring keeps them), so the flag test
    needs no step mask.  groups lists the qualifying idempotents that share
    (last, occ, flags), each group their witnesses in table order; the mask
    tests run once per (last, late, flags), and classes share the lists.
    """
    ctx, witnesses = table.ctx, table.witnesses
    found = {}  # (last, occ, flags) -> the witnesses of those idempotents, in table order
    for e in filter(table.idempotents.__contains__, witnesses):
        found.setdefault((e[1], e[2], e[4]), []).append(witnesses[e])
    buckets = [[] for _ in ctx.states]
    for (last, occ, flags), group in found.items():
        buckets[last].append((occ, flags, group))
    fits = {}  # (last, late, flags) -> the groups that qualify
    for s, witness in witnesses.items():
        late, last, flags = late_states(ctx, s), s[1], s[4]
        groups = fits.get((last, late, flags))
        if groups is None:
            groups = fits[last, late, flags] = [
                g for occ, e_flags, g in buckets[last] if not occ & ~late and not flags & ~e_flags
            ]
        yield s, late, witness, groups


def build_UP(table: ClassTable) -> list:
    """The move vocabulary, lag . period^omega: the walk expanded in (class, idempotent) order."""
    members = []
    for _, _, rep, groups in vocabulary(table):
        for period in sorted((p for g in groups for p in g), key=lambda p: (len(p), p)):  # table order
            members.append(UPMember(rep, period))
    return members
