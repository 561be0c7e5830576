"""The congruence of finite state-strings as a finite monoid of signatures.

Two nonempty strings over automaton states are identified when they share
first and last states, the same set of (letter, letters-strictly-before)
pairs in both directions, and the same per-input-letter path validity.
The signature below is a computable normal form for that relation: pair-set
equality captures the two quantifier conditions exactly, and the explicit
occurrence set makes concatenation computable on signatures alone.

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
    """State universe plus, per input letter, the one-step relation E_a; read-only."""

    __slots__ = ("states", "relations")

    def __init__(self, states, relations):
        object.__setattr__(self, "states", tuple(sorted(states)))
        # letter -> frozenset of (q, q') pairs
        object.__setattr__(self, "relations", {a: frozenset(r) for a, r in relations.items()})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a MonoidContext")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a MonoidContext")

    def has_edge(self, a, q, q2) -> bool:
        return (q, q2) in self.relations[a]


def context_from_automaton(a) -> MonoidContext:
    return MonoidContext(states=tuple(a.states), relations=a.edge_relations())


class StateSignature(NamedTuple):
    """Immutable normal form of a state-string class; hashed and compared as a tuple."""

    first: object
    last: object
    occ: frozenset
    pairs: frozenset  # of (state, frozenset of states strictly before)
    flags: frozenset  # letters a for which the string is an E_a-path


def signature_of(u, ctx: MonoidContext) -> StateSignature:
    """Direct computation of the invariant; u must be nonempty."""
    u = tuple(u)
    if not u:
        raise MonoidError("signatures are defined for nonempty strings only")
    seen = set()
    pairs = set()
    for q in u:
        pairs.add((q, frozenset(seen)))
        seen.add(q)
    flags = frozenset(
        a for a in ctx.relations
        if all(ctx.has_edge(a, u[i], u[i + 1]) for i in range(len(u) - 1))
    )
    return StateSignature(u[0], u[-1], frozenset(seen), frozenset(pairs), flags)


def product(ctx: MonoidContext, s1: StateSignature, s2: StateSignature) -> StateSignature:
    """Signature of any concatenation u1 u2 with signature_of(u_i) = s_i."""
    pairs = set(s1.pairs)
    for q, before in s2.pairs:
        pairs.add((q, s1.occ | before))
    flags = frozenset(a for a in s1.flags & s2.flags if ctx.has_edge(a, s1.last, s2.first))
    return StateSignature(s1.first, s2.last, s1.occ | s2.occ, frozenset(pairs), flags)


def late_states(s: StateSignature) -> frozenset:
    """States that occur again after every state of s has occurred: {q : (q, s.occ) in s.pairs}."""
    return frozenset(q for q, before in s.pairs if before == s.occ)


def absorbs(ctx: MonoidContext, s: StateSignature, e: StateSignature, late: frozenset) -> bool:
    """Whether product(ctx, s, e) == s, read off the signatures; late is late_states(s).

    Appending e keeps s's last state iff e.last == s.last.  Each state q of
    e then occurs with all of s.occ before it, so the product has no pair
    that s lacks iff every such (q, s.occ) is already in s, that is iff
    e.occ is inside late.  It keeps s.flags iff every letter in them is also
    in e.flags and has an edge from s.last to e.first.
    """
    if e.last != s.last or not e.occ <= late:
        return False
    return all(a in e.flags and ctx.has_edge(a, s.last, e.first) for a in s.flags)


class ClassTable(NamedTuple):
    """All signature classes with shortest witnesses, ordered by discovery."""

    ctx: MonoidContext
    witnesses: dict  # StateSignature -> tuple (shortest, lex least), in (length, lex) order
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
    given, only strings that are E_letter-paths are enumerated; the result
    is the table of path classes for that input letter (sufficient for the
    per-letter arena vocabulary).  Each class is tested for idempotence as
    it is found; with ``pair_cap`` given, the build stops as soon as the
    classes times the idempotents found so far exceed it.
    """
    if letter is not None and letter not in ctx.relations:
        raise MonoidError(f"unknown input letter {letter!r}")
    witnesses, idem = {}, set()

    def add(sig, witness):
        witnesses[sig] = witness
        if absorbs(ctx, sig, sig, late_states(sig)):
            idem.add(sig)
        if pair_cap is not None and len(witnesses) * len(idem) > pair_cap:
            raise ResourceCapError(
                f"{len(witnesses)} classes x {len(idem)} idempotents = "
                f"{len(witnesses) * len(idem)} pairs so far, over the pair cap {pair_cap}"
            )

    level = []  # (witness, signature) pairs of the current length
    generators = {q: signature_of((q,), ctx) for q in ctx.states}
    for q, sig in generators.items():
        if sig not in witnesses:
            add(sig, (q,))
            level.append(((q,), sig))
    if len(witnesses) > cap:
        raise _cap_exceeded(len(witnesses))
    while level:
        next_level = []
        for witness, sig in level:
            for q in ctx.states:
                if letter is not None and not ctx.has_edge(letter, witness[-1], q):
                    continue
                new_sig = product(ctx, sig, generators[q])
                if new_sig in witnesses:
                    continue
                if len(witnesses) >= cap:
                    raise _cap_exceeded(cap + 1)
                new_witness = witness + (q,)
                add(new_sig, new_witness)
                next_level.append((new_witness, new_sig))
        level = next_level
    d_q = max(len(w) for w in witnesses.values())
    return ClassTable(ctx, witnesses, frozenset(idem), d_q)


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


def build_UP(table: ClassTable) -> list:
    """The move vocabulary: lag . period^omega over class representatives.

    A pair of representatives (r, e) qualifies when e's class is idempotent
    and appending e does not change r's class, which ``absorbs`` decides in
    closed form.  Only idempotents ending where r's class ends can qualify,
    so each class is tried against that bucket alone.  Members come out in
    (class order, idempotent order).
    """
    ctx = table.ctx
    by_last = {}
    for e_sig in table.witnesses:
        if e_sig in table.idempotents:
            by_last.setdefault(e_sig.last, []).append(e_sig)
    members = []
    for sig, rep in table.witnesses.items():
        late = late_states(sig)
        for e_sig in by_last.get(sig.last, ()):
            if absorbs(ctx, sig, e_sig, late):
                members.append(UPMember(rep, table.witnesses[e_sig]))
    return members
