"""Deterministic parity automata over a product alphabet.

States are hashable values (strings when read from files).  A word letter is
a pair ``(in_letter, out_letter)``.  Two acceptance conventions coexist:
``min_even`` (minimum priority seen infinitely often is even) and
``max_even``; the game pipeline normalizes to ``max_even`` at ingestion.

Every automaton is its integer transition ``table``.  The constructor checks
a named ``transition`` dict into the table in one walk over the (state, in,
out) triples.  The spec-file loader, the product with a safety monitor and
the convention change start from a checked table instead and go through
``ParityAutomaton._from_table``; such an automaton names ``transition`` from
its table only when something first reads it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import add, itemgetter
from typing import NamedTuple
from .omega_word import LassoWord, inf_set, transduce

SINK = "__sink__"
LASSO_SYNTAX = frozenset("()^")

MIN_EVEN = "min_even"
MAX_EVEN = "max_even"
CONVENTIONS = (MIN_EVEN, MAX_EVEN)


class AutomatonError(Exception):
    pass


class InputDomainError(AutomatonError):
    """A letter fell outside the automaton alphabet."""


class AlphabetMismatchError(AutomatonError):
    pass


@dataclass(frozen=True, eq=True)
class ParityAutomaton:
    """Complete deterministic parity automaton over Sigma_in x Sigma_out.

    ``table[(i * len(sigma_in) + x) * len(sigma_out) + y]`` is the index in
    ``states`` of the target of (states[i], sigma_in[x], sigma_out[y]).
    """

    states: tuple
    sigma_in: tuple
    sigma_out: tuple
    transition: dict  # (state, in_letter, out_letter) -> state
    initial: object
    priority: dict  # state -> nonnegative int
    convention: str = MIN_EVEN

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "sigma_in", tuple(self.sigma_in))
        object.__setattr__(self, "sigma_out", tuple(self.sigma_out))
        self._check_fields()
        index = {q: i for i, q in enumerate(self.states)}
        table = []
        for q in self.states:
            self._check_priority(q)
            for a in self.sigma_in:
                for b in self.sigma_out:
                    tgt = self.transition.get((q, a, b))
                    if tgt is None:
                        raise AutomatonError(f"transition missing at ({q!r}, {a!r}, {b!r})")
                    if tgt not in index:
                        raise AutomatonError(f"transition target {tgt!r} not a state")
                    table.append(index[tgt])
        if len(index) < len(self.states) or len(set(self.sigma_in)) < len(self.sigma_in) \
                or len(set(self.sigma_out)) < len(self.sigma_out):
            raise AutomatonError("states, sigma_in or sigma_out repeats an entry")
        if len(self.transition) > len(table):  # every triple is a key, so the rest lie outside
            triples = set(itertools.product(self.states, self.sigma_in, self.sigma_out))
            extra = next(key for key in self.transition if key not in triples)
            raise AutomatonError(f"transition key {extra!r} outside states x sigma_in x sigma_out")
        object.__setattr__(self, "table", table)

    def _check_fields(self):
        """The checks that read no transition: the alphabets, the convention, the initial state."""
        if not self.sigma_in or not self.sigma_out:
            raise AutomatonError("sigma_in and sigma_out must be nonempty")
        if self.convention not in CONVENTIONS:
            raise AutomatonError(f"unknown convention {self.convention!r}")
        if self.initial not in self.states:
            raise AutomatonError("initial state not among states")

    def _check_priority(self, q):
        if q not in self.priority:
            raise AutomatonError(f"priority missing for state {q!r}")
        if self.priority[q] < 0:
            raise AutomatonError("priorities must be nonnegative")

    @classmethod
    def _from_table(cls, states, sigma_in, sigma_out, table, initial, priority, convention):
        """The automaton of a table whose entries the caller has checked: distinct
        names, every target an index into ``states``.  The field checks run, then
        each state's priority check, in ``__post_init__``'s order; ``transition``
        is named from the table when it is first read."""
        self = object.__new__(cls)
        self.__dict__.update(  # frozen, so set past __setattr__
            states=states, sigma_in=sigma_in, sigma_out=sigma_out, table=table,
            initial=initial, priority=priority, convention=convention,
        )
        self._check_fields()
        for q in states:
            self._check_priority(q)
        return self

    def __getattr__(self, name):
        """Name ``transition`` of an automaton built by ``_from_table`` on first read."""
        if name != "transition":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        keys = itertools.product(self.states, self.sigma_in, self.sigma_out)
        named = self.__dict__["transition"] = dict(zip(keys, map(self.states.__getitem__, self.table)))
        return named

    def step(self, q, a, b):
        try:
            return self.transition[(q, a, b)]
        except KeyError:
            raise InputDomainError(f"letter ({a!r}, {b!r}) outside alphabet at state {q!r}")

    def max_priority(self) -> int:
        return max(self.priority[q] for q in self.states)

    def edge_relations(self) -> dict:
        """Per input letter a, the relation E_a(q, q') = exists b with d(q,(a,b)) = q', read off ``table``."""
        states, table, width = self.states, self.table, len(self.sigma_out)
        cells = len(self.sigma_in) * width  # the table's slots per state
        rels = {}
        for x, a in enumerate(self.sigma_in):
            starts = range(x * width, len(table), cells)  # (q, a)'s slots start at each state's row
            rels[a] = frozenset((q, states[t]) for q, s in zip(states, starts) for t in table[s:s + width])
        return rels


def run_over(a: ParityAutomaton, word: LassoWord) -> LassoWord:
    """The unique run of the automaton over a lasso of (in, out) letters.

    Returned as a lasso over states starting from the initial state: each
    step emits the state it leaves.  The state at period boundaries repeats
    within |states| + 1 pumpings, which closes the run lasso.
    """
    for i in range(len(word.prefix) + len(word.period)):
        letter = word.letter_at(i)
        if not (isinstance(letter, tuple) and len(letter) == 2):
            raise InputDomainError(f"word letter {letter!r} is not an (in, out) pair")
        ain, aout = letter
        if ain not in a.sigma_in or aout not in a.sigma_out:
            raise InputDomainError(f"letter ({ain!r}, {aout!r}) outside alphabet")

    return transduce(lambda q, letter: (a.step(q, *letter), q), a.initial, word)


def accepts(a: ParityAutomaton, word: LassoWord) -> bool:
    run = run_over(a, word)
    inf = inf_set(run)
    prios = [a.priority[q] for q in inf]
    if a.convention == MIN_EVEN:
        return min(prios) % 2 == 0
    return max(prios) % 2 == 0


def mirrored_priority(a: ParityAutomaton) -> dict:
    """M - p for each state's p, M the top priority rounded up to even: the
    same language under the other convention (min and max swap, parity kept)."""
    m = a.max_priority()
    m += m % 2
    return {q: m - a.priority[q] for q in a.states}


def convert_convention(a: ParityAutomaton, target: str) -> ParityAutomaton:
    """Language-preserving priority remap between min-even and max-even."""
    if target not in CONVENTIONS:
        raise AutomatonError(f"unknown convention {target!r}")
    if a.convention == target:
        return a
    return ParityAutomaton._from_table(
        a.states, a.sigma_in, a.sigma_out, a.table, a.initial, mirrored_priority(a), target
    )


class SafetyMonitor(NamedTuple):
    """Deterministic safety automaton with an absorbing rejecting sink."""

    states: tuple
    initial: object
    sink: object
    transition: dict  # (state, in_letter, out_letter) -> state

    def step(self, q, a, b):
        try:
            return self.transition[(q, a, b)]
        except KeyError:
            raise AlphabetMismatchError(f"monitor has no transition at ({q!r}, {a!r}, {b!r})")


def _worst_priority(convention, priorities) -> int:
    """Losing priority for an added sink: 1 under min_even, else the least odd one >= all given."""
    if convention != MAX_EVEN:
        return 1
    m = max(priorities, default=0)
    return m if m % 2 == 1 else m + 1


def product_with_monitor(a: ParityAutomaton, m: SafetyMonitor) -> ParityAutomaton:
    """Product automaton; entering the monitor sink fixes the verdict.

    Sink states receive the worst (losing-for-acceptance) priority, so a
    word that violates the monitored discipline is rejected.  State
    (a.states[i], m.states[j]) is number i * len(m.states) + j.  A faulty
    monitor raises what the named product's constructor would.
    """
    keys = itertools.product(m.states, a.sigma_in, a.sigma_out)
    targets = list(itertools.starmap(m.step, keys))
    if m.initial not in m.states:
        raise AutomatonError("initial state not among states")
    index = {q: j for j, q in enumerate(m.states)}
    size, width = len(m.states), len(a.sigma_in) * len(a.sigma_out)
    for k, tgt in enumerate(targets):
        if tgt not in index:  # named as the product's first row names it
            raise AutomatonError(f"transition target {(a.states[a.table[k % width]], tgt)!r} not a state")
    m_table = list(map(index.__getitem__, targets))
    m_rows = [m_table[j * width:(j + 1) * width] for j in range(size)]
    table = []
    for i in range(len(a.states)):
        row = [t * size for t in a.table[i * width:(i + 1) * width]]
        for m_row in m_rows:
            table += map(add, row, m_row)
    sink_prio = _worst_priority(a.convention, (a.priority[q] for q in a.states))
    states = tuple(itertools.product(a.states, m.states))
    priority = {q: sink_prio if q[1] == m.sink else a.priority[q[0]] for q in states}
    return ParityAutomaton._from_table(
        states, a.sigma_in, a.sigma_out, table, (a.initial, m.initial), priority, a.convention
    )


def _array(data, key) -> tuple:
    """The entries of the JSON array ``data[key]``."""
    values = data[key]
    if not isinstance(values, list):
        raise AutomatonError(f"{key} is not a JSON array: {values!r}")
    return tuple(values)


def automaton_from_json(data) -> ParityAutomaton:
    """Load the file format; missing transitions complete to the sink.

    Expected fields: states, sigma_in, sigma_out, initial, priority,
    convention, transitions (list of {from, in, out, to}).
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    names = {key: _array(data, key) for key in ("states", "sigma_in", "sigma_out")}
    for key, values in names.items():
        for name in values:
            if not isinstance(name, str):
                raise AutomatonError(f"{key} entry {name!r} is not a string")
            # a letter is one word: lassos and play commands are split into letters
            if key != "states" and name.split() != [name]:
                raise AutomatonError(f"{key} entry {name!r} is empty or contains whitespace")
            # and a lasso u(v)^w is split at its first '(' and its last ')^w'
            if key != "states" and not LASSO_SYNTAX.isdisjoint(name):
                raise AutomatonError(f"{key} entry {name!r} contains one of ( ) ^")
        if len(set(values)) < len(values):
            raise AutomatonError(f"{key} repeats an entry: {list(values)!r}")
    states, sigma_in, sigma_out = list(names["states"]), names["sigma_in"], names["sigma_out"]
    convention = data.get("convention", MIN_EVEN)
    index = {q: i for i, q in enumerate(states)}
    priority = {}
    for q, p in data["priority"].items():
        if q not in index:
            raise AutomatonError(f"priority of undeclared state {q!r}")
        if isinstance(p, bool) or not isinstance(p, int):
            raise AutomatonError(f"priority of {q!r} is not an integer: {p!r}")
        priority[q] = p

    # (state, in, out) is slot row[state] + cell[in] + column[out] of the table
    n, width = len(states), len(sigma_in) * len(sigma_out)
    row = {q: i * width for i, q in enumerate(states)}
    cell = {a: x * len(sigma_out) for x, a in enumerate(sigma_in)}
    column = {b: y for y, b in enumerate(sigma_out)}
    table = [None] * (n * width)
    sink = index.get(SINK, n)  # an undeclared sink is added as state n if a slot needs it
    referenced_sink, undeclared = False, []
    fields = itemgetter("from", "in", "out", "to")
    entries = data["transitions"]
    if not isinstance(entries, list):  # any iterable, counted below
        entries = list(entries)
    for entry in entries:
        q, ain, aout, tgt = fields(entry)
        # names are str, so a lookup that fails (an unhashable value too) is undeclared
        try:
            slot = row[q]
        except (KeyError, TypeError):
            raise AutomatonError(f"transition from undeclared state {q!r}") from None
        try:
            slot += cell[ain] + column[aout]
        except (KeyError, TypeError):
            raise AutomatonError(f"transition letter ({ain!r}, {aout!r}) undeclared") from None
        if table[slot] is not None:
            raise AutomatonError(f"duplicate transition at {(q, ain, aout)!r}")
        try:
            table[slot] = index[tgt]
        except (KeyError, TypeError):  # targets are checked once every entry is read
            table[slot] = sink
            if tgt == SINK:
                referenced_sink = True
            else:
                undeclared.append(tgt)
    if undeclared:
        raise AutomatonError(f"transition target {undeclared[0]!r} undeclared")
    incomplete = len(entries) < len(table)  # each entry filled its own slot
    if incomplete:
        table = [sink if t is None else t for t in table]
    if sink == n and (referenced_sink or incomplete):
        states.append(SINK)
        priority[SINK] = _worst_priority(convention, priority.values())
        table += [sink] * width
    initial = data["initial"]
    return ParityAutomaton._from_table(
        tuple(states), sigma_in, sigma_out, table, initial, priority, convention
    )


def state_name(q) -> str:
    """A state as exported: strings as they are, anything else by repr."""
    return q if isinstance(q, str) else repr(q)


def dot_quote(text) -> str:
    """``text`` as a quoted DOT string, with backslashes and double quotes escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def load_automaton(path) -> ParityAutomaton:
    with open(path, "r", encoding="utf-8") as fh:
        return automaton_from_json(fh.read())
