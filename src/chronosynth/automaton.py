"""Deterministic parity automata over a product alphabet.

States are hashable values (strings when read from files).  A word letter is
a pair ``(in_letter, out_letter)``.  Every automaton reads its priorities
max-even: a run is accepted when the greatest priority it sees infinitely
often is even.  A spec file may say ``min_even`` instead (the least one is
even), and the loader mirrors such a file's priorities once
(``mirrored_priority``), so nothing past it reads a convention.

Every automaton is its integer transition ``table``, and its one
constructor takes the table.  ``ParityAutomaton.from_transitions`` checks a
named ``transition`` dict into a table in one walk over the (state, in, out)
triples, as the jump-discipline monitor is built; the spec-file loader and
the product with a monitor build the table themselves.  A safety monitor is
an automaton too, whose states of odd priority are its rejecting sink.
``transition`` is a view of the table, named only when something first
reads it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from operator import add, itemgetter
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


def _check_fields(states, sigma_in, sigma_out, initial):
    """The checks that read no transition or priority: the alphabets, the initial state."""
    if not sigma_in or not sigma_out:
        raise AutomatonError("sigma_in and sigma_out must be nonempty")
    if initial not in states:
        raise AutomatonError("initial state not among states")


def _check_priority(priority, q):
    if q not in priority:
        raise AutomatonError(f"priority missing for state {q!r}")
    if priority[q] < 0:
        raise AutomatonError("priorities must be nonnegative")


@dataclass(frozen=True, kw_only=True)
class ParityAutomaton:
    """Complete deterministic parity automaton over Sigma_in x Sigma_out.

    ``table[(i * len(sigma_in) + x) * len(sigma_out) + y]`` is the index in
    ``states`` of the target of (states[i], sigma_in[x], sigma_out[y]); the
    caller checks that names are distinct and that every entry is an index.
    The fields are keyword-only, so a named dict passed where the table goes
    fails when the automaton is built.
    """

    states: tuple
    sigma_in: tuple
    sigma_out: tuple
    table: list
    initial: object
    priority: dict  # state -> nonnegative int, read max-even

    def __post_init__(self):
        _check_fields(self.states, self.sigma_in, self.sigma_out, self.initial)
        for q in self.states:
            _check_priority(self.priority, q)

    @classmethod
    def from_transitions(cls, states, sigma_in, sigma_out, transition, initial, priority):
        """The automaton of a named ``transition`` dict, (state, in, out) -> state,
        checked into the table in one walk over every triple."""
        states, sigma_in, sigma_out = tuple(states), tuple(sigma_in), tuple(sigma_out)
        _check_fields(states, sigma_in, sigma_out, initial)
        index = {q: i for i, q in enumerate(states)}
        table = []
        for q in states:
            _check_priority(priority, q)
            for a in sigma_in:
                for b in sigma_out:
                    tgt = transition.get((q, a, b))
                    if tgt is None:
                        raise AutomatonError(f"transition missing at ({q!r}, {a!r}, {b!r})")
                    if tgt not in index:
                        raise AutomatonError(f"transition target {tgt!r} not a state")
                    table.append(index[tgt])
        if len(index) < len(states) or len(set(sigma_in)) < len(sigma_in) or len(set(sigma_out)) < len(sigma_out):
            raise AutomatonError("states, sigma_in or sigma_out repeats an entry")
        if len(transition) > len(table):  # every triple is a key, so the rest lie outside
            triples = set(itertools.product(states, sigma_in, sigma_out))
            extra = next(key for key in transition if key not in triples)
            raise AutomatonError(f"transition key {extra!r} outside states x sigma_in x sigma_out")
        return cls(states=states, sigma_in=sigma_in, sigma_out=sigma_out, table=table,
                   initial=initial, priority=priority)

    @cached_property
    def transition(self) -> dict:
        """(state, in_letter, out_letter) -> state, named from ``table`` when first read."""
        keys = itertools.product(self.states, self.sigma_in, self.sigma_out)
        return dict(zip(keys, map(self.states.__getitem__, self.table)))

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
    return max(a.priority[q] for q in inf_set(run_over(a, word))) % 2 == 0


def mirrored_priority(a: ParityAutomaton) -> dict:
    """M - p for each state's p, M the top priority rounded up to even: read
    max-even, the language that ``a``'s priorities give read min-even (min and
    max swap, parity kept)."""
    m = a.max_priority()
    m += m % 2
    return {q: m - a.priority[q] for q in a.states}


def _sink_priority(priorities) -> int:
    """The least odd priority at or above all given: an added sink's, so a run caught there is rejected."""
    return max(priorities, default=0) | 1


def product_with_monitor(a: ParityAutomaton, m: ParityAutomaton) -> ParityAutomaton:
    """Product with a safety monitor; entering a monitor state of odd priority fixes the verdict.

    Such sink states receive the least odd priority at or above every other,
    so a word that violates the monitored discipline is rejected.  The two
    tables are composed row by row: state (a.states[i], m.states[j]) is
    number i * len(m.states) + j.
    """
    if (m.sigma_in, m.sigma_out) != (a.sigma_in, a.sigma_out):
        raise AlphabetMismatchError("monitor alphabets are not the automaton's, in its order")
    size, width = len(m.states), len(a.sigma_in) * len(a.sigma_out)
    m_rows = [m.table[j * width:(j + 1) * width] for j in range(size)]
    table = []
    for i in range(len(a.states)):
        row = [t * size for t in a.table[i * width:(i + 1) * width]]
        for m_row in m_rows:
            table += map(add, row, m_row)
    sink_prio = _sink_priority(a.priority[q] for q in a.states)
    states = tuple(itertools.product(a.states, m.states))
    priority = {q: sink_prio if m.priority[q[1]] % 2 else a.priority[q[0]] for q in states}
    return ParityAutomaton(
        states=states, sigma_in=a.sigma_in, sigma_out=a.sigma_out, table=table,
        initial=(a.initial, m.initial), priority=priority,
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
    convention, transitions (list of {from, in, out, to}).  An added sink
    loses under the file's convention (1 under ``min_even``, the default);
    then a ``min_even`` file's priorities, the sink's included, are mirrored
    to max-even.
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
        priority[SINK] = 1 if convention == MIN_EVEN else _sink_priority(priority.values())
        table += [sink] * width
    initial = data["initial"]
    # the convention is checked after the alphabets and before the initial state and priorities
    if sigma_in and sigma_out and convention not in CONVENTIONS:
        raise AutomatonError(f"unknown convention {convention!r}")
    a = ParityAutomaton(
        states=tuple(states), sigma_in=sigma_in, sigma_out=sigma_out, table=table,
        initial=initial, priority=priority,
    )
    return a if convention == MAX_EVEN else replace(a, priority=mirrored_priority(a))


def state_name(q) -> str:
    """A state as exported: strings as they are, anything else by repr."""
    return q if isinstance(q, str) else repr(q)


def dot_quote(text) -> str:
    """``text`` as a quoted DOT string, with backslashes and double quotes escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def load_automaton(path) -> ParityAutomaton:
    with open(path, "r", encoding="utf-8") as fh:
        return automaton_from_json(fh.read())
