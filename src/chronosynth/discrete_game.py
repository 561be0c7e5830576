"""Discrete-time synthesis on parity automata.

The synthesis game alternates input and output letters inside one time
step: from position ('i', q) the input player picks a, from ('o', q, a) the
output player answers b, and the automaton advances to d(q, (a, b)).  The
output player wins a play iff the traversed state sequence is accepted.
Solving is by recursive attractor decomposition with positional strategy
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import MAX_EVEN, ParityAutomaton, convert_convention
from .omega_word import LassoWord


class GameError(Exception):
    pass


@dataclass(frozen=True)
class GameGraph:
    """Finite parity game: max priority seen infinitely often decides.

    owner maps node -> 'O' | 'I'; the 'O' player wants the maximum
    infinitely recurring priority even.  Successor tuples are ordered; all
    tie-breaking follows that order.
    """

    owner: dict
    priority: dict
    succ: dict

    def nodes(self):
        return self.owner.keys()

    def check(self):
        for v in self.owner:
            if not self.succ.get(v):
                raise GameError(f"node {v!r} has no successor (games must be total)")


def game_from_automaton(a: ParityAutomaton) -> GameGraph:
    a = convert_convention(a, MAX_EVEN)
    owner, priority, succ = {}, {}, {}
    for q in a.states:
        iv = ("i", q)
        owner[iv] = "I"
        priority[iv] = a.priority[q]
        succ[iv] = tuple(("o", q, x) for x in a.sigma_in)
        for x in a.sigma_in:
            ov = ("o", q, x)
            owner[ov] = "O"
            priority[ov] = a.priority[q]
            succ[ov] = tuple(("i", a.transition[(q, x, b)]) for b in a.sigma_out)
    return GameGraph(owner, priority, succ)


def _attractor(g: GameGraph, region, target, player):
    """Player-forced reachability of target inside region, with strategy."""
    region = set(region)
    attr = set(target) & region
    strategy = {}
    preds = {v: [] for v in region}
    for v in region:
        for w in g.succ[v]:
            if w in region:
                preds[w].append(v)
    out_count = {
        v: sum(1 for w in g.succ[v] if w in region) for v in region
    }
    frontier = sorted(attr)
    while frontier:
        new_frontier = []
        for w in frontier:
            for v in preds[w]:
                if v in attr:
                    continue
                if g.owner[v] == player:
                    attr.add(v)
                    if v not in strategy:
                        strategy[v] = w
                    new_frontier.append(v)
                else:
                    out_count[v] -= 1
                    if out_count[v] == 0:
                        attr.add(v)
                        new_frontier.append(v)
        frontier = sorted(new_frontier)
    return attr, strategy


def zielonka(g: GameGraph):
    """Winning regions and positional strategies for both players."""
    g.check()

    def solve(region):
        region = set(region)
        if not region:
            return set(), set(), {}, {}
        p = max(g.priority[v] for v in region)
        player = "O" if p % 2 == 0 else "I"
        other = "I" if player == "O" else "O"
        top = sorted(v for v in region if g.priority[v] == p)
        attr, attr_strat = _attractor(g, region, top, player)
        rest = region - attr
        w_o, w_i, s_o, s_i = solve(rest)
        w_player, s_player = (w_o, s_o) if player == "O" else (w_i, s_i)
        w_other, s_other = (w_i, s_i) if player == "O" else (w_o, s_o)
        if not w_other:
            # player wins everywhere: attractor strategy on attr, plus an
            # arbitrary region-internal edge on top nodes owned by player
            strat = dict(s_player)
            strat.update(attr_strat)
            for v in sorted(attr):
                if g.owner[v] == player and v not in strat:
                    for w in g.succ[v]:
                        if w in region:
                            strat[v] = w
                            break
            full = region
            if player == "O":
                return full, set(), strat, {}
            return set(), full, {}, strat
        b, b_strat = _attractor(g, region, w_other, other)
        w_o2, w_i2, s_o2, s_i2 = solve(region - b)
        if other == "O":
            strat_other = dict(s_o2)
            strat_other.update(s_other)
            strat_other.update(b_strat)
            return w_o2 | b, w_i2, strat_other, s_i2
        strat_other = dict(s_i2)
        strat_other.update(s_other)
        strat_other.update(b_strat)
        return w_o2, w_i2 | b, s_o2, strat_other

    w_o, w_i, s_o, s_i = solve(set(g.nodes()))
    # complete strategies inside the winning regions (attractor-internal
    # top nodes may still be unassigned after unions)
    for player, region, strat in (("O", w_o, s_o), ("I", w_i, s_i)):
        for v in sorted(region):
            if g.owner[v] == player and v not in strat:
                for w in g.succ[v]:
                    if w in region:
                        strat[v] = w
                        break
    return w_o, w_i, s_o, s_i


@dataclass(frozen=True)
class MealyMachine:
    """Finite-state causal implementation: reads a, emits b, steps."""

    states: tuple
    initial: object
    transition: dict  # (state, in_letter) -> (state, out_letter)

    def react(self, q, a):
        try:
            return self.transition[(q, a)]
        except KeyError:
            raise GameError(f"mealy machine has no move at ({q!r}, {a!r})")


@dataclass(frozen=True)
class MooreCounterMachine:
    """Strongly causal counter: emits an input letter before reading."""

    states: tuple
    initial: object
    output: dict  # state -> in_letter
    transition: dict  # (state, out_letter) -> state

    def emit(self, q):
        return self.output[q]

    def advance(self, q, b):
        try:
            return self.transition[(q, b)]
        except KeyError:
            raise GameError(f"counter machine has no move at ({q!r}, {b!r})")


@dataclass(frozen=True)
class SolveResult:
    winner: str  # 'output' | 'input'
    mealy: MealyMachine | None
    counter: MooreCounterMachine | None
    input_region: frozenset  # game nodes the input player wins


def solve(a: ParityAutomaton) -> SolveResult:
    """Determined one-side-or-the-other decision with a winning machine.

    Output player wins: the Mealy machine implements the specification on
    every input word.  Input player wins: the Moore counter machine defeats
    every output word.  Exactly one side is returned.
    """
    canonical = convert_convention(a, MAX_EVEN)
    g = game_from_automaton(canonical)
    w_o, w_i, s_o, s_i = zielonka(g)
    start = ("i", canonical.initial)
    if start in w_o:
        transition = {}
        reachable = [canonical.initial]
        seen = {canonical.initial}
        while reachable:
            q = reachable.pop()
            for x in canonical.sigma_in:
                target = s_o[("o", q, x)]
                q_next = target[1]
                b = min(
                    b
                    for b in canonical.sigma_out
                    if canonical.transition[(q, x, b)] == q_next
                )
                transition[(q, x)] = (q_next, b)
                if q_next not in seen:
                    seen.add(q_next)
                    reachable.append(q_next)
        return SolveResult(
            "output",
            MealyMachine(tuple(sorted(seen, key=repr)), canonical.initial, transition),
            None,
            frozenset(w_i),
        )
    output, transition = {}, {}
    reachable = [canonical.initial]
    seen = {canonical.initial}
    while reachable:
        q = reachable.pop()
        x = s_i[("i", q)][2]
        output[q] = x
        for b in canonical.sigma_out:
            q_next = canonical.transition[(q, x, b)]
            transition[(q, b)] = q_next
            if q_next not in seen:
                seen.add(q_next)
                reachable.append(q_next)
    return SolveResult(
        "input",
        None,
        MooreCounterMachine(tuple(sorted(seen, key=repr)), canonical.initial, output, transition),
        frozenset(w_i),
    )


def run_machine(m: MealyMachine, word: LassoWord) -> LassoWord:
    """Output lasso of the machine on an input lasso of in-letters."""
    outputs = []
    q = m.initial
    for a in word.prefix:
        q, b = m.react(q, a)
        outputs.append(b)
    seen = {(q, 0): len(outputs)}
    while True:
        for a in word.period:
            q, b = m.react(q, a)
            outputs.append(b)
        key = (q, 0)
        if key in seen:
            start = seen[key]
            return LassoWord(tuple(outputs[:start]), tuple(outputs[start:]))
        seen[key] = len(outputs)


def run_counter_machine(m: MooreCounterMachine, word: LassoWord) -> LassoWord:
    """Input lasso emitted by the counter against an output lasso."""
    emitted = []
    q = m.initial
    for b in word.prefix:
        emitted.append(m.emit(q))
        q = m.advance(q, b)
    seen = {(q, 0): len(emitted)}
    while True:
        for b in word.period:
            emitted.append(m.emit(q))
            q = m.advance(q, b)
        key = (q, 0)
        if key in seen:
            start = seen[key]
            return LassoWord(tuple(emitted[:start]), tuple(emitted[start:]))
        seen[key] = len(emitted)


# -- serialization ---------------------------------------------------------


def machine_to_json(m) -> dict:
    def name(q):
        return q if isinstance(q, str) else repr(q)

    if isinstance(m, MealyMachine):
        return {
            "kind": "mealy",
            "states": [name(q) for q in m.states],
            "initial": name(m.initial),
            "transitions": sorted(
                (
                    {"from": name(q), "in": a, "out": b, "to": name(t)}
                    for (q, a), (t, b) in m.transition.items()
                ),
                key=lambda e: (e["from"], e["in"]),
            ),
        }
    if isinstance(m, MooreCounterMachine):
        return {
            "kind": "moore_counter",
            "states": [name(q) for q in m.states],
            "initial": name(m.initial),
            "output": {name(q): m.output[q] for q in m.states},
            "transitions": sorted(
                (
                    {"from": name(q), "out": b, "to": name(t)}
                    for (q, b), t in m.transition.items()
                ),
                key=lambda e: (e["from"], e["out"]),
            ),
        }
    raise GameError(f"cannot serialize {type(m).__name__}")


def machine_to_dot(m) -> str:
    def name(q):
        return q if isinstance(q, str) else repr(q)

    lines = ["digraph machine {", '  rankdir="LR";']
    lines.append(f'  __start [shape=point]; __start -> "{name(m.initial)}";')
    if isinstance(m, MealyMachine):
        for q in m.states:
            lines.append(f'  "{name(q)}" [shape=circle];')
        for (q, a), (t, b) in sorted(m.transition.items(), key=lambda kv: (repr(kv[0]))):
            lines.append(f'  "{name(q)}" -> "{name(t)}" [label="{a}/{b}"];')
    else:
        for q in m.states:
            lines.append(f'  "{name(q)}" [shape=box, label="{name(q)}|{m.output[q]}"];')
        for (q, b), t in sorted(m.transition.items(), key=lambda kv: (repr(kv[0]))):
            lines.append(f'  "{name(q)}" -> "{name(t)}" [label="{b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
