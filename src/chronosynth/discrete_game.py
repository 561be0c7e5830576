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

from .automaton import MAX_EVEN, ParityAutomaton, convert_convention, state_name
from .omega_word import LassoWord, transduce


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


def _complete(g: GameGraph, player, strat, nodes, region):
    """Give each of player's nodes without a move its first successor in region."""
    for v in sorted(nodes):
        if g.owner[v] == player and v not in strat:
            for w in g.succ[v]:
                if w in region:
                    strat[v] = w
                    break


def zielonka(g: GameGraph):
    """Winning regions and positional strategies for both players."""
    g.check()

    def solve(region):
        """Per-player winning regions and strategies on the subgame region."""
        if not region:
            return {"O": set(), "I": set()}, {"O": {}, "I": {}}
        p = max(g.priority[v] for v in region)
        player = "O" if p % 2 == 0 else "I"
        other = "I" if player == "O" else "O"
        top = sorted(v for v in region if g.priority[v] == p)
        attr, attr_strat = _attractor(g, region, top, player)
        win, strat = solve(region - attr)
        if not win[other]:
            # player wins everywhere: attractor strategy on attr, plus an
            # arbitrary region-internal edge on top nodes owned by player
            mine = {**strat[player], **attr_strat}
            _complete(g, player, mine, attr, region)
            return {player: region, other: set()}, {player: mine, other: {}}
        b, b_strat = _attractor(g, region, win[other], other)
        win2, strat2 = solve(region - b)
        win2[other] = win2[other] | b
        strat2[other] = {**strat2[other], **strat[other], **b_strat}
        return win2, strat2

    # each solve gives a player a move at every node it owns in its winning
    # region (from a subgame, an attractor or _complete), so no final pass
    win, strat = solve(set(g.nodes()))
    return win["O"], win["I"], strat["O"], strat["I"]


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

    def walk(successors):
        """States reachable from the initial one; successors(q) records q's moves."""
        seen, todo = {canonical.initial}, [canonical.initial]
        while todo:
            for q_next in successors(todo.pop()):
                if q_next not in seen:
                    seen.add(q_next)
                    todo.append(q_next)
        return tuple(sorted(seen, key=repr))

    if ("i", canonical.initial) in w_o:
        transition = {}

        def respond(q):
            for x in canonical.sigma_in:
                q_next = s_o[("o", q, x)][1]
                b = min(
                    b
                    for b in canonical.sigma_out
                    if canonical.transition[(q, x, b)] == q_next
                )
                transition[(q, x)] = (q_next, b)
                yield q_next

        machine = MealyMachine(walk(respond), canonical.initial, transition)
        return SolveResult("output", machine, None, frozenset(w_i))
    output, transition = {}, {}

    def challenge(q):
        x = output[q] = s_i[("i", q)][2]
        for b in canonical.sigma_out:
            q_next = transition[(q, b)] = canonical.transition[(q, x, b)]
            yield q_next

    machine = MooreCounterMachine(walk(challenge), canonical.initial, output, transition)
    return SolveResult("input", None, machine, frozenset(w_i))


def run_machine(m: MealyMachine, word: LassoWord) -> LassoWord:
    """Output lasso of the machine on an input lasso of in-letters."""
    return transduce(m.react, m.initial, word)


def run_counter_machine(m: MooreCounterMachine, word: LassoWord) -> LassoWord:
    """Input lasso emitted by the counter against an output lasso."""
    return transduce(lambda q, b: (m.advance(q, b), m.emit(q)), m.initial, word)


# -- serialization ---------------------------------------------------------


def machine_to_json(m) -> dict:
    if isinstance(m, MealyMachine):
        return {
            "kind": "mealy",
            "states": [state_name(q) for q in m.states],
            "initial": state_name(m.initial),
            "transitions": sorted(
                (
                    {"from": state_name(q), "in": a, "out": b, "to": state_name(t)}
                    for (q, a), (t, b) in m.transition.items()
                ),
                key=lambda e: (e["from"], e["in"]),
            ),
        }
    if isinstance(m, MooreCounterMachine):
        return {
            "kind": "moore_counter",
            "states": [state_name(q) for q in m.states],
            "initial": state_name(m.initial),
            "output": {state_name(q): m.output[q] for q in m.states},
            "transitions": sorted(
                (
                    {"from": state_name(q), "out": b, "to": state_name(t)}
                    for (q, b), t in m.transition.items()
                ),
                key=lambda e: (e["from"], e["out"]),
            ),
        }
    raise GameError(f"cannot serialize {type(m).__name__}")


def machine_to_dot(m) -> str:
    lines = ["digraph machine {", '  rankdir="LR";']
    lines.append(f'  __start [shape=point]; __start -> "{state_name(m.initial)}";')
    if isinstance(m, MealyMachine):
        for q in m.states:
            lines.append(f'  "{state_name(q)}" [shape=circle];')
        for (q, a), (t, b) in sorted(m.transition.items(), key=lambda kv: (repr(kv[0]))):
            lines.append(f'  "{state_name(q)}" -> "{state_name(t)}" [label="{a}/{b}"];')
    else:
        for q in m.states:
            lines.append(f'  "{state_name(q)}" [shape=box, label="{state_name(q)}|{m.output[q]}"];')
        for (q, b), t in sorted(m.transition.items(), key=lambda kv: (repr(kv[0]))):
            lines.append(f'  "{state_name(q)}" -> "{state_name(t)}" [label="{b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
