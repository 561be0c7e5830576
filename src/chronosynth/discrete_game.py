"""Discrete-time synthesis on parity automata.

The synthesis game alternates input and output letters inside one time
step: from position ('i', q) the input player picks a, from ('o', q, a) the
output player answers b, and the automaton advances to d(q, (a, b)).  The
output player wins a play iff the traversed state sequence is accepted.
``solve`` builds this game straight from the spec as integer lists and
solves it with ``solve_indexed``, attractor decomposition (Zielonka) on nodes
0..n-1 with positional strategy extraction, the package's one game solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import MAX_EVEN, ParityAutomaton, convert_convention, dot_quote, state_name
from .omega_word import LassoWord, transduce


class GameError(Exception):
    pass


def solve_indexed(succ, owner, priority):
    """Winning regions and positional strategies of the game on nodes 0..n-1.

    ``succ[v]`` lists v's successors (ties go to the first),
    ``owner[v]`` is 'O' or 'I' and ``priority[v]`` its priority; 'O' wants
    the top priority seen infinitely often even.  The caller must give every
    node a successor, list each successor once and use only ids 0..n-1;
    nothing here checks it.  Returns the node lists of
    'O' and 'I' and their strategies as node -> node dicts.  Every sorted
    list of numbers below visits nodes in number order.  A region is a sorted
    list of numbers together with a bytearray marking its members.  Only the
    first recursive call of the attractor decomposition recurses, on a
    subgame without the top priority, so the depth is at most the number of
    distinct priorities plus one.
    """
    n = len(succ)
    # pred[w] lists each predecessor once
    pred = [[] for _ in range(n)]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)

    def attractor(inside, target, player):
        """player-forced reachability of target (sorted, inside the region).

        Returns the membership of the region minus the attractor, the
        attractor's nodes and player's moves towards target.
        """
        rest = bytearray(inside)
        for v in target:
            rest[v] = 0
        attr, strategy, count = list(target), {}, {}
        frontier = target
        while frontier:
            new_frontier = []
            for w in frontier:
                for v in pred[w]:
                    if not rest[v]:
                        continue
                    if owner[v] == player:
                        rest[v] = 0
                        strategy[v] = w
                        new_frontier.append(v)
                        continue
                    c = count.get(v)
                    if c is None:
                        c = sum(map(inside.__getitem__, succ[v]))
                    if c == 1:
                        rest[v] = 0
                        new_frontier.append(v)
                    else:
                        count[v] = c - 1
            new_frontier.sort()
            attr += new_frontier
            frontier = new_frontier
        return rest, attr, strategy

    def complete(player, strat, region_nodes, inside):
        """Give each of player's nodes without a move its first successor in the region."""
        for v in sorted(region_nodes):
            if owner[v] == player and v not in strat:
                for w in succ[v]:
                    if inside[w]:
                        strat[v] = w
                        break

    def solve(inside, region):
        """Per-player winning regions and strategies on the subgame region.

        Each pass that the opponent of the top priority's player wins part
        of peels that part's attractor off and goes on with the rest; the
        peeled parts join the opponent's region and strategy on the way out.
        """
        peeled = []
        while True:
            if not region:
                win, strat = {"O": [], "I": []}, {"O": {}, "I": {}}
                break
            p = max(priority[v] for v in region)
            player = "O" if p % 2 == 0 else "I"
            other = "I" if player == "O" else "O"
            top = [v for v in region if priority[v] == p]
            rest, attr, attr_strat = attractor(inside, top, player)
            win, strat = solve(rest, [v for v in region if rest[v]])
            if not win[other]:
                # player wins everywhere: attractor strategy on attr, plus an
                # arbitrary region-internal edge on top nodes owned by player
                mine = {**strat[player], **attr_strat}
                complete(player, mine, attr, inside)
                win, strat = {player: region, other: []}, {player: mine, other: {}}
                break
            rest, b, b_strat = attractor(inside, sorted(win[other]), other)
            peeled.append((other, b, strat[other], b_strat))
            inside, region = rest, [v for v in region if rest[v]]
        for other, b, s, b_strat in reversed(peeled):
            win[other] = win[other] + b
            strat[other] = {**strat[other], **s, **b_strat}
        return win, strat

    # each solve gives a player a move at every node it owns in its winning
    # region (from a subgame, an attractor or complete), so no final pass
    win, strat = solve(bytearray(b"\x01") * n, list(range(n)))
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
    priority = convert_convention(a, MAX_EVEN).priority
    states, letters = sorted(a.states), sorted(a.sigma_in)
    n, k = len(states), len(letters)
    rank = {q: i for i, q in enumerate(states)}
    x_rank = {x: i for i, x in enumerate(letters)}
    # ('i', q) is node rank(q) and ('o', q, x) node n + rank(q)*k + rank(x),
    # their ranks among all nodes in sorted order; successors follow the
    # alphabets' order, as the named game lists them
    in_order = [x_rank[x] for x in a.sigma_in]
    succ = [[base + j for j in in_order] for base in range(n, n + n * k, k)]
    for q in states:
        for x in letters:
            succ.append(list(dict.fromkeys([rank[a.transition[(q, x, b)]] for b in a.sigma_out])))
    state_priority = [priority[q] for q in states]
    w_o, w_i, s_o, s_i = solve_indexed(
        succ,
        ["I"] * n + ["O"] * (n * k),
        state_priority + [p for p in state_priority for _ in range(k)],
    )

    def node(v):
        if v < n:
            return ("i", states[v])
        r, j = divmod(v - n, k)
        return ("o", states[r], letters[j])

    input_region = frozenset(map(node, w_i))

    def walk(successors):
        """States reachable from the initial one; successors(q) records q's moves."""
        seen, todo = {a.initial}, [a.initial]
        while todo:
            for q_next in successors(todo.pop()):
                if q_next not in seen:
                    seen.add(q_next)
                    todo.append(q_next)
        return tuple(sorted(seen, key=repr))

    if rank[a.initial] in w_o:
        transition = {}

        def respond(q):
            base = n + rank[q] * k
            for x in a.sigma_in:
                q_next = states[s_o[base + x_rank[x]]]
                b = min(b for b in a.sigma_out if a.transition[(q, x, b)] == q_next)
                transition[(q, x)] = (q_next, b)
                yield q_next

        machine = MealyMachine(walk(respond), a.initial, transition)
        return SolveResult("output", machine, None, input_region)
    output, transition = {}, {}

    def challenge(q):
        x = output[q] = letters[s_i[rank[q]] - n - rank[q] * k]
        for b in a.sigma_out:
            q_next = transition[(q, b)] = a.transition[(q, x, b)]
            yield q_next

    machine = MooreCounterMachine(walk(challenge), a.initial, output, transition)
    return SolveResult("input", None, machine, input_region)


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
    ids = {q: dot_quote(state_name(q)) for q in m.states}
    lines = ["digraph machine {", '  rankdir="LR";']
    lines.append(f"  __start [shape=point]; __start -> {ids[m.initial]};")
    if isinstance(m, MealyMachine):
        for q in m.states:
            lines.append(f"  {ids[q]} [shape=circle];")
        for (q, a), (t, b) in sorted(m.transition.items(), key=lambda kv: (repr(kv[0]))):
            lines.append(f"  {ids[q]} -> {ids[t]} [label={dot_quote(f'{a}/{b}')}];")
    else:
        for q in m.states:
            label = dot_quote(f"{state_name(q)}|{m.output[q]}")
            lines.append(f"  {ids[q]} [shape=box, label={label}];")
        for (q, b), t in sorted(m.transition.items(), key=lambda kv: (repr(kv[0]))):
            lines.append(f"  {ids[q]} -> {ids[t]} [label={dot_quote(b)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
