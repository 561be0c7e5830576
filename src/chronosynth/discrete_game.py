"""Discrete-time synthesis on parity automata, and the package's one game solver.

The synthesis game alternates input and output letters inside one time
step: from position ('i', q) the input player picks a, from ('o', q, a) the
output player answers b, and the automaton advances to d(q, (a, b)).  The
output player wins a play iff the traversed state sequence is accepted.
``solve`` builds this game as integer lists from the spec's transition
table and solves it with ``solve_indexed``; only the winning machine's
states and the input player's region are named.

``Game`` holds the one attractor and the one McNaughton-Zielonka recursion
(Zielonka, TCS 1998) of the package, over nodes with one colour each and a
rule for the condition's Zielonka tree.  Parity is the chain case of that
tree, which ``solve_indexed`` passes; ``continuous_synth.solve_interrupt``
passes the interrupt arena, its labelled edges routed through coloured hop
nodes, with the tree of Fin(big) or even parity.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .automaton import ParityAutomaton, dot_quote, state_name
from .omega_word import LassoWord, transduce


class GameError(Exception):
    pass


def dense_ranks(values):
    """Each distinct value's rank, order and parity kept, one or two above the last rank.

    Colour bits are numbered by rank, so a mask grows with the number of
    distinct priorities, not with their size.
    """
    rank, r = {}, -1
    for p in sorted(set(values)):
        r += 1 + (r + 1 + p) % 2
        rank[p] = r
    return rank


def parity_node(colours):
    """The parity rule on ranked priorities: the top's player wins; one child, the rest."""
    top = colours.bit_length() - 1
    return top % 2 == 0, [colours ^ 1 << top]


class Game:
    """A game on nodes 0..n-1 won on the set of colours a play sees infinitely often.

    ``succ[v]`` lists v's successors (ties go to the first) and ``owner[v]``
    is 'O' for the controller or 'I' for the environment.  A colour is one
    bit of an integer mask, and ``colour[v]`` colours every edge out of v.
    Colour 0 means none, allowed only where every cycle through v passes a
    coloured node.  Predecessor lists are built once here; nothing checks or
    changes the lists, so nodes may share a successor list, and a successor
    listed twice counts as two edges.
    """

    def __init__(self, succ, owner, colour):
        self.succ, self.owner, self.colour = succ, owner, colour
        self.calls = 0  # calls of the recursion
        self.pred = pred = [[] for _ in succ]
        for v, ws in enumerate(succ):
            for w in ws:
                pred[w].append(v)

    def attractor(self, inside, targets, player):
        """player-forced reachability of targets in the subgame on the nodes marked in ``inside``.

        ``targets`` lists nodes of the subgame, sorted; each level is visited
        sorted.  Returns the membership of the subgame minus the attractor,
        the attractor's nodes and player's moves at its nodes that it attracts.
        """
        succ, owner, pred = self.succ, self.owner, self.pred
        rest = bytearray(inside)
        for v in targets:
            rest[v] = 0
        strategy, count = {}, {}
        attr = list(targets)
        frontier = targets
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

    def solve(self, rule, inside):
        """Both players' winning regions and strategies, each a dict keyed by owner.

        Solves the subgame on the nodes marked in ``inside`` (its region),
        each with a move there.  ``rule(colours)`` gives the tree node of a
        colour set: whether the controller wins the plays that see exactly
        those colours infinitely often, and children, subsets such that that
        winner wins every subset inside none of them.  Each pass solves the
        region at the tree node of its colours; when the winner's opponent
        wins part of a child's subgame, the pass peels that part's attractor
        off for the opponent and the next pass solves the rest.  Only the
        recursion on a child nests.  A player's strategy is positional, and
        winning, where each of its tree nodes has at most one child.
        """
        succ, owner, colour, attractor = self.succ, self.owner, self.colour, self.attractor

        def solve(inside, region):
            self.calls += 1
            peeled = []
            while True:
                if not region:
                    win, strat = {"O": [], "I": []}, {"O": {}, "I": {}}
                    break
                present = reduce(or_, map(colour.__getitem__, region))
                controller_wins, children = rule(present)
                player, other = ("O", "I") if controller_wins else ("I", "O")
                # without a child, the winner's moves are any subgame edges
                attr, attr_strat, strat = region, {}, {player: {}}
                for child in children:
                    # the winner's attractor to the colours outside the child
                    goal = present & ~child
                    rest, attr, attr_strat = attractor(inside, [v for v in region if colour[v] & goal], player)
                    win, strat = solve(rest, [v for v in region if rest[v]])
                    if win[other]:
                        inside, b, b_strat = attractor(inside, sorted(win[other]), other)
                        peeled.append((other, b, strat[other], b_strat))
                        region = [v for v in region if inside[v]]
                        break
                else:
                    # the winner wins everywhere: attractor moves on attr, and
                    # the first subgame edge at the rest
                    mine = {**strat[player], **attr_strat}
                    for v in sorted(attr):
                        if owner[v] == player and v not in mine:
                            mine[v] = next(w for w in succ[v] if inside[w])
                    win, strat = {player: region, other: []}, {player: mine, other: {}}
                    break
            for other, b, s, b_strat in reversed(peeled):
                win[other] = win[other] + b
                strat[other] = {**strat[other], **s, **b_strat}
            return win, strat

        # each solve gives a player a move at every node it owns in its winning
        # region (a subgame's, an attractor's or a first one), so no final pass
        return solve(inside, [v for v, marked in enumerate(inside) if marked])


def solve_indexed(succ, owner, priority):
    """Winning regions and positional strategies of the parity game on nodes 0..n-1.

    ``succ[v]`` lists v's successors (ties go to the first), ``owner[v]`` is
    'O' or 'I' and ``priority[v]`` its priority; 'O' wants the top priority
    seen infinitely often even.  The caller must give every node a successor;
    nothing checks it.  A successor listed twice is two edges to it, which
    changes no region or strategy: an environment node is attracted with its
    last copy, a controller node through its first.  Returns the node lists
    of 'O' and 'I' and their strategies as node -> node dicts.  Parity is the
    chain case of ``Game.solve``: a node's edges have one colour, its
    priority's rank.
    """
    bit, n = {p: 1 << r for p, r in dense_ranks(priority).items()}, len(succ)
    game = Game(succ, owner, list(map(bit.__getitem__, priority)))
    win, strat = game.solve(parity_node, bytearray(b"\x01") * n)
    return win["O"], win["I"], strat["O"], strat["I"]


class MealyMachine(NamedTuple):
    """Finite-state causal implementation: reads a, emits b, steps."""

    states: tuple
    initial: object
    transition: dict  # (state, in_letter) -> (state, out_letter)

    def react(self, q, a):
        try:
            return self.transition[(q, a)]
        except KeyError:
            raise GameError(f"mealy machine has no move at ({q!r}, {a!r})")


class MooreCounterMachine(NamedTuple):
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


class SolveResult(NamedTuple):
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
    order = sorted(range(len(a.states)), key=a.states.__getitem__)
    states, letters = [a.states[i] for i in order], sorted(a.sigma_in)
    n, k, width = len(states), len(letters), len(a.sigma_out)
    rank = sorted(range(n), key=order.__getitem__)  # states[rank[i]] is a.states[i]
    # rows[r] lists the ranks of the targets of states[r], in the table's order
    ranked = list(map(rank.__getitem__, a.table))
    rows = [ranked[i * k * width:(i + 1) * k * width] for i in order]
    x_rank = {x: i for i, x in enumerate(letters)}
    x_pos = [a.sigma_in.index(x) * width for x in letters]  # each sorted letter's cell in a row
    # ('i', q) is node rank(q) and ('o', q, x) node n + rank(q)*k + rank(x),
    # their ranks among all nodes in sorted order; successors follow the
    # alphabets' order, as the named game lists them
    in_order = [x_rank[x] for x in a.sigma_in]
    succ = [[base + j for j in in_order] for base in range(n, n + n * k, k)]
    # a target that two output letters reach is listed twice: two edges, same regions
    succ += [row[c:c + width] for row in rows for c in x_pos]
    state_priority = [a.priority[q] for q in states]
    w_o, w_i, s_o, s_i = solve_indexed(
        succ,
        ["I"] * n + ["O"] * (n * k),
        state_priority + [p for p in state_priority for _ in range(k)],
    )

    names = [("i", q) for q in states] + [("o", q, x) for q in states for x in letters]
    input_region = frozenset(map(names.__getitem__, w_i))
    initial = rank[a.states.index(a.initial)]

    def walk(successors):
        """States reachable from the initial one; successors(r) records states[r]'s moves."""
        seen, todo = {initial}, [initial]
        while todo:
            for r_next in successors(todo.pop()):
                if r_next not in seen:
                    seen.add(r_next)
                    todo.append(r_next)
        return tuple(sorted((states[r] for r in seen), key=repr))

    if initial in w_o:
        transition = {}

        def respond(r):
            for x in a.sigma_in:
                j = x_rank[x]
                r_next = s_o[n + r * k + j]
                cell = rows[r][x_pos[j]:x_pos[j] + width]
                b = min(b for b, t in zip(a.sigma_out, cell) if t == r_next)
                transition[(states[r], x)] = (states[r_next], b)
                yield r_next

        machine = MealyMachine(walk(respond), a.initial, transition)
        return SolveResult("output", machine, None, input_region)
    output, transition = {}, {}

    def challenge(r):
        j = s_i[r] - n - r * k
        output[states[r]] = letters[j]
        for b, r_next in zip(a.sigma_out, rows[r][x_pos[j]:x_pos[j] + width]):
            transition[(states[r], b)] = states[r_next]
            yield r_next

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
    names = {q: state_name(q) for q in m.states}
    states = list(names.values())
    if isinstance(m, MealyMachine):
        rows = sorted((names[q], a, b, names[t]) for (q, a), (t, b) in m.transition.items())
        return {
            "kind": "mealy",
            "states": states,
            "initial": names[m.initial],
            "transitions": [{"from": q, "in": a, "out": b, "to": t} for q, a, b, t in rows],
        }
    if isinstance(m, MooreCounterMachine):
        rows = sorted((names[q], b, names[t]) for (q, b), t in m.transition.items())
        return {
            "kind": "moore_counter",
            "states": states,
            "initial": names[m.initial],
            "output": {names[q]: m.output[q] for q in m.states},
            "transitions": [{"from": q, "out": b, "to": t} for q, b, t in rows],
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
