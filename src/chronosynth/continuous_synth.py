"""Deciding the continuous-time synthesis problem on the finite arenas.

The environment wins a play of the arena iff it accepts at a non-final
block node (clause A), or the play is infinite, takes big edges infinitely
often and the top effective priority it sees infinitely often is odd
(clause B): looping with unit gaps on the big edges forces divergence.  Any
other infinite play interrupts inside lags only from some point on, and the
geometric scales (the i-th block runs at scale 2^-i) make its total
duration finite.  The controller's condition, Fin(big) or even parity, is a
Rabin condition, so the controller has a positional winning strategy
whenever it wins (Emerson & Jutla, FOCS 1988).

``solve_interrupt`` decides the game with ``discrete_game.Game``, whose
recursion runs over the Zielonka tree of that condition (``tree_node``).
Each node has one colour, (priority, big?): an arena node has that of its
inherited priority, and each labelled edge of a block node passes through
a hop node that has that of the edge's label.  A cycle sees the top
effective priority and the big edges it would see on the arena.  Two
attractors first settle clause A and the final block nodes without moves,
where the environment must accept.

``find_violation`` is the independent check of a positional choice: in
the one-player restriction, clause A is a reachable non-final block node,
and clause B, for some odd priority p, a strongly connected component of
the reachable edges of effective priority at most p that contains an edge
of priority exactly p and a big edge; a closed walk through both realizes
the cycle.  Effective priority folds the source node's inherited priority
into the edge label, which preserves the maximum over any closed walk.
Kosaraju's two passes find the components, which are tried in the order
of their least edge: the violation depends on the strategy graph alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .arena import FV, I_UP, OWNER, RC, Arena, ArenaNode, build_fv_arena, build_rc_arena
from .automaton import ParityAutomaton
from .discrete_game import Game, dense_ranks
from .state_monoid import MONOID_CAP, build_class_table, context_from_automaton


class SynthError(Exception):
    pass


class StrategyGraph(NamedTuple):
    """One-player restriction of the arena under a positional choice."""

    arena: Arena
    edges_from: dict  # each reached node -> its edges under the choice, sorted
    pending: list  # sorted reachable controller nodes with moves the choice leaves open


def partial_strategy_graph(arena: Arena, choice: dict) -> StrategyGraph:
    """The restriction reachable from fresh under a choice that need not be total."""
    seen = {arena.fresh}
    edges_from, pending = {}, []
    frontier = [arena.fresh]
    while frontier:
        node = frontier.pop()
        outs = arena.outgoing(node)
        if arena.owner(node) == "O":
            if node in choice:
                outs = (choice[node],)
            elif outs:
                pending.append(node)
                outs = ()
        edges_from[node] = outs
        for e in outs:
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return StrategyGraph(arena, edges_from, sorted(pending))


def build_strategy_graph(arena: Arena, choice: dict) -> StrategyGraph:
    """The restriction under a choice that must be defined at every reachable controller node."""
    sg = partial_strategy_graph(arena, choice)
    if sg.pending:
        raise SynthError(f"choice undefined at reachable controller node {sg.pending[0]}")
    return sg


def _sccs(roots, succ):
    """Kosaraju: maps each node reached from the roots to its strongly connected component's name.

    A depth-first pass from each root in turn gives the finishing order;
    then, in reverse finishing order, a sweep over the predecessors of each
    node not yet placed gathers its component, named by that node.
    """
    seen, finished = set(), []
    work = [(None, iter(roots))]  # a node above the roots: the pass starts from each in turn
    while work:
        node, it = work[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                work.append((w, iter(succ.get(w, ()))))
                break
        else:
            work.pop()
            finished.append(node)
    finished.pop()  # the node above the roots
    pred = {}
    for v in finished:
        for w in succ.get(v, ()):
            pred.setdefault(w, []).append(v)
    comp_of = {}
    for root in reversed(finished):
        if root not in comp_of:
            comp_of[root], todo = root, [root]
            while todo:
                for v in pred.get(todo.pop(), ()):
                    if v not in comp_of:
                        comp_of[v] = root
                        todo.append(v)
    return comp_of


class Violation(NamedTuple):
    kind: str  # 'A' | 'B'
    node: ArenaNode = None  # the non-final block node, for 'A'
    priority: int = -1  # the odd dominating priority, for 'B'
    cycle: tuple = ()  # closed walk of edges realizing 'B'
    entry: tuple = ()  # edges from fresh to the violation site


def _bfs_path(edges_by_src, start, goal_nodes):
    """Shortest edge path from start into goal_nodes; deterministic."""
    if start in goal_nodes:
        return ()
    prev = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for v in sorted(frontier):
            for e in edges_by_src.get(v, ()):
                if e.dst in prev:
                    continue
                prev[e.dst] = e
                if e.dst in goal_nodes:
                    path = [e]
                    while prev[path[0].src] is not None:
                        path.insert(0, prev[path[0].src])
                    return tuple(path)
                new.append(e.dst)
        frontier = new
    return None


def find_violation(sg: StrategyGraph):
    """First reason the environment beats the choice, or None."""
    arena, edges_from = sg.arena, sg.edges_from
    order = sorted(edges_from)
    for node in order:
        if node.kind == I_UP and node not in arena.final_up:
            return Violation(kind="A", node=node, entry=_bfs_path(edges_from, arena.fresh, {node}))

    # each list of edges_from is sorted, so weighted and every list filtered from it is too
    weighted = [(e, arena.effective_priority(e)) for node in order for e in edges_from[node]]
    for p in sorted({q for _, q in weighted if q > 0 and q % 2}, reverse=True):
        sub_edges = [(e, q) for e, q in weighted if q <= p]
        succ = {}
        for e, _ in sub_edges:
            succ.setdefault(e.src, []).append(e.dst)
        comp_of = _sccs(order, succ)
        inside_of = {}
        for e, q in sub_edges:
            if comp_of[e.src] == comp_of[e.dst]:
                inside_of.setdefault(comp_of[e.src], []).append((e, q))
        for inside in sorted(inside_of.values()):  # by their least edge
            peak = [e for e, q in inside if q == p]
            big = [e for e, _ in inside if e.size == "big"]
            if not peak or not big:
                continue
            e_p, e_b = peak[0], big[0]
            inner_by_src = {}
            for e, _ in inside:
                inner_by_src.setdefault(e.src, []).append(e)
            if e_p == e_b:
                back = _bfs_path(inner_by_src, e_p.dst, {e_p.src})
                cycle = (e_p,) + back
            else:
                mid = _bfs_path(inner_by_src, e_p.dst, {e_b.src})
                back = _bfs_path(inner_by_src, e_b.dst, {e_p.src})
                cycle = (e_p,) + mid + (e_b,) + back
            entry = _bfs_path(edges_from, arena.fresh, {e_p.src})
            return Violation(kind="B", priority=p, cycle=cycle, entry=entry)
    return None


# -- the recursion ------------------------------------------------------------


class SynthStats:
    """Counters of one decision, filled in as it runs; ``synth --stats`` prints every
    attribute, beside the arena's node and edge counts."""

    def __init__(self):
        self.class_counts = {}  # input letter -> classes
        self.up_sizes = {}  # input letter -> vocabulary size
        self.d_bound = 1
        self.solve_calls = 0  # calls of the recursion
        self.game_nodes = 0  # nodes and edges left to the recursion by the two attractors
        self.game_edges = 0


class SynthResult:
    """The decision, the controller's positional choice if it wins, the arena and the counters."""

    def __init__(self, realizable: bool, witness: dict | None, arena: Arena, stats: SynthStats):
        self.realizable = realizable
        self.witness = witness
        self.arena = arena
        self.stats = stats

    @cached_property
    def violation(self) -> Violation | None:
        """Why the first move at each reachable controller node loses; None if realizable.

        No positional choice wins an unrealizable arena, so this one has a violation.
        """
        if self.realizable:
            return None
        arena = self.arena
        first = {n: arena.outgoing(n)[0] for n in arena.nodes if arena.owner(n) == "O" and arena.outgoing(n)}
        return find_violation(build_strategy_graph(arena, first))


def tree_node(colours: int, big_colours: int):
    """(controller wins?, children): a node of the Zielonka tree of Fin(big) or even parity.

    A colour set is a mask of bits 2r + big, r a priority's rank
    (``discrete_game.dense_ranks``); ``big_colours`` has every big bit.  The
    controller wins the plays that see exactly the colours in ``colours``
    infinitely often iff none is big or the top priority is even.  The
    children are the maximal nonempty subsets that the other player wins.
    """
    big = colours & big_colours
    if not big:
        return True, []
    top = (colours.bit_length() - 1) >> 1
    if top % 2 == 0:
        # the largest odd priority with a big colour at or below it
        low = ((big & -big).bit_length() - 1) >> 1
        q = next((q for q in range(top, low - 1, -1) if q % 2 and colours >> 2 * q & 3), -1)
        return True, [colours & (1 << 2 * q + 2) - 1] if q >= 0 else []
    small = colours & ~big_colours
    e = next((e for e in range(top - 1, -1, -2) if colours >> 2 * e & 3), -1)
    low = colours & (1 << 2 * e + 2) - 1 if e >= 0 else 0
    # the maximal ones of the two, without the empty set
    if not small & ~low:
        children = [low]
    elif not low & ~small:
        children = [small]
    else:
        children = [small, low]
    return False, [c for c in children if c]


def solve_interrupt(arena: Arena, stats: SynthStats | None = None):
    """(realizable, choice): who wins the arena, and the controller's positional winner.

    The choice maps each controller node reachable from fresh under it to
    its edge, or is None when the environment wins.  Every controller node
    must have a move, as ``build_game_arena`` ensures.  Nodes are numbered
    in arena order and every list below is in that order, so the choice is
    deterministic.  The game is read off the arena's move table, and the
    only edges built are the chosen ones.  Every arena node has the one
    colour of its inherited priority (``Arena.node_priority``, -1 read as
    0).  Each labelled edge of a block node passes through the hop node of
    its target and label colour, an environment node numbered after the
    arena's nodes and shared by the whole arena.  Counts the recursion's
    calls and its game's arena nodes and edges into ``stats`` if given.
    """
    stats = stats if stats is not None else SynthStats()
    nodes = arena.nodes
    n = len(nodes)
    index = {node: v for v, node in enumerate(nodes)}
    final_up, priority = arena.final_up, arena.automaton.priority
    # a colour is bit 2r + big of a mask, for the rank r of a priority (-1
    # read as 0); no label exceeds the top state priority
    rank = dense_ranks([0, *priority.values()])
    small = {p: 1 << 2 * r for p, r in rank.items()}
    big_colours = int("10" * (max(rank.values()) + 1), 2)
    rows = arena.rows
    succ, owner, colour = [], [], []
    accepts, stuck = [], []  # non-final block nodes; final block nodes without moves
    hops = {}  # (target, label colour) -> hop node
    for v, node in enumerate(nodes):
        owner.append(OWNER[node.kind])
        colour.append(small[max(arena.node_priority(node), 0)])
        if node.kind == I_UP:
            ws = [
                hops.setdefault((index[dst], small[q] << (size == "big")), n + len(hops))
                for dst, q, size, _ in rows[node]
            ]
            if node not in final_up:
                accepts.append(v)
            elif not ws:
                stuck.append(v)
        else:
            ws = [index[dst] for dst, _, _, _ in rows[node]]
        succ.append(ws)
    for w, c in hops:
        succ.append([w])
        owner.append("I")
        colour.append(c)

    game = Game(succ, owner, colour)
    fresh = index[arena.fresh]
    inside = game.attractor(bytearray(b"\x01") * len(succ), accepts, "I")[0]
    if not inside[fresh]:
        return False, None
    inside, _, strategy = game.attractor(inside, stuck, "O")
    if inside[fresh]:
        # a hop is inside iff its target is, so a block node's hops inside
        # are its edges inside
        region = [v for v in range(n) if inside[v]]
        stats.game_nodes = len(region)
        stats.game_edges = sum(sum(map(inside.__getitem__, succ[v])) for v in region)
        # a hop without a source inside stands for an edge of a settled node,
        # and its colour must not count
        for h in range(n, len(succ)):
            if not any(map(inside.__getitem__, game.pred[h])):
                inside[h] = 0
        win, strat = game.solve(lambda colours: tree_node(colours, big_colours), inside)
        stats.solve_calls += game.calls
        if fresh not in win["O"]:
            return False, None
        strategy.update(strat["O"])
    choice, seen, todo = {}, {fresh}, [fresh]
    while todo:
        v = todo.pop()
        if owner[v] == "O":
            w = strategy[v]
            choice[nodes[v]] = arena.outgoing(nodes[v])[succ[v].index(w)]
            nexts = (w,)
        else:
            nexts = succ[v]
        for w in nexts:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return True, choice


def build_game_arena(spec: ParityAutomaton, semantics: str, monoid_cap: int = MONOID_CAP):
    """The arena for one semantics, and the sizes of the layers that built it.

    Builds one class table per distinct one-step relation (letters that
    share a relation share it) and the arena straight from the tables, the
    one layer that reads priorities; the arena counts each letter's block
    vocabulary without building it.  Returns (arena, stats) with the class
    counts, vocabulary sizes and d bound set.
    """
    if semantics not in (RC, FV):
        raise SynthError(f"semantics must be '{RC}' or '{FV}'")
    ctx = context_from_automaton(spec)
    stats = SynthStats()
    solved = {}  # relation -> the class table of its first letter
    tables = {}
    for x in spec.sigma_in:
        if ctx.relations[x] not in solved:
            solved[ctx.relations[x]] = build_class_table(ctx, cap=monoid_cap, letter=x)
        table = tables[x] = solved[ctx.relations[x]]
        stats.class_counts[x] = table.class_count
        stats.d_bound = max(stats.d_bound, table.d_q)
    builder = build_rc_arena if semantics == RC else build_fv_arena
    arena = builder(spec, tables, stats.up_sizes)
    stuck = [n for n in arena.nodes if arena.owner(n) == "O" and not arena.rows[n]]
    if stuck:
        # cannot happen with a complete per-letter vocabulary over a total
        # automaton; a bare block vocabulary would silently skew the game
        raise SynthError(f"controller node without moves: {stuck[0]}")
    return arena, stats


def decide_continuous(
    spec: ParityAutomaton, semantics: str, monoid_cap: int = MONOID_CAP
) -> SynthResult:
    """Top-level verdict: is the specification implementable in real time?

    Builds the arena for the requested semantics and solves it with
    ``solve_interrupt``; the witness is the controller's positional winner.
    """
    arena, stats = build_game_arena(spec, semantics, monoid_cap)
    realizable, witness = solve_interrupt(arena, stats)
    return SynthResult(realizable, witness, arena, stats)
