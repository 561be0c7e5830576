"""Deciding the continuous-time synthesis problem on the finite arenas.

A positional choice fixes one outgoing edge per controller node; the
implicit timing plays the i-th block with duration scale 2^-i.  Against
such a choice the environment wins iff the one-player restriction has
(A) a reachable non-final block node (reach it and accept), or
(B) a reachable cycle through a big-labeled edge whose maximal priority is
odd (loop it with unit gaps on the big edge, forcing divergence).  Any
other infinite play interrupts inside lags only, and the geometric scales
make its total duration finite.

Cycle detection for (B): for each odd priority p, in the reachable
subgraph of edges with effective priority at most p, some strongly
connected component must contain both an edge of effective priority
exactly p and a big edge; a closed walk through both then realizes the
cycle.  Effective priority folds the source node's inherited priority into
the edge label, which preserves the maximum over any closed walk.

Enumeration is lazy: choices are extended only at controller nodes that
are reachable under the partial assignment, and the two violations are
monotone under extension, so a violated partial assignment prunes all its
completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arena import FV, I_UP, RC, Arena, ArenaNode, build_fv_arena, build_rc_arena
from .automaton import ParityAutomaton
from .state_monoid import (
    MONOID_CAP,
    ResourceCapError,
    build_UP,
    build_class_table,
    context_from_automaton,
)

STRATEGY_CAP = 1_000_000  # choices examined before the search gives up


class SynthError(Exception):
    pass


@dataclass
class StrategyGraph:
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
    """Iterative Tarjan from each root in turn; maps each node to the number
    of its strongly connected component, numbered in the order they close."""
    index, low, comp_of = {}, {}, {}
    stack, closed = [], 0
    for root in roots:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w not in comp_of:  # still on the stack
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    comp_of[w] = closed
                    if w == node:
                        break
                closed += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp_of


@dataclass(frozen=True)
class Violation:
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
        for _, inside in sorted(inside_of.items()):
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


# -- enumeration -------------------------------------------------------------


@dataclass
class SynthStats:
    strategies_examined: int = 0
    pruned: int = 0
    class_counts: dict = field(default_factory=dict)
    up_sizes: dict = field(default_factory=dict)
    d_bound: int = 1


@dataclass
class SynthResult:
    realizable: bool
    witness: dict | None
    arena: Arena
    stats: SynthStats
    violation: Violation | None = None  # of the last choice the search enumerated


def enumerate_choices(
    arena: Arena, strategy_cap: int = STRATEGY_CAP, stats: SynthStats | None = None
):
    """Depth-first search over reachable partial choices.

    Yields (choice, violation-or-None) for every assignment whose verdict
    is decided: completed winning/losing assignments, and violated partial
    assignments (whose every completion loses, since reachability and both
    violation clauses only grow under extension).  Every key of a yielded
    choice is reachable under it: each is chosen while reachable, and
    reachability only grows.  Order is deterministic.  Counts the choices
    examined and pruned into ``stats`` if given.
    """
    stats = stats if stats is not None else SynthStats()

    def explore(choice):
        sg = partial_strategy_graph(arena, choice)
        pending = sg.pending
        violation = find_violation(sg)
        if violation is not None or not pending:
            stats.strategies_examined += 1
            stats.pruned += bool(pending)  # a violated partial choice decides its completions
            yield dict(choice), violation
            return
        if stats.strategies_examined > strategy_cap:
            raise ResourceCapError(f"strategy enumeration cap {strategy_cap} exceeded")
        node = pending[0]
        for edge in arena.outgoing(node):
            choice[node] = edge
            yield from explore(choice)
            del choice[node]

    yield from explore({})


def build_game_arena(spec: ParityAutomaton, semantics: str, monoid_cap: int = MONOID_CAP):
    """The arena for one semantics, and the sizes of the layers that built it.

    Builds one class table and block vocabulary per distinct one-step
    relation (letters that share a relation share them) and the arena over
    them, the one layer that reads priorities.  Returns (arena, stats) with
    the class counts, vocabulary sizes and d bound set.
    """
    if semantics not in (RC, FV):
        raise SynthError(f"semantics must be '{RC}' or '{FV}'")
    ctx = context_from_automaton(spec)
    stats = SynthStats()
    solved = {}  # relation -> (class table, vocabulary) of its first letter
    up_by_letter = {}
    for x in spec.sigma_in:
        if ctx.relations[x] not in solved:
            table = build_class_table(ctx, cap=monoid_cap, letter=x)
            solved[ctx.relations[x]] = table, build_UP(table)
        table, up_by_letter[x] = solved[ctx.relations[x]]
        stats.class_counts[x] = table.class_count
        stats.d_bound = max(stats.d_bound, table.d_q)
        stats.up_sizes[x] = len(up_by_letter[x])
    builder = build_rc_arena if semantics == RC else build_fv_arena
    arena = builder(spec, up_by_letter)
    stuck = [
        n for n in arena.nodes if arena.owner(n) == "O" and not arena.outgoing(n)
    ]
    if stuck:
        # cannot happen with a complete per-letter vocabulary over a total
        # automaton; a bare block vocabulary would silently skew the game
        raise SynthError(f"controller node without moves: {stuck[0]}")
    return arena, stats


def decide_continuous(
    spec: ParityAutomaton,
    semantics: str,
    monoid_cap: int = MONOID_CAP,
    strategy_cap: int = STRATEGY_CAP,
) -> SynthResult:
    """Top-level verdict: is the specification implementable in real time?

    Builds the arena for the requested semantics and searches positional
    choices; realizable iff some choice survives the winning check.
    """
    arena, stats = build_game_arena(spec, semantics, monoid_cap)
    violation = None
    for choice, violation in enumerate_choices(arena, strategy_cap, stats):
        if violation is None:
            return SynthResult(True, choice, arena, stats)
    return SynthResult(False, None, arena, stats, violation=violation)
