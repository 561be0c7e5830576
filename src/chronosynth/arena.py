"""Finite arenas for the timed interrupt games.

Nodes follow the game structure: a fresh start node where the environment
fixes the first input letter; (q, a) nodes where the controller commits an
output; dagger nodes (q, +) / (q, +, a) in the finite-variability arena
where point outputs and the next input-for-a-while are fixed; and block
nodes (q, a, u) where the environment either accepts or interrupts the
controller's ultimately periodic block u.

Interrupt edges carry (priority, size) labels: the priority is the maximal
state priority over the traversed positions of u, and the edge is small
when the interrupt lands inside u's lag, big otherwise.  In the
finite-variability arena odd positions are interval values (interrupts
from the left) and even positions are point values (interrupts from the
right), and every non-fresh node inherits the priority of its automaton
state.  ``Arena.interrupt_edge`` states this rule for one position; the
builders read the same labels off two cached halves per member.

Block nodes are built over behaviours, not vocabulary members: a block
node (q, x, u) is determined, as a game position, by q, x, whether u is
final, and its set of labelled interrupt edges.  Members that agree on
all four are interchangeable moves.  A behaviour A of (q, x) dominates
another, B, when A is final whenever B is and A's labels are a subset of
B's: every interrupt open at A is open at B, and accepting at A loses for
the environment wherever it does at B, so B is never the better move for
the controller and dropping it leaves every node's winner as it is.
Labels carry their size, so the subset test splits into the small and the
big half.  (q, x) gets one block node per undominated behaviour,
represented by the first-ranked member that has it; this is the antichain
of minimal behaviours (De Wulf, Doyen, Henzinger & Raskin, CAV 2006).

Nodes and edges are immutable named tuples, ordered, compared and hashed
by their fields in declaration order; the sorted node list, and with it the
solver's node numbering, witnesses and exports, follows that order.
The arena is one move table: every node keeps the id of its row, a sorted
tuple of labels (dst, priority, size, kind).  Block nodes with one (small,
big) half pair share one row; every other node has a row of its own, of
plain labels (dst, -1, "", "plain").  ``Arena.outgoing`` builds a node's
edges from its row on first read; since edges out of one node compare by
their labels and edges compare by source first, the sorted edge list is
every node's moves joined in node order.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .automaton import MAX_EVEN, ParityAutomaton, convert_convention, dot_quote, state_name
from .state_monoid import UPMember

RC = "rc"
FV = "fv"

# node kinds
FRESH = "fresh"
O_PAIR = "o_pair"  # (q, a): controller picks the output at the point
O_DAG = "o_dag"  # (q, +): environment picks the input holding for a while
I_DAG = "i_dag"  # (q, +, a): controller picks the block u
I_UP = "i_up"  # (q, a, u): environment accepts or interrupts

# who moves at a node; the dagger kinds keep their structural names even
# though (q, +) is an environment decision and (q, +, a) a controller one
OWNER = {FRESH: "I", O_PAIR: "O", O_DAG: "I", I_DAG: "O", I_UP: "I"}

LEFT = "left"
RIGHT = "right"


class ArenaNode(NamedTuple):
    kind: str
    state: object = None
    letter: object = None
    up: int = -1  # index into Arena.members for i_up nodes

    def pretty(self) -> str:
        if self.kind == FRESH:
            return "fresh"
        if self.kind == O_PAIR:
            return f"({self.state},{self.letter})"
        if self.kind == O_DAG:
            return f"({self.state},+)"
        if self.kind == I_DAG:
            return f"({self.state},+,{self.letter})"
        return f"({self.state},{self.letter},u{self.up})"


class ArenaEdge(NamedTuple):
    src: ArenaNode
    dst: ArenaNode
    priority: int = -1  # -1 for unlabeled edges
    size: str = ""  # 'small' | 'big' | ''
    kind: str = "plain"  # 'plain' | 'interrupt' | 'left' | 'right'

    @property
    def labeled(self) -> bool:
        return self.size != ""


class Arena:
    """The arena as one move table; ``outgoing``, ``edges`` and ``names`` are the readers' view."""

    fresh = ArenaNode(FRESH)

    def __init__(self, semantics, automaton, members, nodes, rows, labels, final_up):
        self.semantics = semantics
        self.automaton = automaton
        self.members = members  # all UPMember objects referenced by i_up nodes
        self.nodes = nodes  # every node, sorted
        self.rows = rows  # each node -> the id of its row of labels
        self.labels = labels  # row id -> its sorted labels; () only at a block node over one input letter
        self.final_up = final_up  # i_up nodes whose period's max priority is even
        self._edges = {}  # node -> its edges, built on first read

    def owner(self, node: ArenaNode) -> str:
        return OWNER[node.kind]

    def node_priority(self, node: ArenaNode) -> int:
        """Inherited automaton priority; -1, as on unlabeled edges, at the fresh node and under rc."""
        if self.semantics == RC or node.kind == FRESH:
            return -1
        return self.automaton.priority[node.state]

    def effective_priority(self, edge: ArenaEdge) -> int:
        """Edge label joined with the source node's inherited priority; -1 where neither has one."""
        return max(edge.priority, self.node_priority(edge.src))

    def member(self, node: ArenaNode) -> UPMember:
        return self.members[node.up]

    def outgoing(self, node: ArenaNode) -> tuple:
        """The node's sorted moves, built from its row of labels once."""
        outs = self._edges.get(node)
        if outs is None:
            outs = self._edges[node] = tuple(ArenaEdge(node, *t) for t in self.labels[self.rows[node]])
        return outs

    @property
    def edge_count(self) -> int:
        """The number of edges, summed over the table without building an edge."""
        labels = self.labels
        return sum(len(labels[i]) for i in self.rows.values())

    @cached_property
    def edges(self) -> tuple:
        """Every edge, sorted: edges compare by src first, so the outgoing lists in node order."""
        return tuple(e for node in self.nodes for e in self.outgoing(node))

    @cached_property
    def lag_bound(self) -> int:
        """The longest lag among the members (bounds small-edge spans)."""
        return max((len(m.lag) for m in self.members), default=1)

    def interrupt_edge(self, node: ArenaNode, n: int, b) -> ArenaEdge:
        """The labelled edge of an interrupt to letter b at position n of block node's member.

        The target is (u(n), b), or (u(n), +, b) for a finite-variability
        point; rc edges have kind 'interrupt', fv odd positions 'left' and fv
        even positions 'right'.  The edge is small iff n is inside the lag,
        and its priority is the max over positions 1..n.  Absorption puts the
        period's states inside the lag, so that is the max over the lag's
        first n states.
        """
        member = self.member(node)
        dst, kind = _landing(self.semantics, member.letter(n), n, b)
        size = "small" if n <= len(member.lag) else "big"
        priority = max(self.automaton.priority[q] for q in member.lag[:n])
        return ArenaEdge(node, dst, priority, size, kind)

    @cached_property
    def names(self) -> dict:
        """The exported name of each node: ``pretty()``, or ``repr()`` where nodes share it.

        Under fv an input letter '+' makes the (q, a) node for a = '+' print
        like the dagger node (q, +).  A repr spells out every field and never
        starts like a pretty name, so distinct nodes get distinct names.
        """
        names = {node: node.pretty() for node in self.nodes}
        shared = Counter(names.values())
        return {node: repr(node) if shared[name] > 1 else name for node, name in names.items()}


def _landing(semantics, q, n, b):
    """Target node and edge kind of an interrupt to letter b at position n, where state q sits."""
    if semantics == RC:
        return ArenaNode(O_PAIR, q, b), "interrupt"
    if n % 2 == 1:
        return ArenaNode(O_PAIR, q, b), LEFT
    return ArenaNode(I_DAG, q, b), RIGHT


def _interrupt_targets(a, semantics):
    """The interrupt targets of vocabulary members, from two halves cached for one arena build.

    Returns targets(member, letter) -> (small, big, final): two frozensets
    of (target, priority, size, kind), one per interrupt to a letter other
    than letter at each position of the member, without repeats, and
    whether the period's top priority is even, cached with the big half.
    The small targets land in the lag and carry the running maximum priority
    over it, so they depend only on (lag, letter).  Absorption makes the
    period's states a subset of the lag's, so past the lag the running
    maximum is the constant M, the lag's top priority: the big targets
    depend only on (period, M, letter), plus the parity of the lag length
    under fv, where a position's parity fixes its edge kind.  One period
    lists every big (target, kind) under rc, two periods under fv.
    """
    small_half, big_half = {}, {}
    # (target, kind) of each interrupt to another letter, by (state, position parity, letter)
    landings = {
        (q, parity, x): tuple(_landing(semantics, q, parity, b) for b in a.sigma_in if b != x)
        for q in a.states
        for parity in (0, 1)
        for x in a.sigma_in
    }
    priority, fv = a.priority, semantics == FV
    periods = 2 if fv else 1

    # plain loops: a generator and max() per position cost twice as much; a
    # frozenset copied from a set is smaller than one built from a list
    def targets(member, letter):
        lag = member.lag
        key = (lag, letter)
        small = small_half.get(key)
        if small is None:
            found, top = set(), -1
            for n, q in enumerate(lag, 1):
                if priority[q] > top:
                    top = priority[q]
                for dst, kind in landings[q, n % 2, letter]:
                    found.add((dst, top, "small", kind))
            small = small_half[key] = frozenset(found), top
        top = small[1]
        start = len(lag) % 2 if fv else 0
        key = (member.period, top, letter, start)
        big = big_half.get(key)
        if big is None:
            found = set()
            for n, q in enumerate(member.period * periods, start + 1):
                for dst, kind in landings[q, n % 2, letter]:
                    found.add((dst, top, "big", kind))
            final = max(map(priority.__getitem__, member.period)) % 2 == 0
            big = big_half[key] = frozenset(found), final
        return small[0], *big

    return targets


def _arena(a, semantics, up, moves):
    """The arena over a builder's map from its (q, x) and dagger nodes to their successors.

    Adds, under the max-even convention, the fresh node with an edge to
    (q_init, x) per input letter, and one block node per undominated
    behaviour of (q, x), entered from (q, x) under rc and (q, +, x) under
    fv.  up[x] is the block vocabulary of input letter x, built over its
    path classes, so every member is a run under x.  Members are ranked in
    first-use order over (letter, member, state), and the lowest-ranked
    member with a behaviour represents it, so the moves out of (q, x) keep
    their order over the whole vocabulary.  A behaviour B of (q, x) is
    dropped when another, A, dominates it: (final_A or not final_B) and
    small_A <= small_B and big_A <= big_B.  Only the kept representatives
    are numbered, in rank order.
    """
    a = convert_convention(a, MAX_EVEN)
    moves[Arena.fresh] = {ArenaNode(O_PAIR, a.initial, x) for x in a.sigma_in}
    source_kind = O_PAIR if semantics == RC else I_DAG
    rels = a.edge_relations()
    targets_of = _interrupt_targets(a, semantics)
    rank, best = {}, {}  # member -> first-use rank; behaviour -> (rank, representative)
    for x in a.sigma_in:
        sources_of = {
            q2: [q for q in a.states if (q, q2) in rels[x]] for q2 in a.states
        }
        for member in up[x]:
            sources = sources_of[member.lag[0]]
            if not sources:
                continue
            r = rank.setdefault(member, len(rank))
            # small and big targets differ in size, so equal halves mean equal edge sets
            small, big, final = targets_of(member, x)
            for q in sources:
                key = (q, x, final, small, big)
                kept = best.get(key)
                if kept is None or r < kept[0]:
                    best[key] = r, member
    # every dominator of a key sorts before it: finals come first, and a
    # dominator as final as the key has fewer labels; a key dominated by a
    # dropped key is dominated by what dropped that one
    antichains = {}  # (q, x) -> its undominated keys so far
    for key in sorted(best, key=lambda k: (not k[2], len(k[3]) + len(k[4]))):
        q, x, final, small, big = key
        antichain = antichains.setdefault((q, x), [])
        if not any((f or not final) and s <= small and b <= big for _, _, f, s, b in antichain):
            antichain.append(key)
    best = {key: best[key] for keys in antichains.values() for key in keys}
    representative = dict(best.values())  # rank -> member
    number = {r: i for i, r in enumerate(sorted(representative))}
    final_up, rows = set(), {}
    pair_rows, labels = {}, []  # (small, big) -> its row id; row id -> its labels, sorted
    for (q, x, final, small, big), (r, _) in best.items():
        up_node = ArenaNode(I_UP, q, x, number[r])
        if final:
            final_up.add(up_node)
        moves[ArenaNode(source_kind, q, x)].add(up_node)
        row = pair_rows.get((small, big))
        if row is None:
            row = pair_rows[small, big] = len(labels)
            # edges out of one node compare by their labels
            labels.append(tuple(sorted(small | big)))
        rows[up_node] = row
    for node, dsts in moves.items():
        rows[node] = len(labels)
        labels.append(tuple((dst, -1, "", "plain") for dst in sorted(dsts)))
    return Arena(
        semantics=semantics,
        automaton=a,
        members=tuple(representative[r] for r in number),
        nodes=tuple(sorted(rows)),
        rows=rows,
        labels=labels,
        final_up=frozenset(final_up),
    )


def build_rc_arena(a: ParityAutomaton, up: dict) -> Arena:
    """Arena for the right-continuous game.

    fresh -> (q_init, a); (q, a) -> (q, a, u) for blocks u that are valid
    runs under a and start at a successor of q; interrupts from (q, a, u)
    land on (u(n), b) for b != a.  Priorities are read under the max-even
    convention.
    """
    return _arena(a, RC, up, {ArenaNode(O_PAIR, q, x): set() for x in a.sigma_in for q in a.states})


def build_fv_arena(a: ParityAutomaton, up: dict) -> Arena:
    """Arena for the finite-variability game, with dagger nodes.

    (q, a) -> (q', +) consumes the point output; (q, +) -> (q, +, a) fixes
    the next input; (q, +, a) -> (q, a, u) commits a block.  Interrupts at
    odd positions are discontinuities from the left and land on (u(n), b);
    even positions are discontinuities from the right and land on
    (u(n), +, b).  Priorities are read under the max-even convention.
    """
    moves = {}
    for q in a.states:
        moves[ArenaNode(O_DAG, q)] = {ArenaNode(I_DAG, q, x) for x in a.sigma_in}
        for x in a.sigma_in:
            # a set: several outputs can reach one state
            moves[ArenaNode(O_PAIR, q, x)] = {ArenaNode(O_DAG, a.transition[(q, x, b)]) for b in a.sigma_out}
            moves[ArenaNode(I_DAG, q, x)] = set()
    return _arena(a, FV, up, moves)


# -- inspection -------------------------------------------------------------


def export_dot(arena: Arena) -> str:
    """Deterministic DOT rendering; big interrupt edges are drawn bold."""
    lines = ["digraph arena {", '  rankdir="LR";']
    names, ids = arena.names, {}
    for node in arena.nodes:
        shape = {"I": "box", "O": "ellipse"}[arena.owner(node)]
        extras = ""
        if node in arena.final_up:
            extras = ", peripheries=2"
        prio = arena.node_priority(node)
        label = name = names[node]
        if prio >= 0:
            label += f" p{prio}"
        ids[node] = dot_quote(name)
        lines.append(f"  {ids[node]} [shape={shape}, label={dot_quote(label)}{extras}];")
    for e in arena.edges:
        attrs = []
        if e.labeled:
            attrs.append(f'label="{e.priority},{e.size[0]}{e.kind[0] if e.kind in (LEFT, RIGHT) else ""}"')
            if e.size == "big":
                attrs.append("style=bold")
        body = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {ids[e.src]} -> {ids[e.dst]}{body};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def arena_to_json(arena: Arena) -> dict:
    names = arena.names

    def node_dict(n):
        d = {"name": names[n], "kind": n.kind, "owner": arena.owner(n)}
        if n.state is not None:
            d["state"] = state_name(n.state)
        if n.letter is not None:
            d["letter"] = n.letter
        if n.kind == I_UP:
            d["up"] = n.up
            d["final"] = n in arena.final_up
        prio = arena.node_priority(n)
        if prio >= 0:
            d["priority"] = prio
        return d

    def edge_dict(e):
        d = {"from": names[e.src], "to": names[e.dst], "kind": e.kind}
        if e.labeled:
            d["priority"] = e.priority
            d["size"] = e.size
        return d

    return {
        "semantics": arena.semantics,
        "members": [
            {"lag": list(m.lag), "period": list(m.period)} for m in arena.members
        ],
        "nodes": [node_dict(n) for n in arena.nodes],
        "edges": [edge_dict(e) for e in arena.edges],
    }
