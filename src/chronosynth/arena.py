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
builders read the same labels as bits of one int, a small half per lag
class and a big half per idempotent.

Block nodes are built over behaviours, not vocabulary members: a block
node (q, x, u) is determined, as a game position, by q, x, whether u is
final, and its set of labelled interrupt edges.  Members that agree on
all four are interchangeable moves.  A behaviour A of (q, x) dominates
another, B, when A is final whenever B is and A's labels are a subset of
B's: every interrupt open at A is open at B, and accepting at A loses for
the environment wherever it does at B, so B is never the better move for
the controller and dropping it leaves every node's winner as it is.  With
labels as bits the subset test is a mask test.  (q, x) gets one block node
per undominated behaviour, represented by the first-ranked member that
has it; this is the antichain of minimal behaviours (De Wulf, Doyen,
Henzinger & Raskin, CAV 2006).  The builders read each input letter's
block vocabulary off ``state_monoid.vocabulary``, the one walk of (class,
idempotent) pairs, and build a ``UPMember`` only for a kept representative.

Nodes and edges are immutable named tuples, ordered, compared and hashed
by their fields in declaration order; the sorted node list, and with it the
solver's node numbering, witnesses and exports, follows that order.
The arena is one move table: every node keeps its row, the sorted tuple
of its labels (dst, priority, size, kind); a block node's row is its small
and big half joined, every other node's row holds plain labels (dst, -1,
"", "plain").  ``Arena.outgoing`` builds a node's edges from its row on
first read; since edges out of one node compare by their labels and edges
compare by source first, the sorted edge list is every node's moves joined
in node order.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple

from .automaton import ParityAutomaton, dot_quote, state_name
from .state_monoid import UPMember, vocabulary

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

    def __init__(self, semantics, automaton, members, nodes, rows, final_up):
        self.semantics = semantics
        self.automaton = automaton
        self.members = members  # all UPMember objects referenced by i_up nodes
        self.nodes = nodes  # every node, sorted
        self.rows = rows  # each node -> its sorted labels; () only at a block node over one input letter
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
            outs = self._edges[node] = tuple(ArenaEdge(node, *t) for t in self.rows[node])
        return outs

    @property
    def edge_count(self) -> int:
        """The number of edges, summed over the table without building an edge."""
        return sum(map(len, self.rows.values()))

    @cached_property
    def edges(self) -> tuple:
        """Every edge, sorted: edges compare by src first, so the outgoing lists in node order."""
        return tuple(e for node in self.nodes for e in self.outgoing(node))

    @cached_property
    def lag_bound(self) -> int:
        """The longest lag among the members of every block of the arena.

        The play engine prints ``block_scale * 2 * lag_bound`` as the bound on
        the small-tail duration from the current block on.  That sum runs over
        the current block and every later one, at scales that halve per block,
        and a later block can be any block of the arena; so each term needs
        the longest lag over all blocks.  The current block's own lag would
        give an unsound bound.
        """
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


class _LabelBits:
    """Every label (dst, priority, size, kind) an interrupt can carry, as one bit of an int.

    Bits follow sorted label order: each target (dst, kind), in node kind,
    state and letter order, owns two bits per priority, big below small.
    ``land[x][q][parity]`` has the lowest bit of each target's block that an
    interrupt to a letter other than x reaches from state q at a position
    of that parity (``_landing``); shifted by ``shift[p]`` it gives the big
    labels of priority p, by one more the small ones.
    """

    def __init__(self, a, semantics):
        self.priority, self.fv = a.priority, semantics == FV
        self.priorities = sorted(set(a.priority.values()))
        self.shift = {p: 2 * i for i, p in enumerate(self.priorities)}
        states, letters = sorted(a.states), sorted(a.sigma_in)
        # the (q, +, b) targets of even fv positions sort before the (q, b) ones of odd positions
        kinds = ((I_DAG, RIGHT), (O_PAIR, LEFT)) if self.fv else ((O_PAIR, "interrupt"),)
        self.targets = [(ArenaNode(node, q, b), kind) for node, kind in kinds for q in states for b in letters]
        self.width = width = 2 * len(self.priorities)
        every, at = sum(1 << width * i for i in range(len(letters))), width * len(letters)
        odd = len(states) if self.fv else 0
        self.land = {}
        for x in a.sigma_in:
            others = every ^ 1 << width * letters.index(x)
            self.land[x] = {q: (others << at * i, others << at * (odd + i)) for i, q in enumerate(states)}
        self.labels = {}  # bit -> its label, built on first read

    def small(self, lag, letter):
        """(labels, top priority) of the interrupts inside a lag run under letter."""
        land, priority, shift = self.land[letter], self.priority, self.shift
        labels, top, at = 0, -1, 0
        for n, q in enumerate(lag, 1):
            if priority[q] > top:
                top = priority[q]
                at = shift[top] + 1
            labels |= land[q][n & 1] << at
        return labels, top

    def big(self, period, letter, lag_length):
        """The labels past a lag of that length, to be shifted by ``shift`` of the lag's top priority.

        Absorption puts the period's states in the lag, so the running
        maximum past it is the lag's top; under fv only the lag length's
        parity matters, and two periods list every (target, kind).
        """
        land, labels = self.land[letter], 0
        for n, q in enumerate(period * 2 if self.fv else period, lag_length % 2 + 1 if self.fv else 1):
            labels |= land[q][n & 1]
        return labels

    def decode(self, labels):
        """The labels of a set, in sorted order."""
        row, digits = [], bin(labels)[:1:-1]  # bit i at index i
        i = digits.find("1")
        while i >= 0:
            label = self.labels.get(i)
            if label is None:
                (dst, kind), j = self.targets[i // self.width], i % self.width
                label = self.labels[i] = dst, self.priorities[j >> 1], ("big", "small")[j & 1], kind
            row.append(label)
            i = digits.find("1", i + 1)
        return tuple(row)


def _arena(a, semantics, tables, moves, up_sizes):
    """The arena over a builder's map from its (q, x) and dagger nodes to their successors.

    Adds the fresh node with an edge to (q_init, x) per input letter, and
    one block node per undominated behaviour of (q, x), entered from (q, x)
    under rc and (q, +, x) under fv.  tables[x] is input letter x's path
    class table, whose ``vocabulary`` walk, the one that ``build_UP``
    expands, gives each class with its groups of absorbed idempotents; the
    pairs are counted into ``up_sizes[x]`` if given, a group's big halves
    are computed once per lag parity, and only the first class of each
    (first, last, late, flags, small half, top priority, lag parity) goes
    on.  A behaviour's key is its labels over a low bit set iff it is not
    final, so A dominates B iff ``not key_A & ~key_B``.  Pairs with a source
    are ranked by first use over (letter, class, idempotent): the first
    input letter whose paths hold the class and give its first state a
    source, then the witnesses' order, shortest and lexicographically least,
    which all tables share.  The lowest-ranked pair of a behaviour represents
    it, and only kept representatives become ``UPMember``s, numbered in rank
    order.
    """
    moves[Arena.fresh] = {ArenaNode(O_PAIR, a.initial, x) for x in a.sigma_in}
    source_kind = O_PAIR if semantics == RC else I_DAG
    bits, priority, kept = _LabelBits(a, semantics), a.priority, []
    ctx = tables[a.sigma_in[0]].ctx  # every letter's table is over this one context
    # into[s]: per state of a, the mask of the letters that step it to state number s
    into = list(zip(*(ctx.steps[ctx.index[q]] for q in a.states)))
    sourced = [reduce(or_, masks) for masks in into]  # the letters under which s has a source
    for bit, x in enumerate(ctx.relations):
        sources_of = [[q for q, m in zip(a.states, masks) if m >> bit & 1] for masks in into]
        kinds_of, walked, merged, pairs = {}, set(), {}, 0
        for c, ((first, last, _, _, flags), late, lag, groups) in enumerate(vocabulary(tables[x])):
            if not groups:
                continue
            pairs += sum(len(es) for _, es in groups)
            if not sources_of[first]:
                continue
            small, top = bits.small(lag, x)
            parity = len(lag) % 2 if bits.fv else 0
            walk = (first, last, late, flags, small, top, parity)
            if walk in walked:
                continue
            walked.add(walk)
            used = flags & sourced[first]
            use = (used & -used).bit_length() - 1  # the lowest letter of first use
            shift = bits.shift[top]
            for number, es in groups:
                kinds = kinds_of.get((number, parity))
                if kinds is None:
                    # the group's distinct big halves, first idempotent of each: its periods
                    # share their states, hence their top priority and, under rc, their big half
                    odd, found = max(map(priority.__getitem__, es[0][1])) % 2, {}
                    for e, period in es if bits.fv else es[:1]:
                        big = bits.big(period, x, parity)
                        if big not in found:
                            found[big] = big, odd, e, period
                    kinds = kinds_of[number, parity] = list(found.values())
                for big, odd, e, period in kinds:
                    key, rank = (small | big << shift) << 1 | odd, (use, c, e)
                    held = merged.get((first, key))
                    if held is None or rank < held[0]:
                        merged[first, key] = rank, lag, period
        if up_sizes is not None:
            up_sizes[x] = pairs
        best = {q: {} for q in a.states}  # q -> key -> (rank, lag, period) of its lowest-ranked pair
        for (first, key), pair in merged.items():
            for q in sources_of[first]:
                held = best[q].get(key)
                if held is None or pair[0] < held[0]:
                    best[q][key] = pair
        # a dominator's key is a proper subset of the dominated one's, so it sorts
        # first; a key dominated by a dropped key is dominated by what dropped that one
        for q, behaviours in best.items():
            antichain = []
            for key in sorted(behaviours, key=int.bit_count):
                for k in antichain:
                    if not k & ~key:
                        break
                else:
                    antichain.append(key)
                    kept.append((q, x, key, behaviours[key]))
    # rank order across tables: the letter of first use, then the witnesses' order
    ranked = sorted({(rank[0], len(lag), lag, len(period), period) for *_, (rank, lag, period) in kept})
    number = {(lag, period): i for i, (_, _, lag, _, period) in enumerate(ranked)}
    final_up, rows, decoded = set(), {}, {}
    for q, x, key, (_, lag, period) in kept:
        up_node = ArenaNode(I_UP, q, x, number[lag, period])
        if not key & 1:
            final_up.add(up_node)
        moves[ArenaNode(source_kind, q, x)].add(up_node)
        if key >> 1 not in decoded:  # block nodes with the same labels share a row
            decoded[key >> 1] = bits.decode(key >> 1)
        rows[up_node] = decoded[key >> 1]
    for node, dsts in moves.items():
        rows[node] = tuple((dst, -1, "", "plain") for dst in sorted(dsts))
    return Arena(
        semantics=semantics,
        automaton=a,
        members=tuple(UPMember(lag, period) for _, _, lag, _, period in ranked),
        nodes=tuple(sorted(rows)),
        rows=rows,
        final_up=frozenset(final_up),
    )


def build_rc_arena(a: ParityAutomaton, tables: dict, up_sizes: dict | None = None) -> Arena:
    """Arena for the right-continuous game, over each input letter's class table.

    fresh -> (q_init, a); (q, a) -> (q, a, u) for blocks u that are valid
    runs under a and start at a successor of q; interrupts from (q, a, u)
    land on (u(n), b) for b != a.  Counts each letter's vocabulary into
    ``up_sizes`` if given.
    """
    moves = {ArenaNode(O_PAIR, q, x): set() for x in a.sigma_in for q in a.states}
    return _arena(a, RC, tables, moves, up_sizes)


def build_fv_arena(a: ParityAutomaton, tables: dict, up_sizes: dict | None = None) -> Arena:
    """Arena for the finite-variability game, with dagger nodes, over each input letter's class table.

    (q, a) -> (q', +) consumes the point output; (q, +) -> (q, +, a) fixes
    the next input; (q, +, a) -> (q, a, u) commits a block.  Interrupts at
    odd positions are discontinuities from the left and land on (u(n), b);
    even positions are discontinuities from the right and land on
    (u(n), +, b).  Counts each letter's vocabulary into ``up_sizes`` if given.
    """
    moves = {}
    for q in a.states:
        moves[ArenaNode(O_DAG, q)] = {ArenaNode(I_DAG, q, x) for x in a.sigma_in}
        for x in a.sigma_in:
            moves[ArenaNode(O_PAIR, q, x)] = set()
            moves[ArenaNode(I_DAG, q, x)] = set()
    for x in a.sigma_in:
        for q, q2 in tables[x].ctx.relations[x]:  # q2 is reached from q under x by some output
            moves[ArenaNode(O_PAIR, q, x)].add(ArenaNode(O_DAG, q2))
    return _arena(a, FV, tables, moves, up_sizes)


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
