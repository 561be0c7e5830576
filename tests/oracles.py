"""Slow reference procedures that the tests check the library against.

``GameGraph`` is a parity game keyed by node, and ``game_graph`` builds one
from the integer lists that ``discrete_game.solve_indexed`` reads.
``brute_force_solve`` solves a game by naive nested fixpoints, as an oracle
for ``solve_indexed``; ``reference_zielonka`` is the parity case of
``discrete_game.Game.solve`` on node-keyed sets, with both recursive calls
and predecessor lists rebuilt per attractor, and must return exactly what
``solve_indexed`` returns, strategies included, and the regions that
``Game.solve`` returns when some nodes' edges pass through hop nodes;
``reference_solve`` builds the synthesis game of a spec as a node-keyed
``GameGraph`` (``game_from_automaton``), solves it with
``reference_zielonka`` and reads the machines off the named strategies, and
must return exactly what ``discrete_game.solve`` returns;
``reference_automaton_from_json`` loads a spec file in two passes, the
entries into a named dict and then every triple again in the constructor,
as an oracle for the one-pass ``automaton.automaton_from_json``, which must
raise the same error or return an equal automaton and table;
``reference_product`` tabulates the product of a spec and a safety monitor
by name, transition by transition, as an oracle for the product that
``automaton.product_with_monitor`` composes from the two transition tables;
``reference_edge_relations`` reads each input letter's one-step relation off
the named transitions, as an oracle for ``ParityAutomaton.edge_relations``,
which reads it off the table;
``reference_signature`` is the named normal form of the state-string
congruence (first and last state, occurrence set, the set of (state,
states strictly before) pairs and the path letters, as frozensets), and
``reference_signature_product`` concatenates two of them; the integer
signatures of ``state_monoid`` must be equal exactly when these are.
``naive_equiv`` checks the defining conditions of the congruence literally,
as an oracle for both; ``reference_class_table`` closes the generators
breadth-first over named signatures, as an oracle for the witness order,
idempotents and d_q of ``state_monoid.build_class_table``;
``reference_build_UP`` recomputes each class's named signature from its
witness and builds the block vocabulary by testing every (class,
idempotent) pair with ``reference_signature_product``, as an oracle for the
closed-form absorption test of ``state_monoid.build_UP``, and must return the
same members in the same order; ``reference_interrupt_targets`` scans every
interrupt position of a member's lag plus one period (two under fv), as an
oracle for the two cached halves of ``arena._interrupt_targets``;
``reference_arena`` builds the flat arena, every block node with its own
sorted ``ArenaEdge`` tuple read off ``reference_interrupt_targets``, as an
oracle for the move table that ``arena.build_rc_arena`` and
``build_fv_arena`` return, one row of labels per node, once
``reference_antichain`` has dropped every block node that another block
node of its (q, x) dominates, by comparing every pair;
``full_arena`` is the flat arena of a spec as an ``Arena``, dominated
block nodes included, on which the tests check the witnesses found on the
pruned arena and play the geometric duel, whose controller picks a
dominated block;
``omega_equivalent`` is the equivalence of omega-words over states, built
from ``pair_profile`` and ``path_flags``, whose classes the tests check
``state_monoid.signature_of`` and the block vocabulary against;
``enumerate_choices`` searches the controller's positional choices on an
arena one by one, each checked by ``find_violation``, as an oracle for the
verdict of ``continuous_synth.solve_interrupt``, which runs ``Game.solve``
over the Zielonka tree of the interrupt arena's condition.
"""

import json
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from chronosynth.arena import (
    FRESH,
    FV,
    I_DAG,
    I_UP,
    LEFT,
    O_DAG,
    O_PAIR,
    RC,
    RIGHT,
    Arena,
    ArenaEdge,
    ArenaNode,
)
from chronosynth.automaton import (
    LASSO_SYNTAX,
    MAX_EVEN,
    MIN_EVEN,
    SINK,
    AutomatonError,
    ParityAutomaton,
    SafetyMonitor,
    _worst_priority,
    convert_convention,
)
from chronosynth.continuous_synth import find_violation, partial_strategy_graph
from chronosynth.discrete_game import GameError, MealyMachine, MooreCounterMachine, SolveResult
from chronosynth.omega_word import LassoWord, inf_set
from chronosynth.state_monoid import (
    MonoidContext,
    MonoidError,
    UPMember,
    build_class_table,
    build_UP,
    context_from_automaton,
)


@dataclass(frozen=True)
class GameGraph:
    """Finite parity game: max priority seen infinitely often decides.

    owner maps node -> 'O' | 'I'; the 'O' player wants the maximum
    infinitely recurring priority even.  Successor sequences are ordered; all
    tie-breaking follows that order.
    """

    owner: dict
    priority: dict
    succ: dict


def game_graph(succ, owner, priority) -> GameGraph:
    """The game that ``solve_indexed(succ, owner, priority)`` solves, keyed by node id."""
    return GameGraph(dict(enumerate(owner)), dict(enumerate(priority)), dict(enumerate(succ)))


def brute_force_solve(g: GameGraph, node_cap: int = 64):
    """Winning region of the output player via naive nested fixpoints.

    Evaluates the alternating fixpoint over one set variable per priority
    value, highest priority outermost (greatest fixpoint when even).  Used
    only as an oracle; exponential in alternations.
    """
    if len(g.owner) > node_cap:
        raise GameError(f"brute force oracle capped at {node_cap} nodes")
    prios = sorted({g.priority[v] for v in g.owner}, reverse=True)
    nodes = set(g.owner)
    X = {}

    def phi():
        res = set()
        for v in nodes:
            quantifier = any if g.owner[v] == "O" else all
            if quantifier(w in X[g.priority[w]] for w in g.succ[v]):
                res.add(v)
        return res

    def eval_chain(i):
        p = prios[i]
        X[p] = set(nodes) if p % 2 == 0 else set()
        while True:
            val = eval_chain(i + 1) if i + 1 < len(prios) else phi()
            if val == X[p]:
                return val
            X[p] = val

    w_o = eval_chain(0)
    return w_o, nodes - w_o


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


def reference_zielonka(g: GameGraph):
    """Winning regions and positional strategies for both players."""

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
    win, strat = solve(set(g.owner))
    return win["O"], win["I"], strat["O"], strat["I"]


def game_from_automaton(a: ParityAutomaton) -> GameGraph:
    """The synthesis game of the spec, its priorities read under the max-even convention."""
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


def reference_solve(a: ParityAutomaton) -> SolveResult:
    """``discrete_game.solve`` on the named game: the same winner, machines and region."""
    w_o, w_i, s_o, s_i = reference_zielonka(game_from_automaton(a))

    def walk(successors):
        """States reachable from the initial one; successors(q) records q's moves."""
        seen, todo = {a.initial}, [a.initial]
        while todo:
            for q_next in successors(todo.pop()):
                if q_next not in seen:
                    seen.add(q_next)
                    todo.append(q_next)
        return tuple(sorted(seen, key=repr))

    if ("i", a.initial) in w_o:
        transition = {}

        def respond(q):
            for x in a.sigma_in:
                q_next = s_o[("o", q, x)][1]
                b = min(b for b in a.sigma_out if a.transition[(q, x, b)] == q_next)
                transition[(q, x)] = (q_next, b)
                yield q_next

        machine = MealyMachine(walk(respond), a.initial, transition)
        return SolveResult("output", machine, None, frozenset(w_i))
    output, transition = {}, {}

    def challenge(q):
        x = output[q] = s_i[("i", q)][2]
        for b in a.sigma_out:
            q_next = transition[(q, b)] = a.transition[(q, x, b)]
            yield q_next

    machine = MooreCounterMachine(walk(challenge), a.initial, output, transition)
    return SolveResult("input", None, machine, frozenset(w_i))


def reference_product(a: ParityAutomaton, m: SafetyMonitor) -> ParityAutomaton:
    """The product automaton, named state by state; entering the monitor sink fixes the verdict."""
    sink_prio = _worst_priority(a.convention, (a.priority[q] for q in a.states))
    states = []
    transition = {}
    priority = {}
    for qa in a.states:
        for qm in m.states:
            q = (qa, qm)
            states.append(q)
            priority[q] = sink_prio if qm == m.sink else a.priority[qa]
            for ain in a.sigma_in:
                for aout in a.sigma_out:
                    transition[(q, ain, aout)] = (
                        a.transition[(qa, ain, aout)],
                        m.step(qm, ain, aout),
                    )
    return ParityAutomaton(
        states=tuple(states),
        sigma_in=a.sigma_in,
        sigma_out=a.sigma_out,
        transition=transition,
        initial=(a.initial, m.initial),
        priority=priority,
        convention=a.convention,
    )


def reference_edge_relations(a: ParityAutomaton) -> dict:
    """Per input letter x, the pairs (q, q') with d(q, (x, b)) = q' for some b, by name."""
    rels = {}
    for x in a.sigma_in:
        rel = set()
        for q in a.states:
            for b in a.sigma_out:
                rel.add((q, a.transition[(q, x, b)]))
        rels[x] = frozenset(rel)
    return rels


def reference_automaton_from_json(data) -> ParityAutomaton:
    """The spec file loaded in two passes, as an oracle for ``automaton.automaton_from_json``.

    The first pass checks each transition entry's source, letters and key
    into a named dict; then the missing triples complete to the sink, every
    target is checked, and ``ParityAutomaton``'s constructor walks every
    triple again.  Must raise what the one-pass loader raises, or return an
    equal automaton with an equal ``table``.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    names = {}
    for key in ("states", "sigma_in", "sigma_out"):
        values = data[key]
        if not isinstance(values, list):
            raise AutomatonError(f"{key} is not a JSON array: {values!r}")
        names[key] = tuple(values)
    for key, values in names.items():
        for name in values:
            if not isinstance(name, str):
                raise AutomatonError(f"{key} entry {name!r} is not a string")
            if key != "states" and name.split() != [name]:
                raise AutomatonError(f"{key} entry {name!r} is empty or contains whitespace")
            if key != "states" and not LASSO_SYNTAX.isdisjoint(name):
                raise AutomatonError(f"{key} entry {name!r} contains one of ( ) ^")
        if len(set(values)) < len(values):
            raise AutomatonError(f"{key} repeats an entry: {list(values)!r}")
    states, sigma_in, sigma_out = list(names["states"]), names["sigma_in"], names["sigma_out"]
    convention = data.get("convention", MIN_EVEN)
    known = set(states)
    priority = {}
    for q, p in data["priority"].items():
        if q not in known:
            raise AutomatonError(f"priority of undeclared state {q!r}")
        if isinstance(p, bool) or not isinstance(p, int):
            raise AutomatonError(f"priority of {q!r} is not an integer: {p!r}")
        priority[q] = p

    def declared(q):
        return isinstance(q, str) and q in known

    transition = {}
    for entry in data["transitions"]:
        q, ain, aout, tgt = entry["from"], entry["in"], entry["out"], entry["to"]
        if not declared(q):
            raise AutomatonError(f"transition from undeclared state {q!r}")
        if ain not in sigma_in or aout not in sigma_out:
            raise AutomatonError(f"transition letter ({ain!r}, {aout!r}) undeclared")
        key = (q, ain, aout)
        if key in transition:
            raise AutomatonError(f"duplicate transition at {key!r}")
        transition[key] = tgt

    referenced_sink = any(t == SINK for t in transition.values()) and SINK not in known
    incomplete = any(
        (q, a, b) not in transition for q in states for a in sigma_in for b in sigma_out
    )
    if referenced_sink or incomplete:
        if SINK not in known:
            states.append(SINK)
            known.add(SINK)
            priority[SINK] = _worst_priority(convention, priority.values())
        for q in states:
            for a in sigma_in:
                for b in sigma_out:
                    transition.setdefault((q, a, b), SINK)
    for tgt in transition.values():
        if not declared(tgt):
            raise AutomatonError(f"transition target {tgt!r} undeclared")
    return ParityAutomaton(
        states=tuple(states),
        sigma_in=sigma_in,
        sigma_out=sigma_out,
        transition=transition,
        initial=data["initial"],
        priority=priority,
        convention=convention,
    )


def naive_equiv(u, v, ctx: MonoidContext) -> bool:
    """Literal double-loop check of the defining conditions; test oracle."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise MonoidError("nonempty strings required")
    if u[0] != v[0] or u[-1] != v[-1]:
        return False

    def covers(x, y):
        for m in range(len(x)):
            before_m = set(x[:m])
            found = False
            for n in range(len(y)):
                if y[n] == x[m] and set(y[:n]) == before_m:
                    found = True
                    break
            if not found:
                return False
        return True

    if not covers(u, v) or not covers(v, u):
        return False
    for a in sorted(ctx.relations):
        ru = all(ctx.has_edge(a, u[i], u[i + 1]) for i in range(len(u) - 1))
        rv = all(ctx.has_edge(a, v[i], v[i + 1]) for i in range(len(v) - 1))
        if ru != rv:
            return False
    return True


class ReferenceSignature(NamedTuple):
    """Named normal form of a state-string class; hashed and compared as a tuple."""

    first: object
    last: object
    occ: frozenset
    pairs: frozenset  # of (state, frozenset of states strictly before)
    flags: frozenset  # letters a for which the string is an E_a-path


def reference_signature(u, ctx: MonoidContext) -> ReferenceSignature:
    """The named signature of a nonempty state string, read off position by position."""
    u = tuple(u)
    if not u:
        raise MonoidError("signatures are defined for nonempty strings only")
    seen = set()
    pairs = set()
    for q in u:
        pairs.add((q, frozenset(seen)))
        seen.add(q)
    flags = frozenset(
        a for a in ctx.relations
        if all(ctx.has_edge(a, u[i], u[i + 1]) for i in range(len(u) - 1))
    )
    return ReferenceSignature(u[0], u[-1], frozenset(seen), frozenset(pairs), flags)


def reference_signature_product(ctx: MonoidContext, s1, s2) -> ReferenceSignature:
    """Named signature of any concatenation u1 u2 with reference_signature(u_i) = s_i."""
    pairs = set(s1.pairs)
    for q, before in s2.pairs:
        pairs.add((q, s1.occ | before))
    flags = frozenset(a for a in s1.flags & s2.flags if ctx.has_edge(a, s1.last, s2.first))
    return ReferenceSignature(s1.first, s2.last, s1.occ | s2.occ, frozenset(pairs), flags)


def reference_class_table(ctx: MonoidContext, letter=None):
    """(witnesses in discovery order, idempotent witnesses, d_q) over named signatures.

    Closes the length-1 strings breadth-first under appending states in
    sorted order, restricted to E_letter-paths when a letter is given, and
    keeps the first string met in each class.
    """
    witnesses = {}
    level = []
    for q in ctx.states:
        witnesses[reference_signature((q,), ctx)] = (q,)
        level.append((q,))
    while level:
        next_level = []
        for w in level:
            for q in ctx.states:
                if letter is not None and not ctx.has_edge(letter, w[-1], q):
                    continue
                sig = reference_signature(w + (q,), ctx)
                if sig not in witnesses:
                    witnesses[sig] = w + (q,)
                    next_level.append(w + (q,))
        level = next_level
    idempotents = [
        w for sig, w in witnesses.items() if reference_signature_product(ctx, sig, sig) == sig
    ]
    return list(witnesses.values()), idempotents, max(map(len, witnesses.values()))


def reference_build_UP(table):
    """Block vocabulary by trying every (class, idempotent) pair on named signatures.

    The named signatures are recomputed from the table's witnesses, and the
    idempotents found by squaring them, so nothing is read off the table's
    keys.
    """
    ctx = table.ctx
    named = [(reference_signature(w, ctx), w) for w in table.witnesses.values()]
    idempotents = [(e, w) for e, w in named if reference_signature_product(ctx, e, e) == e]
    members = []
    for sig, rep in named:
        for e_sig, period in idempotents:
            if reference_signature_product(ctx, sig, e_sig) == sig:
                members.append(UPMember(rep, period))
    return members


def reference_interrupt_targets(a, member, letter, semantics):
    """Deduplicated (target, priority, size, kind) over all interrupt positions.

    Positions are scanned over the lag plus one period (two periods in the
    finite-variability arena, where position parity matters); later
    positions repeat earlier (target, label) combinations.
    """
    lag_len = len(member.lag)
    period_len = len(member.period)
    horizon = lag_len + (2 * period_len if semantics == FV else period_len)
    targets = set()
    running = -1
    for n in range(1, horizon + 1):
        q = member.letter(n)
        running = max(running, a.priority[q])
        size = "small" if n <= lag_len else "big"
        for b in a.sigma_in:
            if b != letter:
                # rc lands on (u(n), b); fv odd positions from the left on
                # (u(n), b), even positions from the right on (u(n), +, b)
                dst = ArenaNode(O_PAIR if semantics == RC or n % 2 else I_DAG, q, b)
                kind = "interrupt" if semantics == RC else (LEFT if n % 2 else RIGHT)
                targets.add((dst, running, size, kind))
    return frozenset(targets)


class FlatArena:
    """An arena that keeps every node's sorted moves, block nodes' included."""

    def __init__(self, semantics, automaton, members, edges_from, final_up):
        self.semantics = semantics
        self.automaton = automaton
        self.members = members
        self.edges_from = edges_from  # node -> its sorted moves, in node order
        self.final_up = final_up
        self.nodes = tuple(edges_from)
        self.edges = tuple(e for outs in edges_from.values() for e in outs)
        names = {node: node.pretty() for node in self.nodes}
        shared = Counter(names.values())
        self.names = {node: repr(node) if shared[name] > 1 else name for node, name in names.items()}

    def outgoing(self, node):
        return self.edges_from[node]


def reference_arena(a: ParityAutomaton, semantics, up) -> FlatArena:
    """The arena over the vocabularies ``up``, each block node's edges built for it alone.

    A block node (q, x, u) exists for each behaviour (q, x, final, labelled
    edges) of the members u of ``up[x]`` that start at a successor of q under
    x, represented by the member of that behaviour used first over (letter,
    member); members are numbered by first use.
    """
    a = convert_convention(a, MAX_EVEN)
    fresh = ArenaNode(FRESH)
    moves = {fresh: {ArenaEdge(fresh, ArenaNode(O_PAIR, a.initial, x)) for x in a.sigma_in}}
    for q in a.states:
        for x in a.sigma_in:
            pair = ArenaNode(O_PAIR, q, x)
            moves[pair] = set()
            if semantics == FV:
                moves[pair] = {ArenaEdge(pair, ArenaNode(O_DAG, a.transition[q, x, b])) for b in a.sigma_out}
                moves[ArenaNode(I_DAG, q, x)] = set()
        if semantics == FV:
            dag = ArenaNode(O_DAG, q)
            moves[dag] = {ArenaEdge(dag, ArenaNode(I_DAG, q, x)) for x in a.sigma_in}
    source_kind = O_PAIR if semantics == RC else I_DAG
    rels = reference_edge_relations(a)
    rank, best = {}, {}
    for x in a.sigma_in:
        for member in up[x]:
            sources = [q for q in a.states if (q, member.lag[0]) in rels[x]]
            if not sources:
                continue
            r = rank.setdefault(member, len(rank))
            labels = reference_interrupt_targets(a, member, x, semantics)
            final = max(a.priority[q] for q in member.period) % 2 == 0
            for q in sources:
                key = (q, x, final, labels)
                if key not in best or r < best[key][0]:
                    best[key] = r, member
    members = [m for _, m in sorted(set(best.values()))]
    index = {m: i for i, m in enumerate(members)}
    final_up, edges_from = set(), {}
    for (q, x, final, labels), (_, member) in best.items():
        node = ArenaNode(I_UP, q, x, index[member])
        if final:
            final_up.add(node)
        source = ArenaNode(source_kind, q, x)
        moves[source].add(ArenaEdge(source, node))
        edges_from[node] = tuple(sorted(ArenaEdge(node, *label) for label in labels))
    edges_from.update((node, tuple(sorted(es))) for node, es in moves.items())
    return FlatArena(semantics, a, tuple(members), dict(sorted(edges_from.items())), frozenset(final_up))


def reference_antichain(arena) -> FlatArena:
    """The arena without its dominated block nodes, every pair of one (q, x)'s block nodes compared.

    Reads ``nodes``, ``outgoing``, ``final_up`` and ``members`` of a
    ``FlatArena`` or an ``Arena``.  A block node A dominates a block node B
    of the same (q, x) when A is final whenever B is and A's labels are a
    subset of B's.  Distinct block nodes of one (q, x) differ in behaviour,
    so no two dominate each other, and B is dropped iff some other block
    node dominates it.  The kept members are renumbered in their order.
    """
    blocks = {}  # (q, x) -> its block nodes and their label sets
    for node in arena.nodes:
        if node.kind == I_UP:
            labels = {e[1:] for e in arena.outgoing(node)}
            blocks.setdefault((node.state, node.letter), []).append((node, labels))
    final_up = arena.final_up
    kept = [
        b
        for group in blocks.values()
        for b, b_labels in group
        if not any(
            a != b and (a in final_up or b not in final_up) and a_labels <= b_labels for a, a_labels in group
        )
    ]
    ups = sorted({n.up for n in kept})
    number = {up: i for i, up in enumerate(ups)}
    renamed = {n: n._replace(up=number[n.up]) for n in kept}
    edges_from = {}
    for node in arena.nodes:
        outs = arena.outgoing(node)
        if node.kind != I_UP:
            edges_from[node] = tuple(
                e._replace(dst=renamed.get(e.dst, e.dst)) for e in outs if e.dst.kind != I_UP or e.dst in renamed
            )
        elif node in renamed:
            edges_from[renamed[node]] = tuple(e._replace(src=renamed[node]) for e in outs)
    return FlatArena(
        arena.semantics,
        arena.automaton,
        tuple(arena.members[up] for up in ups),
        dict(sorted(edges_from.items())),
        frozenset(renamed[n] for n in kept if n in final_up),
    )


def full_arena(spec: ParityAutomaton, semantics) -> Arena:
    """The arena of ``spec`` with a block node for every behaviour, dominated ones included.

    Builds the vocabulary of each input letter over its own class table,
    and gives each node of ``reference_arena`` its row of labels.  The
    dominated block nodes are moves that ``build_game_arena`` drops.
    """
    ctx = context_from_automaton(spec)
    up = {x: build_UP(build_class_table(ctx, letter=x)) for x in spec.sigma_in}
    flat = reference_arena(spec, semantics, up)
    rows = {node: tuple(e[1:] for e in flat.edges_from[node]) for node in flat.nodes}
    return Arena(semantics, flat.automaton, flat.members, flat.nodes, rows, flat.final_up)


def enumerate_choices(arena):
    """Depth-first search over reachable partial choices.

    Yields (choice, violation-or-None) for every assignment whose verdict
    is decided: completed winning/losing assignments, and violated partial
    assignments (whose every completion loses, since reachability and both
    violation clauses only grow under extension).  Every key of a yielded
    choice is reachable under it: each is chosen while reachable, and
    reachability only grows.  Order is deterministic.  The controller wins
    iff some yielded choice has no violation: it has a positional winner
    whenever it wins.
    """

    def explore(choice):
        sg = partial_strategy_graph(arena, choice)
        violation = find_violation(sg)
        if violation is not None or not sg.pending:
            yield dict(choice), violation
            return
        node = sg.pending[0]
        for edge in arena.outgoing(node):
            choice[node] = edge
            yield from explore(choice)
            del choice[node]

    yield from explore({})


def pair_profile(w: LassoWord) -> frozenset:
    """The set of pairs (letter at m, set of letters strictly before m).

    The prefix-letter sets grow monotonically and reach the full letter set
    within ``lag + period`` positions, after which each period letter pairs
    with the full set; one further period copy therefore adds nothing new,
    so scanning ``u v v`` is exhaustive.
    """
    horizon = len(w.prefix) + 2 * len(w.period)
    seen = set()
    pairs = set()
    for i in range(horizon):
        letter = w.letter_at(i)
        pairs.add((letter, frozenset(seen)))
        seen.add(letter)
    return frozenset(pairs)


def path_flags(w: LassoWord, relations: dict) -> dict:
    """Per input letter a: is the omega-word an E_a-path throughout?

    ``relations`` maps each input letter to a set of state pairs (q, q').
    Consecutive pairs of ``u v v`` cover the prefix, the prefix/period
    boundary, the period interior, and the period wrap-around.
    """
    word = w.prefix + w.period + w.period
    flags = {}
    for a, rel in relations.items():
        flags[a] = all((word[i], word[i + 1]) in rel for i in range(len(word) - 1))
    return flags


def omega_equivalent(w1: LassoWord, w2: LassoWord, relations: dict | None = None) -> bool:
    """Equivalence of omega-words over automaton states.

    Holds iff (1) the infinitely-occurring letter sets agree, (2, 3) the
    (letter, letters-strictly-before) pair sets agree in both directions,
    and (4) the per-input-letter path validity flags agree.  ``relations``
    may be omitted when no path context is relevant.
    """
    if inf_set(w1) != inf_set(w2):
        return False
    if pair_profile(w1) != pair_profile(w2):
        return False
    if relations:
        if path_flags(w1, relations) != path_flags(w2, relations):
            return False
    return True
