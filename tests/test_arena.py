"""Arena construction for both semantics."""

import hashlib
import inspect
import io
import json
import random

import pytest

from chronosynth.arena import (
    FV,
    I_DAG,
    I_UP,
    LEFT,
    O_DAG,
    O_PAIR,
    RC,
    RIGHT,
    Arena,
    ArenaNode,
    arena_to_json,
    build_fv_arena,
    build_rc_arena,
    export_dot,
)
from chronosynth.automaton import MAX_EVEN, MIN_EVEN, ParityAutomaton, convert_convention, dot_quote
from chronosynth.cli import main
from chronosynth import continuous_synth
from chronosynth.continuous_synth import SynthError, build_game_arena, decide_continuous
from chronosynth.state_monoid import (
    build_UP,
    build_class_table,
    context_from_automaton,
    signature_of,
)

from fixture_specs import FIXTURES, load_fixture
from oracles import full_arena, reference_antichain, reference_arena


def one_state_automaton(sigma_in=("0", "1"), priority=0):
    transition = {("q", a, b): "q" for a in sigma_in for b in ("0", "1")}
    return ParityAutomaton(
        ("q",), sigma_in, ("0", "1"), transition, "q", {"q": priority}, MAX_EVEN
    )


def random_automaton(rng, n_states=2, sigma_in=("0", "1")):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in sigma_in for b in "01"
    }
    priority = {q: rng.randint(0, 3) for q in states}
    return ParityAutomaton(
        tuple(states), tuple(sigma_in), ("0", "1"), transition, states[0], priority, MAX_EVEN
    )


def is_path_for(member, a, ctx):
    # absorption (lag . period ~ lag) plus idempotence make the lag's flag
    # alone decide path validity of the whole omega-word
    return bool(signature_of(member.lag, ctx)[4] >> list(ctx.relations).index(a) & 1)


def up_for(a):
    ctx = context_from_automaton(a)
    return {x: build_UP(build_class_table(ctx, letter=x)) for x in a.sigma_in}


def test_rc_arena_one_state_shape():
    a = one_state_automaton()
    up = up_for(a)
    arena = build_rc_arena(a, up)
    kinds = {}
    for n in arena.nodes:
        kinds.setdefault(n.kind, []).append(n)
    assert len(kinds["fresh"]) == 1
    assert len(kinds[O_PAIR]) == 2
    assert len(kinds[I_UP]) <= sum(len(members) for members in up.values())
    # from fresh, one edge per input letter
    assert len(arena.outgoing(arena.fresh)) == 2
    # every block node interrupts only to the other letter, via big edges too
    for node in kinds[I_UP]:
        outs = arena.outgoing(node)
        assert outs, "block nodes must allow interrupts with two input letters"
        assert all(e.dst.letter != node.letter for e in outs)
        assert any(e.size == "big" for e in outs)


def test_rc_arena_singleton_input_has_no_interrupts():
    a = one_state_automaton(sigma_in=("0",))
    arena = build_rc_arena(a, up_for(a))
    assert all(not e.labeled for e in arena.edges)


def test_arena_builders_convert_to_max_even():
    rng = random.Random(4)
    checked = 0
    for _ in range(10):
        spec = convert_convention(random_automaton(rng, 3), MIN_EVEN)
        canonical = convert_convention(spec, MAX_EVEN)
        if canonical.priority == spec.priority:
            continue
        up = up_for(spec)
        for build in (build_rc_arena, build_fv_arena):
            arena, expected = build(spec, up), build(canonical, up)
            assert arena.edges == expected.edges
            assert arena.final_up == expected.final_up
        checked += 1
    assert checked >= 5


def test_big_edge_priority_is_member_max():
    rng = random.Random(3)
    for _ in range(10):
        a = random_automaton(rng)
        arena = build_rc_arena(a, up_for(a))
        checked = 0
        for e in arena.edges:
            if e.size != "big":
                continue
            member = arena.member(e.src)
            states = set(member.lag) | set(member.period)
            assert e.priority == max(a.priority[q] for q in states)
            checked += 1
        assert checked > 0


def test_small_edge_priority_bounded_by_big():
    rng = random.Random(5)
    a = random_automaton(rng)
    arena = build_rc_arena(a, up_for(a))
    for node in arena.nodes:
        if node.kind != I_UP:
            continue
        outs = arena.outgoing(node)
        bigs = [e.priority for e in outs if e.size == "big"]
        smalls = [e.priority for e in outs if e.size == "small"]
        if bigs and smalls:
            assert max(smalls) <= max(bigs)


def test_small_edges_land_in_lag_targets():
    rng = random.Random(7)
    a = random_automaton(rng)
    arena = build_rc_arena(a, up_for(a))
    for e in arena.edges:
        if e.size == "small":
            member = arena.member(e.src)
            assert e.dst.state in set(member.lag)
        elif e.size == "big":
            member = arena.member(e.src)
            period_targets = {
                member.letter(n)
                for n in range(len(member.lag) + 1, len(member.lag) + 2 * len(member.period) + 1)
            }
            assert e.dst.state in period_targets


def test_fv_arena_structure():
    a = one_state_automaton()
    arena = build_fv_arena(a, up_for(a))
    dag_nodes = [n for n in arena.nodes if n.kind == O_DAG]
    assert dag_nodes
    for n in dag_nodes:
        outs = arena.outgoing(n)
        assert len(outs) == len(a.sigma_in)
        assert all(e.dst.kind == I_DAG for e in outs)
    # both interrupt kinds appear, with the position parity rule
    lefts = [e for e in arena.edges if e.kind == LEFT]
    rights = [e for e in arena.edges if e.kind == RIGHT]
    assert lefts and rights
    assert all(e.dst.kind == O_PAIR for e in lefts)
    assert all(e.dst.kind == I_DAG for e in rights)


def test_fv_left_interrupts_come_from_odd_positions():
    rng = random.Random(11)
    a = random_automaton(rng)
    arena = build_fv_arena(a, up_for(a))
    for e in arena.edges:
        if e.kind not in (LEFT, RIGHT):
            continue
        member = arena.member(e.src)
        horizon = len(member.lag) + 2 * len(member.period)
        parities = {
            n % 2
            for n in range(1, horizon + 1)
            if member.letter(n) == e.dst.state
        }
        if e.kind == LEFT:
            assert 1 in parities
        else:
            assert 0 in parities


def test_fv_final_set_matches_period_priority():
    rng = random.Random(13)
    a = random_automaton(rng)
    arena = build_fv_arena(a, up_for(a))
    for node in arena.nodes:
        if node.kind != I_UP:
            continue
        member = arena.member(node)
        expected = max(a.priority[q] for q in set(member.period)) % 2 == 0
        assert (node in arena.final_up) == expected


def test_fv_node_priorities_inherited():
    rng = random.Random(17)
    a = random_automaton(rng)
    arena = build_fv_arena(a, up_for(a))
    for n in arena.nodes:
        if n.kind == "fresh":
            assert arena.node_priority(n) == -1
        else:
            assert arena.node_priority(n) == a.priority[n.state]
    rc = build_rc_arena(a, up_for(a))
    assert all(rc.node_priority(n) == -1 for n in rc.nodes)


def test_dot_export_deterministic_and_parses_back():
    a = one_state_automaton()
    arena = build_rc_arena(a, up_for(a))
    dot1 = export_dot(arena)
    dot2 = export_dot(build_rc_arena(a, up_for(a)))
    assert dot1 == dot2
    assert dot1.startswith("digraph")
    assert dot1.count("->") == len(arena.edges)


def test_json_dump_counts():
    a = one_state_automaton()
    arena = build_fv_arena(a, up_for(a))
    data = arena_to_json(arena)
    assert len(data["nodes"]) == len(arena.nodes)
    assert len(data["edges"]) == len(arena.edges)
    assert data["semantics"] == FV
    ups = [n for n in data["nodes"] if n["kind"] == I_UP]
    assert all("final" in n for n in ups)


# -- block nodes are built over behaviours -------------------------------------


def corpus_automaton(rng, n_states, sigma_in):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, x, b): rng.choice(states) for q in states for x in sigma_in for b in ("0", "1")
    }
    priority = {q: rng.randint(0, 4) for q in states}
    return ParityAutomaton(
        tuple(states), sigma_in, ("0", "1"), transition, states[0], priority, MAX_EVEN
    )


def member_behaviour(a, semantics, member, x):
    """Finality and labelled interrupt edges of a block, read off member.letter(n).

    Scans four periods past the lag: the running maximum settles within one
    period, and position parity (fv) repeats every two.
    """
    final = max(a.priority[q] for q in member.period) % 2 == 0
    edges = set()
    running = -1
    for n in range(1, len(member.lag) + 4 * len(member.period) + 1):
        q_n = member.letter(n)
        running = max(running, a.priority[q_n])
        size = "small" if n <= len(member.lag) else "big"
        for b in a.sigma_in:
            if b == x:
                continue
            if semantics == RC:
                edges.add(((O_PAIR, q_n, b), running, size, "interrupt"))
            elif n % 2:
                edges.add(((O_PAIR, q_n, b), running, size, LEFT))
            else:
                edges.add(((I_DAG, q_n, b), running, size, RIGHT))
    return final, frozenset(edges)


def node_behaviour(arena, node):
    edges = frozenset(
        ((e.dst.kind, e.dst.state, e.dst.letter), e.priority, e.size, e.kind)
        for e in arena.outgoing(node)
        if e.labeled
    )
    return node in arena.final_up, edges


@pytest.fixture(scope="module")
def quotient_corpus():
    """Seeded 1-3-state specs over one to three input letters, with both arenas."""
    rng = random.Random(2024)
    corpus = []
    for sigma_in in (("0",), ("0", "1"), ("a", "b", "c")):
        for n_states in (1, 2, 2, 3, 3):
            a = corpus_automaton(rng, n_states, sigma_in)
            for semantics in (RC, FV):
                corpus.append((a, semantics, build_game_arena(a, semantics)[0]))
    return corpus


def test_every_usable_member_has_exactly_one_block_node(quotient_corpus):
    # exactly one in the full arena, and in the arena built, exactly one if
    # the reference antichain keeps that behaviour of (q, x) and none if not
    checked = 0
    for a, semantics, arena in quotient_corpus:
        ctx = context_from_automaton(a)
        rels = a.edge_relations()
        source_kind = O_PAIR if semantics == RC else I_DAG
        full = full_arena(a, semantics)
        kept = reference_antichain(full)
        behaviour = {n: node_behaviour(arena, n) for n in arena.nodes if n.kind == I_UP}
        full_behaviour = {n: node_behaviour(full, n) for n in full.nodes if n.kind == I_UP}
        kept_behaviour = {(n.state, n.letter, node_behaviour(kept, n)) for n in kept.nodes if n.kind == I_UP}
        rank, first = {}, {}  # member -> first-use rank; block node -> lowest-ranked member
        for x in a.sigma_in:
            for member in build_UP(build_class_table(ctx, letter=x)):
                sources = [q for q in a.states if (q, member.letter(1)) in rels[x]]
                if not is_path_for(member, x, ctx) or not sources:
                    continue
                rank.setdefault(member, len(rank))
                want = member_behaviour(a, semantics, member, x)
                for q in sources:
                    source = ArenaNode(source_kind, q, x)
                    assert len([e for e in full.outgoing(source) if full_behaviour[e.dst] == want]) == 1, member
                    matches = [e.dst for e in arena.outgoing(source) if behaviour[e.dst] == want]
                    assert len(matches) == ((q, x, want) in kept_behaviour), (semantics, q, x, member)
                    checked += 1
                    if not matches:
                        continue
                    best = first.setdefault(matches[0], member)
                    if rank[member] < rank[best]:
                        first[matches[0]] = member
        # the lowest-ranked member represents each node, numbered in rank order
        assert first == {n: arena.member(n) for n in arena.nodes if n.kind == I_UP}
        assert [rank[m] for m in arena.members] == sorted(rank[m] for m in arena.members)
    assert checked > 1000


def test_block_nodes_out_of_one_controller_node_differ_in_behaviour(quotient_corpus):
    blocks = 0
    for _, _, arena in quotient_corpus:
        for node in arena.nodes:
            if arena.owner(node) != "O":
                continue
            targets = [e.dst for e in arena.outgoing(node) if e.dst.kind == I_UP]
            behaviours = {node_behaviour(arena, n) for n in targets}
            assert len(behaviours) == len(targets), node
            blocks += len(targets)
        assert len(arena.members) == len({n.up for n in arena.nodes if n.kind == I_UP})
    assert blocks > 100


def test_interrupt_edge_at_each_position_is_an_arena_edge(quotient_corpus):
    # the play engine resolves interrupts through interrupt_edge, the builders
    # through the cached halves: over the lag and one repeat window past it
    # (two periods under fv, where parity fixes the kind) both give the same
    # edges; checked on the full arenas, whose dominated blocks play can reach
    arenas = [full_arena(a, semantics) for a, semantics, _ in quotient_corpus]
    arenas += [full_arena(a, s) for a in _continuous_fixtures() for s in (RC, FV)]
    checked = 0
    for arena in arenas:
        mult = 2 if arena.semantics == FV else 1
        for node in arena.nodes:
            if node.kind != I_UP:
                continue
            member = arena.member(node)
            span = len(member.lag) + mult * len(member.period)
            for b in arena.automaton.sigma_in:
                if b == node.letter:
                    continue
                positions = {arena.interrupt_edge(node, n, b) for n in range(1, span + 1)}
                labelled = {e for e in arena.outgoing(node) if e.labeled and e.dst.letter == b}
                assert positions == labelled, (arena.semantics, node, b)
                checked += 1
    assert checked > 1000


def test_effective_priority_and_exported_node_priorities(quotient_corpus):
    # -1 stands for "no priority" on unlabeled edges, at the fresh node and
    # at every rc node; the exports print a node priority exactly where one exists
    arenas = [arena for _, _, arena in quotient_corpus]
    for fixture in sorted(FIXTURES.glob("*.json")):
        if not fixture.stem.endswith("_d"):
            arenas += [build_game_arena(load_fixture(fixture.stem), s)[0] for s in (RC, FV)]
    # the arena stores the sorted nodes and each node's own row, the labels
    # of its moves, sorted; in the readers' view every edge is in its
    # source's sorted list, and the sorted edge list is those lists joined
    # in node order
    fields = set(inspect.signature(Arena).parameters)
    assert fields == {"semantics", "automaton", "members", "nodes", "rows", "final_up"}
    for arena in arenas:
        assert arena.nodes == tuple(sorted(arena.rows))
        assert arena.edge_count == sum(map(len, arena.rows.values()))
        for node in arena.nodes:
            outs = arena.outgoing(node)
            assert outs == tuple(sorted(outs)) and all(e.src == node for e in outs), node
            assert arena.rows[node] == tuple(e[1:] for e in outs), node
            # only a block node over a one-letter input alphabet has no moves
            assert outs or (node.kind == I_UP and len(arena.automaton.sigma_in) == 1), node
        assert arena.edges == tuple(sorted(arena.edges))
        nodes = set(arena.nodes)
        assert all(e.src in nodes and e.dst in nodes for e in arena.edges)
        priority = arena.automaton.priority
        for e in arena.edges:
            label = e.priority if e.labeled else -1
            if arena.semantics == RC:
                assert arena.effective_priority(e) == label, e
            else:
                source = -1 if e.src.kind == "fresh" else priority[e.src.state]
                assert arena.effective_priority(e) == max(label, source), e
        dot_nodes = export_dot(arena).splitlines()[2 : 2 + len(arena.nodes)]
        json_nodes = arena_to_json(arena)["nodes"]
        for node, line, entry in zip(arena.nodes, dot_nodes, json_nodes, strict=True):
            p = arena.node_priority(node)
            name = arena.names[node]
            label = dot_quote(f"{name} p{p}" if p >= 0 else name)
            assert line.startswith(f"  {dot_quote(name)} [") and f"label={label}" in line, line
            assert entry["name"] == name and entry.get("priority", -1) == p, (node, entry)


# -- the factored arena against the flat one ---------------------------------


def _continuous_fixtures():
    return [load_fixture(f.stem) for f in sorted(FIXTURES.glob("*.json")) if not f.stem.endswith("_d")]


def test_factored_arena_matches_flat_reference(quotient_corpus):
    specs = [a for a, semantics, _ in quotient_corpus if semantics == RC] + _continuous_fixtures()
    specs += [random_automaton(random.Random(seed), 3) for seed in range(8)]
    blocks = 0
    for a in specs:
        up = up_for(a)
        for semantics, build in ((RC, build_rc_arena), (FV, build_fv_arena)):
            arena, flat = build(a, up), reference_antichain(reference_arena(a, semantics, up))
            count = arena.edge_count  # read off the table, before any edge is built
            assert arena.nodes == flat.nodes, semantics
            assert {n: arena.outgoing(n) for n in arena.nodes} == flat.edges_from, semantics
            assert arena.edges == flat.edges, semantics
            assert arena.final_up == flat.final_up, semantics
            assert arena.members == flat.members, semantics
            assert arena.names == flat.names, semantics
            assert count == len(arena.edges), semantics
            block_nodes = [n for n in arena.nodes if n.kind == I_UP]
            blocks += len(block_nodes)
    assert blocks > 1000


def test_synth_builds_no_block_edge(monkeypatch):
    # the decision reads the arena's tables: no block node is expanded into edges
    for a in _continuous_fixtures():
        for semantics in (RC, FV):
            arena = decide_continuous(a, semantics).arena
            built = [n for n in arena._edges if n.kind == I_UP]
            assert any(n.kind == I_UP for n in arena.nodes) and not built, semantics
    expanded = []
    outgoing = Arena.outgoing

    def recording(arena, node):
        if node.kind == I_UP:
            expanded.append(node)
        return outgoing(arena, node)

    monkeypatch.setattr(Arena, "outgoing", recording)
    for fixture in ("psi_copy", "psi_indet_fv", "psi_jump_fv"):
        for semantics in (RC, FV):
            argv = ["synth", "--semantics", semantics, "--stats", str(FIXTURES / f"{fixture}.json")]
            assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    assert expanded == []


def test_build_game_arena_builds_no_edge(monkeypatch):
    # the stuck-controller check reads each controller node's row of labels
    for a in _continuous_fixtures():
        for semantics in (RC, FV):
            assert build_game_arena(a, semantics)[0]._edges == {}, semantics
    # and still refuses a controller node without moves: an empty vocabulary
    # leaves each (q, +, x) node none
    monkeypatch.setattr(continuous_synth, "build_UP", lambda table: ())
    for semantics in (RC, FV):
        with pytest.raises(SynthError, match="controller node without moves"):
            build_game_arena(load_fixture("psi_copy"), semantics)


# -- 3-state arenas are pinned -------------------------------------------------

# (seed, semantics, input letters) -> (nodes, edges, DOT digest, JSON digest),
# each digest the first 16 hex digits of a sha256, for
# random_automaton(Random(seed), 3, input letters).  Over the one input letter
# "0" the environment can only accept, so every block node has no moves.
THREE_STATE_PINS = {
    (0, RC, "01"): (16, 30, "20b02b16e23531e2", "df43d4f7c15b60cb"),
    (0, FV, "01"): (37, 130, "be429f0c73c5098a", "4bafb73db4c6d20e"),
    (1, RC, "01"): (25, 66, "fe20029296df363e", "cb2e62dec05e9a77"),
    (1, FV, "01"): (66, 361, "ffd0fab74ecd038c", "46a9b9c8eba87b23"),
    (2, RC, "01"): (28, 83, "18c02524f2aca81e", "5a7f2fef0e33ecd2"),
    (2, FV, "01"): (90, 545, "da80ab2cea9636f6", "1aa44baa92a40b89"),
    (3, RC, "01"): (33, 102, "a5bc3b9e85e8749e", "120ce72bdfc362d3"),
    (3, FV, "01"): (110, 626, "07a65b2a7f3e05ad", "cf295e6366a6d6c3"),
    (4, RC, "01"): (23, 62, "dd74d77d8a7875be", "5ecda8a85ccbb04d"),
    (4, FV, "01"): (43, 195, "5e1fa573fdfae253", "2d273c61033e0bc4"),
    (5, RC, "01"): (22, 76, "8d92bb5b37140d07", "89b9202c0c6372c7"),
    (5, FV, "01"): (81, 494, "19fc32078dbb9344", "6c0c73e916573b87"),
    (6, RC, "01"): (21, 60, "0ed9e2756d94ee2d", "1979c46f8299e005"),
    (6, FV, "01"): (50, 225, "86b04c1d2d194dc4", "73fbedde601cf028"),
    (7, RC, "01"): (22, 64, "02e1803cea0cd2a8", "3fcf4ce804c077a3"),
    (7, FV, "01"): (102, 614, "e9c2776995eca110", "26ced9cd794f6119"),
    (0, RC, "0"): (7, 4, "f47ce82c409e267a", "7a55898ebfa4b3f8"),
    (0, FV, "0"): (13, 12, "41530b1f4d067b4c", "5afd906194b10bcd"),
    (1, RC, "0"): (7, 4, "c23895c36a5ea298", "eac82c5ff23a9540"),
    (1, FV, "0"): (13, 13, "f655af8458f476cc", "a0ad5bdac30e4ea2"),
    (2, RC, "0"): (7, 4, "f47ce82c409e267a", "c59702819b077912"),
    (2, FV, "0"): (13, 12, "28b18a8e6dc24c61", "e1ad57de9ac63efd"),
    (3, RC, "0"): (7, 4, "f47ce82c409e267a", "15ab337af1c3b4a0"),
    (3, FV, "0"): (13, 13, "0e14ee0184384ae6", "d316dc53020d9c15"),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_three_state_arenas_are_pinned():
    got = {}
    for seed, semantics, letters in THREE_STATE_PINS:
        a = random_automaton(random.Random(seed), 3, tuple(letters))
        arena = build_game_arena(a, semantics)[0]
        got[seed, semantics, letters] = (
            len(arena.nodes),
            len(arena.edges),
            _digest(export_dot(arena)),
            _digest(json.dumps(arena_to_json(arena), indent=2, sort_keys=True)),
        )
    assert got == THREE_STATE_PINS
