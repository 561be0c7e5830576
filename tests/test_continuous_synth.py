"""Winning-check clauses, the choice oracle, and end-to-end verdicts."""

import itertools
import json
import random
from collections import Counter

import pytest

from chronosynth import continuous_synth
from chronosynth.arena import FV, I_UP, O_PAIR, RC, ArenaEdge, ArenaNode
from chronosynth.automaton import ParityAutomaton
from chronosynth.cli import _witness_json
from chronosynth.continuous_synth import (
    StrategyGraph,
    SynthError,
    build_game_arena,
    build_strategy_graph,
    decide_continuous,
    find_violation,
    partial_strategy_graph,
)
from chronosynth.state_monoid import ResourceCapError

from fixture_specs import load_fixture
from oracles import enumerate_choices, named_transitions, reference_components, reference_violation
from test_arena import _continuous_fixtures, _digest, quotient_corpus  # noqa: F401 (a fixture)
from test_discrete_game import _family_spec


def random_automaton(rng, n_states=2, max_prio=3):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in "01" for b in "01"
    }
    priority = {q: rng.randint(0, max_prio) for q in states}
    return ParityAutomaton.from_transitions(
        tuple(states), ("0", "1"), ("0", "1"), transition, states[0], priority
    )


def arena_for(a, semantics=RC):
    return build_game_arena(a, semantics)[0]


def exhaustive_bad_walk(sg, max_len=None):
    """Closed-walk oracle for the cycle clause, independent of the SCC path."""
    arena = sg.arena
    edges_by_src = sg.edges_from
    if max_len is None:
        max_len = 2 * len(edges_by_src) + 2

    def walks_from(node, length):
        if length == 0:
            yield ()
            return
        for e in edges_by_src.get(node, ()):
            for rest in walks_from(e.dst, length - 1):
                yield (e,) + rest

    for start in sorted(edges_by_src):
        for length in range(1, max_len + 1):
            for walk in walks_from(start, length):
                if walk[-1].dst != start:
                    continue
                prios = [
                    p for e in walk if (p := arena.effective_priority(e)) >= 0
                ]
                if not prios:
                    continue
                if max(prios) % 2 == 1 and any(e.size == "big" for e in walk):
                    return walk
    return None


def test_clause_a_detects_nonfinal_block_node():
    spec = load_fixture("psi_indet_fv")
    res = decide_continuous(spec, FV)
    assert not res.realizable
    assert res.violation is not None


def test_clause_a_example_direct():
    # a choice whose reachable block node is non-final loses by accepting
    rng = random.Random(1)
    for _ in range(20):
        a = random_automaton(rng)
        arena = arena_for(a)
        for choice, violation in enumerate_choices(arena):
            sg = partial_strategy_graph(arena, choice)
            bad = [n for n in sg.edges_from if n.kind == I_UP and n not in arena.final_up]
            if bad:
                assert violation is not None
                assert violation.kind == "A" or violation.kind == "B"
            if violation is not None and violation.kind == "A":
                assert violation.node not in arena.final_up
            break


def test_all_small_odd_cycle_is_won_by_controller():
    # the copy spec's witness loops through interrupts with only small
    # edges... build instead an explicit graph check: every winning witness
    # has no reachable non-final node and no big odd cycle
    res = decide_continuous(load_fixture("psi_copy"), RC)
    sg = build_strategy_graph(res.arena, res.witness)
    assert find_violation(sg) is None
    assert all(n in res.arena.final_up for n in sg.edges_from if n.kind == I_UP)


def test_scc_detection_matches_walk_enumeration():
    rng = random.Random(9)
    compared = 0
    for _ in range(40):
        a = random_automaton(rng, n_states=rng.choice((1, 2)))
        arena = arena_for(a, rng.choice((RC, FV)))
        seen = 0
        for choice, violation in enumerate_choices(arena):
            sg = partial_strategy_graph(arena, choice)
            # the search chooses only at reachable nodes, and reachability only grows
            assert set(choice) <= set(sg.edges_from)
            if sum(map(len, sg.edges_from.values())) > 40:
                break
            bad_a = [n for n in sg.edges_from if n.kind == I_UP and n not in arena.final_up]
            if not bad_a:
                walk = exhaustive_bad_walk(sg, max_len=8)
                scc_verdict = violation is not None and violation.kind == "B"
                walk_verdict = walk is not None
                if walk_verdict:
                    assert scc_verdict, "walk oracle found a cycle the SCC check missed"
                if scc_verdict and not walk_verdict:
                    # the witness cycle must then be longer than the cap
                    assert len(violation.cycle) > 8
                compared += 1
            seen += 1
            if seen > 6:
                break
    assert compared >= 10


def test_violation_cycle_is_well_formed():
    rng = random.Random(33)
    for _ in range(30):
        a = random_automaton(rng)
        arena = arena_for(a)
        for choice, violation in enumerate_choices(arena):
            if violation is not None and violation.kind == "B":
                cyc = violation.cycle
                assert cyc[0].src == cyc[-1].dst  # closed
                for e1, e2 in zip(cyc, cyc[1:]):
                    assert e1.dst == e2.src
                prios = [
                    p
                    for e in cyc
                    if (p := arena.effective_priority(e)) >= 0
                ]
                assert max(prios) == violation.priority
                assert violation.priority % 2 == 1
                assert any(e.size == "big" for e in cyc)
            break


def test_sccs_partition_the_reached_nodes_as_the_reference_does():
    # seeded graphs with self-loops, nodes without successors, an isolated
    # root and the roots in no order; each component is named by a member
    rng = random.Random(50)
    for _ in range(300):
        n = rng.randint(1, 12)
        succ = {}
        for v in range(n):
            if rng.random() < 0.8:
                succ[v] = [rng.randrange(n) for _ in range(rng.randint(0, 3))] + [v] * (rng.random() < 0.2)
        roots = rng.sample(range(n), rng.randint(1, n)) + [n]
        reached, todo = set(roots), list(roots)
        while todo:
            for w in succ.get(todo.pop(), ()):
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
        comp_of = continuous_synth._sccs(roots, succ)
        assert set(comp_of) == reached, (roots, succ)
        members = {v: frozenset(w for w in comp_of if comp_of[w] == comp_of[v]) for v in comp_of}
        assert members == reference_components(reached, succ), (roots, succ)
        assert all(comp_of[v] in members[v] for v in comp_of)


def _random_labelled_graph(rng, arena):
    """A seeded graph of rc (q, a) nodes under fresh, as a strategy graph over the rc arena.

    Under rc an edge's effective priority is its label's, so the graph
    reads nothing else of the arena; two components of one G_p often hold
    a big edge and the top odd priority at once, which strategy graphs of
    the small arenas seldom do.
    """
    nodes = [ArenaNode(O_PAIR, i, "0") for i in range(rng.randint(2, 9))]
    edges_from = {arena.fresh: sorted({ArenaEdge(arena.fresh, v) for v in rng.sample(nodes, 2)})}
    for v in nodes:
        labels = [(rng.randint(0, 5), rng.choice(("small", "big")), "interrupt") for _ in range(rng.randint(0, 3))]
        edges_from[v] = sorted({ArenaEdge(v, rng.choice(nodes), *label) for label in labels})
    reached, todo = {arena.fresh}, [arena.fresh]  # a strategy graph holds only what fresh reaches
    while todo:
        for e in edges_from[todo.pop()]:
            if e.dst not in reached:
                reached.add(e.dst)
                todo.append(e.dst)
    return StrategyGraph(arena, {v: edges_from[v] for v in reached}, [])


def test_find_violation_is_the_edge_order_reference(quotient_corpus):
    # the first-move graphs of the fixtures and the quotient corpus, the
    # graphs of the choices the search meets on small arenas, and seeded
    # labelled graphs
    arenas = [arena for _, _, arena in quotient_corpus]
    arenas += [arena_for(a, s) for a in _continuous_fixtures() for s in (RC, FV)]
    graphs = []
    for arena in arenas:
        first = {n: arena.outgoing(n)[0] for n in arena.nodes if arena.owner(n) == "O" and arena.outgoing(n)}
        graphs.append(build_strategy_graph(arena, first))
    rng = random.Random(51)
    for _ in range(30):
        a = random_automaton(rng, n_states=rng.choice((1, 2)), max_prio=rng.choice((3, 5)))
        arena = arena_for(a, rng.choice((RC, FV)))
        for choice, _ in itertools.islice(enumerate_choices(arena), 40):
            graphs.append(partial_strategy_graph(arena, choice))
    rc_arena = arena_for(load_fixture("psi_copy"), RC)
    graphs += [_random_labelled_graph(rng, rc_arena) for _ in range(300)]
    kinds = Counter()
    for sg in graphs:
        violation = find_violation(sg)
        assert violation == reference_violation(sg)
        assert violation is None or None not in (violation.entry, *violation.cycle)
        kinds[violation.kind if violation else None] += 1
    assert min(kinds[k] for k in ("A", "B", None)) >= 20, kinds


def test_verdicts_for_paper_specs():
    assert decide_continuous(load_fixture("psi_copy"), RC).realizable
    assert decide_continuous(load_fixture("psi_copy"), FV).realizable
    assert decide_continuous(load_fixture("psi_jump_fv"), FV).realizable
    assert decide_continuous(load_fixture("psi_jump_rc"), RC).realizable
    assert not decide_continuous(load_fixture("psi_indet_fv"), FV).realizable


def test_adding_accepting_escape_never_breaks_realizability():
    def with_escape(a):
        sigma_out = tuple(a.sigma_out) + ("w",)
        states = tuple(a.states) + ("trap",)
        m = max(a.priority.values())
        trap_prio = m if m % 2 == 0 else m + 1
        transition = named_transitions(a)
        for q in states:
            for x in a.sigma_in:
                transition[(q, x, "w")] = "trap"
                if q == "trap":
                    for b in a.sigma_out:
                        transition[(q, x, b)] = "trap"
        priority = dict(a.priority)
        priority["trap"] = trap_prio
        return ParityAutomaton.from_transitions(
            states, a.sigma_in, sigma_out, transition, a.initial, priority
        )

    copy_spec = load_fixture("psi_copy")
    for spec, sem in ((copy_spec, RC), (copy_spec, FV), (load_fixture("psi_jump_fv"), FV)):
        assert decide_continuous(spec, sem).realizable
        assert decide_continuous(with_escape(spec), sem).realizable


def test_witness_total_on_reachable_controller_nodes():
    for spec, sem in ((load_fixture("psi_copy"), RC), (load_fixture("psi_jump_fv"), FV)):
        res = decide_continuous(spec, sem)
        sg = build_strategy_graph(res.arena, res.witness)
        for node in sg.edges_from:
            if res.arena.owner(node) == "O" and res.arena.outgoing(node):
                assert node in res.witness
                # only edges out of block nodes, which the environment owns, carry labels
                assert not res.witness[node].labeled


def test_uniform_priority_parity_forces_verdict():
    # all priorities even: every block node is final and every cycle even,
    # so any spec is realizable; all odd: the environment accepts at the
    # first block node it sees
    rng = random.Random(77)
    for _ in range(12):
        n = rng.choice((1, 2))
        states = [f"q{i}" for i in range(n)]
        transition = {
            (q, a, b): rng.choice(states) for q in states for a in "01" for b in "01"
        }
        for parity, expected in ((0, True), (1, False)):
            spec = ParityAutomaton.from_transitions(
                tuple(states), ("0", "1"), ("0", "1"), dict(transition), states[0],
                {q: 2 * rng.randint(0, 1) + parity for q in states},
            )
            for sem in (RC, FV):
                assert decide_continuous(spec, sem).realizable is expected


def test_monoid_cap_raises():
    spec = load_fixture("psi_indet_fv")
    with pytest.raises(ResourceCapError):
        decide_continuous(spec, FV, monoid_cap=1)


def test_stats_reported():
    res = decide_continuous(load_fixture("psi_copy"), RC)
    assert res.stats.solve_calls >= 1
    assert 0 < res.stats.game_edges <= len(res.arena.edges)
    assert res.stats.up_sizes
    assert res.stats.d_bound >= 1


@pytest.mark.parametrize(
    "fixture,tables,classes,members",
    [("psi_copy", 1, 8, 4), ("psi_indet_fv", 2, 127, 56)],
)
def test_letters_with_one_relation_share_one_class_table(
    monkeypatch, fixture, tables, classes, members
):
    # psi_copy's input letters have the same one-step relation, psi_indet_fv's do not
    calls = []
    build = continuous_synth.build_class_table

    def counting_build(*args, **kwargs):
        calls.append(kwargs["letter"])
        return build(*args, **kwargs)

    monkeypatch.setattr(continuous_synth, "build_class_table", counting_build)
    _, stats = build_game_arena(load_fixture(fixture), RC)
    assert len(calls) == tables
    assert stats.class_counts == {"0": classes, "1": classes}
    assert stats.up_sizes == {"0": members, "1": members}


# (realizable, solve_calls, game_nodes, game_edges) per continuous fixture
# and semantics: the recursion's calls, and the nodes and edges left to it
# by the clause-A and stuck-block attractors (none when the environment
# wins from fresh by clause A alone)
SEARCH_TABLE = {
    ("one_state", RC): (True, 1, 5, 8),
    ("one_state", FV): (True, 1, 8, 16),
    ("predict_next", RC): (False, 0, 0, 0),
    ("predict_next", FV): (False, 0, 0, 0),
    ("psi_copy", RC): (True, 1, 5, 8),
    ("psi_copy", FV): (True, 1, 8, 16),
    ("psi_indet_fv", RC): (False, 0, 0, 0),
    ("psi_indet_fv", FV): (False, 0, 0, 0),
    ("psi_jump_fv", RC): (True, 1, 25, 56),
    ("psi_jump_fv", FV): (True, 1, 40, 110),
    ("psi_jump_rc", RC): (True, 1, 19, 36),
    ("psi_jump_rc", FV): (True, 1, 31, 78),
}


@pytest.mark.parametrize("fixture,semantics", sorted(SEARCH_TABLE))
def test_fixture_search_is_pinned(fixture, semantics):
    res = decide_continuous(load_fixture(fixture), semantics)
    got = (res.realizable, res.stats.solve_calls, res.stats.game_nodes, res.stats.game_edges)
    assert got == SEARCH_TABLE[(fixture, semantics)]


# per (spec, semantics), for the specs of ``_pinned_specs``: (realizable,
# solve_calls, game_nodes, game_edges, arena nodes, arena edges, and the
# first 16 hex digits of the sha256 of the witness JSON and of the repr of
# the verdict's violation).  The arena's node order decides the solver's
# order, the witness and the violation's cycle and entry path; the 4-state
# and 3-letter arenas are large enough to show a change of tie order.
CORPUS_TABLE = {
    (0, RC): (True, 1, 14, 31, 14, 31, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (0, FV): (True, 1, 34, 138, 34, 138, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (1, RC): (False, 0, 0, 0, 10, 22, "74234e98afe7498f", "9ac3cb562fd59485"),
    (1, FV): (False, 0, 0, 0, 16, 37, "74234e98afe7498f", "de7eb114b996ec04"),
    (2, RC): (True, 1, 9, 24, 13, 39, "bf63d7e11ae910e5", "dc937b59892604f5"),
    (2, FV): (True, 1, 19, 61, 26, 105, "86d21b0516a231dd", "dc937b59892604f5"),
    (3, RC): (True, 1, 5, 8, 10, 17, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (3, FV): (True, 1, 8, 16, 16, 36, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (4, RC): (False, 0, 0, 0, 13, 28, "74234e98afe7498f", "421ab0403053329c"),
    (4, FV): (False, 0, 0, 0, 19, 54, "74234e98afe7498f", "da4d2f84ec13b53c"),
    (5, RC): (True, 3, 13, 32, 13, 32, "7f95ce4a253b3e47", "dc937b59892604f5"),
    (5, FV): (True, 3, 23, 80, 33, 142, "ab213b4496981480", "dc937b59892604f5"),
    (6, RC): (True, 3, 11, 22, 13, 28, "7f95ce4a253b3e47", "dc937b59892604f5"),
    (6, FV): (True, 3, 21, 66, 33, 132, "ab213b4496981480", "dc937b59892604f5"),
    (7, RC): (True, 1, 9, 14, 10, 17, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (7, FV): (True, 1, 15, 31, 16, 36, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (8, RC): (False, 0, 0, 0, 15, 35, "74234e98afe7498f", "421ab0403053329c"),
    (8, FV): (False, 0, 0, 0, 35, 144, "74234e98afe7498f", "da4d2f84ec13b53c"),
    (9, RC): (True, 1, 9, 14, 10, 17, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (9, FV): (True, 1, 15, 31, 16, 36, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (10, RC): (True, 1, 11, 23, 11, 23, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (10, FV): (True, 1, 24, 86, 24, 86, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (11, RC): (False, 0, 0, 0, 13, 28, "74234e98afe7498f", "2df02f8433b2073a"),
    (11, FV): (False, 0, 0, 0, 43, 199, "74234e98afe7498f", "dae14dbc864bb34c"),
    (12, RC): (False, 0, 0, 0, 15, 35, "74234e98afe7498f", "421ab0403053329c"),
    (12, FV): (False, 0, 0, 0, 35, 144, "74234e98afe7498f", "da4d2f84ec13b53c"),
    (13, RC): (True, 3, 10, 18, 11, 21, "7f95ce4a253b3e47", "dc937b59892604f5"),
    (13, FV): (True, 3, 16, 37, 17, 42, "ab213b4496981480", "dc937b59892604f5"),
    (14, RC): (False, 0, 0, 0, 11, 23, "74234e98afe7498f", "421ab0403053329c"),
    (14, FV): (False, 0, 0, 0, 24, 86, "74234e98afe7498f", "da4d2f84ec13b53c"),
    (15, RC): (True, 1, 9, 14, 11, 20, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (15, FV): (True, 1, 15, 32, 17, 42, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (16, RC): (False, 0, 0, 0, 11, 28, "74234e98afe7498f", "57549412d7b45a1f"),
    (16, FV): (False, 0, 0, 0, 27, 110, "74234e98afe7498f", "af8b404fa4a9bae4"),
    (17, RC): (True, 1, 9, 14, 9, 14, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (17, FV): (True, 3, 15, 30, 15, 30, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    (18, RC): (True, 1, 9, 14, 13, 28, "65e4d8351ebcadff", "dc937b59892604f5"),
    (18, FV): (True, 1, 33, 133, 43, 199, "653e1832d6372f73", "dc937b59892604f5"),
    (19, RC): (True, 1, 14, 31, 14, 31, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    (19, FV): (True, 1, 34, 138, 34, 138, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    ("deep/4/0", RC): (False, 4, 22, 65, 25, 82, "74234e98afe7498f", "c7ffdeddcb74a9f0"),
    ("deep/4/0", FV): (False, 4, 41, 155, 56, 273, "74234e98afe7498f", "99585be77e496034"),
    ("deep/4/1", RC): (False, 0, 0, 0, 37, 121, "74234e98afe7498f", "421ab0403053329c"),
    ("deep/4/1", FV): (False, 0, 0, 0, 194, 1352, "74234e98afe7498f", "ab65064682fdc870"),
    ("deep/4/2", RC): (True, 2, 25, 76, 34, 110, "9a1c69b55725c336", "dc937b59892604f5"),
    ("deep/4/2", FV): (True, 2, 79, 428, 104, 589, "5a8d942283de619d", "dc937b59892604f5"),
    ("deep/4/3", RC): (True, 1, 45, 150, 45, 150, "d13285ebdde49d2c", "dc937b59892604f5"),
    ("deep/4/3", FV): (True, 1, 193, 1336, 193, 1336, "c8bdd3e8d8dbf4aa", "dc937b59892604f5"),
    ("deep/4/4", RC): (True, 3, 30, 98, 40, 164, "7f95ce4a253b3e47", "dc937b59892604f5"),
    ("deep/4/4", FV): (True, 3, 102, 647, 194, 1610, "ab213b4496981480", "dc937b59892604f5"),
    ("deep/4/5", RC): (True, 1, 25, 96, 44, 184, "41e2cb68e4503252", "dc937b59892604f5"),
    ("deep/4/5", FV): (True, 1, 147, 1051, 218, 1626, "452fbb3c604841d5", "dc937b59892604f5"),
    ("deep/4/6", RC): (True, 2, 30, 79, 33, 88, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    ("deep/4/6", FV): (True, 2, 78, 384, 81, 399, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    ("deep/4/7", RC): (False, 0, 0, 0, 29, 98, "74234e98afe7498f", "421ab0403053329c"),
    ("deep/4/7", FV): (False, 0, 0, 0, 82, 452, "74234e98afe7498f", "da4d2f84ec13b53c"),
    ("deep/4/8", RC): (True, 1, 33, 107, 42, 149, "463979a63441e1c4", "dc937b59892604f5"),
    ("deep/4/8", FV): (True, 1, 96, 571, 126, 808, "09bfe22fa9ae2987", "dc937b59892604f5"),
    ("deep/4/9", RC): (True, 2, 23, 62, 34, 106, "9b0167d538f3d5d7", "dc937b59892604f5"),
    ("deep/4/9", FV): (True, 2, 56, 255, 93, 507, "6d9a7cdffdd992a4", "dc937b59892604f5"),
    ("deep/4/10", RC): (True, 5, 31, 112, 42, 164, "1ca1dcbe31166e1d", "dc937b59892604f5"),
    ("deep/4/10", FV): (True, 5, 118, 833, 173, 1245, "af619c3ff0ec5f8c", "dc937b59892604f5"),
    ("deep/4/11", RC): (False, 0, 0, 0, 32, 135, "74234e98afe7498f", "f9305d4574bd7c6a"),
    ("deep/4/11", FV): (False, 0, 0, 0, 87, 606, "74234e98afe7498f", "b4aff58081d66321"),
    ("x2/0", RC): (True, 1, 11, 28, 17, 61, "77033231c05826ff", "dc937b59892604f5"),
    ("x2/0", FV): (True, 3, 17, 56, 32, 192, "00d47e7774ca436f", "dc937b59892604f5"),
    ("x2/1", RC): (True, 1, 13, 33, 25, 105, "3d29142ee93b144b", "dc937b59892604f5"),
    ("x2/1", FV): (True, 1, 51, 381, 75, 621, "0de4d996445a66f3", "dc937b59892604f5"),
    ("x2/2", RC): (True, 3, 19, 75, 25, 105, "3d29142ee93b144b", "dc937b59892604f5"),
    ("x2/2", FV): (True, 3, 39, 261, 75, 621, "1d1783856ef4f069", "dc937b59892604f5"),
    ("x2/3", RC): (True, 1, 13, 33, 25, 105, "77033231c05826ff", "dc937b59892604f5"),
    ("x2/3", FV): (True, 1, 51, 381, 75, 621, "00d47e7774ca436f", "dc937b59892604f5"),
    ("x2/4", RC): (True, 1, 19, 63, 19, 63, "77033231c05826ff", "dc937b59892604f5"),
    ("x2/4", FV): (True, 1, 63, 453, 63, 453, "00d47e7774ca436f", "dc937b59892604f5"),
    ("x2/5", RC): (False, 0, 0, 0, 19, 69, "74234e98afe7498f", "421ab0403053329c"),
    ("x2/5", FV): (False, 0, 0, 0, 51, 397, "74234e98afe7498f", "f5d6caa6ca36a875"),
    ("x2/6", RC): (True, 1, 13, 33, 21, 81, "03a7781d1e389e73", "dc937b59892604f5"),
    ("x2/6", FV): (True, 1, 49, 358, 69, 602, "796526e3a906568f", "dc937b59892604f5"),
    ("x2/7", RC): (True, 1, 21, 85, 21, 85, "6f6d837e6414654f", "dc937b59892604f5"),
    ("x2/7", FV): (True, 1, 46, 336, 46, 336, "e36870ee6ac664a5", "dc937b59892604f5"),
    ("x2/8", RC): (False, 0, 0, 0, 22, 86, "74234e98afe7498f", "421ab0403053329c"),
    ("x2/8", FV): (False, 0, 0, 0, 58, 447, "74234e98afe7498f", "da4d2f84ec13b53c"),
    ("x2/9", RC): (False, 0, 0, 0, 25, 105, "74234e98afe7498f", "421ab0403053329c"),
    ("x2/9", FV): (False, 0, 0, 0, 75, 621, "74234e98afe7498f", "da4d2f84ec13b53c"),
    ("x2/10", RC): (False, 0, 0, 0, 18, 62, "74234e98afe7498f", "421ab0403053329c"),
    ("x2/10", FV): (False, 0, 0, 0, 52, 408, "74234e98afe7498f", "da4d2f84ec13b53c"),
    ("x2/11", RC): (True, 1, 23, 97, 23, 97, "77033231c05826ff", "dc937b59892604f5"),
    ("x2/11", FV): (True, 1, 66, 571, 66, 571, "00d47e7774ca436f", "dc937b59892604f5"),
}


def _corpus_specs():
    rng = random.Random(2)
    return [random_automaton(rng, max_prio=5) for _ in range(20)]


def _pinned_specs():
    """The 2-state corpus by index, deep/4/0-11 and 12 specs of the 3-letter x2 family by name."""
    specs = list(enumerate(_corpus_specs()))
    specs += [(f"deep/4/{i}", _family_spec("deep", i, 4, ("0", "1"), 4)) for i in range(12)]
    specs += [(f"x2/{i}", _family_spec("x2", i, 2, ("0", "1", "2"), 6)) for i in range(12)]
    return specs


def test_random_corpus_search_is_pinned():
    for key, spec in _pinned_specs():
        for sem in (RC, FV):
            res = decide_continuous(spec, sem)
            witness = None if res.witness is None else _witness_json(res.arena, res.witness)
            got = (
                res.realizable,
                res.stats.solve_calls,
                res.stats.game_nodes,
                res.stats.game_edges,
                len(res.arena.nodes),
                len(res.arena.edges),
                _digest(json.dumps(witness, sort_keys=True)),
                _digest(repr(res.violation)),
            )
            assert got == CORPUS_TABLE[(key, sem)], (key, sem)


def _scanned_pending(sg, choice):
    """Reachable controller nodes with moves that ``choice`` leaves open, by a scan of the nodes."""
    arena = sg.arena
    return sorted(
        n for n in sg.edges_from if arena.owner(n) == "O" and n not in choice and arena.outgoing(n)
    )


def _reachable(arena, choice):
    """Nodes reachable from fresh when each controller node in ``choice`` takes its chosen edge
    and every other controller node stops, by a breadth-first search."""
    seen, frontier = {arena.fresh}, [arena.fresh]
    while frontier:
        layer, frontier = frontier, []
        for node in layer:
            outs = arena.outgoing(node)
            if arena.owner(node) == "O":
                outs = [choice[node]] if node in choice else []
            for e in outs:
                if e.dst not in seen:
                    seen.add(e.dst)
                    frontier.append(e.dst)
    return seen


def test_strategy_graph_walk_records_each_nodes_edges_and_the_open_nodes():
    fixtures = sorted({name for name, _ in SEARCH_TABLE})
    specs = [load_fixture(name) for name in fixtures] + _corpus_specs()
    partial = 0
    for spec in specs:
        for sem in (RC, FV):
            arena = arena_for(spec, sem)
            # every choice the search meets, up to its verdict
            for choice, violation in enumerate_choices(arena):
                sg = partial_strategy_graph(arena, choice)
                assert sg.pending == _scanned_pending(sg, choice)
                assert set(sg.edges_from) == _reachable(arena, choice)
                for node, edges in sg.edges_from.items():
                    assert list(edges) == sorted(edges)
                    assert all(e.src == node for e in edges)
                if sg.pending:
                    partial += 1
                    with pytest.raises(SynthError) as exc:
                        build_strategy_graph(arena, choice)
                    assert str(exc.value).endswith(f"controller node {sg.pending[0]}")
                else:
                    assert build_strategy_graph(arena, choice).edges_from == sg.edges_from
                if violation is None:
                    break
    assert partial > 0
