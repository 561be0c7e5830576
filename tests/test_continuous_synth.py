"""Winning-check clauses, enumeration, and end-to-end verdicts."""

import pathlib
import random

import pytest

from chronosynth.arena import FV, I_UP, RC
from chronosynth.automaton import MAX_EVEN, ParityAutomaton, load_automaton
from chronosynth.continuous_synth import (
    ResourceCapError,
    build_game_arena,
    build_strategy_graph,
    decide_continuous,
    effective_priority,
    enumerate_choices,
    is_strategy_winning,
    partial_strategy_graph,
)
from chronosynth.fixtures import (
    copy_spec,
    indeterminate_spec_fv,
    jump_spec_fv,
    jump_spec_rc,
)


def random_automaton(rng, n_states=2, max_prio=3):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in "01" for b in "01"
    }
    priority = {q: rng.randint(0, max_prio) for q in states}
    return ParityAutomaton(
        tuple(states), ("0", "1"), ("0", "1"), transition, states[0], priority, MAX_EVEN
    )


def arena_for(a, semantics=RC):
    return build_game_arena(a, semantics)[0]


def exhaustive_bad_walk(sg, max_len=None):
    """Closed-walk oracle for the cycle clause, independent of the SCC path."""
    arena = sg.arena
    edges_by_src = {}
    for e in sg.edges:
        edges_by_src.setdefault(e.src, []).append(e)
    nodes = sg.nodes
    if max_len is None:
        max_len = 2 * len(nodes) + 2

    def walks_from(node, length):
        if length == 0:
            yield ()
            return
        for e in edges_by_src.get(node, ()):
            for rest in walks_from(e.dst, length - 1):
                yield (e,) + rest

    for start in sorted(nodes):
        for length in range(1, max_len + 1):
            for walk in walks_from(start, length):
                if walk[-1].dst != start:
                    continue
                prios = [
                    p for e in walk if (p := effective_priority(arena, e)) is not None
                ]
                if not prios:
                    continue
                if max(prios) % 2 == 1 and any(e.size == "big" for e in walk):
                    return walk
    return None


def first_complete_choice(arena):
    for choice, violation in enumerate_choices(arena):
        return choice, violation
    raise AssertionError("no choice enumerated")


def test_clause_a_detects_nonfinal_block_node():
    spec = indeterminate_spec_fv()
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
            bad = [n for n in sg.nodes if n.kind == I_UP and n not in arena.final_up]
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
    res = decide_continuous(copy_spec(), RC)
    sg = build_strategy_graph(res.arena, res.witness)
    assert is_strategy_winning(sg)
    assert all(n in res.arena.final_up for n in sg.nodes if n.kind == I_UP)


def test_scc_detection_matches_walk_enumeration():
    rng = random.Random(9)
    compared = 0
    for _ in range(40):
        a = random_automaton(rng, n_states=rng.choice((1, 2)))
        arena = arena_for(a, rng.choice((RC, FV)))
        seen = 0
        for choice, violation in enumerate_choices(arena):
            sg = partial_strategy_graph(arena, choice)
            if len(sg.edges) > 40:
                break
            bad_a = [n for n in sg.nodes if n.kind == I_UP and n not in arena.final_up]
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
                    if (p := effective_priority(arena, e)) is not None
                ]
                assert max(prios) == violation.priority
                assert violation.priority % 2 == 1
                assert any(e.size == "big" for e in cyc)
            break


def test_verdicts_for_paper_specs():
    assert decide_continuous(copy_spec(), RC).realizable
    assert decide_continuous(copy_spec(), FV).realizable
    assert decide_continuous(jump_spec_fv(), FV).realizable
    assert decide_continuous(jump_spec_rc(), RC).realizable
    assert not decide_continuous(indeterminate_spec_fv(), FV).realizable


def test_adding_accepting_escape_never_breaks_realizability():
    def with_escape(a):
        sigma_out = tuple(a.sigma_out) + ("w",)
        states = tuple(a.states) + ("trap",)
        m = max(a.priority.values())
        trap_prio = m if m % 2 == 0 else m + 1
        transition = dict(a.transition)
        for q in states:
            for x in a.sigma_in:
                transition[(q, x, "w")] = "trap"
                if q == "trap":
                    for b in a.sigma_out:
                        transition[(q, x, b)] = "trap"
        priority = dict(a.priority)
        priority["trap"] = trap_prio
        return ParityAutomaton(
            states, a.sigma_in, sigma_out, transition, a.initial, priority, MAX_EVEN
        )

    for spec, sem in ((copy_spec(), RC), (copy_spec(), FV), (jump_spec_fv(), FV)):
        assert decide_continuous(spec, sem).realizable
        assert decide_continuous(with_escape(spec), sem).realizable


def test_witness_total_on_reachable_controller_nodes():
    for spec, sem in ((copy_spec(), RC), (jump_spec_fv(), FV)):
        res = decide_continuous(spec, sem)
        sg = build_strategy_graph(res.arena, res.witness)
        for node in sg.nodes:
            if res.arena.owner(node) == "O" and res.arena.outgoing(node):
                assert node in res.witness


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
            spec = ParityAutomaton(
                tuple(states), ("0", "1"), ("0", "1"), dict(transition), states[0],
                {q: 2 * rng.randint(0, 1) + parity for q in states}, MAX_EVEN,
            )
            for sem in (RC, FV):
                assert decide_continuous(spec, sem).realizable is expected


def test_strategy_cap_raises():
    spec = indeterminate_spec_fv()
    with pytest.raises(ResourceCapError):
        decide_continuous(spec, FV, strategy_cap=3)


def test_stats_reported():
    res = decide_continuous(copy_spec(), RC)
    assert res.stats.strategies_examined >= 1
    assert res.stats.up_sizes
    assert res.stats.d_bound >= 1


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

# (realizable, strategies_examined, pruned) per continuous fixture and
# semantics, recorded on the arena with one block node per vocabulary
# member: building block nodes over behaviours must not change the search
SEARCH_TABLE = {
    ("one_state", RC): (True, 1, 0),
    ("one_state", FV): (True, 1, 0),
    ("predict_next", RC): (False, 3, 3),
    ("predict_next", FV): (False, 5, 5),
    ("psi_copy", RC): (True, 3, 2),
    ("psi_copy", FV): (True, 5, 4),
    ("psi_indet_fv", RC): (False, 8, 8),
    ("psi_indet_fv", FV): (False, 36, 36),
    ("psi_jump_fv", RC): (True, 9, 8),
    ("psi_jump_fv", FV): (True, 5, 4),
    ("psi_jump_rc", RC): (True, 5, 4),
    ("psi_jump_rc", FV): (True, 1, 0),
}


@pytest.mark.parametrize("fixture,semantics", sorted(SEARCH_TABLE))
def test_fixture_search_is_pinned(fixture, semantics):
    res = decide_continuous(load_automaton(FIXTURES / f"{fixture}.json"), semantics)
    got = (res.realizable, res.stats.strategies_examined, res.stats.pruned)
    assert got == SEARCH_TABLE[(fixture, semantics)]
