"""The recursive solver against the choice search, and its certificates.

``solve_interrupt`` must give the verdict of ``oracles.enumerate_choices``
on every arena here, its positional choice must pass ``find_violation``,
and every unrealizable verdict's violation, replayed by
``ViolationEnvironment`` against the choices along it, must go to the
environment: the checks that ``bench/certify.py`` makes.
"""

import dataclasses
import io
import json
import random
import time

import pytest

from chronosynth.arena import FV, RC
from chronosynth.cli import main
from chronosynth.continuous_synth import (
    SynthStats,
    build_game_arena,
    build_strategy_graph,
    decide_continuous,
    find_violation,
    solve_interrupt,
    tree_node,
)
from chronosynth.discrete_game import parity_node
from chronosynth.game_sim import ChoiceController, ViolationEnvironment, adjudicate, run_play

from fixture_specs import FIXTURES as FIXTURE_DIR
from fixture_specs import load_fixture
from oracles import enumerate_choices
from test_continuous_synth import _corpus_specs
from test_discrete_game import _family_spec

FIXTURES = ("one_state", "predict_next", "psi_copy", "psi_indet_fv", "psi_jump_fv", "psi_jump_rc")


def _specs():
    """The continuous fixtures, the 2-state corpus and 12 specs of the deep/3 family."""
    specs = [(name, load_fixture(name)) for name in FIXTURES]
    specs += [(f"corpus {i}", spec) for i, spec in enumerate(_corpus_specs())]
    specs += [(f"deep/3/{i}", _family_spec("deep", i, 3, ("0", "1"), 4)) for i in range(12)]
    return specs


JOBS = [(name, spec, sem) for name, spec in _specs() for sem in (RC, FV)]


def _search_verdict(arena):
    """(whether a choice the search meets survives ``find_violation``, the choices it met)."""
    met = 0
    for _, violation in enumerate_choices(arena):
        met += 1
        if violation is None:
            return True, met
    return False, met


@pytest.mark.parametrize("name,spec,semantics", JOBS, ids=[f"{n}-{s}" for n, _, s in JOBS])
def test_solver_agrees_with_the_choice_search(name, spec, semantics):
    arena = build_game_arena(spec, semantics)[0]
    realizable, choice = solve_interrupt(arena)
    assert realizable == _search_verdict(arena)[0]
    if not realizable:
        assert choice is None
        return
    graph = build_strategy_graph(arena, choice)
    assert find_violation(graph) is None
    # the choice covers exactly the controller nodes reachable under it
    assert set(choice) == {n for n in graph.edges_from if arena.owner(n) == "O"}
    assert all(edge in arena.outgoing(node) for node, edge in choice.items())


def test_priorities_past_the_colour_mask_width_keep_every_verdict():
    # colour bits are numbered by rank, so priorities of 100 and more must map
    # to the same low bits and verdicts as the unshifted ones
    for i, spec in enumerate(_corpus_specs()):
        high = dataclasses.replace(spec, priority={q: p + 100 for q, p in spec.priority.items()})
        for semantics in (RC, FV):
            res = decide_continuous(high, semantics)
            assert res.realizable == decide_continuous(spec, semantics).realizable, (i, semantics)
            if res.realizable:
                assert find_violation(build_strategy_graph(res.arena, res.witness)) is None


def _cli_output(*argv):
    out = io.StringIO()
    code = main(list(map(str, argv)), out, io.StringIO())
    return code, out.getvalue()


def test_priorities_shifted_by_an_even_2e7_keep_the_output_and_the_speed(tmp_path):
    # colour bits are numbered by the priorities' ranks, so a mask grows with
    # their number, not their size; with bits 2p + big, psi_indet_fv's fv
    # synth took seconds and 2.1 GB
    for name in FIXTURES:
        path = FIXTURE_DIR / f"{name}.json"
        data = json.loads(path.read_text())
        data["priority"] = {q: p + 20_000_000 for q, p in data["priority"].items()}
        shifted = tmp_path / f"{name}.json"
        shifted.write_text(json.dumps(data))
        synth = ("synth", "--stats", "--semantics")
        for argv in (synth + (RC,), synth + (FV,), ("solve-discrete",)):
            start = time.perf_counter()
            got = _cli_output(*argv, shifted)
            elapsed = time.perf_counter() - start
            assert got[0] == 0 and got == _cli_output(*argv, path), (name, argv)
            assert elapsed < 1, (name, argv, elapsed)


def test_unrealizable_violations_replay_to_the_environment():
    rng = random.Random(5)
    replayed = 0
    for name, spec, semantics in JOBS:
        res = decide_continuous(spec, semantics)
        if res.realizable:
            assert res.violation is None
            continue
        violation = res.violation
        assert violation is not None, (name, semantics)
        path = violation.entry + violation.cycle
        choice = {e.src: e for e in path if res.arena.owner(e.src) == "O"}
        interrupts = sum(1 for e in path if e.labeled)
        env = ViolationEnvironment(res.arena, violation, rng=random.Random(rng.getrandbits(32)))
        play = run_play(
            res.arena, ChoiceController(res.arena, choice), env, max_rounds=4 * interrupts + 4
        )
        assert adjudicate(play).winner == "I", (name, semantics, violation.kind)
        replayed += 1
    assert replayed > 10


def test_search_heavy_specs_decide_without_a_choice_cap():
    # the bench's arena-13 spec under fv: the search meets 64 choices (268
    # with the dominated blocks), and the clause-A attractor alone decides
    # it before any recursion call
    arena = build_game_arena(_family_spec("arena", 13, 2, ("0", "1"), 3), FV)[0]
    stats = SynthStats()
    assert solve_interrupt(arena, stats)[0] is False
    assert (stats.solve_calls, stats.game_edges) == (0, 0)
    assert _search_verdict(arena) == (False, 64)
    # deep/4/0 under fv: the search meets 134 choices (5,639 with the
    # dominated blocks); the recursion decides it in 4 calls on 155 of the
    # 273 edges
    res = decide_continuous(_family_spec("deep", 0, 4, ("0", "1"), 4), FV)
    assert res.realizable is False
    assert (res.stats.solve_calls, res.stats.game_edges, len(res.arena.edges)) == (4, 155, 273)
    assert res.violation is not None
    # w3/120 under fv (3 states, letters 0 1, priorities up to 7): the search
    # meets 1,782 choices, each checked by find_violation, where the
    # recursion decides in 3 calls on 263 edges, in about a millisecond
    arena = build_game_arena(_family_spec("w3", 120, 3, ("0", "1"), 7), FV)[0]
    stats = SynthStats()
    assert solve_interrupt(arena, stats)[0] is False
    assert (stats.solve_calls, stats.game_edges) == (3, 263)
    assert _search_verdict(arena) == (False, 1782)


def _controller_wins(colours, big_colours):
    big = colours & big_colours
    return not big or ((colours.bit_length() - 1) >> 1) % 2 == 0


def _reference_children(colours, big_colours):
    """The maximal nonempty subsets of ``colours`` that its loser wins, by trying every subset."""
    bits = [1 << i for i in range(colours.bit_length()) if colours >> i & 1]
    winner = _controller_wins(colours, big_colours)
    subsets = [
        sum(b for j, b in enumerate(bits) if k >> j & 1) for k in range(1, 2 ** len(bits) - 1)
    ]
    lost = [s for s in subsets if _controller_wins(s, big_colours) != winner]
    # largest first: a subset that is not maximal lies inside one kept before it
    maximal = []
    for s in sorted(lost, key=lambda s: -bin(s).count("1")):
        if not any(not s & ~t for t in maximal):
            maximal.append(s)
    return sorted(maximal)


def _subsets(colours):
    """Every nonempty subset of the colour set ``colours``."""
    s = colours
    while s:
        yield s
        s = (s - 1) & colours


def _keeps_the_rule_contract(colours, rule, wins):
    """Whether ``rule``'s winner at ``colours`` wins every subset that lies inside no child.

    ``Game.solve`` gives a region to the winner once the opponent wins
    nothing inside any child, so a rule that broke this would be wrong.
    """
    winner, children = rule(colours)
    return all(
        wins(s) == winner for s in _subsets(colours) if all(s & ~child for child in children)
    )


def test_tree_node_children_are_the_maximal_subsets_the_loser_wins():
    # every colour set over priorities 0..4, small and big: 2^10 - 1 sets
    big_colours = int("10" * 5, 2)
    for colours in range(1, 1 << 10):
        winner, children = tree_node(colours, big_colours)
        assert winner == _controller_wins(colours, big_colours), bin(colours)
        assert sorted(children) == _reference_children(colours, big_colours), bin(colours)
        if winner:
            assert len(children) <= 1  # so the controller's strategies are positional
        assert _keeps_the_rule_contract(
            colours,
            lambda c: tree_node(c, big_colours),
            lambda c: _controller_wins(c, big_colours),
        ), bin(colours)


def test_parity_rule_keeps_the_rule_contract():
    # every colour set over priorities 0..4, each its own rank: 2^5 - 1 sets
    for colours in range(1, 1 << 5):
        _, children = parity_node(colours)
        assert children == [colours & ~(1 << colours.bit_length() - 1)]  # one child
        assert _keeps_the_rule_contract(
            colours, parity_node, lambda c: (c.bit_length() - 1) % 2 == 0
        ), bin(colours)
