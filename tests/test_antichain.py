"""The arena keeps only undominated block moves: gates against the full arena.

A block node A dominates a block node B of the same (q, x) when A is final
whenever B is and A's labels are a subset of B's; ``build_game_arena``
drops every dominated block node.  On a seeded corpus (the specs of the
benchmark's ``synth_arena`` and ``inspect`` families, deep/4/0-11, the
fixtures and 3-state random specs, each under rc and fv) the pruned arena
must keep exactly the brute-force antichain of the full arena
(``oracles.full_arena``), give the same verdict as the full arena, and give
a witness that wins on the full arena once each chosen block node is read
as the full arena's block node of the same (q, x) and member.
"""

import random

import pytest

from chronosynth.arena import FV, I_UP, RC, ArenaEdge
from chronosynth.continuous_synth import (
    build_strategy_graph,
    decide_continuous,
    find_violation,
    solve_interrupt,
)

from fixture_specs import FIXTURES, load_fixture
from oracles import full_arena, reference_antichain
from test_arena import random_automaton
from test_discrete_game import _family_spec


def _gate_specs():
    specs = [(f"arena/{i}", _family_spec("arena", i, 2, ("0", "1"), 3)) for i in range(16)]
    specs += [(f"inspect/{i}", _family_spec("inspect", i, 2, ("0", "1"), 3)) for i in range(10)]
    specs += [(f"deep/4/{i}", _family_spec("deep", i, 4, ("0", "1"), 4)) for i in range(12)]
    fixtures = sorted(f.stem for f in FIXTURES.glob("*.json") if not f.stem.endswith("_d"))
    specs += [(stem, load_fixture(stem)) for stem in fixtures]
    specs += [(f"random3/{seed}", random_automaton(random.Random(seed), 3)) for seed in range(8)]
    # over one input letter no block has labels, and finality alone decides
    specs += [(f"random3/{seed}/0", random_automaton(random.Random(seed), 3, ("0",))) for seed in range(4)]
    return specs


@pytest.fixture(scope="module")
def gate_corpus():
    """(name, semantics, pruned decision, full arena) for every spec of the corpus and both semantics."""
    return [
        (name, semantics, decide_continuous(spec, semantics), full_arena(spec, semantics))
        for name, spec in _gate_specs()
        for semantics in (RC, FV)
    ]


def _on_full_arena(choice, arena, full):
    """The choice with each chosen block node read as the full arena's node of its (q, x) and member."""
    index = {member: i for i, member in enumerate(full.members)}
    lifted = {}
    for src, edge in choice.items():
        dst = edge.dst
        if dst.kind == I_UP:
            dst = dst._replace(up=index[arena.member(dst)])
        lifted[src] = ArenaEdge(src, dst)
        assert lifted[src] in full.outgoing(src), (src, dst)
    return lifted


def test_pruned_verdicts_and_witnesses_hold_on_the_full_arena(gate_corpus):
    realizable = 0
    for name, semantics, res, full in gate_corpus:
        assert solve_interrupt(full)[0] == res.realizable, (name, semantics)
        if res.realizable:
            choice = _on_full_arena(res.witness, res.arena, full)
            assert find_violation(build_strategy_graph(full, choice)) is None, (name, semantics)
            realizable += 1
    assert (len(gate_corpus), realizable) == (112, 68)


def test_kept_blocks_are_the_reference_antichain(gate_corpus):
    dropped = 0
    for name, semantics, res, full in gate_corpus:
        arena, kept = res.arena, reference_antichain(full)
        assert arena.nodes == kept.nodes, (name, semantics)
        assert {n: arena.outgoing(n) for n in arena.nodes} == kept.edges_from, (name, semantics)
        assert arena.final_up == kept.final_up, (name, semantics)
        assert arena.members == kept.members, (name, semantics)
        dropped += len(full.nodes) - len(arena.nodes)
    # 15,936 of the corpus's 19,107 full-arena block nodes are dominated
    assert dropped == 15936

