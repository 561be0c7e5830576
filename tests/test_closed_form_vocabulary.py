"""The closed-form block vocabulary and the label bits of the arena, against their references.

``build_UP`` decides absorption from three mask conditions and ``build_class_table``
decides idempotence the same way; ``arena._LabelBits`` encodes a member's
interrupt labels as the bits of one int, a small half read off its lag and
a big half read off its period, and the arena builders count each letter's
vocabulary without building it.  Each is compared with the literal
procedure it replaces, kept in ``oracles.py``, on seeded specs and on the
fixtures.
"""

import random

import pytest

from chronosynth.arena import FV, RC, _LabelBits, build_fv_arena, build_rc_arena
from chronosynth.automaton import ParityAutomaton, load_automaton
from chronosynth.continuous_synth import build_game_arena
from chronosynth.state_monoid import build_UP, build_class_table, context_from_automaton, signature_of

from fixture_specs import FIXTURES
from oracles import reference_build_UP, reference_interrupt_targets
from test_discrete_game import _family_spec

PAIR_CAP = 200_000  # the default --monoid-cap, which `monoid` applies to classes x idempotents


def seeded_spec(rng, n_states, sigma_in):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, x, b): rng.choice(states) for q in states for x in sigma_in for b in ("0", "1")
    }
    priority = {q: rng.randint(0, 4) for q in states}
    return ParityAutomaton.from_transitions(
        tuple(states), sigma_in, ("0", "1"), transition, states[0], priority
    )


def corpus():
    """Seeded 1-3-state specs over one to three input letters, then every fixture."""
    rng = random.Random(1187)
    specs = []
    for sigma_in in (("0",), ("0", "1"), ("a", "b", "c")):
        for n_states in (1, 2, 2, 3):
            specs.append((f"seeded/{len(specs)}", seeded_spec(rng, n_states, sigma_in)))
    for path in sorted(FIXTURES.glob("*.json")):
        specs.append((path.stem, load_automaton(path)))
    return specs


SPECS = dict(corpus())


def tables(a):
    """(letter, table, members) per input letter, then for the full table if its pairs fit the cap."""
    ctx = context_from_automaton(a)
    found = [(x, build_class_table(ctx, letter=x)) for x in a.sigma_in]
    # the full tables of the 4- to 12-state fixtures have 53,312 classes or more,
    # and more pairs than the cap, so they are not built
    if len(a.states) <= 3:
        full = build_class_table(ctx)
        if full.class_count * len(full.idempotents) <= PAIR_CAP:
            found.append((None, full))
    return [(letter, table, build_UP(table)) for letter, table in found]


@pytest.fixture(scope="module")
def vocabularies():
    return {name: tables(a) for name, a in SPECS.items()}


@pytest.mark.parametrize("name", SPECS)
def test_closed_form_vocabulary_matches_product_reference(name, vocabularies):
    full_tables = 0
    for letter, table, members in vocabularies[name]:
        ctx = table.ctx
        for s, w in table.witnesses.items():
            assert (s in table.idempotents) == (signature_of(w + w, ctx) == s), (letter, w)
        assert members == reference_build_UP(table), letter
        full_tables += letter is None
    if name.startswith("seeded/") or name in ("one_state", "psi_copy", "psi_copy_d"):
        assert full_tables == 1, name


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("semantics", (RC, FV))
def test_cached_target_halves_match_position_scan(name, semantics, vocabularies):
    # every member of every vocabulary, not only the arena's representatives
    a = SPECS[name]
    bits = _LabelBits(a, semantics)
    checked = 0
    for letter, _, members in vocabularies[name]:
        for i, member in enumerate(members):
            # full-table members run under no one letter: take the letters in turn
            x = a.sigma_in[i % len(a.sigma_in)] if letter is None else letter
            small, top = bits.small(member.lag, x)
            big = bits.big(member.period, x, len(member.lag)) << bits.shift[top]
            assert not small & big
            assert {t[2] for t in bits.decode(small)} <= {"small"} and {t[2] for t in bits.decode(big)} <= {"big"}
            assert top == max(a.priority[q] for q in member.lag)
            assert bits.decode(small | big) == tuple(sorted(reference_interrupt_targets(a, member, x, semantics))), (
                x, member.lag, member.period
            )
            checked += 1
    assert checked > 0


DEEP = {f"deep/4/{i}": _family_spec("deep", i, 4, ("0", "1"), 4) for i in range(12)}


@pytest.mark.parametrize("name", [*SPECS, *DEEP])
def test_counted_vocabulary_is_build_UP(name):
    # the builders count each letter's pairs off the walk that build_UP expands,
    # so the count is checked against the product reference instead
    a = SPECS[name] if name in SPECS else DEEP[name]
    ctx = context_from_automaton(a)
    tables = {x: build_class_table(ctx, letter=x) for x in a.sigma_in}
    want = {x: len(reference_build_UP(table)) for x, table in tables.items()}
    for semantics, build in ((RC, build_rc_arena), (FV, build_fv_arena)):
        counted = {}
        build(a, tables, counted)
        assert counted == want, semantics
        assert build_game_arena(a, semantics)[1].up_sizes == want, semantics
