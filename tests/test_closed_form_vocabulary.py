"""The closed-form block vocabulary and the cached interrupt-target halves, against their references.

``build_UP`` decides absorption from three mask conditions and ``build_class_table``
decides idempotence the same way; ``arena._interrupt_targets`` assembles a
member's interrupt targets from a small half cached by lag and a big half
cached by period.  Each is compared with the literal procedure it replaces,
kept in ``oracles.py``, on seeded specs and on the fixtures.
"""

import random

import pytest

from chronosynth.arena import FV, RC, _interrupt_targets
from chronosynth.automaton import MAX_EVEN, ParityAutomaton, convert_convention, load_automaton
from chronosynth.state_monoid import build_UP, build_class_table, context_from_automaton, signature_of

from fixture_specs import FIXTURES
from oracles import reference_build_UP, reference_interrupt_targets

PAIR_CAP = 200_000  # the default --monoid-cap, which `monoid` applies to classes x idempotents


def seeded_spec(rng, n_states, sigma_in):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, x, b): rng.choice(states) for q in states for x in sigma_in for b in ("0", "1")
    }
    priority = {q: rng.randint(0, 4) for q in states}
    return ParityAutomaton(
        tuple(states), sigma_in, ("0", "1"), transition, states[0], priority, MAX_EVEN
    )


def corpus():
    """Seeded 1-3-state specs over one to three input letters, then every fixture."""
    rng = random.Random(1187)
    specs = []
    for sigma_in in (("0",), ("0", "1"), ("a", "b", "c")):
        for n_states in (1, 2, 2, 3):
            specs.append((f"seeded/{len(specs)}", seeded_spec(rng, n_states, sigma_in)))
    for path in sorted(FIXTURES.glob("*.json")):
        specs.append((path.stem, convert_convention(load_automaton(path), MAX_EVEN)))
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
    a = SPECS[name]
    targets = _interrupt_targets(a, semantics)
    checked = 0
    for letter, _, members in vocabularies[name]:
        for i, member in enumerate(members):
            # full-table members run under no one letter: take the letters in turn
            x = a.sigma_in[i % len(a.sigma_in)] if letter is None else letter
            small, big, final = targets(member, x)
            assert {t[2] for t in small} <= {"small"} and {t[2] for t in big} <= {"big"}
            assert final == (max(a.priority[q] for q in member.period) % 2 == 0)
            assert small | big == reference_interrupt_targets(a, member, x, semantics), (
                x, member.lag, member.period
            )
            checked += 1
    assert checked > 0
