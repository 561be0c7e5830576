"""Jump-discipline monitor and definable-operator decisions."""

import random
from fractions import Fraction

import pytest

from chronosynth.automaton import (
    AlphabetMismatchError,
    ParityAutomaton,
    accepts,
    product_with_monitor,
)
from chronosynth.definable_synth import (
    build_psi_star_monitor,
    is_squared_alphabet,
    pair_letter,
    solve_definable,
    split_letter,
    square_alphabet,
)
from chronosynth import definable_synth, discrete_game
from chronosynth.discrete_game import run_machine, solve
from chronosynth.omega_word import LassoWord, zip_lassos

from fixture_specs import load_fixture
from oracles import reference_product
from test_discrete_game import _seeded_spec
from signal_model import (
    delta_signal,
    encode_D,
    integer_samples,
    is_stuttering_free,
    stutter_normalize,
)

SQ = square_alphabet(("0", "1"))


def copy_spec_d():
    """Output pair must equal input pair at every position."""
    states = ("ok", "bad")
    transition = {}
    for q in states:
        for a in SQ:
            for b in SQ:
                transition[(q, a, b)] = "ok" if (q == "ok" and a == b) else "bad"
    return ParityAutomaton.from_transitions(states, SQ, SQ, transition, "ok", {"ok": 0, "bad": 1})


def jump_spec_d():
    """Output must jump strictly after time 0.

    Position 0 only pins the interval value; afterwards any disagreement
    between consecutive output values marks a jump at a positive time.
    """
    states = ("init", "t0", "t1", "done")
    transition = {}
    for a in SQ:
        for b in SQ:
            d, d_prime = split_letter(b)
            transition[("init", a, b)] = f"t{d_prime}"
            for v in "01":
                if d == v and d_prime == v:
                    transition[(f"t{v}", a, b)] = f"t{v}"
                else:
                    transition[(f"t{v}", a, b)] = "done"
            transition[("done", a, b)] = "done"
    return ParityAutomaton.from_transitions(
        states, SQ, SQ, transition, "init",
        {"init": 1, "t0": 1, "t1": 1, "done": 0},
    )


def trivial_spec(accept: bool):
    pr = 0 if accept else 1
    transition = {("q", a, b): "q" for a in SQ for b in SQ}
    return ParityAutomaton.from_transitions(("q",), SQ, SQ, transition, "q", {"q": pr})


def run_monitor(monitor, letters):
    q = monitor.initial
    for ain, aout in letters:
        q = monitor.step(q, ain, aout)
    return q


def monitor_sink(monitor):
    """The monitor's rejecting sink: its one state of odd priority."""
    (sink,) = (q for q in monitor.states if monitor.priority[q] % 2 == 1)
    return sink


def test_squared_alphabet_helpers():
    assert pair_letter("0", "1") == "0,1"
    assert split_letter("1,0") == ("1", "0")
    assert is_squared_alphabet(SQ)
    assert not is_squared_alphabet(("0", "1"))


def test_monitor_constant_streams_pass():
    mon = build_psi_star_monitor(SQ, SQ)
    letters = [("0,0", "1,1")] * 6
    assert run_monitor(mon, letters) != monitor_sink(mon)


def test_monitor_rejects_output_jump_at_smooth_point():
    mon = build_psi_star_monitor(SQ, SQ)
    # X left-continuous and continuous at the sample; Y's point value
    # differs from its preceding interval value
    letters = [("0,0", "1,1"), ("0,0", "0,0")]
    assert run_monitor(mon, letters) == monitor_sink(mon)
    # X continuous but Y jumps from the right at the sample point
    letters = [("0,0", "1,1"), ("0,0", "1,0")]
    assert run_monitor(mon, letters) == monitor_sink(mon)


def test_monitor_allows_output_jump_where_input_jumps():
    mon = build_psi_star_monitor(SQ, SQ)
    # X's point value differs from its previous interval value: no constraint
    letters = [("0,0", "1,1"), ("1,1", "0,0")]
    assert run_monitor(mon, letters) != monitor_sink(mon)
    # X left-continuous but right-discontinuous: left clause still binds Y's
    # point value, the two-sided clause does not bind Y's interval value
    letters = [("0,0", "1,1"), ("0,1", "1,0")]
    assert run_monitor(mon, letters) != monitor_sink(mon)


def test_monitor_first_letter_unconstrained():
    mon = build_psi_star_monitor(SQ, SQ)
    # 'dead' is the one state of odd priority, and no letter leaves it
    assert [q for q in mon.states if mon.priority[q] % 2 == 1] == ["dead"]
    for ain in SQ:
        for aout in SQ:
            assert run_monitor(mon, [(ain, aout)]) != "dead"
            assert mon.step("dead", ain, aout) == "dead"


def test_solve_definable_requires_squared_alphabet():
    bad = ParityAutomaton.from_transitions(
        ("q",), ("0", "1"), ("0", "1"),
        {("q", a, b): "q" for a in "01" for b in "01"}, "q", {"q": 0},
    )
    with pytest.raises(AlphabetMismatchError):
        solve_definable(bad)


def test_copy_is_definable_with_identity_witness():
    res = solve_definable(copy_spec_d())
    assert res.definable
    m = res.witness
    q = m.initial
    for a in ("0,0", "1,1", "0,1", "1,0", "0,0"):
        q, b = m.react(q, a)
        assert b == a


def test_jump_is_not_definable(monkeypatch):
    calls = []
    solve_indexed = discrete_game.solve_indexed

    def counting_solve(succ, owner, priority):
        calls.append(succ)
        return solve_indexed(succ, owner, priority)

    monkeypatch.setattr(discrete_game, "solve_indexed", counting_solve)
    # also catch a direct import of the solver into definable_synth
    monkeypatch.setattr(definable_synth, "solve_indexed", counting_solve, raising=False)
    res = solve_definable(jump_spec_d())
    assert not res.definable
    assert res.counter is not None
    assert res.losing_region
    assert len(calls) == 1


def test_false_spec_not_definable():
    res = solve_definable(trivial_spec(False))
    assert not res.definable


def test_witness_sound_on_stuttering_free_inputs():
    spec = copy_spec_d()
    res = solve_definable(spec)
    monitor = build_psi_star_monitor(spec.sigma_in, spec.sigma_out)
    product = product_with_monitor(spec, monitor)
    rng = random.Random(7)
    pairs = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    checked = 0
    while checked < 200:
        u = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 3)))
        w = stutter_normalize(LassoWord(u, v))
        assert is_stuttering_free(w)
        w_in = LassoWord(
            tuple(pair_letter(p, i) for p, i in w.prefix),
            tuple(pair_letter(p, i) for p, i in w.period),
        )
        w_out = run_machine(res.witness, w_in)
        assert accepts(product, zip_lassos(w_in, w_out))
        # output letters change only where input letters change
        zipped = zip_lassos(w_in, w_out)
        flat = zipped.unfold(len(zipped.prefix) + 2 * len(zipped.period))
        for i in range(1, len(flat)):
            if flat[i][1] != flat[i - 1][1]:
                assert flat[i][0] != flat[i - 1][0]
        checked += 1


def test_witness_answers_indicator_prefixes_alike_until_they_diverge():
    res = solve_definable(load_fixture("psi_copy_d"))
    assert res.definable
    m = res.witness
    grid = integer_samples(Fraction(1, 6))
    w1 = encode_D(delta_signal(1), grid)
    for t in (Fraction(1, 2), Fraction(1, 3)):
        # the encodings of delta(1) and delta(t) agree strictly below index k;
        # a causal machine must answer identically there
        w2 = encode_D(delta_signal(t), grid)
        k = 0
        while w1.letter_at(k) == w2.letter_at(k):
            k += 1
        assert k > 0
        q1 = q2 = m.initial
        for i in range(k):
            q1, b1 = m.react(q1, pair_letter(*w1.letter_at(i)))
            q2, b2 = m.react(q2, pair_letter(*w2.letter_at(i)))
            assert b1 == b2, (t, i)


def _product_specs():
    """psi_copy_d and psi_jump_d, and the seeded specs of DEFINABLE_TABLE, their min-even draws mirrored."""
    for name in ("psi_copy_d", "psi_jump_d"):
        yield name, load_fixture(name)
    rng = random.Random(31)  # as test_discrete_game._pinned_definable_rows draws them
    for i in range(10):
        yield f"seeded {i}", _seeded_spec(rng, rng.randint(2, 8), SQ)


def test_product_matches_reference_product():
    rng = random.Random(13)
    for name, spec in _product_specs():
        monitor = build_psi_star_monitor(spec.sigma_in, spec.sigma_out)
        product, reference = product_with_monitor(spec, monitor), reference_product(spec, monitor)
        for field in ("states", "sigma_in", "sigma_out", "initial", "priority"):
            assert getattr(product, field) == getattr(reference, field), (name, field)
        assert list(product.transition.items()) == list(reference.transition.items()), name
        assert solve(product) == solve(reference), name
        for _ in range(40):
            u = tuple((rng.choice(SQ), rng.choice(SQ)) for _ in range(rng.randint(0, 3)))
            v = tuple((rng.choice(SQ), rng.choice(SQ)) for _ in range(rng.randint(1, 3)))
            word = LassoWord(u, v)
            assert accepts(product, word) == accepts(reference, word), (name, word)
