"""Signals, the D/FV codec, stuttering, warps, and the counter operator."""

import random
from fractions import Fraction

import pytest

from chronosynth.omega_word import LassoWord

from signal_model import (
    ConstantTail,
    FVSignal,
    LassoTail,
    NotASampleSequenceError,
    SampleSequence,
    SignalError,
    TimeWarp,
    constant_signal,
    counter_operator,
    decode_FV,
    delta_signal,
    encode_D,
    identity_warp,
    integer_samples,
    is_stuttering_free,
    reparameterize,
    signals_equal,
    stutter_normalize,
    stuttering_equivalent,
    warp_sample_sequence,
)

F = Fraction


def lasso_tail_signal():
    # 0 at 0, then after t=1 alternates: block of two (point, interval) pairs
    return FVSignal(
        (F(0), F(1)),
        ("0", "1"),
        ("0",),
        LassoTail(F(2), (("1", "0"), ("0", "1"))),
    )


def random_signal(rng, values=("0", "1")):
    k = rng.randint(1, 4)
    bps = [F(0)]
    for _ in range(k - 1):
        bps.append(bps[-1] + F(rng.randint(1, 4), rng.randint(1, 3)))
    pv = tuple(rng.choice(values) for _ in range(k))
    iv = tuple(rng.choice(values) for _ in range(k - 1))
    if rng.random() < 0.5:
        tail = ConstantTail(rng.choice(values))
    else:
        m = rng.randint(1, 3)
        block = tuple((rng.choice(values), rng.choice(values)) for _ in range(m))
        tail = LassoTail(F(rng.randint(1, 3)) * m, block)
    return FVSignal(tuple(bps), pv, iv, tail)


def test_value_at_delta():
    d1 = delta_signal(1)
    assert d1.value_at(1) == "1"
    assert d1.value_at(F(1, 2)) == "0"
    assert d1.value_at(0) == "0"
    assert d1.value_at(100) == "0"


def test_value_at_constant():
    s = constant_signal("1")
    for t in (0, F(1, 3), 5, 1000):
        assert s.value_at(t) == "1"


def test_value_at_lasso_tail_unfolds_periodically():
    s = lasso_tail_signal()
    # third repetition equals value at t - 2*delta
    for t in (F(11, 2), F(6), F(13, 2)):
        assert s.value_at(t) == s.value_at(t - 4)
    # explicit unfold: step = 1, grid points at 2, 3, 4...; entry l's point
    # value lands at grid index n with n = l mod m, so entry 1 shows first
    assert s.value_at(2) == "0"
    assert s.value_at(F(3, 2)) == "0"
    assert s.value_at(3) == "1"
    assert s.value_at(F(5, 2)) == "1"


def test_negative_time_rejected():
    s = constant_signal("0")
    with pytest.raises(SignalError):
        s.value_at(-1)
    with pytest.raises(SignalError):
        s.jumps_at(F(-1, 2))


def test_jumps_at():
    d1 = delta_signal(1)
    assert d1.jumps_at(1)
    assert d1.jumps_at(0)  # every signal jumps at 0
    assert not d1.jumps_at(F(1, 2))
    assert not d1.jumps_at(7)
    c = constant_signal("1")
    assert c.jumps_at(0)
    assert not c.jumps_at(F(3, 7))


def test_one_sided_continuity():
    # interval value differs from following point value: not left-continuous there
    d1 = delta_signal(1)
    assert not d1.is_left_continuous_at(1)
    assert not d1.is_right_continuous_at(1)
    s = FVSignal((F(0), F(1)), ("0", "1"), ("0",), ConstantTail("1"))
    assert not s.is_left_continuous_at(1)
    assert s.is_right_continuous_at(1)


def test_encode_constant():
    w = encode_D(constant_signal("0"), integer_samples())
    assert w == LassoWord((), (("0", "0"),))


def test_encode_delta_integer_grid():
    w = encode_D(delta_signal(1), integer_samples())
    assert w == LassoWord((("0", "0"), ("1", "0")), (("0", "0"),))


def test_encode_delta_refined_grid_stutters():
    ss = SampleSequence((F(0), F(1, 2), F(1)), F(1))
    w = encode_D(delta_signal(1), ss)
    assert w == LassoWord((("0", "0"), ("0", "0"), ("1", "0")), (("0", "0"),))
    assert stuttering_equivalent(w, encode_D(delta_signal(1), integer_samples()))


def test_encode_requires_jump_coverage():
    with pytest.raises(NotASampleSequenceError):
        encode_D(delta_signal(F(1, 2)), integer_samples())


def test_decode_isolated_points():
    w = LassoWord((), (("0", "1"),))
    s = decode_FV(w, integer_samples())
    for t in (0, 1, 2, 3):
        assert s.value_at(t) == "0"
    for t in (F(1, 2), F(3, 2), F(7, 3)):
        assert s.value_at(t) == "1"


def test_decode_delta_three():
    w = LassoWord((("0", "0"), ("1", "0")), (("0", "0"),))
    ss = SampleSequence((F(0),), F(3))
    s = decode_FV(w, ss)
    assert signals_equal(s, delta_signal(3))


def test_codec_roundtrip_random():
    rng = random.Random(17)
    for _ in range(120):
        s = random_signal(rng)
        ss = SampleSequence((F(0),), F(1, 6))
        # refine sample sequence enough to hit every breakpoint of s
        if all((t * 6) % 1 == 0 for t in s.breakpoints):
            w = encode_D(s, ss)
            back = decode_FV(w, ss)
            assert signals_equal(back, s)


def test_codec_roundtrip_exact_fixtures():
    ss = integer_samples()
    for s in (constant_signal("1"), delta_signal(2), lasso_tail_signal()):
        assert signals_equal(decode_FV(encode_D(s, ss), ss), s)


def test_is_stuttering_free_examples():
    assert is_stuttering_free(LassoWord((), (("0", "0"),)))
    w = LassoWord((("0", "1"), ("1", "1"), ("0", "0")), (("0", "0"),))
    assert not is_stuttering_free(w)
    assert is_stuttering_free(LassoWord((("0", "0"), ("1", "0")), (("0", "0"),)))


def test_stutter_normalize_examples():
    w = LassoWord((("0", "0"), ("1", "0")), (("0", "0"),))
    assert stutter_normalize(w) == w
    doubled = LassoWord((("0", "0"), ("0", "0"), ("1", "0")), (("0", "0"),))
    assert stutter_normalize(doubled) == w


def test_stutter_normalize_idempotent_random():
    rng = random.Random(29)
    letters = [(a, b) for a in "01" for b in "01"]
    for _ in range(200):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        w = LassoWord(u, v)
        n = stutter_normalize(w)
        assert is_stuttering_free(n)
        assert stutter_normalize(n) == n


def test_encodings_under_different_grids_normalize_identically():
    rng = random.Random(41)
    for _ in range(60):
        s = random_signal(rng)
        if not all((t * 6) % 1 == 0 for t in s.breakpoints):
            continue
        w1 = encode_D(s, SampleSequence((F(0),), F(1, 6)))
        w2 = encode_D(s, SampleSequence((F(0),), F(1, 12)))
        assert stutter_normalize(w1) == stutter_normalize(w2)


def test_reparameterize_identity():
    s = lasso_tail_signal()
    assert signals_equal(reparameterize(s, identity_warp()), s)


def test_reparameterize_doubling_moves_delta():
    warp = TimeWarp(((0, 0), (1, 2)), F(2))
    out = reparameterize(delta_signal(1), warp)
    assert signals_equal(out, delta_signal(2))
    # D-encodings agree under the mapped sample sequence
    ss = integer_samples()
    w1 = encode_D(delta_signal(1), ss)
    w2 = encode_D(out, warp_sample_sequence(ss, warp))
    assert w1 == w2


def random_warp(rng):
    knots = [(F(0), F(0))]
    x = y = F(0)
    for _ in range(rng.randint(1, 3)):
        x += F(rng.randint(1, 3), rng.randint(1, 2))
        y += F(rng.randint(1, 3), rng.randint(1, 2))
        knots.append((x, y))
    return TimeWarp(tuple(knots), F(rng.randint(1, 3), rng.randint(1, 2)))


def test_reparameterize_preserves_encodings_random():
    rng = random.Random(53)
    done = 0
    while done < 50:
        s = random_signal(rng)
        warp = random_warp(rng)
        ss = SampleSequence((F(0),), F(1, 12))
        if not all((t * 12) % 1 == 0 for t in s.breakpoints):
            continue
        w1 = encode_D(s, ss)
        w2 = encode_D(reparameterize(s, warp), warp_sample_sequence(ss, warp))
        assert w1 == w2
        done += 1


def test_reparameterize_preserves_jump_count():
    rng = random.Random(61)
    for _ in range(40):
        s = random_signal(rng)
        warp = random_warp(rng)
        out = reparameterize(s, warp)
        upto = F(10)
        jumps_in = [t for t in s.jump_times(upto)]
        jumps_out = out.jump_times(warp.apply(upto))
        assert len(jumps_out) == len(jumps_in)
        assert jumps_out == [warp.apply(t) for t in jumps_in]


def test_counter_operator_constant_input():
    y = constant_signal("0")
    g = counter_operator(y)
    assert g.value_at(0) == "0"
    for t in (F(1, 3), 1, 10):
        assert g.value_at(t) == "1"


def test_counter_operator_delta_input():
    y = delta_signal(F(3, 2))
    g = counter_operator(y)
    # 1 - a on (0, t0], then 1
    assert g.value_at(0) == "0"
    assert g.value_at(F(1, 2)) == "1"
    assert g.value_at(F(3, 2)) == "1"
    assert g.value_at(2) == "1"
    y2 = FVSignal((F(0), F(1)), ("1", "0"), ("1",), ConstantTail("0"))
    g2 = counter_operator(y2)
    assert g2.value_at(F(1, 2)) == "0"
    assert g2.value_at(1) == "0"
    assert g2.value_at(2) == "1"


def test_counter_operator_flips_until_the_first_jump_then_holds_one():
    rng = random.Random(29)
    checked = 0
    for _ in range(100):
        y = random_signal(rng)
        t0 = y.first_jump_after_zero()
        if t0 is None:
            continue
        g = counter_operator(y)
        flip = {"0": "1", "1": "0"}[y.right_limit(0)]
        assert g.value_at(t0 / 2) == flip
        assert g.value_at(t0) == flip
        assert g.value_at(t0 + 1) == "1"
        checked += 1
    assert checked > 50


def test_counter_operator_differs_from_argument():
    rng = random.Random(71)
    for _ in range(100):
        y = random_signal(rng)
        g = counter_operator(y)
        assert not signals_equal(g, y)


def test_counter_operator_strong_causality():
    rng = random.Random(83)
    for _ in range(100):
        y1 = random_signal(rng)
        t = F(rng.randint(1, 6), rng.randint(1, 3))
        # build y2 agreeing with y1 on [0, t) but diverging afterwards
        grid = [x for x in y1.sample_times(t) if x < t]
        if not grid:
            grid = [F(0)]
        pv = tuple(y1.value_at(x) for x in grid)
        iv = tuple(y1.value_at((grid[i] + grid[i + 1]) / 2) for i in range(len(grid) - 1))
        last_iv = y1.value_at((grid[-1] + t) / 2)
        y2 = FVSignal(
            tuple(grid) + (t,),
            pv + ({"0": "1", "1": "0"}[y1.value_at(t)],),
            iv + (last_iv,),
            ConstantTail(rng.choice(("0", "1"))),
        )
        g1, g2 = counter_operator(y1), counter_operator(y2)
        assert signals_equal(g1, g2, upto=t) or g1.value_at(t) == g2.value_at(t)
        # exact guarantee: agreement on the closed interval [0, t]
        grid_check = sorted(set(g1.sample_times(t)) | set(g2.sample_times(t)) | {t})
        for i, x in enumerate(grid_check):
            assert g1.value_at(x) == g2.value_at(x)
            if i + 1 < len(grid_check):
                mid = (x + grid_check[i + 1]) / 2
                assert g1.value_at(mid) == g2.value_at(mid)
