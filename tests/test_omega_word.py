"""Lasso normalization, inf sets, and omega-word equivalence."""

import random

from chronosynth.definable_synth import square_alphabet
from chronosynth.omega_word import (
    LassoWord,
    format_lasso,
    inf_set,
    parse_lasso,
    zip_lassos,
)

from oracles import omega_equivalent, pair_profile
from word_forms import normalize


def test_normalize_pure_period_stutter():
    w = LassoWord(("a", "b"), ("a", "b", "a", "b"))
    n = normalize(w)
    assert n == LassoWord((), ("a", "b"))


def test_normalize_period_root():
    # oracle: compare 20-letter unfoldings
    w = LassoWord(("a",), ("b", "b"))
    n = normalize(w)
    assert n == LassoWord(("a",), ("b",))
    assert w.unfold(20) == n.unfold(20)


def test_normalize_fixed_point():
    w = LassoWord(("a",), ("b", "c"))
    assert normalize(w) == w


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(300):
        u = tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        w = LassoWord(u, v)
        n1 = normalize(w)
        assert normalize(n1) == n1
        assert w.unfold(30) == n1.unfold(30)


def test_equality_of_omega_words_is_normal_form_equality():
    rng = random.Random(11)
    for _ in range(200):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        w = LassoWord(u, v)
        # pump the presentation: same omega-word, different lasso
        pumped = LassoWord(u + v, v + v)
        assert normalize(pumped) == normalize(w)


def test_inf_set():
    assert inf_set(LassoWord(("a",), ("b",))) == {"b"}
    assert inf_set(LassoWord((), ("a", "b", "c"))) == {"a", "b", "c"}
    # oracle: inspect a 30-letter unfolding
    w = LassoWord(("a", "b"), ("c", "a"))
    tail = w.unfold(30)[10:]
    assert inf_set(w) == set(tail)
    # seeded lassos with non-primitive periods and prefixes that end in the
    # period's last letter, which normalize would shorten and rotate
    rng = random.Random(59)
    for _ in range(300):
        root = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 3)))
        period = root * rng.randint(1, 3)
        prefix = tuple(rng.choice("abcd") for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.5:
            prefix += (period[-1],)
        w = LassoWord(prefix, period)
        assert inf_set(w) == set(w.unfold(30)[10:])


def test_pair_profile_examples():
    w1 = LassoWord(("q",), ("p",))
    w2 = LassoWord(("q", "q"), ("p",))
    p1 = pair_profile(w1)
    p2 = pair_profile(w2)
    assert (("q"), frozenset()) in {(a, s) for a, s in p1}
    assert ("q", frozenset({"q"})) in p2
    assert ("q", frozenset({"q"})) not in p1


def test_omega_equivalent_reflexive_and_examples():
    rel = {"x": {("p", "p"), ("p", "q"), ("q", "p"), ("q", "q")}}
    w = LassoWord(("q",), ("p",))
    assert omega_equivalent(w, w, rel)
    # q(p)^w vs qq(p)^w: prefix pair sets differ
    assert not omega_equivalent(w, LassoWord(("q", "q"), ("p",)), rel)
    # (pq)^w vs p(qp)^w denote the same omega-word
    assert omega_equivalent(LassoWord((), ("p", "q")), LassoWord(("p",), ("q", "p")), rel)


def test_omega_equivalent_is_equivalence_on_sample():
    rng = random.Random(3)
    rel = {"x": {("a", "a"), ("a", "b"), ("b", "a")}}
    sample = []
    for _ in range(60):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
        sample.append(LassoWord(u, v))
    for w1 in sample:
        assert omega_equivalent(w1, w1, rel)
    for w1 in sample:
        for w2 in sample:
            f = omega_equivalent(w1, w2, rel)
            b = omega_equivalent(w2, w1, rel)
            assert f == b
    # transitivity spot check
    for w1 in sample[:20]:
        for w2 in sample[:20]:
            if not omega_equivalent(w1, w2, rel):
                continue
            for w3 in sample[:20]:
                if omega_equivalent(w2, w3, rel):
                    assert omega_equivalent(w1, w3, rel)


def test_path_flag_condition_distinguishes():
    # under E_x = {(a,b)} only, abab... is a path but aabb... is not
    rel = {"x": {("a", "b"), ("b", "a")}}
    w_path = LassoWord((), ("a", "b"))
    w_not = LassoWord((), ("a", "a", "b", "b"))
    assert not omega_equivalent(w_path, w_not, rel)


def test_parse_and_format_roundtrip():
    w = parse_lasso("ab(ba)^w")
    assert w == LassoWord(("a", "b"), ("b", "a"))
    assert format_lasso(w) == "ab(ba)^w"
    w2 = parse_lasso("(q0,q1)^w")
    assert w2 == LassoWord((), ("q0", "q1"))
    assert parse_lasso(format_lasso(w2)) == w2


def test_parse_reads_the_letters_of_its_alphabet_whole():
    squared = ("0,0", "0,1", "1,0", "1,1")
    w = parse_lasso("0,0,1,1(0,1)^w", squared)
    assert w == LassoWord(("0,0", "1,1"), ("0,1",))
    assert parse_lasso(format_lasso(w), squared) == w
    bits = LassoWord(("0", "1"), ("1", "0"))
    assert parse_lasso("0,1(1,0)^w", ("0", "1")) == bits
    assert parse_lasso("01(10)^w", ("0", "1")) == bits
    # text that is no letter of the alphabet is read as before
    assert parse_lasso("0(1)^w", squared) == LassoWord(("0",), ("1",))


def test_format_lasso_reads_back_over_its_alphabet():
    rng = random.Random(19)
    for alphabet in (("0", "1", "10"), ("a", "b", "ab", "ba"), ("0", "1"), square_alphabet("01")):
        for _ in range(200):
            w = LassoWord(
                rng.choices(alphabet, k=rng.randint(0, 4)), rng.choices(alphabet, k=rng.randint(1, 4))
            )
            assert parse_lasso(format_lasso(w, alphabet), alphabet) == w, (alphabet, w)


def test_zip_lassos_alignment():
    w1 = LassoWord(("a",), ("b", "c"))
    w2 = LassoWord((), ("x", "y", "z"))
    z = zip_lassos(w1, w2)
    for i in range(24):
        assert z.letter_at(i) == (w1.letter_at(i), w2.letter_at(i))
