"""Signature congruence, class table, UP vocabulary, Ramsey factorization."""

import itertools
import random

import pytest

from chronosynth.omega_word import LassoWord
from chronosynth.state_monoid import (
    MonoidContext,
    MonoidError,
    ResourceCapError,
    UPMember,
    absorbs,
    build_UP,
    build_class_table,
    context_from_automaton,
    late_states,
    signature_of,
)

from fixture_specs import FIXTURES, load_fixture
from oracles import (
    naive_equiv,
    omega_equivalent,
    reference_build_UP,
    reference_class_table,
    reference_signature,
    reference_signature_product,
)
from test_arena import corpus_automaton, is_path_for
from test_discrete_game import _family_spec
from word_forms import ramsey_factorize


def total_ctx(states, letters=("x",)):
    rel = frozenset((p, q) for p in states for q in states)
    return MonoidContext(tuple(states), {a: rel for a in letters})


def random_ctx(rng, states, letters=("x", "y")):
    rels = {}
    for a in letters:
        rels[a] = frozenset(
            (p, q) for p in states for q in states if rng.random() < 0.6
        )
    return MonoidContext(tuple(states), rels)


def test_signature_single_state():
    ctx = total_ctx(("q",))
    # (first, last, occ, levels, flags): q is state 0, at level 0, and x is letter 0
    assert signature_of(("q",), ctx) == (0, 0, 0b1, 0b1, 0b1)
    sig = reference_signature(("q",), ctx)
    assert sig.first == sig.last == "q"
    assert sig.pairs == frozenset({("q", frozenset())})
    assert sig.occ == frozenset({"q"})
    assert sig.flags == frozenset(ctx.relations)


def test_signature_qq_differs_from_q():
    ctx = total_ctx(("q",))
    assert signature_of(("q",), ctx) != signature_of(("q", "q"), ctx)
    # q occurs with no state before it (bit 0) and with one (bit 1 * 1 + 0)
    assert signature_of(("q", "q"), ctx)[3] == 0b11
    assert reference_signature(("q", "q"), ctx).pairs == frozenset(
        {("q", frozenset()), ("q", frozenset({"q"}))}
    )


def test_signature_levels_spell_the_pair_set():
    # states p, q, r are 0, 1, 2; bit j * 3 + q is q after j distinct states
    ctx = total_ctx(("p", "q", "r"))
    first, last, occ, levels, _ = signature_of(("q", "q", "p", "q", "r", "p"), ctx)
    assert (first, last, occ) == (1, 0, 0b111)
    assert levels == 1 << 1 | 1 << 3 + 1 | 1 << 3 + 0 | 1 << 6 + 1 | 1 << 6 + 2 | 1 << 9 + 0


def test_empty_string_rejected():
    ctx = total_ctx(("q",))
    with pytest.raises(MonoidError):
        signature_of((), ctx)


def test_states_outside_the_context_rejected():
    ctx = total_ctx(("p", "q"))
    with pytest.raises(MonoidError, match="unknown state 'r'"):
        signature_of(("p", "r"), ctx)
    with pytest.raises(MonoidError, match="leaves the states"):
        MonoidContext(("p", "q"), {"x": {("p", "r")}})


def test_product_is_concatenation_exhaustive_two_states():
    ctx = total_ctx(("p", "q"))
    strings = [
        s
        for n in range(1, 4)
        for s in itertools.product(("p", "q"), repeat=n)
    ]
    for u in strings:
        su = reference_signature(u, ctx)
        for v in strings:
            assert reference_signature_product(ctx, su, reference_signature(v, ctx)) == (
                reference_signature(u + v, ctx)
            )


def test_product_is_concatenation_random_contexts():
    rng = random.Random(19)
    for _ in range(30):
        ctx = random_ctx(rng, ("a", "b", "c"))
        u = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        v = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        assert reference_signature_product(
            ctx, reference_signature(u, ctx), reference_signature(v, ctx)
        ) == reference_signature(u + v, ctx)


def test_product_flags_are_the_path_letters_of_the_concatenation():
    # the relations dict lists its letters out of sorted order, which the
    # flag sets must not depend on
    rng = random.Random(23)
    for _ in range(30):
        ctx = random_ctx(rng, ("a", "b", "c"), letters=("z", "x", "y"))
        u = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        v = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        joined = reference_signature_product(
            ctx, reference_signature(u, ctx), reference_signature(v, ctx)
        )
        assert joined == reference_signature(u + v, ctx)
        w = u + v
        flags = signature_of(w, ctx)[4]
        for bit, a in enumerate(("z", "x", "y")):
            path = all((w[i], w[i + 1]) in ctx.relations[a] for i in range(len(w) - 1))
            assert (a in joined.flags) is path
            assert bool(flags >> bit & 1) is path


def test_product_associative_random():
    rng = random.Random(37)
    ctx = random_ctx(rng, ("a", "b"))
    for _ in range(60):
        sigs = [
            reference_signature(tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))), ctx)
            for _ in range(3)
        ]
        left = reference_signature_product(
            ctx, reference_signature_product(ctx, sigs[0], sigs[1]), sigs[2]
        )
        right = reference_signature_product(
            ctx, sigs[0], reference_signature_product(ctx, sigs[1], sigs[2])
        )
        assert left == right


def test_naive_equiv_basic():
    ctx = total_ctx(("q",))
    assert naive_equiv(("q",), ("q",), ctx)
    assert not naive_equiv(("q",), ("q", "q"), ctx)


def test_naive_equiv_matches_signatures():
    rng = random.Random(43)
    for trial in range(6):
        ctx = random_ctx(rng, ("a", "b"))
        strings = [
            s for n in range(1, 5) for s in itertools.product(("a", "b"), repeat=n)
        ]
        for u in strings:
            for v in strings:
                assert naive_equiv(u, v, ctx) == (
                    signature_of(u, ctx) == signature_of(v, ctx)
                )


def test_class_table_single_state():
    ctx = total_ctx(("q",))
    table = build_class_table(ctx)
    assert table.class_count == 2
    assert table.d_q == 2
    sig_qq = signature_of(("q", "q"), ctx)
    assert table.idempotents == frozenset({sig_qq})
    assert table.witnesses[sig_qq] == ("q", "q")


def test_class_table_matches_brute_force_partition():
    ctx = total_ctx(("p", "q"))
    table = build_class_table(ctx)
    strings = [
        s for n in range(1, 7) for s in itertools.product(("p", "q"), repeat=n)
    ]
    sigs = {signature_of(s, ctx) for s in strings}
    assert sigs == set(table.witnesses)
    # witnesses carry their own class
    for sig, w in table.witnesses.items():
        assert signature_of(w, ctx) == sig
        assert len(w) <= table.d_q


def test_class_table_cap():
    ctx = total_ctx(("a", "b", "c"))
    with pytest.raises(ResourceCapError):
        build_class_table(ctx, cap=5)


def test_class_table_cap_counts_each_class_once():
    # a table with exactly cap classes builds; one class more raises
    copy_ctx = context_from_automaton(load_fixture("psi_copy"))
    for ctx, letter in ((total_ctx(("a", "b", "c")), None), (copy_ctx, None), (copy_ctx, "1")):
        count = build_class_table(ctx, letter=letter).class_count
        assert build_class_table(ctx, cap=count, letter=letter).class_count == count
        with pytest.raises(ResourceCapError) as exc:
            build_class_table(ctx, cap=count - 1, letter=letter)
        assert str(exc.value) == f"signature cap exceeded; {count} classes built so far"


def test_empty_relation_kills_flags():
    ctx = MonoidContext(("p", "q"), {"x": frozenset()})
    assert signature_of(("p", "q"), ctx)[4] == 0
    assert signature_of(("p",), ctx)[4] == 0b1
    assert "x" not in reference_signature(("p", "q"), ctx).flags


def test_class_count_monotone_in_states():
    counts = []
    for states in (("a",), ("a", "b"), ("a", "b", "c")):
        counts.append(build_class_table(total_ctx(states)).class_count)
    assert counts == sorted(counts)


def test_up_single_state():
    ctx = total_ctx(("q",))
    table = build_class_table(ctx)
    up = build_UP(table)
    assert len(up) == 1
    member = up[0]
    assert member.lag == ("q", "q")
    assert member.period == ("q", "q")


def test_up_members_satisfy_defining_equations():
    ctx = total_ctx(("p", "q"))
    table = build_class_table(ctx)
    up = build_UP(table)
    for m in up:
        vv = m.period + m.period
        uv = m.lag + m.period
        assert naive_equiv(vv, m.period, ctx)
        assert naive_equiv(uv, m.lag, ctx)
        assert len(m.lag) <= table.d_q
        assert len(m.period) <= table.d_q


def test_up_covers_small_lassos():
    ctx = total_ctx(("p", "q"))
    table = build_class_table(ctx)
    up = build_UP(table)
    words = [LassoWord(m.lag, m.period) for m in up]
    for ulen in range(0, 3):
        for vlen in range(1, 3):
            for u in itertools.product(("p", "q"), repeat=ulen):
                for v in itertools.product(("p", "q"), repeat=vlen):
                    w = LassoWord(u, v)
                    assert any(
                        omega_equivalent(w, cand, ctx.relations) for cand in words
                    ), f"no UP member equivalent to {w}"


def test_up_positions_and_lemma_profile():
    # beyond the lag, the visited state set stays the lag's occurrence set,
    # and equal letters at positions past the lag give equivalent prefixes
    ctx = total_ctx(("p", "q"))
    table = build_class_table(ctx)
    for m in build_UP(table)[:40]:
        n = len(m.lag)
        word = [m.letter(i) for i in range(1, n + 3 * max(1, len(m.period)) + 1)]
        s_u = set(m.lag)
        for l in range(n, len(word) + 1):
            assert set(word[:l]) == s_u
        for l in range(n + 1, len(word) + 1):
            for l2 in range(l + 1, len(word) + 1):
                if word[l - 1] == word[l2 - 1]:
                    assert naive_equiv(tuple(word[:l]), tuple(word[:l2]), ctx)


def test_restricted_table_matches_path_strings():
    rng = random.Random(57)
    for _ in range(8):
        ctx = random_ctx(rng, ("a", "b"), letters=("x", "y"))
        table = build_class_table(ctx, letter="x")
        # oracle: signatures of all x-path strings up to length 5
        paths = set()
        frontier = [(q,) for q in ctx.states]
        for _ in range(5):
            new = []
            for w in frontier:
                paths.add(signature_of(w, ctx))
                for q in ctx.states:
                    if (w[-1], q) in ctx.relations["x"]:
                        new.append(w + (q,))
            frontier = new
        for w in frontier:
            paths.add(signature_of(w, ctx))
        # the restricted closure finds at least these and nothing non-path
        assert paths <= set(table.witnesses)
        for sig, w in table.witnesses.items():
            assert all((w[i], w[i + 1]) in ctx.relations["x"] for i in range(len(w) - 1))


def test_letter_restricted_up_covers_path_lassos():
    # every small lasso that is a valid path under a letter must be
    # equivalent to a vocabulary member that is itself a path and starts at
    # the same state (this is what the arena construction relies on)
    rng = random.Random(91)
    for _ in range(6):
        ctx = random_ctx(rng, ("a", "b"), letters=("x",))
        table = build_class_table(ctx, letter="x")
        up = build_UP(table)
        rel = ctx.relations["x"]

        def is_path(word):
            return all((word[i], word[i + 1]) in rel for i in range(len(word) - 1))

        for ulen in range(0, 3):
            for vlen in range(1, 3):
                for u in itertools.product(("a", "b"), repeat=ulen):
                    for v in itertools.product(("a", "b"), repeat=vlen):
                        w = LassoWord(u, v)
                        unfolded = w.unfold(len(u) + 2 * len(v) + 1)
                        if not is_path(unfolded):
                            continue
                        assert any(
                            omega_equivalent(w, LassoWord(m.lag, m.period), ctx.relations)
                            for m in up
                        ), f"path lasso {w} uncovered under relation {sorted(rel)}"


def test_member_path_flags_match_unfolded_check():
    rng = random.Random(97)
    draw = random.Random(98)  # kept apart so the contexts stay the same
    for _ in range(10):
        ctx = random_ctx(rng, ("a", "b", "c"))
        table = build_class_table(ctx)
        idem = [s for s in table.witnesses if s in table.idempotents]
        members = [
            UPMember(table.witnesses[sig], table.witnesses[e])
            for sig in draw.sample(list(table.witnesses), min(40, table.class_count))
            for e in idem
            if signature_of(table.witnesses[sig] + table.witnesses[e], ctx) == sig
        ]
        assert members
        for m in members:
            word = m.lag + m.period * 2
            for letter in sorted(ctx.relations):
                literal = all(
                    (word[i], word[i + 1]) in ctx.relations[letter]
                    for i in range(len(word) - 1)
                )
                assert is_path_for(m, letter, ctx) == literal


def test_per_letter_vocabulary_holds_only_paths_for_its_letter():
    # the arena takes every member of a letter's vocabulary as a run under it
    rng = random.Random(23)
    checked = 0
    for letters in (("x", "y"), ("x", "y", "z")):
        for n_states in (1, 2, 2, 3, 3):
            ctx = random_ctx(rng, tuple("abc"[:n_states]), letters)
            for letter in letters:
                for m in build_UP(build_class_table(ctx, letter=letter)):
                    word = m.lag + m.period * 2
                    assert all(
                        (word[i], word[i + 1]) in ctx.relations[letter] for i in range(len(word) - 1)
                    ), (letter, m.lag, m.period)
                    assert is_path_for(m, letter, ctx)
                    checked += 1
    assert checked > 1000


def test_ramsey_single_state():
    ctx = total_ctx(("q",))
    head, block, cuts = ramsey_factorize(LassoWord((), ("q",)), ctx)
    assert head == ("q", "q")
    assert block == ("q", "q")
    assert cuts == [2, 4, 6]


def test_ramsey_two_cycle():
    ctx = total_ctx(("p", "q"))
    w = LassoWord((), ("p", "q"))
    head, block, cuts = ramsey_factorize(w, ctx)
    sig_b = signature_of(block, ctx)
    assert signature_of(block + block, ctx) == sig_b
    sig_h = signature_of(head, ctx)
    assert signature_of(head + block, ctx) == sig_h
    # the factorization reassembles the original word
    flat = list(head) + list(block) * 4
    assert tuple(flat[: len(flat)]) == w.unfold(len(flat))


def test_ramsey_random_words():
    rng = random.Random(67)
    for _ in range(40):
        ctx = random_ctx(rng, ("a", "b", "c"))
        u = tuple(rng.choice("abc") for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice("abc") for _ in range(rng.randint(1, 3)))
        w = LassoWord(u, v)
        head, block, cuts = ramsey_factorize(w, ctx)
        sig_b = signature_of(block, ctx)
        sig_h = signature_of(head, ctx)
        assert signature_of(block + block, ctx) == sig_b
        assert signature_of(head + block, ctx) == sig_h
        flat = list(head) + list(block) * 3
        assert tuple(flat) == w.unfold(len(flat))
        assert cuts[1] - cuts[0] == len(block)


def differential_contexts():
    """Seeded contexts of 2-4 states and 1-3 letters, with the longest string length checked."""
    rng = random.Random(2311)
    for n_states, length in ((2, 6), (3, 4), (4, 4)):
        for letters in (("x",), ("y", "x"), ("x", "z", "y")):
            yield random_ctx(rng, tuple("abcd"[:n_states]), letters), length


@pytest.mark.parametrize("ctx,length", differential_contexts())
def test_integer_signatures_match_named_reference(ctx, length):
    strings = [u for n in range(1, length + 1) for u in itertools.product(ctx.states, repeat=n)]
    named, classes = {}, {}  # integer -> named signature, and named -> integer
    for u in strings:
        sig, ref = signature_of(u, ctx), reference_signature(u, ctx)
        assert named.setdefault(sig, ref) == ref, u
        assert classes.setdefault(ref, sig) == sig, u
    number = {q: i for i, q in enumerate(ctx.states)}
    for sig, ref in named.items():
        late = {q for q, before in ref.pairs if before == ref.occ}
        assert late_states(ctx, sig) == sum(1 << number[q] for q in late), ref
        for e, e_ref in named.items():
            absorbed = reference_signature_product(ctx, ref, e_ref) == ref
            assert absorbs(ctx, sig, e) is absorbed, (ref, e_ref)


def table_specs():
    """The fixtures, the arena tests' quotient corpus, and deep/4/0-11."""
    specs = [(path.stem, load_fixture(path.stem)) for path in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(2024)  # draws the specs of test_arena's quotient_corpus
    for sigma_in in (("0",), ("0", "1"), ("a", "b", "c")):
        for n_states in (1, 2, 2, 3, 3):
            specs.append((f"quotient/{len(specs)}", corpus_automaton(rng, n_states, sigma_in)))
    specs += [(f"deep/4/{i}", _family_spec("deep", i, 4, ("0", "1"), 4)) for i in range(12)]
    return specs


TABLE_SPECS = table_specs()


@pytest.mark.parametrize("name,spec", TABLE_SPECS, ids=[name for name, _ in TABLE_SPECS])
def test_class_tables_and_vocabulary_match_named_reference(name, spec):
    ctx = context_from_automaton(spec)
    # the full tables of 4 or more states have 53,312 classes or more, too many to rebuild by name
    letters = list(spec.sigma_in) + ([None] if len(ctx.states) <= 3 else [])
    for letter in letters:
        table = build_class_table(ctx, letter=letter)
        witnesses = list(table.witnesses.values())
        idempotents = [w for sig, w in table.witnesses.items() if sig in table.idempotents]
        assert (witnesses, idempotents, table.d_q) == reference_class_table(ctx, letter), letter
        assert build_UP(table) == reference_build_UP(table), letter
