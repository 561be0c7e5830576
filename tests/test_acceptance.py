"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Every tolerance is exact; the suites are sized to run on a desk machine.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
from fractions import Fraction

from chronosynth.arena import FV, RC
from chronosynth.automaton import ParityAutomaton, accepts
from chronosynth.cli import main as cli_main
from chronosynth.continuous_synth import decide_continuous
from chronosynth.discrete_game import run_counter_machine, run_machine, solve, solve_indexed
from chronosynth.game_sim import (
    ChoiceController,
    RandomEnvironment,
    ViolationEnvironment,
    adjudicate,
    run_play,
)
from chronosynth.omega_word import LassoWord, inf_set, zip_lassos
from chronosynth.state_monoid import (
    MonoidContext,
    build_UP,
    build_class_table,
    signature_of,
)

from duel import geometric_duel
from fixture_specs import FIXTURES, load_fixture
from oracles import (
    brute_force_solve,
    enumerate_choices,
    game_graph,
    naive_equiv,
    omega_equivalent,
    pair_profile,
    path_flags,
)
from signal_model import (
    ConstantTail,
    FVSignal,
    LassoTail,
    SampleSequence,
    TimeWarp,
    counter_operator,
    decode_FV,
    encode_D,
    is_stuttering_free,
    signals_equal,
    stutter_normalize,
    warp_sample_sequence,
    reparameterize,
)

F = Fraction


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def random_context(rng, n_states, letters=("x", "y")):
    states = tuple(f"q{i}" for i in range(n_states))
    rels = {}
    for a in letters:
        rels[a] = frozenset(
            (p, q) for p in states for q in states if rng.random() < 0.65
        )
    return MonoidContext(states, rels)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_monoid_oracle_equivalence():
    """Signature equivalence == the literal double-loop checker.

    Both relations are equivalences, so equality of their partitions over
    all strings of length <= 6 is the same statement as agreement on every
    string pair; an explicit random sample of pairs double-checks that
    reading.
    """
    for seed in range(5):
        rng = random.Random(seed)
        n = 1 + seed % 3  # covers |Q| = 1, 2, 3
        ctx = random_context(rng, n)
        strings = [
            s
            for length in range(1, 7)
            for s in itertools.product(ctx.states, repeat=length)
        ]
        by_sig = {}
        for s in strings:
            by_sig.setdefault(signature_of(s, ctx), []).append(s)
        # naive partition: union-find against class representatives
        naive_classes = []
        for s in strings:
            for cls in naive_classes:
                if naive_equiv(s, cls[0], ctx):
                    cls.append(s)
                    break
            else:
                naive_classes.append([s])
        sig_partition = {frozenset(v) for v in by_sig.values()}
        naive_partition = {frozenset(v) for v in naive_classes}
        assert sig_partition == naive_partition
        for _ in range(400):
            u, v = rng.choice(strings), rng.choice(strings)
            assert naive_equiv(u, v, ctx) == (
                signature_of(u, ctx) == signature_of(v, ctx)
            )
    report(1, "signature congruence matches the literal checker on all pairs (<=6, |Q|<=3, 5 contexts)")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_up_correctness():
    rng = random.Random(42)
    for n_states in (1, 2, 3):
        if n_states < 3:
            ctx = random_context(random.Random(n_states), n_states)
        else:
            states = ("q0", "q1", "q2")
            total = frozenset((p, q) for p in states for q in states)
            ctx = MonoidContext(states, {"x": total})
        table = build_class_table(ctx)
        up = build_UP(table)
        assert up
        # defining equations and length bounds on every member
        sample = up if len(up) <= 400 else rng.sample(up, 400)
        for m in up:
            assert len(m.lag) <= table.d_q
            assert len(m.period) <= table.d_q
            # lag and period are their classes' witnesses, absorbing and idempotent
            lag_sig, period_sig = signature_of(m.lag, ctx), signature_of(m.period, ctx)
            assert table.witnesses[lag_sig] == m.lag and table.witnesses[period_sig] == m.period
            assert signature_of(m.period + m.period, ctx) == period_sig
            assert signature_of(m.lag + m.period, ctx) == lag_sig
        for m in sample[:300]:
            assert naive_equiv(m.period + m.period, m.period, ctx)
            assert naive_equiv(m.lag + m.period, m.lag, ctx)
        # coverage: every small lasso is equivalent to some member
        keys = {}
        for m in up:
            w = LassoWord(m.lag, m.period)
            key = (inf_set(w), pair_profile(w), flags_key(w, ctx))
            keys.setdefault(key, w)
        for ulen in range(0, 4):
            for vlen in range(1, 4):
                for u in itertools.product(ctx.states, repeat=ulen):
                    for v in itertools.product(ctx.states, repeat=vlen):
                        w = LassoWord(u, v)
                        key = (inf_set(w), pair_profile(w), flags_key(w, ctx))
                        match = keys.get(key)
                        assert match is not None, f"no member covers {w}"
                        assert omega_equivalent(w, match, ctx.relations)
    report(2, "UP members satisfy their equations, bounds, and cover all small lassos (|Q|<=3)")


def flags_key(w, ctx):
    return tuple(sorted(path_flags(w, ctx.relations).items()))


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_discrete_solver_against_oracle():
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randint(2, 8)
        owner = [rng.choice("OI") for _ in range(n)]
        priority = [rng.randint(0, 3) for _ in range(n)]
        succ = [rng.sample(range(n), rng.randint(1, min(3, n))) for _ in range(n)]
        zo, zi, _, _ = solve_indexed(succ, owner, priority)
        bo, bi = brute_force_solve(game_graph(succ, owner, priority))
        assert set(zo) == bo and set(zi) == bi
    # witness machines win random lassos
    letters = ("0", "1")
    for trial in range(10):
        rng2 = random.Random(100 + trial)
        states = [f"q{i}" for i in range(rng2.randint(1, 6))]
        spec = ParityAutomaton.from_transitions(
            tuple(states), letters, letters,
            {(q, a, b): rng2.choice(states) for q in states for a in letters for b in letters},
            states[0], {q: rng2.randint(0, 3) for q in states},
        )
        res = solve(spec)
        for _ in range(200):
            u = tuple(rng2.choice(letters) for _ in range(rng2.randint(0, 3)))
            v = tuple(rng2.choice(letters) for _ in range(rng2.randint(1, 3)))
            w = LassoWord(u, v)
            if res.winner == "output":
                assert accepts(spec, zip_lassos(w, run_machine(res.mealy, w)))
            else:
                assert not accepts(spec, zip_lassos(run_counter_machine(res.counter, w), w))
    report(3, "solver matches the fixpoint oracle on 100 games; machines win 200 lassos each")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_gap_end_to_end(capsys):
    import io

    def run(*argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out, err=io.StringIO())
        assert code == 0
        return json.loads(out.getvalue())

    assert run("definable", str(FIXTURES / "psi_jump_d.json"))["definable"] is False
    assert run("synth", "--semantics", "fv", str(FIXTURES / "psi_jump_fv.json"))["realizable"] is True
    assert run("definable", str(FIXTURES / "psi_copy_d.json"))["definable"] is True
    assert run("synth", "--semantics", "fv", str(FIXTURES / "psi_copy.json"))["realizable"] is True
    assert run("synth", "--semantics", "rc", str(FIXTURES / "psi_copy.json"))["realizable"] is True
    assert run("synth", "--semantics", "fv", str(FIXTURES / "psi_indet_fv.json"))["realizable"] is False
    report(4, "definable/synth verdicts reproduce the implementable-but-not-finite-state gap")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_geometric_play_duration():
    for rounds in (1, 2, 5, 9, 13):
        play = geometric_duel(load_fixture("psi_jump_rc"), rounds)
        duration = play.now
        assert duration == 2 - F(1, 2 ** (rounds - 1))
        assert duration < 2
    report(5, "last-instant interrupts keep the scripted play strictly below duration 2")


# -- criterion 6 -------------------------------------------------------------


class SmallInterrupter:
    """Interrupts every block inside its lag, at a seeded legal instant."""

    def __init__(self, arena, rng, rounds):
        self.arena = arena
        self.rng = rng
        self.rounds = rounds

    def move(self, play):
        from chronosynth.game_sim import Accept, InterruptMove

        node = play.node
        if node.kind in ("fresh", "o_dag"):
            letter = self.rng.choice(self.arena.automaton.sigma_in)
            return next(e for e in self.arena.outgoing(node) if e.dst.letter == letter)
        if play.interrupt_count >= self.rounds:
            return Accept()
        member = self.arena.member(node)
        lag_len = len(member.lag)
        others = [x for x in self.arena.automaton.sigma_in if x != node.letter]
        letter = self.rng.choice(others)
        if self.arena.semantics == RC:
            n = self.rng.randint(1, lag_len)
            t = play.now + play.block_scale * n
            return InterruptMove(t, letter, "")
        odd_positions = [n for n in range(1, lag_len + 1) if n % 2 == 1]
        n = self.rng.choice(odd_positions)
        t = play.now + play.block_scale * ((n + 1) // 2)
        return InterruptMove(t, letter, "left")


def test_criterion_6_zeno_bound():
    done = 0
    attempt = 0
    while done < 50:
        attempt += 1
        sem = RC if attempt % 2 == 0 else FV
        res = decide_continuous(load_fixture("psi_copy"), sem)
        d_q = res.stats.d_bound
        rng = random.Random(attempt)
        env = SmallInterrupter(res.arena, rng, rounds=rng.randint(4, 10))
        controller = ChoiceController(res.arena, res.witness)
        play = run_play(res.arena, controller, env, max_rounds=20)
        stamps = [F(0)] + [
            s.time for s in play.steps if s.text.startswith("I interrupt")
        ]
        if len(stamps) < 3:
            continue
        # every tail of the all-small play obeys the geometric bound
        for j in range(len(stamps) - 1):
            remaining = stamps[-1] - stamps[j]
            assert remaining <= 2 * d_q * F(1, 2**j), (j, remaining)
        # and the per-move increments respect the lag bound
        for i, (a, b) in enumerate(zip(stamps, stamps[1:])):
            assert b - a <= d_q * F(1, 2**i)
        done += 1
    report(6, "all-small tails stay within the 2 * d_Q * 2^-j duration bound (50 tails)")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_strategy_check_vs_simulation():
    rng_master = random.Random(2024)
    copy_spec = load_fixture("psi_copy")
    specs = [(copy_spec, RC), (copy_spec, FV)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        states = [f"q{i}" for i in range(rng.randint(1, 2))]
        spec = ParityAutomaton.from_transitions(
            tuple(states), ("0", "1"), ("0", "1"),
            {(q, a, b): rng.choice(states) for q in states for a in "01" for b in "01"},
            states[0], {q: rng.randint(0, 2) for q in states},
        )
        specs.append((spec, RC))
        specs.append((spec, FV))
    plays_per_choice = 1000
    total_choices = 0
    for spec, sem in specs:
        res = decide_continuous(spec, sem)
        arena = res.arena
        for choice, violation in enumerate_choices(arena):
            total_choices += 1
            controller = ChoiceController(arena, choice)
            if violation is None:
                for i in range(plays_per_choice):
                    env = RandomEnvironment(
                        arena, random.Random(rng_master.randint(0, 10**9)),
                        force_accept_after=8,
                    )
                    play = run_play(arena, controller, env, max_rounds=20)
                    out = adjudicate(play)
                    assert out.winner == "O", (sem, i)
            else:
                for i in range(plays_per_choice):
                    env = ViolationEnvironment(
                        arena, violation, rng=random.Random(rng_master.randint(0, 10**9))
                    )
                    play = run_play(arena, ChoiceController(arena, choice), env, max_rounds=24)
                    out = adjudicate(play)
                    assert out.winner == "I", (sem, violation.kind, i)
    assert total_choices >= 10
    report(7, f"winning analysis agrees with adversarial simulation on {total_choices} choices x 1000 plays")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_codec_laws():
    rng = random.Random(11)

    def random_signal():
        k = rng.randint(1, 4)
        bps = [F(0)]
        for _ in range(k - 1):
            bps.append(bps[-1] + F(rng.randint(1, 6), 6))
        pv = tuple(rng.choice("01") for _ in range(k))
        iv = tuple(rng.choice("01") for _ in range(k - 1))
        if rng.random() < 0.5:
            tail = ConstantTail(rng.choice("01"))
        else:
            m = rng.randint(1, 3)
            tail = LassoTail(F(m, 6) * rng.randint(1, 3), tuple(
                (rng.choice("01"), rng.choice("01")) for _ in range(m)
            ))
        return FVSignal(tuple(bps), pv, iv, tail)

    grid = SampleSequence((F(0),), F(1, 6))
    # roundtrips and normalization laws
    for _ in range(150):
        s = random_signal()
        w = encode_D(s, grid)
        assert signals_equal(decode_FV(w, grid), s)
        n = stutter_normalize(w)
        assert is_stuttering_free(n)
        assert stutter_normalize(n) == n
        finer = SampleSequence((F(0),), F(1, 12))
        assert stutter_normalize(encode_D(s, finer)) == n
    # speed independence under 50 random warps
    done = 0
    while done < 50:
        s = random_signal()
        knots = [(F(0), F(0))]
        x = y = F(0)
        for _ in range(rng.randint(1, 3)):
            x += F(rng.randint(1, 3), rng.randint(1, 2))
            y += F(rng.randint(1, 3), rng.randint(1, 2))
            knots.append((x, y))
        warp = TimeWarp(tuple(knots), F(rng.randint(1, 3), rng.randint(1, 2)))
        w1 = encode_D(s, grid)
        w2 = encode_D(reparameterize(s, warp), warp_sample_sequence(grid, warp))
        assert w1 == w2
        done += 1
    report(8, "codec roundtrips, unique stuttering normal forms, 50 warp-invariant encodings")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_counter_operator_properties():
    rng = random.Random(13)

    def random_signal():
        k = rng.randint(1, 4)
        bps = [F(0)]
        for _ in range(k - 1):
            bps.append(bps[-1] + F(rng.randint(1, 5), rng.randint(1, 3)))
        pv = tuple(rng.choice("01") for _ in range(k))
        iv = tuple(rng.choice("01") for _ in range(k - 1))
        return FVSignal(tuple(bps), pv, iv, ConstantTail(rng.choice("01")))

    # difference from the argument, 200 signals
    for _ in range(200):
        y = random_signal()
        assert not signals_equal(counter_operator(y), y)
    # strong causality, 200 generated pairs agreeing on [0, t)
    for _ in range(200):
        y1 = random_signal()
        t = F(rng.randint(1, 6), rng.randint(1, 3))
        grid = [x for x in y1.sample_times(t) if x < t] or [F(0)]
        pv = tuple(y1.value_at(x) for x in grid)
        iv = tuple(y1.value_at((grid[i] + grid[i + 1]) / 2) for i in range(len(grid) - 1))
        tail_iv = y1.value_at((grid[-1] + t) / 2)
        y2 = FVSignal(
            tuple(grid) + (t,),
            pv + ({"0": "1", "1": "0"}[y1.value_at(t)],),
            iv + (tail_iv,),
            ConstantTail(rng.choice("01")),
        )
        g1, g2 = counter_operator(y1), counter_operator(y2)
        check = sorted(set(g1.sample_times(t)) | set(g2.sample_times(t)) | {t})
        for i, x in enumerate(check):
            assert g1.value_at(x) == g2.value_at(x)
            if i + 1 < len(check):
                mid = (x + check[i + 1]) / 2
                assert g1.value_at(mid) == g2.value_at(mid)
    report(9, "counter operator is strongly causal and differs from its argument (200 each)")
