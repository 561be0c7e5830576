"""Timed play engine, adjudication, scripted duels, interactive sessions."""

import dataclasses
import random
from fractions import Fraction

import pytest

from chronosynth.arena import FRESH, FV, I_DAG, I_UP, O_DAG, O_PAIR, RC, Arena
from chronosynth.continuous_synth import (
    Violation,
    _bfs_path,
    _sccs,
    build_game_arena,
    build_strategy_graph,
    decide_continuous,
)
from chronosynth.game_sim import (
    Accept,
    ChoiceController,
    IllegalMove,
    InterruptMove,
    RandomEnvironment,
    TimedPlay,
    TraceStep,
    UndecidedError,
    ViolationEnvironment,
    PlaySession,
    adjudicate,
    new_play,
    resolve_interrupt,
    run_play,
    step,
    time_for_edge,
)

from duel import geometric_duel
from fixture_specs import FIXTURES, load_fixture

F = Fraction


def rc_setup():
    res = decide_continuous(load_fixture("psi_copy"), RC)
    return res


def fv_setup():
    res = decide_continuous(load_fixture("psi_copy"), FV)
    return res


def letter_edge(play, letter):
    """The arena edge that fixes input ``letter`` at the fresh node or a (q,+) node."""
    return next(e for e in play.arena.outgoing(play.node) if e.dst.letter == letter)


def test_accept_at_final_node_wins_for_controller():
    res = rc_setup()
    arena = res.arena
    controller = ChoiceController(arena, res.witness)
    play = new_play(arena)
    step(play, letter_edge(play, "0"))
    step(play, controller.move(play))
    assert play.node.kind == I_UP
    step(play, Accept())
    out = adjudicate(play)
    assert out.winner == "O" and out.reason == "accepted_final"
    with pytest.raises(IllegalMove, match="the play has ended"):
        step(play, Accept())


def test_interrupt_positions_and_labels():
    res = rc_setup()
    arena = res.arena
    controller = ChoiceController(arena, res.witness)
    play = new_play(arena)
    step(play, letter_edge(play, "0"))
    step(play, controller.move(play))
    member = arena.member(play.node)
    lag = len(member.lag)
    # interrupt inside the lag: small edge, priority from the prefix
    mv = InterruptMove(play.now + play.block_scale * 1, "1", "")
    n, edge = resolve_interrupt(arena, play, mv)
    assert n == 1 and edge.size == "small"
    pr = arena.automaton.priority
    assert edge.priority == max(pr[member.letter(i)] for i in (1,))
    # interrupt beyond the lag: big edge with the member's maximal priority
    mv2 = InterruptMove(play.now + play.block_scale * (lag + 1), "1", "")
    n2, edge2 = resolve_interrupt(arena, play, mv2)
    assert n2 == lag + 1 and edge2.size == "big"
    states = set(member.lag) | set(member.period)
    assert edge2.priority == max(pr[q] for q in states)


def test_illegal_moves_rejected():
    res = rc_setup()
    arena = res.arena
    controller = ChoiceController(arena, res.witness)
    play = new_play(arena)
    with pytest.raises(IllegalMove):
        step(play, Accept())
    start = letter_edge(play, "0")
    step(play, start)
    with pytest.raises(IllegalMove):
        step(play, start)
    step(play, controller.move(play))
    with pytest.raises(IllegalMove):
        step(play, InterruptMove(F(0), "1", ""))  # not after block start
    with pytest.raises(IllegalMove):
        step(play, InterruptMove(F(1, 2), "0", ""))  # same letter
    with pytest.raises(IllegalMove):
        step(play, InterruptMove(F(1, 2), "1", "left"))  # fv kind in rc


def test_untimed_moves_are_arena_edges():
    for semantics in (RC, FV):
        arena = decide_continuous(load_fixture("psi_copy"), semantics).arena
        kinds = {node.kind for node in arena.nodes}
        assert kinds == ({FRESH, O_PAIR, I_UP} if semantics == RC else {FRESH, O_PAIR, O_DAG, I_DAG, I_UP})
        now = F(5, 2)
        for node in arena.nodes:
            # a play at time 5/2 in its second block, whose scale is 1
            play = TimedPlay(arena, node, now, block_scale=F(1))
            before = dataclasses.replace(play, steps=[])
            foreign = next(e for e in arena.edges if e.src != node)
            untimed = [foreign] + list(arena.outgoing(node) if node.kind == I_UP else ())
            for edge in untimed:
                with pytest.raises(IllegalMove):
                    step(play, edge)
                assert play == before, (semantics, node, edge)
            if node.kind == I_UP:
                continue
            for edge in arena.outgoing(node):
                play = dataclasses.replace(before, steps=[])
                step(play, edge)
                if node.kind == FRESH:
                    text = f"I start a={edge.dst.letter}"
                elif node.kind == O_DAG:
                    text = f"I input a={edge.dst.letter}"
                elif edge.dst.kind == O_DAG:
                    assert semantics == FV and node.kind == O_PAIR
                    text = f"O point q={edge.dst.state}"
                else:
                    assert edge.dst.kind == I_UP and node.kind == (O_PAIR if semantics == RC else I_DAG)
                    text = f"O block u=u{edge.dst.up} scale=1/2"
                    assert play.block_scale == F(1, 2)
                assert play.node == edge.dst, (semantics, edge)
                assert play.steps == [TraceStep(text, edge, now)], (semantics, edge)
                assert play.now == now and play.interrupt_count == 0 and not play.finished


def test_fv_right_interrupts_only_at_grid():
    res = fv_setup()
    arena = res.arena
    controller = ChoiceController(arena, res.witness)
    play = new_play(arena)
    step(play, letter_edge(play, "0"))
    while play.node.kind != I_UP:
        step(play, controller.move(play) if arena.owner(play.node) == "O" else letter_edge(play, "0"))
    with pytest.raises(IllegalMove):
        step(play, InterruptMove(play.now + play.block_scale / 2, "1", "right"))
    step(play, InterruptMove(play.now + play.block_scale, "1", "right"))
    assert play.node.kind == "i_dag"


def test_fv_left_interrupt_lands_on_odd_position():
    res = fv_setup()
    arena = res.arena
    controller = ChoiceController(arena, res.witness)
    play = new_play(arena)
    step(play, letter_edge(play, "0"))
    while play.node.kind != I_UP:
        step(play, controller.move(play) if arena.owner(play.node) == "O" else letter_edge(play, "0"))
    mv = InterruptMove(play.now + play.block_scale / 2, "1", "left")
    n, edge = resolve_interrupt(arena, play, mv)
    assert n % 2 == 1
    assert edge.kind == "left"


def test_block_i_runs_at_scale_two_to_the_minus_i():
    # the schedule belongs to step: a block move is only its edge
    for res in (rc_setup(), fv_setup()):
        arena = res.arena
        for seed in range(10):
            env = RandomEnvironment(arena, random.Random(seed), accept_rate=0.05)
            play = new_play(arena)
            while not play.finished and play.interrupt_count < 8:
                if arena.owner(play.node) == "I":
                    step(play, env.move(play))
                else:
                    step(play, res.witness[play.node])
            blocks = [s.text for s in play.steps if s.text.startswith("O block")]
            assert blocks
            for i, text in enumerate(blocks):
                assert text.endswith(f" scale={F(1, 2**i)}"), (res.arena.semantics, seed, i)
            assert play.block_scale == F(1, 2 ** (len(blocks) - 1))
            interrupts = [s for s in play.steps if s.text.startswith("I interrupt")]
            assert play.interrupt_count == len(interrupts), (res.arena.semantics, seed)


def test_witness_never_loses_random_plays():
    for res in (rc_setup(), fv_setup()):
        controller = ChoiceController(res.arena, res.witness)
        for i in range(100):
            env = RandomEnvironment(
                res.arena, random.Random(1000 + i), force_accept_after=12
            )
            play = run_play(res.arena, controller, env, max_rounds=25)
            out = adjudicate(play)
            assert out.winner == "O", (res.arena.semantics, i, out)


def test_violation_environment_defeats_losing_choice():
    from oracles import enumerate_choices

    res = rc_setup()
    arena = res.arena
    losing = []
    for choice, violation in enumerate_choices(arena):
        if violation is not None:
            losing.append((choice, violation))
    assert losing
    for choice, violation in losing[:10]:
        controller = ChoiceController(arena, choice)
        env = ViolationEnvironment(arena, violation)
        play = run_play(arena, controller, env, max_rounds=30)
        out = adjudicate(play)
        assert out.winner == "I", violation.kind


def test_geometric_example_duration_strictly_below_two():
    for rounds in (1, 4, 8, 12):
        play = geometric_duel(load_fixture("psi_jump_rc"), rounds)
        assert play.finished  # the environment eventually accepts
        out = adjudicate(play)
        assert out.winner == "O" and out.reason == "accepted_final"
        duration = play.now
        assert duration == 2 - F(1, 2 ** (rounds - 1))
        assert duration < 2


def test_geometric_example_transcript_timestamps_increase():
    play = geometric_duel(load_fixture("psi_jump_rc"), 6)
    times = [s.time for s in play.steps]
    assert all(a <= b for a, b in zip(times, times[1:]))
    interrupts = [s for s in play.steps if s.text.startswith("I interrupt")]
    stamps = [s.time for s in interrupts]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    # each interrupt lands at position 1 of its block, before the jump to done
    assert all(s.edge.size == "small" and s.edge.dst.state == "hold0" for s in interrupts)


def test_adjudicate_zeno_on_capped_geometric_play():
    play = geometric_duel(load_fixture("psi_jump_rc"), 16, accept=False)
    assert not play.finished
    out = adjudicate(play)
    assert out.winner == "O" and out.reason == "zeno_O_win"


def test_adjudicate_divergent_odd_cycle():
    # environment loops a big edge with unit gaps on a losing choice; the
    # fixtures meet no clause-B violation, two specs of the random corpus do
    from oracles import enumerate_choices
    from test_continuous_synth import _corpus_specs

    replayed = 0
    for spec in _corpus_specs():
        for semantics in (RC, FV):
            arena = build_game_arena(spec, semantics)[0]
            for choice, violation in enumerate_choices(arena):
                if violation is None:
                    break
                if violation.kind != "B":
                    continue
                path = violation.entry + violation.cycle
                along = {e.src: e for e in path if arena.owner(e.src) == "O"}
                for controller_choice in (choice, along):
                    env = ViolationEnvironment(arena, violation)
                    controller = ChoiceController(arena, controller_choice)
                    play = run_play(arena, controller, env, max_rounds=24)
                    out = adjudicate(play)
                    assert (out.winner, out.reason) == ("I", "parity_odd")
                    # unit gaps force divergence past any bound
                    bigs = [s for s in play.steps if s.edge is not None and s.edge.size == "big"]
                    assert play.now >= len(bigs) - 2
                    replayed += 1
    assert replayed > 0


def test_adjudicate_divergent_even_cycle():
    # the same replay on a cycle through a big edge of the winning choice
    res = rc_setup()
    arena = res.arena
    sg = build_strategy_graph(arena, res.witness)
    succ = {n: [e.dst for e in es] for n, es in sg.edges_from.items()}
    comp_of = _sccs(sorted(sg.edges_from), succ)
    big = next(
        e for es in sg.edges_from.values() for e in es
        if e.size == "big" and comp_of[e.src] == comp_of[e.dst]
    )
    cycle = (big,) + _bfs_path(sg.edges_from, big.dst, {big.src})
    entry = _bfs_path(sg.edges_from, arena.fresh, {big.src})
    env = ViolationEnvironment(arena, Violation("B", cycle=cycle, entry=entry))
    play = run_play(arena, ChoiceController(arena, res.witness), env, max_rounds=24)
    out = adjudicate(play)
    assert (out.winner, out.reason) == ("O", "parity_even")


def test_adjudicate_undecided_when_capped_too_early():
    res = rc_setup()
    controller = ChoiceController(res.arena, res.witness)
    env = RandomEnvironment(res.arena, random.Random(5), accept_rate=0.0)
    play = run_play(res.arena, controller, env, max_rounds=1)
    if not play.finished:
        with pytest.raises(UndecidedError):
            adjudicate(play)


def earliest_position(arena, play, edge, min_time):
    """Plain scan: the first position whose edge is ``edge`` and whose latest time is >= min_time."""
    for n in range(1, 10_000):
        spans = n if arena.semantics == RC else (n + 1) // 2
        time = play.now + play.block_scale * spans
        if time >= min_time and arena.interrupt_edge(play.node, n, edge.dst.letter) == edge:
            return n
    raise AssertionError(f"no position realizes {edge}")


def late_and_big_positions(arena, play, letter, kind):
    """Plain scan: the last lag position and the first position past the lag whose edge kind is ``kind``."""
    lag = len(arena.member(play.node).lag)
    fits = [n for n in range(1, lag + 3) if arena.interrupt_edge(play.node, n, letter).kind == kind]
    return max(n for n in fits if n <= lag), min(n for n in fits if n > lag)


def test_time_for_edge_realizes_each_arena_edge():
    for fixture in sorted(FIXTURES.glob("*.json")):
        if fixture.stem.endswith("_d"):
            continue
        for semantics in (RC, FV):
            arena, _ = build_game_arena(load_fixture(fixture.stem), semantics)
            session = PlaySession(arena, None, None, None)
            kinds = ("",) if semantics == RC else (" left", " right")
            for node in arena.nodes:
                if node.kind != I_UP:
                    continue
                play = TimedPlay(arena, node, F(5, 2), block_scale=F(1, 3))
                for edge in arena.outgoing(node):
                    mv = time_for_edge(arena, play, edge)
                    assert resolve_interrupt(arena, play, mv) == (
                        earliest_position(arena, play, edge, play.now), edge
                    )
                    if edge.size == "big":
                        for min_time in (play.now + F(5, 7), play.now + 5):
                            mv2 = time_for_edge(arena, play, edge, min_time=min_time)
                            assert mv2.time >= min_time
                            assert resolve_interrupt(arena, play, mv2) == (
                                earliest_position(arena, play, edge, min_time), edge
                            )
                for b in arena.automaton.sigma_in:
                    if b == node.letter:
                        continue
                    for kind in kinds:
                        last_small, first_big = late_and_big_positions(
                            arena, play, b, kind.strip() or "interrupt"
                        )
                        late = session._parse(play, f"late {b}{kind}")
                        n, edge = resolve_interrupt(arena, play, late)
                        assert (n, edge.size) == (last_small, "small")
                        big = session._parse(play, f"big {b}{kind}")
                        n, edge = resolve_interrupt(arena, play, big)
                        assert (n, edge.size) == (first_big, "big")


def test_interactive_session_scripted_replay_is_deterministic():
    res = rc_setup()
    controller = ChoiceController(res.arena, res.witness)
    script = ["start 0", "late 1", "late 0", "accept"]

    def run_once():
        out = []
        play, outcome = PlaySession(
            res.arena, ChoiceController(res.arena, res.witness),
            script, out.append,
        ).run()
        return play.transcript(), "\n".join(out), outcome

    t1, console1, o1 = run_once()
    t2, console2, o2 = run_once()
    assert t1 == t2
    assert console1 == console2
    assert o1 == o2 and o1.winner == "O"
    assert "I interrupt" in t1 and "O block" in t1


def test_interactive_session_rejects_bad_input_and_reprompts():
    res = rc_setup()
    script = ["start 0", "interrupt 0 1", "nonsense", "interrupt 1/0 1", "late 1", "accept"]
    out = []
    play, outcome = PlaySession(
        res.arena, ChoiceController(res.arena, res.witness),
        script, out.append,
    ).run()
    text = "\n".join(out)
    assert text.count("illegal move") == 3
    assert "illegal move: zero denominator in '1/0'" in out
    assert outcome is not None

    # late/big typed at an fv (q,+) node, before any block exists
    res = fv_setup()
    script = ["start 0", "late 1", "big 1", "input 0", "accept"]
    out = []
    play, outcome = PlaySession(
        res.arena, ChoiceController(res.arena, res.witness),
        script, out.append,
    ).run()
    rejected = [line for line in out if line.startswith("illegal move")]
    assert rejected == ["illegal move: interrupts are only possible at block nodes"] * 2
    assert outcome is not None and outcome.winner == "O"

    # late/big take the same kinds as interrupt: none in rc, left|right in fv
    for semantics, script, reason in (
        (RC, ["start 0", "late 1 left", "big 1 right", "accept"],
         "interrupt kinds belong to the fv game"),
        (FV, ["start 0", "input 0", "late 1 bogus", "big 1 bogus", "accept"],
         "fv interrupts must pick kind 'left' or 'right'"),
    ):
        res = decide_continuous(load_fixture("psi_copy"), semantics)
        out = []
        play, outcome = PlaySession(
            res.arena, ChoiceController(res.arena, res.witness),
            script, out.append,
        ).run()
        rejected = [line for line in out if line.startswith("illegal move")]
        assert rejected == [f"illegal move: {reason}"] * 2
        assert play.interrupt_count == 0 and outcome.winner == "O"

    # fv 'late b right' needs an even position inside the lag; an absorbing
    # lag is at least two states long, so the block's lag is cut to one here
    res = fv_setup()
    play = new_play(res.arena)
    step(play, letter_edge(play, "0"))
    while play.node.kind != I_UP:
        step(play, ChoiceController(res.arena, res.witness).move(play)
             if res.arena.owner(play.node) == "O" else letter_edge(play, "0"))
    member = res.arena.member(play.node)
    members = list(res.arena.members)
    members[play.node.up] = member._replace(lag=member.lag[:1])
    arena = Arena(res.arena.semantics, res.arena.automaton, tuple(members), res.arena.rows, res.arena.final_up)
    with pytest.raises(IllegalMove, match="no even lag position to interrupt at"):
        PlaySession(arena, None, None, None)._parse(play, "late 1 right")


def test_interactive_session_quit_is_graceful():
    res = rc_setup()
    out = []
    play, outcome = PlaySession(
        res.arena, ChoiceController(res.arena, res.witness),
        ["start 0", "quit"], out.append,
    ).run()
    assert outcome is None
    assert "abandoned" in "\n".join(out)


def test_fuzzed_scripted_sessions_never_beat_copy_witness():
    rng = random.Random(71)
    res = fv_setup()
    controller_choice = res.witness
    for trial in range(30):
        env = RandomEnvironment(res.arena, random.Random(3000 + trial), accept_rate=0.25)
        play = run_play(res.arena, ChoiceController(res.arena, controller_choice), env, max_rounds=18)
        out = adjudicate(play)
        assert out.winner == "O"
