"""The geometric-scale duel as a move script that ``PlaySession`` replays.

The controller holds its output for one span of every block and then jumps;
the environment interrupts each block at the last instant before the jump.
Block i starts at 2 - 2^-(i-1) and runs at scale 2^-i, so that instant is
2 - 2^-i, and the clock never reaches 2 however long the environment fights.
"""

from fractions import Fraction

from chronosynth.arena import O_PAIR, RC
from chronosynth.game_sim import ChoiceController, PlaySession

from oracles import full_arena


def hold_then_flip(arena, settle_state):
    """At each (q,a) node, the first block that is off ``settle_state`` at
    position 1 and settled in it from position 2 on."""
    choice = {}
    for e in arena.edges:
        if e.src.kind == O_PAIR and e.src not in choice:
            m = arena.member(e.dst)
            if m.letter(1) != settle_state and m.letter(2) == settle_state and set(m.period) == {settle_state}:
                choice[e.src] = e
    return ChoiceController(arena, choice)


def geometric_duel(spec, rounds, accept=True):
    """Play the duel on the full rc arena of ``spec`` (the output-must-jump
    spec, settling in ``done``): ``rounds`` last-instant interrupts, then
    accept.  The hold-then-flip block is dominated, so the arena that
    ``synth`` solves has no node for it.

    Without ``accept`` the play stops at the round cap.  Returns the play.
    """
    arena = full_arena(spec, RC)
    a, b = arena.automaton.sigma_in
    script = [f"start {a}"]
    script += [f"interrupt {2 - Fraction(1, 2**i)} {b if i % 2 == 0 else a}" for i in range(rounds)]
    if accept:
        script.append("accept")
    session = PlaySession(
        arena, hold_then_flip(arena, "done"), script, lambda line: None,
        max_rounds=rounds + 1 if accept else rounds,
    )
    return session.run()[0]
