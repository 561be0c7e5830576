"""The geometric-scale duel, move by move.

The controller must make its output jump; the environment interrupts at
the last instant that still prevents the jump.  Each round i costs the
environment exactly 2^-i time units, so even after arbitrarily many rounds
the clock stays below 2.  An environment interrupting forever produces a
convergent (Zeno) play, which the rules award to the controller; giving up
and accepting lands on a final block node.  Either way the fight is lost.
"""

import sys
from pathlib import Path

from chronosynth.automaton import load_automaton
from chronosynth.game_sim import adjudicate

# the duel is a move script that the play session replays, kept with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from duel import geometric_duel  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
spec = load_automaton(FIXTURES / "psi_jump_rc.json")

for rounds in (3, 6, 10):
    play = geometric_duel(spec, rounds)
    outcome = adjudicate(play)
    print(f"== environment fights for {rounds} rounds ==")
    for step in play.steps:
        print(f"  [t={step.time!s:>8}] {step.text}")
    print(f"  total duration {play.now} < 2; "
          f"{outcome.winner} wins ({outcome.reason})")
    print()
