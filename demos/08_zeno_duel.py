"""The geometric-scale duel, move by move.

The controller must make its output jump; the environment interrupts at
the last instant that still prevents the jump.  Each round i costs the
environment exactly 2^-i time units, so even after arbitrarily many rounds
the clock stays below 2.  An environment interrupting forever produces a
convergent (Zeno) play, which the rules award to the controller; giving up
and accepting lands on a final block node.  Either way the fight is lost.
"""

from pathlib import Path

from chronosynth.automaton import load_automaton
from chronosynth.game_sim import adjudicate, play_example_geometric
from chronosynth.rationals import format_rational

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
spec = load_automaton(FIXTURES / "psi_jump_rc.json")

for rounds in (3, 6, 10):
    play = play_example_geometric(spec, rounds)
    outcome = adjudicate(play)
    print(f"== environment fights for {rounds} rounds ==")
    for step in play.steps:
        print(f"  [t={format_rational(step.time):>8}] {step.text}")
    print(f"  total duration {format_rational(play.now)} < 2; "
          f"{outcome.winner} wins ({outcome.reason})")
    print()
