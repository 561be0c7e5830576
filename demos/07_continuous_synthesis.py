"""Continuous-time verdicts for three specifications.

Copy is realizable in both timed semantics.  The output-must-jump
specification is realizable over finite-variability signals even though no
finite-state operator implements it: the controller schedules its jump
ever later at geometrically shrinking scales, so an environment racing to
interrupt first runs out of time.  The specification asking for an output
jump strictly inside the input's initial constancy window is unrealizable:
whatever block the controller commits, the environment either accepts
before the jump or cuts the window right before it.
"""

from pathlib import Path

from chronosynth.arena import FV, RC
from chronosynth.automaton import load_automaton
from chronosynth.continuous_synth import decide_continuous

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
copy_spec = load_automaton(FIXTURES / "psi_copy.json")

jobs = [
    ("copy, right-continuous", copy_spec, RC),
    ("copy, finite-variability", copy_spec, FV),
    ("output must jump, finite-variability", load_automaton(FIXTURES / "psi_jump_fv.json"), FV),
    ("jump inside the constancy window", load_automaton(FIXTURES / "psi_indet_fv.json"), FV),
]

for name, spec, sem in jobs:
    res = decide_continuous(spec, sem)
    verdict = "REALIZABLE" if res.realizable else "UNREALIZABLE"
    print(f"== {name} ==")
    print(f"  {verdict}  (arena: {len(res.arena.nodes)} nodes, {len(res.arena.edges)} edges; "
          f"recursion calls: {res.stats.solve_calls}, on {res.stats.game_edges} edges)")
    if res.witness:
        picks = sorted(res.witness)
        print(f"  winning choice fixes {len(picks)} controller nodes, e.g. "
              f"{picks[0].pretty()} -> {res.witness[picks[0]].dst.pretty()}")
    elif res.violation is not None:
        print(f"  the first move at each controller node loses by clause {res.violation.kind}")
    print()
