"""Implementable, yet by no finite-state machine.

A finite-state operator on signals can only jump where its input jumps.
The specification "the output jumps somewhere after time 0" is therefore
out of reach for finite-state implementations (feed a constant input), yet
a non-finite-state causal operator implements it trivially: output the
indicator of time 1.  The decision procedure composes the specification
with the jump-discipline monitor and answers on the product.
"""

from pathlib import Path

from chronosynth.automaton import load_automaton
from chronosynth.definable_synth import solve_definable

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

print("== output must equal input (encoded over point/interval pairs) ==")
res = solve_definable(load_automaton(FIXTURES / "psi_copy_d.json"))
print(f"  finite-state implementable? {res.definable}")
q = res.witness.initial
for letter in ("0,0", "1,1", "0,1"):
    q, answer = res.witness.react(q, letter)
    print(f"    witness reads {letter} and emits {answer}")

print()
print("== output must jump after time 0 ==")
res2 = solve_definable(load_automaton(FIXTURES / "psi_jump_d.json"))
print(f"  finite-state implementable? {res2.definable}")
print(f"  certificate: counter machine with {len(res2.counter.states)} states, "
      f"losing region of size {len(res2.losing_region)}")
print("  (the continuous-time game nevertheless calls this realizable; see demo 07)")
