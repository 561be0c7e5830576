"""Discrete-time synthesis: one side always has a finite-state winner.

The copy specification is implementable: the identity transducer echoes
every input.  The predict-the-next-input specification is not, and the
solver instead returns a counter machine that emits inputs before reading
outputs and simply contradicts every announced prediction.
"""

from pathlib import Path

from chronosynth.automaton import accepts, load_automaton
from chronosynth.discrete_game import run_counter_machine, run_machine, solve
from chronosynth.omega_word import format_lasso, parse_lasso, zip_lassos

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
copy_spec = load_automaton(FIXTURES / "psi_copy.json")
predict_next_spec = load_automaton(FIXTURES / "predict_next.json")

print("== copy: output must equal input ==")
res = solve(copy_spec)
print(f"  winner: {res.winner} player")
w = parse_lasso("0(10)^w")
out = run_machine(res.mealy, w)
print(f"  machine on {format_lasso(w)} answers {format_lasso(out)}")
print(f"  specification satisfied? {accepts(copy_spec, zip_lassos(w, out))}")

print()
print("== predict the next input ==")
res2 = solve(predict_next_spec)
print(f"  winner: {res2.winner} player")
pred = parse_lasso("1(0)^w")
inputs = run_counter_machine(res2.counter, pred)
print(f"  against predictions {format_lasso(pred)} the counter feeds {format_lasso(inputs)}")
print(f"  specification defeated? {not accepts(predict_next_spec, zip_lassos(inputs, pred))}")
