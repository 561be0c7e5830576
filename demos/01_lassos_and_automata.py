"""Lasso words and parity automata.

An ultimately periodic word is stored as a prefix plus a repeating period.
Normal forms make equality of the underlying infinite words a tuple
comparison, and the set of letters occurring infinitely often is just the
set of letters of the period.  Automaton runs over such words are again
lassos, so acceptance is decidable by inspecting finitely much data.
"""

import sys
from pathlib import Path

from chronosynth.automaton import accepts, automaton_from_json, run_over
from chronosynth.omega_word import LassoWord, format_lasso, inf_set, parse_lasso

# the lasso normal form is a reference the tests check against, kept with them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from word_forms import normalize  # noqa: E402

print("== lasso normal forms ==")
for text in ("ab(abab)^w", "a(bb)^w", "ab(ba)^w"):
    w = parse_lasso(text)
    print(f"  {text:12} ->  {format_lasso(normalize(w))}   inf = {sorted(inf_set(w))}")

print()
print("== a two-state toggler ==")


def step(q, a, b):
    # the automaton flips state exactly on the letter (1, 0)
    if (a, b) == ("1", "0"):
        return "s" if q == "r" else "r"
    return q


# the spec file reads its priorities min-even: the least one seen infinitely
# often must be even; the loader mirrors them, p -> M - p with M the top
# priority rounded up to even, to the max-even ones every automaton reads
spec = {
    "states": ["r", "s"],
    "sigma_in": ["0", "1"],
    "sigma_out": ["0", "1"],
    "initial": "r",
    "priority": {"r": 0, "s": 1},
    "convention": "min_even",
    "transitions": [{"from": q, "in": a, "out": b, "to": step(q, a, b)} for q in "rs" for a in "01" for b in "01"],
}
toggler = automaton_from_json(spec)

word = LassoWord((), (("1", "0"),))
run = run_over(toggler, word)
print(f"  word ((1,0))^w gives the run {format_lasso(run)}")
least = min(spec["priority"][q] for q in inf_set(run))
print(f"  accepted under min-even? {least % 2 == 0}")
print(f"  priorities after max-even conversion: {toggler.priority}")
print(f"  accepted under max-even? {accepts(toggler, word)} (language unchanged)")
