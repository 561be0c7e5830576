"""Finite classification of state strings and the block vocabulary.

Strings over automaton states fall into finitely many classes under the
congruence that compares first/last states, letter-with-prefix-set
profiles, and path validity per input letter.  Choosing shortest
representatives produces the vocabulary of ultimately periodic blocks the
controller plays in the timed games: an absorbing lag followed by an
idempotent period.  Any infinite word factorizes into such blocks.
"""

import sys
from pathlib import Path

from chronosynth.omega_word import LassoWord, format_lasso
from chronosynth.state_monoid import MonoidContext, build_UP, build_class_table, signature_of

# the factorization of periodic words is read only by tests and demos, kept with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from word_forms import ramsey_factorize  # noqa: E402

states = ("p", "q")
total = frozenset((a, b) for a in states for b in states)
ctx = MonoidContext(states, {"x": total})

table = build_class_table(ctx)
print(f"== class table over {states} with every step allowed ==")
print(f"  classes: {table.class_count}   longest shortest witness d_Q = {table.d_q}")
print(f"  idempotent classes: {len(table.idempotents)}")
print("  first few representatives:", ["".join(w) for w in list(table.witnesses.values())[:8]])

up = build_UP(table)
print(f"\n== block vocabulary ==")
print(f"  members: {len(up)}; each is lag . period^w with period idempotent")
for m in up[:5]:
    print(f"    lag={''.join(m.lag):6}  period={''.join(m.period)}")

print(f"\n== factorizing an arbitrary periodic word ==")
w = LassoWord(("p",), ("q", "p"))
head, block, cuts = ramsey_factorize(w, ctx)
print(f"  {format_lasso(w)}  =  {''.join(head)} . ({''.join(block)})^w   cuts at {cuts}")
sig_b = signature_of(block, ctx)
print(f"  the block's class is idempotent, and appending it leaves the head's class fixed")
