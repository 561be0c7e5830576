"""Signals with exact rational time and their word encodings.

A finitely presented signal is a step function with rational breakpoints
and a constant or periodic tail.  Sampling it along an unbounded sequence
that hits every discontinuity yields a lasso of (point value, interval
value) pairs; decoding inverts this.  Different sample sequences give
stuttering-equivalent words with a unique stuttering-free normal form, and
stretching time with a piecewise-linear bijection leaves the encodings
untouched.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

from chronosynth.omega_word import format_lasso

# the signal model is the reference the tests check against, kept with them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from signal_model import (  # noqa: E402
    SampleSequence,
    TimeWarp,
    delta_signal,
    encode_D,
    decode_FV,
    integer_samples,
    reparameterize,
    signals_equal,
    stutter_normalize,
    warp_sample_sequence,
)

print("== the indicator signal of t = 1 ==")
d1 = delta_signal(1)
for t in (0, F(1, 2), 1, F(3, 2)):
    print(f"  value at {t}: {d1.value_at(t)}   jumps? {d1.jumps_at(t)}")

print()
print("== encoding along two different grids ==")
coarse = integer_samples()
fine = SampleSequence((F(0), F(1, 2), F(1)), F(1))
w_coarse = encode_D(d1, coarse)
w_fine = encode_D(d1, fine)
print(f"  integers:      {format_lasso(w_coarse)}")
print(f"  refined grid:  {format_lasso(w_fine)}")
print(f"  same normal form? {stutter_normalize(w_coarse) == stutter_normalize(w_fine)}")

print()
print("== decoding is the inverse ==")
back = decode_FV(w_coarse, coarse)
print(f"  decode(encode(d1)) equals d1? {signals_equal(back, d1)}")

print()
print("== speed independence ==")
double = TimeWarp(((0, 0), (1, 2)), F(2))
stretched = reparameterize(d1, double)
print(f"  after doubling time, the jump sits at the first jump of d2: "
      f"{stretched.first_jump_after_zero()}")
w_stretched = encode_D(stretched, warp_sample_sequence(coarse, double))
print(f"  encoding unchanged? {w_stretched == w_coarse}")
