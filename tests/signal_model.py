"""Finite-variability signals with exact rational time.

A signal is finitely presented: point values at strictly increasing
breakpoints starting at 0, interval values in between, and a tail beyond
the last breakpoint that is either constant or periodic (a repeating block
of (point, interval) pairs on an equally spaced grid).  Floats never enter;
all times are Fractions.

The same module houses sample sequences, the encoding of signals as
omega-words of (point value, interval value) pairs, the stuttering
normal form, piecewise-linear time reparameterization, and the
counter-operator construction used by the indeterminacy fixtures.
No subcommand runs on a concrete signal, so the model lives with the
tests: the acceptance criteria and demo 02 read it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from chronosynth.omega_word import LassoWord

from word_forms import normalize


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two positive rationals."""
    a, b = Fraction(a), Fraction(b)
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def frac_lcm(a: Fraction, b: Fraction) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    return a * b / frac_gcd(a, b)


class SignalError(Exception):
    pass


class NotASampleSequenceError(SignalError):
    """The sequence misses a discontinuity point of the signal."""


@dataclass(frozen=True)
class ConstantTail:
    value: object


@dataclass(frozen=True)
class LassoTail:
    """Periodic tail: the block of (point, interval) pairs spans ``delta``.

    With m block entries and step = delta/m, entry l supplies the point
    value at grid points tail_start + n*step for n >= 1 with n = l mod m,
    and the interval value on the following open interval.  Entry 0's
    interval value therefore sits directly after the tail start, while its
    point value first shows up a full period later.
    """

    delta: Fraction
    block: tuple  # of (point_value, interval_value) pairs

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "block", tuple((p, i) for p, i in self.block))
        if self.delta <= 0:
            raise SignalError("tail period duration must be positive")
        if not self.block:
            raise SignalError("tail block must be nonempty")

    @property
    def step(self) -> Fraction:
        return self.delta / len(self.block)


@dataclass(frozen=True)
class FVSignal:
    breakpoints: tuple  # Fractions, strictly increasing, first = 0
    point_values: tuple
    interval_values: tuple  # len = len(breakpoints) - 1
    tail: object  # ConstantTail | LassoTail

    def __post_init__(self):
        bps = tuple(Fraction(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "point_values", tuple(self.point_values))
        object.__setattr__(self, "interval_values", tuple(self.interval_values))
        if not bps or bps[0] != 0:
            raise SignalError("breakpoints must start at 0")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise SignalError("breakpoints must be strictly increasing")
        if len(self.point_values) != len(bps):
            raise SignalError("need one point value per breakpoint")
        if len(self.interval_values) != len(bps) - 1:
            raise SignalError("need one interval value between consecutive breakpoints")
        if not isinstance(self.tail, (ConstantTail, LassoTail)):
            raise SignalError("tail must be ConstantTail or LassoTail")

    @property
    def solid_end(self) -> Fraction:
        return self.breakpoints[-1]

    # -- evaluation ----------------------------------------------------

    def value_at(self, t) -> object:
        t = Fraction(t)
        if t < 0:
            raise SignalError("signals are defined on nonnegative time only")
        bps = self.breakpoints
        if t <= self.solid_end:
            lo, hi = 0, len(bps) - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if bps[mid] <= t:
                    lo = mid
                else:
                    hi = mid - 1
            if bps[lo] == t:
                return self.point_values[lo]
            return self.interval_values[lo]
        x = t - self.solid_end
        if isinstance(self.tail, ConstantTail):
            return self.tail.value
        step = self.tail.step
        n, rem = divmod(x, step)
        m = len(self.tail.block)
        if rem == 0:
            return self.tail.block[int(n) % m][0]
        return self.tail.block[int(n) % m][1]

    # -- presentation grid ---------------------------------------------

    def sample_times(self, through) -> list:
        """Presentation sample times (breakpoints and tail grid) <= through."""
        through = Fraction(through)
        times = [t for t in self.breakpoints if t <= through]
        if isinstance(self.tail, LassoTail):
            step = self.tail.step
            t = self.solid_end + step
            while t <= through:
                times.append(t)
                t += step
        return times

    def left_limit(self, t) -> object:
        t = Fraction(t)
        if t <= 0:
            raise SignalError("no left limit at or below 0")
        times = self.sample_times(t)
        prev = max(x for x in times if x < t)
        return self.value_at((prev + t) / 2)

    def right_limit(self, t) -> object:
        t = Fraction(t)
        if t < 0:
            raise SignalError("negative time")
        nxt = self._next_sample_after(t)
        return self.value_at((t + nxt) / 2)

    def _next_sample_after(self, t) -> Fraction:
        t = Fraction(t)
        for x in self.breakpoints:
            if x > t:
                return x
        if isinstance(self.tail, ConstantTail):
            return t + 1
        step = self.tail.step
        n = (t - self.solid_end) // step + 1
        if n < 1:
            n = 1
        return self.solid_end + n * step

    # -- continuity ----------------------------------------------------

    def jumps_at(self, t) -> bool:
        """No neighborhood of t on which the signal is constant; 0 always jumps."""
        t = Fraction(t)
        if t < 0:
            raise SignalError("negative time")
        if t == 0:
            return True
        v = self.value_at(t)
        return not (self.left_limit(t) == v == self.right_limit(t))

    def is_left_continuous_at(self, t) -> bool:
        t = Fraction(t)
        if t < 0:
            raise SignalError("negative time")
        if t == 0:
            return True
        return self.left_limit(t) == self.value_at(t)

    def is_right_continuous_at(self, t) -> bool:
        t = Fraction(t)
        if t < 0:
            raise SignalError("negative time")
        return self.right_limit(t) == self.value_at(t)

    def jump_times(self, through) -> list:
        """All jump points in [0, through] (0 always included)."""
        out = [Fraction(0)]
        for t in self.sample_times(through):
            if t > 0 and self.jumps_at(t):
                out.append(t)
        return out

    def first_jump_after_zero(self):
        """Earliest jump in (0, infinity), or None when the signal settles."""
        horizon = self.solid_end
        if isinstance(self.tail, LassoTail):
            horizon += 2 * self.tail.delta
        for t in self.sample_times(horizon):
            if t > 0 and self.jumps_at(t):
                return t
        # tail jumps are periodic: none within two full periods means none at all
        return None

    def tail_period(self) -> Fraction:
        return self.tail.delta if isinstance(self.tail, LassoTail) else Fraction(1)


def constant_signal(value) -> FVSignal:
    return FVSignal((Fraction(0),), (value,), (), ConstantTail(value))


def delta_signal(x, low="0", high="1") -> FVSignal:
    """The signal that is ``high`` exactly at time x and ``low`` elsewhere."""
    x = Fraction(x)
    if x < 0:
        raise SignalError("delta location must be nonnegative")
    if x == 0:
        return FVSignal((Fraction(0),), (high,), (), ConstantTail(low))
    return FVSignal((Fraction(0), x), (low, high), (low,), ConstantTail(low))


# -- sample sequences ----------------------------------------------------


@dataclass(frozen=True)
class SampleSequence:
    """Strictly increasing unbounded times: finite start, then a fixed step."""

    initial: tuple  # Fractions, first = 0
    step: Fraction

    def __post_init__(self):
        init = tuple(Fraction(t) for t in self.initial)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "step", Fraction(self.step))
        if not init or init[0] != 0:
            raise SignalError("sample sequence must start at 0")
        if any(init[i] >= init[i + 1] for i in range(len(init) - 1)):
            raise SignalError("sample sequence must be strictly increasing")
        if self.step <= 0:
            raise SignalError("sample step must be positive")

    def point(self, j: int) -> Fraction:
        if j < len(self.initial):
            return self.initial[j]
        return self.initial[-1] + (j - len(self.initial) + 1) * self.step

    def contains(self, t) -> bool:
        t = Fraction(t)
        if t <= self.initial[-1]:
            return t in self.initial
        return (t - self.initial[-1]) % self.step == 0

    @property
    def arithmetic_start_index(self) -> int:
        return len(self.initial) - 1


def integer_samples(step=1) -> SampleSequence:
    return SampleSequence((Fraction(0),), Fraction(step))


# -- D / FV codec --------------------------------------------------------


def encode_D(s: FVSignal, ss: SampleSequence) -> LassoWord:
    """Encode a signal as the lasso of (point, interval) pairs along ss.

    Requires ss to contain all discontinuity points of s.  Beyond the point
    where s is in its tail regime and ss is arithmetic, letters repeat with
    index period lcm(tail period, step) / step; jumps beyond that window
    recur with the same common period, so the finite coverage check below
    is exhaustive.
    """
    sig_period = s.tail.delta if isinstance(s.tail, LassoTail) else ss.step
    joint = frac_lcm(sig_period, ss.step)
    horizon = max(s.solid_end, ss.initial[-1]) + joint + sig_period
    for t in s.jump_times(horizon):
        if t > 0 and not ss.contains(t):
            raise NotASampleSequenceError(
                f"sample sequence misses the discontinuity at t={t}"
            )

    # first index from which the letter stream is periodic
    j0 = ss.arithmetic_start_index
    while ss.point(j0) <= s.solid_end:
        j0 += 1
    period_len = int(joint / ss.step)
    letters = []
    for j in range(j0 + period_len):
        tj, tnext = ss.point(j), ss.point(j + 1)
        letters.append((s.value_at(tj), s.value_at((tj + tnext) / 2)))
    return normalize(LassoWord(tuple(letters[:j0]), tuple(letters[j0:])))


def decode_FV(w: LassoWord, ss: SampleSequence) -> FVSignal:
    """Signal with point value a_j at ss_j and interval value b_j after it."""
    j_start = max(len(w.prefix), ss.arithmetic_start_index)
    m = len(w.period)
    breakpoints = tuple(ss.point(j) for j in range(j_start + 1))
    point_values = tuple(w.letter_at(j)[0] for j in range(j_start + 1))
    interval_values = tuple(w.letter_at(j)[1] for j in range(j_start))
    block = tuple(w.letter_at(j_start + l) for l in range(m))
    if all(p == block[0][0] and i == block[0][0] for p, i in block) and (
        point_values[-1] == block[0][0]
    ):
        tail = ConstantTail(block[0][0])
    else:
        tail = LassoTail(m * ss.step, block)
    return FVSignal(breakpoints, point_values, interval_values, tail)


def signals_equal(s1: FVSignal, s2: FVSignal, upto=None) -> bool:
    """Exact pointwise equality, decided on a joint refinement grid.

    Both signals are periodic beyond their solid parts; agreement on one
    common period past both solid ends extends to all later times.  When
    ``upto`` is given, equality is only checked on [0, upto].
    """
    if upto is None:
        horizon = max(s1.solid_end, s2.solid_end) + frac_lcm(
            s1.tail_period(), s2.tail_period()
        )
    else:
        horizon = Fraction(upto)
    grid = sorted(
        set(s1.sample_times(horizon)) | set(s2.sample_times(horizon)) | {horizon}
    )
    for i, t in enumerate(grid):
        if s1.value_at(t) != s2.value_at(t):
            return False
        if i + 1 < len(grid):
            mid = (t + grid[i + 1]) / 2
            if s1.value_at(mid) != s2.value_at(mid):
                return False
    return True


# -- stuttering ----------------------------------------------------------


def is_stuttering_free(w: LassoWord) -> bool:
    """Once a letter (a,b) is followed by (b,b), everything after is (b,b).

    Decidable on the finite unfolding u v v: positions past lag + period
    repeat earlier period positions.
    """
    u, v = w.prefix, w.period
    word = u + v + v
    scan = len(u) + len(v)
    for i in range(scan):
        a, b = word[i]
        if word[i + 1] == (b, b):
            if any(word[j] != (b, b) for j in range(i + 1, len(word))):
                return False
    return True


def stutter_normalize(w: LassoWord) -> LassoWord:
    """The unique stuttering-free lasso describing the same signal.

    A letter equal to (b, b) directly after a letter with interval value b
    marks a removable sample point, unless the signal has already settled:
    a settled signal keeps its constant (b, b) tail.  Removal is simulated
    by a one-letter-memory filter run over period blocks until the filter
    state recurs.
    """
    out = []

    def push(letter):
        if out and letter == (out[-1][1], out[-1][1]):
            return
        out.append(letter)

    for letter in w.prefix:
        push(letter)

    seen_states = {}
    period_chunks = []
    while True:
        state = out[-1][1] if out else None
        if state in seen_states:
            start = seen_states[state]
            period = tuple(x for chunk in period_chunks[start:] for x in chunk)
            if period:
                prefix = tuple(out[: len(out) - len(period)])
                return normalize(LassoWord(prefix, period))
            # all period letters were removable: the signal settles
            settle = out[-1][1] if out else w.period[0][1]
            return normalize(LassoWord(tuple(out), ((settle, settle),)))
        seen_states[state] = len(period_chunks)
        before = len(out)
        for letter in w.period:
            push(letter)
        period_chunks.append(tuple(out[before:]))


def stuttering_equivalent(w1: LassoWord, w2: LassoWord) -> bool:
    return stutter_normalize(w1) == stutter_normalize(w2)


# -- time reparameterization ----------------------------------------------


@dataclass(frozen=True)
class TimeWarp:
    """Increasing piecewise-linear bijection of the nonnegative reals.

    ``knots`` are (x, y) pairs starting at (0, 0); beyond the last knot the
    map continues with ``final_slope``.
    """

    knots: tuple
    final_slope: Fraction

    def __post_init__(self):
        ks = tuple((Fraction(x), Fraction(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "final_slope", Fraction(self.final_slope))
        if not ks or ks[0] != (0, 0):
            raise SignalError("time warp must fix 0")
        for (x1, y1), (x2, y2) in zip(ks, ks[1:]):
            if x2 <= x1 or y2 <= y1:
                raise SignalError("time warp knots must increase in both coordinates")
        if self.final_slope <= 0:
            raise SignalError("time warp must keep increasing")

    def apply(self, t) -> Fraction:
        t = Fraction(t)
        if t < 0:
            raise SignalError("negative time")
        ks = self.knots
        for (x1, y1), (x2, y2) in zip(ks, ks[1:]):
            if t <= x2:
                return y1 + (t - x1) * (y2 - y1) / (x2 - x1)
        x_last, y_last = ks[-1]
        return y_last + (t - x_last) * self.final_slope


def identity_warp() -> TimeWarp:
    return TimeWarp(((0, 0), (1, 1)), Fraction(1))


def reparameterize(s: FVSignal, warp: TimeWarp) -> FVSignal:
    """The signal s composed with the inverse warp: value at warp(t) is s(t)."""
    last_knot = warp.knots[-1][0]
    anchor = s.solid_end
    if isinstance(s.tail, LassoTail) and last_knot > anchor:
        step = s.tail.step
        n = (last_knot - anchor) // step
        if anchor + n * step < last_knot:
            n += 1
        anchor = anchor + n * step
    elif isinstance(s.tail, ConstantTail) and last_knot > anchor:
        anchor = last_knot

    times = s.sample_times(anchor)
    if times[-1] < anchor:
        times.append(anchor)  # constant tail: cut at the final knot
    new_bps = tuple(warp.apply(t) for t in times)
    new_pv = tuple(s.value_at(t) for t in times)
    new_iv = tuple(s.value_at((times[i] + times[i + 1]) / 2) for i in range(len(times) - 1))
    if isinstance(s.tail, ConstantTail):
        new_tail = ConstantTail(s.tail.value)
    else:
        m = len(s.tail.block)
        shift = int((anchor - s.solid_end) / s.tail.step) % m
        rotated = tuple(s.tail.block[(shift + l) % m] for l in range(m))
        new_tail = LassoTail(s.tail.delta * warp.final_slope, rotated)
    return FVSignal(new_bps, new_pv, new_iv, new_tail)


def warp_sample_sequence(ss: SampleSequence, warp: TimeWarp) -> SampleSequence:
    last_knot = warp.knots[-1][0]
    j = ss.arithmetic_start_index
    while ss.point(j) < last_knot:
        j += 1
    initial = tuple(warp.apply(ss.point(i)) for i in range(j + 1))
    return SampleSequence(initial, ss.step * warp.final_slope)


# -- counter operator fixture ---------------------------------------------


def counter_operator(y: FVSignal, alphabet=("0", "1")) -> FVSignal:
    """Strongly causal response that differs from its argument everywhere.

    Output is 0-letter at time 0; on (0, t) it is the flip of y's initial
    constant value, and it settles to the 1-letter once y has jumped.
    """
    zero, one = alphabet
    flip = {zero: one, one: zero}
    a = y.right_limit(0)
    if a not in flip:
        raise SignalError(f"counter operator needs a binary signal, got value {a!r}")
    t0 = y.first_jump_after_zero()
    if t0 is None:
        return FVSignal((Fraction(0),), (zero,), (), ConstantTail(flip[a]))
    return FVSignal(
        (Fraction(0), t0), (zero, flip[a]), (flip[a],), ConstantTail(one)
    )
