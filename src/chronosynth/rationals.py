"""Exact rational helpers shared by the signal and game modules."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "n" (also accepts ints) into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError("floating point time is not accepted; use 'p/q' strings")
    s = str(text).strip()
    if "/" in s:
        num, den = (int(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two positive rationals."""
    a, b = Fraction(a), Fraction(b)
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def frac_lcm(a: Fraction, b: Fraction) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    return a * b / frac_gcd(a, b)
