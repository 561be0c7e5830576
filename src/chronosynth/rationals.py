"""Exact rational times as the play session reads and prints them."""

from __future__ import annotations

from fractions import Fraction


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

