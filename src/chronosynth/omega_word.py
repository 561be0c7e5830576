"""Ultimately periodic omega-words (lassos).

A lasso ``u (v)^w`` finitely presents the omega-word ``u v v v ...``.
Letters are arbitrary hashable values; automaton modules use strings and
letter pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class LassoWord:
    """An omega-word ``prefix . period^omega`` with a nonempty period."""

    prefix: tuple
    period: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("lasso period must be nonempty")

    def letter_at(self, i: int):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def unfold(self, n: int) -> tuple:
        """First n letters of the omega-word."""
        return tuple(self.letter_at(i) for i in range(n))

    def __str__(self):
        return format_lasso(self)


def inf_set(w: LassoWord) -> frozenset:
    """Letters occurring infinitely often: exactly those of any period of w."""
    return frozenset(w.period)


def transduce(step, state, word: LassoWord) -> LassoWord:
    """Output lasso of a deterministic transducer run over a lasso.

    ``step(state, letter)`` returns ``(next state, output)``.  The period is
    pumped until the state at a period boundary recurs, which closes the
    output lasso.
    """
    out = []
    for letter in word.prefix:
        state, emitted = step(state, letter)
        out.append(emitted)
    boundary = {}
    while state not in boundary:
        boundary[state] = len(out)
        for letter in word.period:
            state, emitted = step(state, letter)
            out.append(emitted)
    start = boundary[state]
    return LassoWord(tuple(out[:start]), tuple(out[start:]))


def zip_lassos(w1: LassoWord, w2: LassoWord) -> LassoWord:
    """Letter-wise pairing of two lassos, as a lasso over pairs."""
    from math import lcm

    lag = max(len(w1.prefix), len(w2.prefix))
    per = lcm(len(w1.period), len(w2.period))
    prefix = tuple((w1.letter_at(i), w2.letter_at(i)) for i in range(lag))
    period = tuple((w1.letter_at(lag + i), w2.letter_at(lag + i)) for i in range(per))
    return LassoWord(prefix, period)


def parse_lasso(text: str, alphabet=()) -> LassoWord:
    """Parse the textual syntax ``u(v)^w``, e.g. ``ab(ba)^w``.

    A letter of ``alphabet`` is read whole, the longest first, so letters
    that contain commas, such as the squared ``0,1``, can be written; commas
    between letters are optional.  Any other letter runs to the next comma
    when its part of the lasso has one, and is one character otherwise.
    """
    s = text.strip()
    if not s.endswith("^w"):
        raise ValueError(f"lasso must end with '^w': {text!r}")
    body = s[:-2]
    if not body.endswith(")") or "(" not in body:
        raise ValueError(f"missing period parentheses: {text!r}")
    open_idx = body.index("(")
    u_part, v_part = body[:open_idx], body[open_idx + 1 : -1]
    known = [re.escape(a) for a in sorted(alphabet, key=len, reverse=True)]

    def letters(chunk: str) -> tuple:
        other = "[^,]+" if "," in chunk else "."
        return tuple(re.findall("|".join([*known, other]), chunk, re.DOTALL))

    return LassoWord(letters(u_part), letters(v_part))


def format_lasso(w: LassoWord, alphabet=()) -> str:
    """The text ``u(v)^w`` that ``parse_lasso`` reads back over ``alphabet``.

    Letters are joined with commas iff some letter of ``w`` or of
    ``alphabet`` is not one character long, and written side by side otherwise.
    """
    sep = "," if any(len(str(x)) != 1 for x in (*w.prefix, *w.period, *alphabet)) else ""
    return f"{sep.join(map(str, w.prefix))}({sep.join(map(str, w.period))})^w"
