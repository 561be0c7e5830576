"""Existence of finite-state (definable) causal operators over signals.

Specifications enter as parity automata over the squared alphabet: an input
letter encodes (value at the sample point, value on the following open
interval), and likewise for output letters.  A finite-state operator's
output can only jump where its input jumps, so the decision composes the
specification's transition table with that of a safety monitor enforcing
exactly that discipline and hands the product to the discrete solver.  The
monitor is a parity automaton too: its rejecting sink is its one state of
odd priority.

Positive answers return a machine to be run on stuttering-free encodings;
negative answers carry the losing region and the counter machine as a
machine-checkable certificate.
"""

from __future__ import annotations

from typing import NamedTuple

from .automaton import AlphabetMismatchError, ParityAutomaton, product_with_monitor
from .discrete_game import MealyMachine, MooreCounterMachine, solve

PAIR_SEP = ","


def pair_letter(point, interval) -> str:
    """Encode a (point value, interval value) pair as one alphabet letter."""
    point, interval = str(point), str(interval)
    if PAIR_SEP in point or PAIR_SEP in interval:
        raise ValueError(f"letters may not contain {PAIR_SEP!r}")
    return f"{point}{PAIR_SEP}{interval}"


def split_letter(letter: str) -> tuple:
    point, interval = letter.split(PAIR_SEP, 1)
    return point, interval


def square_alphabet(letters) -> tuple:
    return tuple(pair_letter(p, i) for p in letters for i in letters)


def is_squared_alphabet(letters) -> bool:
    try:
        pairs = [split_letter(x) for x in letters]
        base = sorted({p for p, _ in pairs} | {i for _, i in pairs})
        return sorted(letters) == sorted(square_alphabet(base))
    except (ValueError, AttributeError):  # no separator, more than one, or not a string
        return False


def build_psi_star_monitor(sigma_in, sigma_out) -> ParityAutomaton:
    """Safety monitor for the jump discipline of finite-state operators.

    Remembers the previous letter's interval components (a', b').  On the
    next letter ((c, c'), (d, d')): if a' = c (the input is left-continuous
    at the sample point) the output must be too (b' = d); if additionally
    c = c' (continuous), d = d' is also required.  The first letter is
    unconstrained: the clauses quantify over times strictly after 0.  The
    monitor is a parity automaton whose one odd priority, 1, is at the
    absorbing ``dead`` state; every other state has 0.
    """
    base_in = sorted({piece for letter in sigma_in for piece in split_letter(letter)})
    base_out = sorted({piece for letter in sigma_out for piece in split_letter(letter)})
    states = ["start", "dead"]
    memories = [(x, y) for x in base_in for y in base_out]
    states.extend(f"m:{x}{PAIR_SEP}{y}" for x, y in memories)
    transition = {}
    for ain in sigma_in:
        c, c_prime = split_letter(ain)
        for aout in sigma_out:
            d, d_prime = split_letter(aout)
            next_mem = f"m:{c_prime}{PAIR_SEP}{d_prime}"
            transition[("start", ain, aout)] = next_mem
            transition[("dead", ain, aout)] = "dead"
            for x, y in memories:
                state = f"m:{x}{PAIR_SEP}{y}"
                violated = x == c and (y != d or (c == c_prime and d != d_prime))
                transition[(state, ain, aout)] = "dead" if violated else next_mem
    priority = dict.fromkeys(states, 0)
    priority["dead"] = 1
    return ParityAutomaton.from_transitions(states, sigma_in, sigma_out, transition, "start", priority)


class DefinableResult(NamedTuple):
    definable: bool
    witness: MealyMachine | None
    counter: MooreCounterMachine | None
    losing_region: frozenset = frozenset()  # the product game's nodes the input player wins


def _check_squared(spec: ParityAutomaton):
    if not is_squared_alphabet(spec.sigma_in) or not is_squared_alphabet(spec.sigma_out):
        raise AlphabetMismatchError(
            "definable synthesis expects squared (point,interval) alphabets; "
            "letters look like '0,1'"
        )


def solve_definable(spec: ParityAutomaton) -> DefinableResult:
    """Decide whether a finite-state causal operator implements the spec.

    The spec conjoined with the jump-discipline monitor goes to the
    discrete solver.  A Mealy witness is meant to be driven by
    stuttering-free input encodings; on the negative side the input
    player's winning region certifies impossibility.
    """
    _check_squared(spec)
    monitor = build_psi_star_monitor(spec.sigma_in, spec.sigma_out)
    product = product_with_monitor(spec, monitor)
    res = solve(product)
    if res.winner == "output":
        return DefinableResult(True, res.mealy, None)
    return DefinableResult(False, None, res.counter, res.input_region)
