"""Benchmark specifications used across tests, demos, and the CLI.

Automata for the continuous semantics read the alternating stream of a
signal pair: letter 0 carries the values at time 0, letter 1 the values on
the first open interval, letter 2 the values at the first positive sample
point, and so on.  Odd letters are interval values, even letters are point
values.  Right-continuous automata read one letter per constant segment
instead.  The file-format versions of these fixtures live under
``fixtures/`` in the repository root.
"""

from __future__ import annotations

from .automaton import MAX_EVEN, ParityAutomaton
from .definable_synth import split_letter, square_alphabet

BITS = ("0", "1")
SQ = square_alphabet(BITS)


def copy_spec(sigma=BITS) -> ParityAutomaton:
    """Output equals input at every point and interval (both semantics)."""
    states = ("ok", "bad")
    transition = {}
    for q in states:
        for a in sigma:
            for b in sigma:
                transition[(q, a, b)] = "ok" if (q == "ok" and a == b) else "bad"
    return ParityAutomaton(
        states, sigma, sigma, transition, "ok", {"ok": 0, "bad": 1}, MAX_EVEN
    )


def jump_spec_fv() -> ParityAutomaton:
    """The output signal jumps somewhere in (0, oo): alternating stream form.

    Letter 0 (the point at 0) is skipped entirely; letter 1 pins the value
    the output must eventually leave.  Any later disagreement between
    consecutive output values witnesses a jump at a positive time.
    """
    states = ("fresh0", "fresh1", "hold0", "hold1", "done")
    transition = {}
    for a in BITS:
        for b in BITS:
            transition[("fresh0", a, b)] = "fresh1"
            transition[("fresh1", a, b)] = f"hold{b}"
            for v in BITS:
                transition[(f"hold{v}", a, b)] = f"hold{v}" if b == v else "done"
            transition[("done", a, b)] = "done"
    priority = {"fresh0": 1, "fresh1": 1, "hold0": 1, "hold1": 1, "done": 2}
    return ParityAutomaton(states, BITS, BITS, transition, "fresh0", priority, MAX_EVEN)


def jump_spec_rc() -> ParityAutomaton:
    """The output jumps in (0, oo): right-continuous segment stream form.

    Segment 0 starts at time 0; a change between consecutive segment values
    is a jump at a positive sample point.
    """
    states = ("fresh", "hold0", "hold1", "done")
    transition = {}
    for a in BITS:
        for b in BITS:
            transition[("fresh", a, b)] = f"hold{b}"
            for v in BITS:
                transition[(f"hold{v}", a, b)] = f"hold{v}" if b == v else "done"
            transition[("done", a, b)] = "done"
    priority = {"fresh": 1, "hold0": 1, "hold1": 1, "done": 2}
    return ParityAutomaton(states, BITS, BITS, transition, "fresh", priority, MAX_EVEN)


def indeterminate_spec_fv() -> ParityAutomaton:
    """There is t > 0 with the input constant on (0, t] and the output
    jumping at t: alternating stream form.

    States track, inside the input's initial constancy window, the constant
    input value x and the last output value v, separated by stream parity:
    pt-states are about to read a point letter, iv-states an interval
    letter.  A fresh output value at a point (or just after one) while the
    window is still open settles acceptance; an input change first settles
    rejection.
    """
    states = ["start0", "start1", "settled", "broken"]
    for x in BITS:
        for v in BITS:
            states.append(f"pt{x}{v}")
            states.append(f"iv{x}{v}")
    transition = {}
    for a in BITS:
        for b in BITS:
            transition[("start0", a, b)] = "start1"
            transition[("start1", a, b)] = f"pt{a}{b}"
            transition[("settled", a, b)] = "settled"
            transition[("broken", a, b)] = "broken"
            for x in BITS:
                for v in BITS:
                    # point letter: input must still match the window value
                    if a != x:
                        transition[(f"pt{x}{v}", a, b)] = "broken"
                    elif b != v:
                        transition[(f"pt{x}{v}", a, b)] = "settled"
                    else:
                        transition[(f"pt{x}{v}", a, b)] = f"iv{x}{v}"
                    # interval letter: an output change here is a jump from
                    # the right at the previous point, input afterwards free
                    if b != v:
                        transition[(f"iv{x}{v}", a, b)] = "settled"
                    elif a != x:
                        transition[(f"iv{x}{v}", a, b)] = "broken"
                    else:
                        transition[(f"iv{x}{v}", a, b)] = f"pt{x}{v}"
    priority = {q: 1 for q in states}
    priority["settled"] = 2
    return ParityAutomaton(
        tuple(states), BITS, BITS, transition, "start0", priority, MAX_EVEN
    )


def jump_spec_squared() -> ParityAutomaton:
    """Discrete encoding of the output-must-jump specification.

    The first squared letter only pins the interval value; afterwards any
    mismatch between the remembered interval value and the next point
    value, or within a letter between point and interval value, is a jump
    at a positive time.
    """
    states = ("init", "t0", "t1", "done")
    transition = {}
    for a in SQ:
        for b in SQ:
            point, interval = split_letter(b)
            transition[("init", a, b)] = f"t{interval}"
            for v in BITS:
                if point == v and interval == v:
                    transition[(f"t{v}", a, b)] = f"t{v}"
                else:
                    transition[(f"t{v}", a, b)] = "done"
            transition[("done", a, b)] = "done"
    priority = {"init": 1, "t0": 1, "t1": 1, "done": 2}
    return ParityAutomaton(states, SQ, SQ, transition, "init", priority, MAX_EVEN)


def predict_next_spec() -> ParityAutomaton:
    """Each output letter must equal the next input letter (discrete)."""
    states = ("start", "p0", "p1", "bad")
    transition = {}
    for a in BITS:
        for b in BITS:
            transition[("start", a, b)] = f"p{b}"
            transition[("p0", a, b)] = f"p{b}" if a == "0" else "bad"
            transition[("p1", a, b)] = f"p{b}" if a == "1" else "bad"
            transition[("bad", a, b)] = "bad"
    return ParityAutomaton(
        states, BITS, BITS, transition, "start",
        {"start": 0, "p0": 0, "p1": 0, "bad": 1}, MAX_EVEN,
    )

