"""Normal forms of ultimately periodic words that only tests and demos read.

``normalize`` gives a lasso its minimal period and prefix, so two lassos
denote the same omega-word iff their normal forms are equal;
``ramsey_factorize`` cuts a word over automaton states into an absorbing
head and idempotent blocks of the state-string congruence.
"""

from chronosynth.omega_word import LassoWord
from chronosynth.state_monoid import MonoidContext, MonoidError, absorbs, signature_of


def _primitive_root(v: tuple) -> tuple:
    """Shortest w with v = w^k."""
    n = len(v)
    for d in range(1, n + 1):
        if n % d == 0 and v == v[:d] * (n // d):
            return v[:d]
    return v


def normalize(w: LassoWord) -> LassoWord:
    """Minimal-period, minimal-prefix representative of the same omega-word.

    Two lassos denote the same omega-word iff their normal forms are equal.
    Rotating a primitive period keeps it primitive, so the period is
    minimized once, before prefix absorption.
    """
    v = _primitive_root(w.period)
    u = w.prefix
    while u and u[-1] == v[-1]:
        u = u[:-1]
        v = (v[-1],) + v[:-1]
    return LassoWord(u, v)


def ramsey_factorize(w: LassoWord, ctx: MonoidContext):
    """Cut an ultimately periodic word into an absorbing head and idempotent blocks.

    Returns (head, block, cut_positions) with w = head . block . block . ...,
    the block's class idempotent, and appending the block leaving the head's
    class unchanged.  Some power of the period has an idempotent signature
    because the monoid is finite; multiplying the head by that power once
    more makes it absorbing.
    """
    u, v = tuple(w.prefix), tuple(w.period)
    power = v
    e_sig = signature_of(v, ctx)
    k = 1
    seen = {e_sig: 1}
    while not absorbs(ctx, e_sig, e_sig):
        power = power + v
        e_sig = signature_of(power, ctx)
        k += 1
        if e_sig in seen and seen[e_sig] != k:
            raise MonoidError("no idempotent power found (broken signatures)")
        seen[e_sig] = k
    block = power  # = v^k

    j = 0 if u else 1
    while True:
        head = u + v * j
        if head:
            head_sig = signature_of(head, ctx)
            if absorbs(ctx, head_sig, e_sig):
                break
        j += 1
        if j > 2 * k + 1:
            raise MonoidError("absorbing head not found (broken signatures)")
    cuts = [len(head) + i * len(block) for i in range(3)]
    return head, block, cuts
