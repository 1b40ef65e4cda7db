"""A fixed reference computation that gauges how fast the machine runs now.

A shared 2-vCPU cloud VM (Intel Xeon, Sapphire Rapids class) was seen to
change speed by up to a third in phases that last seconds to minutes, so
the same job list took 30% more or less time from one minute to the next.  The benchmark therefore times this
reference between jobs and reports every time at a fixed reference speed:

    seconds at reference speed = measured seconds * NOMINAL_S / reference_s

where ``reference_s`` is the reference's duration next to the measurement.
The reference is the benchmark's own code, not confcoh's, so a change to
confcoh moves the measured seconds and not ``reference_s``.  It does the
kind of work confcoh's polynomial kernel does: products of sparse
polynomials held as ``{exponent tuple: Fraction}`` dicts.
"""

from fractions import Fraction
from time import perf_counter

# reference duration that defines the reported seconds: about what
# ``reference_seconds()`` takes on that VM under Python 3.11 in its faster
# phases (0.030-0.065 s seen), so reported values are close to the wall
# seconds it measures then
NOMINAL_S = 0.030
ROUNDS = 24

_P = {(i % 4, i // 4): Fraction(i + 1, i % 7 + 2) for i in range(24)}
_Q = {(i // 5, i % 5): Fraction(2 * i - 9, i % 3 + 1) for i in range(20)}


def _mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            m = (a1 + a2, b1 + b2)
            s = out.get(m)
            out[m] = c1 * c2 if s is None else s + c1 * c2
    return out


def reference_seconds(rounds=ROUNDS):
    """Seconds the reference computation takes now."""
    start = perf_counter()
    for _ in range(rounds):
        _mul(_P, _Q)
    return perf_counter() - start


def scale(reference_s):
    """Factor that turns seconds measured next to ``reference_s`` into
    seconds at reference speed."""
    return NOMINAL_S / reference_s
