"""Time the frontier computations: bidegree tables {(q, d): h} that the
benchmark's job lists do not reach.

Usage, from the root of a checkout (stdlib only; imports confcoh from the
checkout's src/)::

    python3 scripts/frontier.py            # the four default runs
    python3 scripts/frontier.py vir-m-34 vir-m-39   # named runs only

Runs (name: complex, window, expected table):

* ``sl2-v8``: Cur sl2 / M_V(8), reduced, q <= 4, d <= 10: {(4, 10): 1}.
* ``vir-m-14``, ``vir-m-21``, ``vir-m-34``, ``vir-m-39``: Vir / M_{Delta,0},
  reduced, at Goncharova's weights Delta = 1 - (3r^2 +- r)/2 for r = 3 (+),
  4 (-) and 5 (- and +): classes at (r, D), (r+1, D), (r+1, D+1) and (r+2,
  D+1), D = 1 - Delta + r, read through q <= r + 2 and d <= 20, 27, 41 and
  46.  The two r = 5 runs are one-off records and run only when named.
* ``sl3-trivial``: Cur sl3 / C, basic, q <= 8, d <= 3: H(sl3) = Lambda(x_3,
  x_5), classes at q = 0, 3, 5 and 8, all at d = 0.

Each run prints its name, the table of nonzero dimensions, whether it is
the expected one, and the seconds taken by graded_bidegree_dims alone (the
algebra and module are built before the clock starts).  tests/test_engine.py
pins the sl2-v8, vir-m-14 and sl3-trivial tables.  Recorded runs sit beside
this script: frontier_before.txt (Fraction elimination), frontier_after.txt
(integer elimination), frontier_plans.txt (read plans for the differential)
for sl2-v8 alone; frontier_columns_before.txt and frontier_columns_after.txt
(slice columns from one placement per shape) for the default runs, the
latter with the r = 5 runs too.
"""

import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from confcoh.algebra import (  # noqa: E402
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
)
from confcoh.engine import (  # noqa: E402
    BASIC,
    REDUCED,
    ComplexSpec,
    graded_bidegree_dims,
)
from confcoh.liealg import sl2, sl2_irrep, sl3  # noqa: E402


def _sl2_v8():
    g = sl2()
    return ComplexSpec(build_current(g), build_m_u(g, sl2_irrep(g, 8)), REDUCED)


def _goncharova(delta, r, bound):
    """(spec builder, qmax, bound, expected) of Vir / M_{Delta,0} at
    Goncharova's r."""
    d = 1 - delta + r
    expected = {(r, d): 1, (r + 1, d): 1, (r + 1, d + 1): 1, (r + 2, d + 1): 1}
    return (lambda: ComplexSpec(build_vir(), build_m_delta_alpha(delta, 0),
                                REDUCED),
            r + 2, bound, expected)


# name: (spec builder, qmax, bound, expected table, a default run)
RUNS = {
    "sl2-v8": (_sl2_v8, 4, 10, {(4, 10): 1}, True),
    "vir-m-14": (*_goncharova(-14, 3, 20), True),
    "vir-m-21": (*_goncharova(-21, 4, 27), True),
    "sl3-trivial": (lambda: ComplexSpec(build_current(sl3()),
                                        build_trivial(1, 0), BASIC),
                    8, 3, {(0, 0): 1, (3, 0): 1, (5, 0): 1, (8, 0): 1}, True),
    "vir-m-34": (*_goncharova(-34, 5, 41), False),
    "vir-m-39": (*_goncharova(-39, 5, 46), False),
}


def main(names):
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        print(f"unknown run {', '.join(unknown)}; runs: {', '.join(RUNS)}",
              file=sys.stderr)
        return 2
    names = names or [name for name, run in RUNS.items() if run[4]]
    print(f"python {platform.python_version()} on {platform.machine()}")
    for name in names:
        build, qmax, bound, expected, _ = RUNS[name]
        spec = build()
        start = time.perf_counter()
        dims = graded_bidegree_dims(spec, qmax, bound)
        seconds = time.perf_counter() - start
        print(f"{name}: q <= {qmax}, d <= {bound}")
        print(f"  h {dims}")
        print(f"  expected {dims == expected}")
        print(f"  seconds {seconds:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
