"""Time one frontier computation: the bidegree table of Cur sl2 with
coefficients in M_V(8), reduced complex, q <= 4 and d <= 10.

Usage, from the root of a checkout (stdlib only; imports confcoh from the
checkout's src/)::

    python3 scripts/frontier.py

It prints the provenance of the run, the table {(q, d): h} of the nonzero
dimensions, and the seconds taken by graded_bidegree_dims alone (the
algebra and module are built before the clock starts).  The expected table
is {(4, 10): 1}, which tests/test_engine.py also pins.  Recorded runs sit
beside this script: frontier_before.txt (Fraction elimination),
frontier_after.txt (integer elimination) and frontier_plans.txt (the
differential's read plans and integer expansion tables, with basis columns
built from their shapes; the parent's alternating timings in its header).
"""

import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from confcoh.algebra import build_current, build_m_u  # noqa: E402
from confcoh.engine import REDUCED, ComplexSpec, graded_bidegree_dims  # noqa: E402
from confcoh.liealg import sl2, sl2_irrep  # noqa: E402

QMAX, BOUND, M = 4, 10, 8


def main():
    g = sl2()
    spec = ComplexSpec(build_current(g), build_m_u(g, sl2_irrep(g, M)), REDUCED)
    start = time.perf_counter()
    dims = graded_bidegree_dims(spec, QMAX, BOUND)
    seconds = time.perf_counter() - start
    print(f"python {platform.python_version()} on {platform.machine()}")
    print(f"Cur sl2 / M_V({M}) reduced, q <= {QMAX}, d <= {BOUND}")
    print(f"h {dims}")
    print(f"seconds {seconds:.2f}")


if __name__ == "__main__":
    main()
