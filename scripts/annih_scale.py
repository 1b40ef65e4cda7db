"""Time the annihilation transport check, ``confcoh annih-compare``, on its
largest runs: Cur sl3 with its adjoint module (q <= 2, levels <= 3, seed 0)
and the six annih-compare shapes of the benchmark's annih-modules workload
(seed 1).

Usage, from the root of a checkout (stdlib only; imports confcoh from the
checkout's src/)::

    python3 scripts/annih_scale.py [--repeat N]

Each command runs in-process through ``confcoh.cli.main``, which builds the
algebra and the module inside the timed call, N times (default 3).  The
script prints the provenance of the run, then per command its exit code,
its JSON verdict and the median wall-clock seconds.  Recorded runs sit
beside this script: annih_scale_before.txt (the per-tuple gather) and
annih_scale_after.txt (the scattered functional), taken alternately on one
CPU of the same machine; their headers name it.
"""

import argparse
import contextlib
import io
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from confcoh.cli import main as confcoh_main  # noqa: E402

# (algebra, module, qmax, levels, seed): the sl3 run, then the benchmark's
# six annih-compare shapes (bench/workloads.py, ANNIH_SLOTS)
RUNS = [
    ("cur:sl3", "mu:adjoint", 2, 3, 0),
    ("vir", "trivial", 3, 6, 1),
    ("vir", "trivial", 3, 5, 1),
    ("vir", "mda:1,0", 3, 6, 1),
    ("vir", "mda:1,0", 3, 5, 1),
    ("cur:sl2", "mu:V2", 2, 4, 1),
    ("cur:sl2", "mu:V2", 2, 3, 1),
]


def time_run(argv, repeat):
    """(exit code, stdout of the last run, median seconds)."""
    seconds = []
    for _ in range(repeat):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = confcoh_main(argv)
        seconds.append(time.perf_counter() - start)
    return code, out.getvalue().strip(), statistics.median(seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"python {platform.python_version()} on {platform.machine()}")
    print(f"median of {args.repeat} runs per command")
    total = 0.0
    for algebra, module, qmax, levels, seed in RUNS:
        argv = ["annih-compare", "--algebra", algebra, "--module", module,
                "--qmax", str(qmax), "--levels", str(levels),
                "--seed", str(seed)]
        code, out, seconds = time_run(argv, args.repeat)
        total += seconds
        print(f"confcoh {' '.join(argv)}")
        print(f"  exit {code} {out}")
        print(f"  seconds {seconds:.3f}")
    print(f"total seconds {total:.3f}")


if __name__ == "__main__":
    main()
