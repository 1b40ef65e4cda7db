"""Seeded confcoh job lists and the goldens every job is checked against.

A workload is a list of ``confcoh`` command lines (argv lists for
``confcoh.cli.main``).  The seed picks parameters from fixed pools and fixes
the job order; each list has the same shape for every seed, so its cost
stays close across seeds.  Every job carries a golden taken from
Bakalov-Kac-Voronov (arXiv:math/9803022) and the acceptance criteria of the
repository's test suite, checked exactly against the job's output.
"""

import json
import random
from math import comb

WORKLOADS = ("betti", "annih-modules")

# -- goldens -----------------------------------------------------------------

# Betti tables of graded complexes (criteria 3, 5 and 6 of the acceptance
# suite; BKV Theorems 7.1-7.2).  Keys are (algebra, module, variant).
GRADED_DIMS = {
    ("vir", "trivial", "reduced"): [1, 0, 1, 1, 0],
    ("vir", "trivial", "basic"): [1, 0, 0, 1, 0],
    ("cur:sl2", "trivial", "basic"): [1, 0, 0, 1],
    ("cur:sl2", "trivial", "reduced"): [1, 0, 1, 1],
    ("vir", "mda:1,0", "reduced"): [1, 2, 1, 0],
    ("vir", "mda:0,0", "reduced"): [0, 1, 2, 1],
    ("vir", "mda:-1,0", "reduced"): [0, 1, 2, 1],
    ("vir", "mda:2,0", "reduced"): [0, 0, 0, 0],
}


def current_irrep_dims(m, qmax):
    """dim H^n(Cur sl2, M_V(m)) = [m in {2n, 2(n-3)}] (criterion 7)."""
    return [1 if m in (2 * n, 2 * (n - 3)) else 0 for n in range(qmax + 1)]


ANNIH_NGENS = {"vir": 1, "cur:sl2": 3}


def annih_tuples(algebra, qmax, levels, trials):
    """Level tuples an ``annih-compare`` run checks, independent of its seed."""
    n = ANNIH_NGENS[algebra] * (levels + 1)
    return trials * sum(comb(n + q, q + 1) for q in range(qmax + 1))


def _betti_golden(algebra, module, variant, qmax, bound, dims, mode, reps):
    return {
        "kind": "betti",
        "label": f"{algebra}/{module}",
        "variant": variant,
        "rows": [
            {"q": q, "dim": dims[q], "D": bound, "stabilized": True,
             "mode": mode, "reps": dims[q] if reps else 0}
            for q in range(qmax + 1)
        ],
    }


def check_output(golden, rc, stdout):
    """None if the job's exit code and output match its golden, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        if golden["kind"] == "betti":
            return _check_betti(golden, json.loads(stdout))
        verdict = json.loads(lines[-1])
    except ValueError as exc:
        return f"unparseable output: {exc}"
    for key, want in golden["verdict"].items():
        if verdict.get(key) != want:
            return f"{key}: got {verdict.get(key)!r}, want {want!r}"
    return None


def _check_betti(golden, table):
    for key in ("label", "variant"):
        if table.get(key) != golden[key]:
            return f"{key}: got {table.get(key)!r}, want {golden[key]!r}"
    rows = table.get("rows", [])
    if len(rows) != len(golden["rows"]):
        return f"{len(rows)} rows, want {len(golden['rows'])}"
    for row, want in zip(rows, golden["rows"]):
        got = {"q": row.get("q"), "dim": row.get("dim"), "D": row.get("D"),
               "stabilized": row.get("stabilized"), "mode": row.get("mode"),
               "reps": len(row.get("representatives", []))}
        if got != want:
            return f"row {want['q']}: got {got}, want {want}"
    return None


# -- job lists ----------------------------------------------------------------


def _betti(algebra, module, qmax, bound, variant="reduced", reps=False,
           window=False):
    argv = ["betti", "--algebra", algebra, "--module", module,
            "--variant", variant, "--qmax", str(qmax), "--format", "json"]
    if bound is not None:
        argv += ["--bound", str(bound)]
    else:
        bound = 8 if module.startswith(("trivial", "mu:")) else 10
    if reps:
        argv.append("--representatives")
    if window:  # BKV: H(Vir, C_a), H(Cur g, C_a), H(Vir, M_{D,alpha}) vanish
        dims = [0] * (qmax + 1)
    elif module.startswith("mu:V"):
        dims = current_irrep_dims(int(module[4:]), qmax)
    else:
        dims = GRADED_DIMS[(algebra, module, variant)][: qmax + 1]
    return {"argv": argv,
            "golden": _betti_golden(algebra, module, variant, qmax, bound,
                                    dims, "window" if window else "graded",
                                    reps)}


def _verdict(argv, **verdict):
    return {"argv": argv, "golden": {"kind": "verdict", "verdict": verdict}}


def betti_graded(rng):
    """Graded tables: the differential-assembly workload (criteria 3, 5-7)."""
    specs = [
        ("vir", "trivial", 4, None, rng.choice(["reduced", "basic"])),
        ("cur:sl2", "trivial", 3, 4, rng.choice(["reduced", "basic"])),
        ("vir", f"mda:{rng.choice([1, 0, -1, 2])},0", 3, None, "reduced"),
    ]
    specs += [("cur:sl2", f"mu:V{m}", 2, 3, "reduced") for m in (0, 2, 4, 6)]
    # representatives on one Vir/C or Cur sl2/C table and one other table
    reps = {rng.choice([0, 1]), rng.choice([2, 4, 5])}
    jobs = [_betti(*spec, reps=i in reps) for i, spec in enumerate(specs)]
    rng.shuffle(jobs)
    return jobs


# nonzero rationals with small and large denominators (C_a, a != 0)
CA_POOL = ["1", "-1", "2", "-3", "1/2", "3/4", "-7/3", "-5/2", "5"]
# (Delta, alpha) with alpha != 0 (M_{Delta,alpha})
MDA_POOL = ["1,1", "0,2", "-1,1", "2,1/3", "1,-1", "3,2", "1/2,1"]


def betti_window(rng):
    """Filtered sweeps that vanish: whole-window elimination (criteria 4, 6)."""
    jobs = []
    a, b, c = rng.sample(CA_POOL, 3)
    jobs.append(_betti("cur:sl2", f"ca:{a}", 2, 6, window=True))
    jobs.append(_betti("cur:sl2", f"ca:{b}", 2, 6, window=True))
    jobs.append(_betti("vir", f"ca:{c}", 2, None, window=True))
    jobs.append(_betti("vir", f"mda:{rng.choice(MDA_POOL)}", 3, None,
                       window=True))
    rng.shuffle(jobs)
    return jobs


# (algebra, module, qmax, levels): one job per slot
ANNIH_SLOTS = [
    ("vir", "trivial", 3, 6),
    ("vir", "trivial", 3, 5),
    ("vir", "mda:1,0", 3, 6),
    ("vir", "mda:1,0", 3, 5),
    ("cur:sl2", "mu:V2", 2, 4),
    ("cur:sl2", "mu:V2", 2, 3),
]


def annih_transport(rng):
    """The annihilation-algebra bridge (criterion 9): no engine, no elimination."""
    jobs = []
    for algebra, module, qmax, levels in ANNIH_SLOTS:
        s = rng.randrange(10 ** 6)
        jobs.append(_verdict(
            ["annih-compare", "--algebra", algebra, "--module", module,
             "--qmax", str(qmax), "--levels", str(levels), "--seed", str(s)],
            identity="annihilation-transport", ok=True,
            tuples=annih_tuples(algebra, qmax, levels, 3), seed=s))
    rng.shuffle(jobs)
    return jobs


def sl3_modules(rng):
    """Lie-representation construction and the axiom, extension, deformation
    and calculus layers (criteria 1, 8, 10 and 11)."""
    check_ok = {"skew_symmetry": True, "jacobi": True, "module": True}
    jobs = [
        _verdict(["check", "--algebra", "cur:sl3", "--module", "mu:adjoint"],
                 algebra="cur:sl3", **check_ok),
        _verdict(["extend", "--algebra", "cur:sl2", "--module", "mu:V4",
                  "--cocycle", "remark81"],
                 extension="valid", algebra="cur:sl2", module="mu:V4"),
    ]
    for m in rng.sample([2, 3, 4, 5, 6], 2):
        jobs.append(_verdict(["check", "--algebra", "cur:sl2",
                              "--module", f"mu:V{m}"],
                             algebra="cur:sl2", **check_ok))
    for _ in range(2):
        s = rng.randrange(10 ** 6)
        jobs.append(_verdict(["deform", "--algebra", "cur:sl2", "--seed", str(s)],
                             **{"deformation-roundtrip": True, "trials": 10,
                                "seed": s}))
        s = rng.randrange(10 ** 6)
        # checked = qmax (2) * trials (5) * generators (3)
        jobs.append(_verdict(["cartan", "--algebra", "cur:sl2", "--seed", str(s)],
                             identity="cartan", ok=True, checked=30,
                             algebra="cur:sl2", seed=s))
    rng.shuffle(jobs)
    return jobs


def betti(rng):
    """Graded tables and vanishing window sweeps in one list: the engine with
    per-bidegree slices and with one whole-window elimination."""
    jobs = betti_graded(rng) + betti_window(rng)
    rng.shuffle(jobs)
    return jobs


def annih_modules(rng):
    """The annihilation bridge and the Lie-representation, axiom, extension,
    deformation and calculus layers in one list; no engine."""
    jobs = annih_transport(rng) + sl3_modules(rng)
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"betti": betti, "annih-modules": annih_modules}


def job_list(workload, seed):
    """The workload's jobs for this seed: dicts with ``argv`` and ``golden``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)
