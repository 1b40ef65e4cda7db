"""Tests of the benchmark itself: golden gate, tracer transparency, exact counters.

Run from the root of a checkout with ``python3 -m pytest bench/test_bench.py``
(about a minute on 2 CPUs).
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import confcoh.cli  # noqa: E402
from tracer import Tracer, derive_counters  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import _betti, _verdict, annih_tuples, job_list  # noqa: E402

# one cheap job per layer family, with the goldens the workloads use
SMALL_JOBS = [
    _betti("vir", "trivial", 2, None, "reduced", reps=True),
    _betti("cur:sl2", "ca:-7/3", 1, 3, window=True),
    _betti("cur:sl2", "mu:V2", 1, 2),
    _verdict(["annih-compare", "--algebra", "vir", "--module", "mda:1,0",
              "--qmax", "2", "--levels", "3", "--seed", "5"],
             ok=True, tuples=annih_tuples("vir", 2, 3, 3)),
    _verdict(["check", "--algebra", "cur:sl2", "--module", "mu:V3"],
             module=True),
    _verdict(["extend", "--algebra", "cur:sl2", "--module", "mu:V4",
              "--cocycle", "remark81"], extension="valid"),
    _verdict(["deform", "--algebra", "vir", "--seed", "3"],
             **{"deformation-roundtrip": True}),
    _verdict(["cartan", "--algebra", "vir", "--seed", "3"], ok=True, checked=10),
]


def _traced_run(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        outputs = []
        for k, job in enumerate(jobs):
            tracer.begin_job(k)
            outputs.append(run_job(confcoh.cli.main, job))
    finally:
        tracer.uninstall()
    return tracer, outputs


def test_goldens_pass_and_corruption_fails():
    for job in SMALL_JOBS:
        _, error, _ = run_job(confcoh.cli.main, job)
        assert error is None, (job["argv"], error)
    betti = copy.deepcopy(SMALL_JOBS[0])
    betti["golden"]["rows"][2]["dim"] += 1
    _, error, _ = run_job(confcoh.cli.main, betti)
    assert error is not None and "row 2" in error
    verdict = copy.deepcopy(SMALL_JOBS[3])
    verdict["golden"]["verdict"]["tuples"] += 1
    _, error, _ = run_job(confcoh.cli.main, verdict)
    assert error is not None and "tuples" in error


def test_bad_exit_code_and_crash_are_failures():
    bad_module = {"argv": ["betti", "--algebra", "vir", "--module", "mu:V2"],
                  "golden": SMALL_JOBS[0]["golden"]}
    _, error, _ = run_job(confcoh.cli.main, bad_module)
    assert error == "exit code 3"
    bad_flag = {"argv": ["betti", "--no-such-flag"], "golden": {}}
    _, error, _ = run_job(confcoh.cli.main, bad_flag)
    assert error == "exit code 2"


def test_tracing_leaves_output_unchanged_and_counters_repeat():
    plain = [run_job(confcoh.cli.main, job) for job in SMALL_JOBS]
    first, traced = _traced_run(SMALL_JOBS)
    for job, (_, _, want), (_, error, got) in zip(SMALL_JOBS, plain, traced):
        assert error is None
        assert got == want, job["argv"]
    second, _ = _traced_run(SMALL_JOBS)
    assert derive_counters(first.counts) == derive_counters(second.counts)
    counters = derive_counters(first.counts)
    for key in ("poly.mul_calls", "skew.basis_elems", "cochain.d_calls",
                "engine.columns", "linalg.rref_calls",
                "annihilation.bracket_calls", "liealg.rep_builds",
                "algebra.calls", "extensions.calls", "calculus.calls"):
        assert counters[key] > 0, key
    # every span closed, and self times add up to the traced wall time
    assert all(e >= s for s, e in zip(first.start, first.end))
    times, by_caller = first.layer_times()
    assert abs(sum(by_caller.values()) - sum(times.values())) < 1e-9
    roots = [i for i, p in enumerate(first.parent) if p == -1]
    covered = sum(first.end[i] - first.start[i] for i in roots)
    assert abs(sum(times.values()) - covered) < 1e-6 * max(1.0, covered)
    assert set(first.job) == set(range(len(SMALL_JOBS)))


def test_tracer_patches_every_binding():
    import confcoh.cochain
    import confcoh.engine

    original = confcoh.cochain.d_basic
    tracer = Tracer()
    tracer.install()
    try:
        for module in (confcoh.cochain, confcoh.engine, confcoh.cli):
            assert module.d_basic is not original
            assert module.d_basic.__wrapped__ is original
        # bound by ``from .liealg import`` in cli: a name the library's own
        # module does not call through
        assert hasattr(confcoh.cli.equivariant_maps, "__wrapped__")
    finally:
        tracer.uninstall()
    for module in (confcoh.cochain, confcoh.engine, confcoh.cli):
        assert module.d_basic is original


def test_job_lists_are_seeded():
    for workload in ("betti", "annih-modules"):
        assert job_list(workload, 7) == job_list(workload, 7)
        assert job_list(workload, 7) != job_list(workload, 8)
        shapes = {len(job_list(workload, seed)) for seed in range(20)}
        assert len(shapes) == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_traced_counters_repeat_across_processes():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "betti", "--seed", "3",
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    exact = [name for name in results[0]["metrics"]
             if not name.endswith(".self_s") and name != "trace.overhead_frac"]
    assert exact
    for name in exact:
        assert (results[0]["metrics"][name] == results[1]["metrics"][name]), name
    assert all(r["correct"] for r in results)


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _bench("--workload", "betti", "--seed", "1",
                      "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_latencies_are_stated_at_reference_speed():
    from run import scaled_latencies
    from speed import NOMINAL_S

    # the same job on a machine running at half the speed: both its latency
    # and the reference timings around it double, the scaled value does not
    fast = {"latencies": [0.5, 1.0], "references": [NOMINAL_S] * 3}
    slow = {"latencies": [1.0, 2.0], "references": [2 * NOMINAL_S] * 3}
    assert scaled_latencies(fast) == scaled_latencies(slow) == [0.5, 1.0]
    # each job is scaled by the six timings nearest it, three on each side
    mixed = {"latencies": [1.0] * 8,
             "references": [NOMINAL_S] * 5 + [3 * NOMINAL_S] * 4}
    scaled = scaled_latencies(mixed)
    assert scaled[0] == 1.0  # timings 0-3
    assert abs(scaled[2] - 6 / 8) < 1e-12  # timings 0-5
    assert abs(scaled[7] - 1 / 3) < 1e-12  # timings 5-8
