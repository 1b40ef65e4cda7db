"""One workload in one fresh process: run its job list in a closed loop.

Started by ``run.py`` as ``python3 bench/worker.py <root> <workload> <seed>
<seconds> <trace> <t0>``, where ``t0`` is the parent's ``time.monotonic()``
just before it started this process.  The worker imports confcoh from
``<root>/src``, builds the seeded job list and runs it through
``confcoh.cli.main`` on one thread, the next job starting when the previous
one returns.  A pass is one run of the whole list.  Passes repeat while the
next one is expected to end within ``seconds``; the first always runs.

Before each job and after the last one the worker times the reference
computation of ``speed.py``, so that every job's latency can be stated at
reference speed.  The set-up time is followed by one such timing as well.

With ``trace`` set, passes alternate untraced and traced (at least one of
each), so the per-layer metrics and the tracing overhead come from one run.
A ``seconds`` of 0 only sets up: it reports the set-up time and exits.

The last line of stdout is one JSON object with the raw per-pass figures.
"""

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

from speed import reference_seconds
from tracer import Tracer, derive_counters
from workloads import check_output, job_list


def run_job(main, job):
    """(seconds, error or None, stdout) of one confcoh command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job["argv"]))
    except SystemExit as exc:  # argparse rejects an argv by exiting
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing job is a failed job, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", ""
    elapsed = time.perf_counter() - start
    return elapsed, check_output(job["golden"], rc, out.getvalue()), out.getvalue()


def run_pass(main, jobs, tracer=None, first_job_id=0):
    """One run of the job list; ``references`` has one timing of the
    reference computation before each job and one after the last."""
    start = time.perf_counter()
    latencies, references, failures = [], [], []
    for k, job in enumerate(jobs):
        gc.collect()  # each job starts on a clean heap, as in a fresh process
        references.append(reference_seconds())
        if tracer is not None:
            tracer.begin_job(first_job_id + k)
        elapsed, error, _ = run_job(main, job)
        latencies.append(elapsed)
        if error is not None:
            failures.append({"argv": job["argv"], "error": error})
    references.append(reference_seconds())
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "references": references, "failures": failures}


def main(argv):
    root, workload, seed, seconds, trace, t0 = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), trace == "1", float(t0)
    sys.path.insert(0, os.path.join(root, "src"))
    import confcoh.cli

    jobs = job_list(workload, seed)
    ready = time.monotonic()
    result = {"setup_s": ready - t0, "setup_reference_s": reference_seconds(),
              "jobs": len(jobs)}
    if seconds <= 0:
        print(json.dumps(result))
        return 0

    tracer = Tracer() if trace else None
    start = time.perf_counter()
    passes, traced = [], []
    while True:
        use_trace = trace and len(passes) > len(traced)
        if use_trace:
            begin = len(tracer.start)
            counts_before = dict(tracer.counts)
            tracer.install()
            try:
                p = run_pass(confcoh.cli.main, jobs, tracer,
                             first_job_id=len(traced) * len(jobs))
            finally:
                tracer.uninstall()
            p["layers"], p["layers_by_caller"] = tracer.layer_times(begin)
            p["counts"] = {k: v - counts_before.get(k, 0)
                           for k, v in tracer.counts.items()}
            traced.append(p)
        else:
            passes.append(run_pass(confcoh.cli.main, jobs))
        elapsed = time.perf_counter() - start
        done = passes + traced
        typical = statistics.median(p["wall_s"] for p in done)
        if elapsed + typical > seconds and (not trace or traced):
            break

    result.update(
        passes=passes,
        traced=traced,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if trace:
        result["counters"] = derive_counters(traced[0]["counts"])
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json.gz")
        tracer.write(path, {"workload": workload, "seed": seed,
                            "jobs": [job["argv"] for job in jobs],
                            "traced_passes": len(traced)})
        result["trace_file"] = os.path.relpath(path, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
