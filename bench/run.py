"""confcoh benchmark: seeded confcoh job lists, timed end to end or traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload betti --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Each workload runs in a fresh worker process (``worker.py``), one thread,
closed loop: the next ``confcoh`` command starts when the previous one
returns.  Set-up is measured separately as well, in several worker processes
that only start, import confcoh and build the job list, half of them
before the worker and half after it.  Every job's output
is checked against its golden (``workloads.py``).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics of ``tracer.py`` and the tracing overhead.  The lines before it give
the provenance of the run and every metric by name with its unit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import scale  # noqa: E402
from tracer import LAYERS, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SETUP_PROBES = 16  # set-up-only worker processes per run, besides the worker
DEADLINE_S = 170  # a run ends within this, or fails

END_TO_END = [
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": (sorted(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else None),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _spawn(workload, seed, seconds, trace, timeout):
    """Start a worker and return its parsed JSON report, or raise RuntimeError."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
            str(seed), str(seconds), "1" if trace else "0", repr(t0)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: worker did not finish in {timeout:.0f}s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """The result object for one workload (correct, attempted, failed, metrics)."""
    def probe_setup():
        return _spawn(workload, seed, 0, False, deadline - time.monotonic())

    # half of the set-up probes run before the worker and half after it, so
    # their median spans the whole run rather than one moment of it
    setups = [] if trace else [probe_setup() for _ in range(SETUP_PROBES // 2)]
    report = _spawn(workload, seed, seconds, trace, deadline - time.monotonic())
    setups.append(report)
    if not trace:
        setups += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    every = report["passes"] + report["traced"]
    attempted = sum(len(p["latencies"]) for p in every)
    failures = [f for p in every for f in p["failures"]]
    for failure in failures:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['error']}",
              file=sys.stderr)
    if trace:
        values, units, summary = layer_metrics(report)
    else:
        values, units, summary = end_to_end_metrics(report, setups)
        summary["fail_frac"] = len(failures) / attempted
    print(json.dumps({"workload": workload, "jobs": report["jobs"], **summary}))
    for name, value in values.items():
        print(f"{workload:16} {name:34} {value:14.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def scaled_latencies(p):
    """A pass's job latencies at reference speed: each is scaled by the mean
    of the six reference timings nearest the job, three before it and three
    after it (fewer at the ends of the pass)."""
    refs = p["references"]
    return [t * scale(statistics.fmean(refs[max(0, k - 2):k + 4]))
            for k, t in enumerate(p["latencies"])]


def end_to_end_metrics(report, setups):
    """(values, units, summary) of an untraced run."""
    passes = report["passes"]
    scaled = [scaled_latencies(p) for p in passes]
    # each job's mean latency over the passes: at reference speed what is
    # left of the machine's drift is short, symmetric noise, which the mean
    # of four to eight passes averages better than their median
    per_job = [statistics.fmean(s[j] for s in scaled)
               for j in range(report["jobs"])]
    raw_per_job = [statistics.fmean(p["latencies"][j] for p in passes)
                   for j in range(report["jobs"])]
    values = {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
        "setup_s": statistics.median(r["setup_s"] * scale(r["setup_reference_s"])
                                     for r in setups),
        "peak_rss_mib": report["peak_rss_mib"],
    }
    references = [r for p in passes for r in p["references"]]
    summary = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "measured_wall_s": sum(raw_per_job),
        "measured_setup_s": statistics.median(r["setup_s"] for r in setups),
        "reference_s": statistics.median(references),
    }
    return values, dict(END_TO_END), summary


def layer_metrics(report):
    """(values, units, summary) of a traced run: per-layer metrics, overhead."""
    traced = report["traced"]
    # per traced pass: its wall time at reference speed over the measured one
    factor = [sum(scaled_latencies(p)) / sum(p["latencies"]) for p in traced]
    wall_traced = statistics.median(sum(scaled_latencies(p)) for p in traced)
    wall_untraced = statistics.median(sum(scaled_latencies(p))
                                      for p in report["passes"])

    def median_self_s(key, layer):
        return statistics.median(p[key][layer] * f
                                 for p, f in zip(traced, factor))

    values = {f"{layer}.self_s": median_self_s("layers", layer)
              for layer in LAYERS}
    values.update(report["counters"])
    values["trace.overhead_frac"] = wall_traced / wall_untraced - 1
    summary = {
        "traced_passes": len(traced),
        "untraced_passes": len(report["passes"]),
        "trace_file": report["trace_file"],
    }
    for key, label in (("layers", "self_share"),
                       ("layers_by_caller", "share_poly_to_caller")):
        summary[label] = {layer: round(median_self_s(key, layer) / wall_traced, 4)
                          for layer in LAYERS}
    units = dict(METRICS, **{"trace.overhead_frac": "frac"})
    return values, units, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "confcoh", "cli.py")):
        print(f"error: no confcoh sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # run this process and the workers it starts on one CPU, so that the
    # reference timings and the jobs between them run on the same one: the
    # speeds of two vCPUs of a shared host drift independently
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps({"provenance": provenance(args.seed)}))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
