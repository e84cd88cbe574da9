"""Child process of the benchmark: one set-up, or one measured run.

    worker.py setup WORKLOAD SEED DIR [COUNT]
    worker.py measure WORKLOAD DIR SECONDS TRACE SPANS_PATH

``setup`` imports weylift, generates the workload's inputs and writes
them to DIR. It prints the mean of a speed probe taken before and after.

``measure`` runs the job list in DIR through ``weylift.cli.run_command``
in this process, as a closed loop of one client: each job starts when the
previous one has returned. It runs whole passes over the list, at least
MIN_PASSES, until SECONDS have gone, so every pass weighs the same. Then it
checks the outputs and prints one JSON object of results. Job times are
scaled to a reference machine speed (see speed.py), and the passes
alternate between the CPUs.

With TRACE 1 it alternates an untraced and a traced pass, at least one of
each. It reports the traced passes' layer values and the tracing overhead
instead.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from speed import PROBE_S, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2


def import_weylift():
    """Import weylift from this checkout's source tree, or exit non-zero."""
    if not (SRC / "weylift" / "__init__.py").is_file():
        sys.exit(f"no weylift source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import weylift

    if Path(weylift.__file__).resolve().parent != SRC / "weylift":
        sys.exit(f"imported weylift from {weylift.__file__}, not from {SRC}")


def setup(workload, seed, out_dir, count=None):
    before = probe()
    import_weylift()
    import workloads

    workloads.generate(workload, int(seed), out_dir, None if count is None else int(count))
    print(json.dumps({"probe_s": (before + probe()) / 2}))


def _collect():
    """Start the next job from a collected heap, as a fresh CLI process would.

    Freezing what survives keeps it out of later collections, so each
    collection costs about the work of one job, not of the whole run.
    """
    gc.collect()
    gc.freeze()


def _run_pass(cli, jobs, pass_no, tracer=None):
    """[(pass, job, scaled wall s, scaled cpu s, raw wall s, report, code)]."""
    rows = []
    _collect()
    speed = probe()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = pass_no * len(jobs) + idx
        w0, c0 = time.perf_counter(), time.process_time()
        report, code = cli.run_command(job["argv"])
        c1, w1 = time.process_time(), time.perf_counter()
        _collect()
        after = probe()
        scale = PROBE_S / ((speed + after) / 2)
        speed = after
        rows.append((pass_no, idx, (w1 - w0) * scale, (c1 - c0) * scale, w1 - w0, report, code))
    return rows


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights. Job times come in clusters, and a plain sample quantile that
    falls in the gap between two clusters jumps from run to run; this one
    moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [
        math.exp(log_c + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        for u in ((i + 0.5) / n for i in range(n))
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _check_all(workload, jobs, rows):
    """Failed job runs: a wrong first output, or one that differs later."""
    import workloads

    first, verdict, failed = {}, {}, 0
    for _, idx, *_, report, code in rows:
        report = {k: v for k, v in report.items() if k != "timing_ms"}
        if idx not in first:
            first[idx] = (report, code)
            try:
                verdict[idx] = workloads.check(workload, jobs[idx], report, code)
            except Exception as exc:  # a malformed report fails its job, not the run
                print(f"job {idx}: check raised {exc!r}", file=sys.stderr)
                verdict[idx] = False
            ok = verdict[idx]
        else:
            ok = verdict[idx] and (report, code) == first[idx]
        if not ok:
            print(f"job {idx} failed: {jobs[idx]['argv']}", file=sys.stderr)
        failed += not ok
    letters = sum(
        workloads.word_letters(workload, jobs[idx], report)
        for idx, (report, code) in first.items()
        if verdict[idx]
    )
    return failed, letters


def measure(workload, work_dir, seconds, trace, spans_path):
    import_weylift()
    # looked up on the module at each call, so a traced pass calls the wrapper
    import weylift.cli as cli
    from tracing import Tracer

    os.chdir(work_dir)
    jobs = json.loads(Path("manifest.json").read_text())["jobs"]
    seconds = float(seconds)
    tracer = Tracer() if trace == "1" else None
    min_passes = 1 if tracer is not None else MIN_PASSES
    plain, traced = [], []
    # Slow spells come per CPU, so passes alternate between the CPUs.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        plain += _run_pass(cli, jobs, passes)
        if tracer is not None:
            tracer.install()
            try:
                traced += _run_pass(cli, jobs, passes, tracer)
            finally:
                tracer.uninstall()
        passes += 1
    os.sched_setaffinity(0, cpus)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, letters = _check_all(workload, jobs, plain + traced)
    out = {"attempted": len(plain) + len(traced), "failed": failed}
    if tracer is None:
        wall_ms = [r[2] * 1000 for r in plain]
        out["metrics"] = {
            "jobs_per_s": len(plain) / sum(r[2] for r in plain),
            "job_ms_p50": quantile(wall_ms, 0.5),
            "job_ms_p90": quantile(wall_ms, 0.9),
            "cpu_ms_per_job": sum(r[3] for r in plain) * 1000 / len(plain),
            "ok_ratio": 1 - failed / out["attempted"],
            "word_letters": letters,
            "peak_rss_mb": peak_kb / 1024,
        }
    else:
        tracer.dump(spans_path)
        own = tracer.per_job_self()
        out["layers"] = tracer.layer_values(passes)
        out["overhead_ratio"] = sum(r[2] for r in traced) / sum(r[2] for r in plain)
        n = len(jobs)
        out["self_within_job"] = all(own[p * n + idx] <= raw for p, idx, _, _, raw, *_ in traced)
    print(json.dumps(out))


if __name__ == "__main__":
    cmd, *rest = sys.argv[1:]
    {"setup": setup, "measure": measure}[cmd](*rest)
