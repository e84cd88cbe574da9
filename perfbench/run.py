"""Benchmark of weylift's command-line interface on five seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are listed in BENCHMARK.json; README.md in this
directory says what each metric should respond to. A run

1. sets the workload up SETUPS times, each in a fresh process that imports
   weylift from ``src/``, generates the inputs from the seed and writes
   them; ``setup_s`` is the median CPU time (user and system) of these
   processes, scaled to the reference speed of speed.py, and the copies
   must be byte-identical;
2. measures in one more fresh process (see worker.py), which also checks
   every output;
3. prints one JSON line: with ``--trace 0`` the end-to-end metrics, with
   ``--trace 1`` the per-layer metrics of a traced run.

It exits 2 without a result when the checkout has no weylift source tree
or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 5
#: Every child process together must end within this many seconds.
TIME_LIMIT_S = 170


def _tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _child(args, deadline, capture=False):
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        env=env,
        check=True,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def run(spec, workload, seed, seconds, trace, count=None):
    """One run as a result dict; count overrides the jobs in a pass."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        setup_s, digests = [], set()
        for k in range(SETUPS):
            target = work / f"setup{k}"
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            args = ["setup", workload, seed, target] + ([] if count is None else [count])
            proc = _child(args, deadline, capture=True)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            setup_s.append(cpu * PROBE_S / json.loads(proc.stdout)["probe_s"])
            digests.add(_tree_digest(target))
        spans = out_dir / f"spans-{workload}-{seed}.tsv.gz"
        proc = _child(
            ["measure", workload, work / "setup0", seconds, trace, spans], deadline, capture=True
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = result["failed"] == 0 and len(digests) == 1
    metrics = {}
    if trace == 0:
        values = dict(result["metrics"], setup_s=statistics.median(setup_s))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        correct = correct and result["self_within_job"]
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                value = result["overhead_ratio"]
            else:
                span, stat = m["name"].rsplit(".", 1)
                value = result["layers"].get(span, {}).get(stat, 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weylift" / "__init__.py").is_file():
        print(f"no weylift source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        out = run(spec, args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
