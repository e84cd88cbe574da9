"""Smoke test of the benchmark at tiny sizes.

Usage: python3 perfbench/smoke.py

For every workload it makes two untraced and two traced runs of one pass
over a few jobs, all with the same seed, and checks that

* every run is correct, which for a traced run includes that each job's
  summed span self time is at most the job's traced wall time;
* every metric BENCHMARK.json names is printed, with its unit;
* ``word_letters`` and every ``calls`` count repeat exactly.
"""

from __future__ import annotations

import json
import sys

import run

JOBS = {"approx": 4, "lift": 6, "center": 4, "scan": 8, "ordered": 16}
SEED = 3


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            results = [run.run(spec, name, SEED, 0, trace, JOBS[name]) for _ in range(2)]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            for r in results:
                if not r["correct"]:
                    problems.append(f"{name} trace={trace}: run not correct")
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != want:
                    problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            exact = [k for k in want if k == "word_letters" or k.endswith(".calls")]
            for k in exact:
                a, b = (r["metrics"][k]["value"] for r in results)
                if a != b:
                    problems.append(f"{name}: {k} read {a} and then {b}")
        print(f"{name}: done", flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
