#!/usr/bin/env python3
"""Measure the benchmark's own spread and record a baseline.

Runs `run.py` for run_seconds (from BENCHMARK.json) once per seed on
each workload, one run at a time, and reports for every end-to-end
metric the median of the runs and the distance between the first and
third quartile as a share of the median (statistics.quantiles(values,
n=4)).  One traced run per workload adds
the per-layer figures.  Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline.json

A spread must stay within the metric's bound in BENCHMARK.json (setup_s
is exempt); the aim is a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output:\n{done.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="write the figures here as JSON")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "processor": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "runs": args.runs,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name, w in WORKLOADS.items():
        values: dict[str, list[float]] = {}
        for i in range(args.runs):
            result = bench(name, args.first_seed + i, seconds, 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, args.first_seed + i,
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        e2e = {metric: summary(v) for metric, v in values.items()}
        for metric, s in e2e.items():
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  (above a third of the bound)"
            print(f"  {metric:<15} median {s['median']:.4g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[metric]}{flag}", flush=True)
        traced = bench(name, args.first_seed, seconds, 1)["metrics"]
        doc["workloads"][name] = {
            "why": w.why,
            "jobs": [j.key for j in w.jobs],
            "largest": w.largest,
            "loads": w.loads,
            "bypasses": w.bypasses,
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
