"""Repeat benchmark runs and summarise their spread.

    python3 perfbench/collect.py --runs 10 --traced --out results.json

Runs ``run.py`` once per seed (1..runs) on each workload with
``--trace 0``, and with ``--traced`` one ``--trace 1`` run per workload
after them. Prints, per workload and end-to-end metric, the median and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. Writes
every run's result, and the traced runs' layer tables, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return json.loads(lines[-1]), lines[:-1]


def summary(results: list[dict]) -> dict:
    out = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[metric] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.NAMES))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "run_seconds": seconds, "workloads": {}}
    for name in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result, _ = run_once(name, seed, seconds, 0)
            results.append(result)
            print(f"{name} seed {seed}: {json.dumps(result)}", flush=True)
        entry = {"runs": results}
        if len(results) >= 2:
            entry["summary"] = summary(results)
            for metric, s in entry["summary"].items():
                print(f"{name} {metric}: median {s['median']:.4f}, "
                      f"spread {s['spread']:.4f}", flush=True)
        if args.traced:
            result, table = run_once(name, args.runs + 1, seconds, 1)
            entry["traced"] = {"result": result, "stdout": table}
            print("\n".join(table), flush=True)
        report["workloads"][name] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
