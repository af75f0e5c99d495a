"""symprod benchmark: cold, fork-isolated ops in a closed loop.

    python3 perfbench/run.py --workload op-gram --seed 1 --seconds 30 --trace 0

Run from the root of a symprod checkout; symprod is imported from its
``src/``. One process times one op at a time: each op runs in a child
forked from this process, which has imported symprod but computed
nothing, so every memo cache starts empty as in a CLI call. Ops start
until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced ops and prints the
per-layer metrics, with a table of self and inclusive time per layer.
The last line of stdout is the JSON result. Workloads, metrics and the
layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from coldrun import run_cold
from hostspeed import calibrate, normalise, sampled, speed_factor
from tracing import Tracer, resolve

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 11  # fresh interpreters timed per run; the median is setup_s
OP_DEADLINE_S = 170.0  # every op ends this long after start, or is killed


class SetupError(RuntimeError):
    pass


def import_symprod() -> None:
    """Import symprod (and its CLI) from this checkout, computing nothing."""
    package = os.path.join(SRC, "symprod")
    if not os.path.isdir(package):
        raise SetupError(f"no symprod sources at {package}")
    sys.path.insert(0, SRC)
    symprod = importlib.import_module("symprod")
    if os.path.dirname(os.path.abspath(symprod.__file__)) != package:
        raise SetupError(f"imported symprod from {symprod.__file__}, not {package}")
    importlib.import_module("symprod.cli")


def setup(name: str, seed: int) -> workloads.Workload:
    """Import symprod, build the inputs and load the golden hashes."""
    import_symprod()
    return workloads.build(name, seed)


def measure_setup(name: str, seed: int) -> float:
    """Median normalised time of ``setup`` in fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    speed_before = calibrate()
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        if probe:  # the first probe may write bytecode caches
            times.append(elapsed)
    speed_s = (speed_before + calibrate()) / 2
    return statistics.median(times) * speed_factor(speed_s)


def traced(body):
    """``body`` with the tracer installed in the (child) process."""

    def run() -> dict:
        tracer = Tracer().install()
        start = time.perf_counter()
        report = body()
        report["op_s"] = time.perf_counter() - start
        report["trace"] = tracer.snapshot()
        return report

    return run


def run_ops(workload, seconds: float, trace: bool) -> list[dict]:
    """Closed loop of cold ops for ``seconds``; with ``trace``, untraced and
    traced ops alternate and the loop ends after a traced one."""
    ops = []
    stop = time.perf_counter() + seconds
    while True:
        is_traced = trace and len(ops) % 2 == 1
        timeout = OP_DEADLINE_S - (time.perf_counter() - T0)
        if timeout <= 0:
            break
        body = sampled(traced(workload.body) if is_traced else workload.body)
        res = run_cold(body, timeout)
        why = workloads.failure(workload, res.exit_code, res.report)
        norm_s = normalise(res.wall_s, res.report) if why is None else res.wall_s
        ops.append({"wall_s": res.wall_s, "norm_s": norm_s,
                    "maxrss_kb": res.maxrss_kb, "traced": is_traced,
                    "failure": why, "report": res.report})
        kind = "traced" if is_traced else "cold"
        status = "ok" if why is None else f"FAILED: {why}"
        print(f"op {len(ops)} {kind}: wall {res.wall_s:.4f} s, normalised "
              f"{norm_s:.4f} s, peak rss {res.maxrss_kb / 1024:.1f} MB, "
              f"{status}", flush=True)
        if time.perf_counter() >= stop and (not trace or is_traced):
            break
    return ops


def end_to_end(ops: list[dict], setup_s: float) -> dict[str, float]:
    good = [op["norm_s"] for op in ops if op["failure"] is None]
    return {
        "op_p50_s": statistics.median(good or [op["norm_s"] for op in ops]),
        "setup_s": setup_s,
        "peak_rss_mb": max(op["maxrss_kb"] for op in ops) / 1024,
        "verified_ratio": len(good) / len(ops),
    }


def per_layer(ops: list[dict]) -> dict[str, float]:
    """Medians over the traced ops, plus the tracing overhead."""
    plain = [op for op in ops if not op["traced"] and op["failure"] is None]
    traced_ops = [op for op in ops if op["traced"] and op["failure"] is None]
    if not plain or not traced_ops:
        raise SetupError("no successful untraced and traced op to compare")
    snaps = [op["report"]["trace"] for op in traced_ops]
    values = {key: statistics.median(s[key] for s in snaps) for key in snaps[0]}
    values["op_s"] = statistics.median(op["report"]["op_s"] for op in traced_ops)
    values["trace.overhead_ratio"] = (
        statistics.median(op["norm_s"] for op in traced_ops)
        / statistics.median(op["norm_s"] for op in plain)
    )
    values["run.wall_p50_s"] = statistics.median(op["wall_s"] for op in plain)
    values["run.host_sample_s"] = statistics.median(
        op["report"]["speed_s"] for op in plain + traced_ops)
    return values


def print_layer_table(values: dict[str, float]) -> None:
    """Self and inclusive time per layer, as a share of the traced op."""
    op_s = values["op_s"]
    layers = sorted({key.rsplit(".", 1)[0] for key in values if key.endswith(".self_s")},
                    key=lambda layer: -values[f"{layer}.self_s"])
    print(f"traced op: {op_s:.4f} s (median); overhead ratio "
          f"{values['trace.overhead_ratio']:.3f}")
    print(f"{'layer':42} {'calls':>9} {'distinct':>9} {'self_s':>9} "
          f"{'self%':>6} {'incl_s':>9} {'incl%':>6}")
    for layer in layers:
        distinct = values.get(f"{layer}.distinct")
        self_s, incl_s = values[f"{layer}.self_s"], values[f"{layer}.incl_s"]
        print(f"{layer:42} {values[f'{layer}.calls']:>9.0f} "
              f"{'' if distinct is None else f'{distinct:.0f}':>9} "
              f"{self_s:>9.4f} {100 * self_s / op_s:>6.1f} "
              f"{incl_s:>9.4f} {100 * incl_s / op_s:>6.1f}")


def print_golden() -> None:
    """Hashes of this checkout's outputs, in golden.json's layout."""
    import_symprod()
    golden = {}
    for workload in (workloads.OpGram(None), workloads.OpChains(None, seed=0)):
        res = run_cold(workload.body, OP_DEADLINE_S)
        if res.exit_code or "outputs" not in res.report:
            raise SetupError(f"{workload.name} failed: {res.report}")
        golden[workload.name] = res.report["outputs"]
    print(json.dumps(golden, indent=1, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, as a timed probe does")
    parser.add_argument("--print-golden", action="store_true",
                        help="print the output hashes of this checkout")
    args = parser.parse_args(argv)
    if args.workload is None and not args.print_golden:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.print_golden:
            print_golden()
            return 0
        workload = setup(args.workload, args.seed)
        if args.setup_only:
            return 0
        with open(SPEC_PATH, encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.trace:
            resolve()  # fail now, not in every child, on a missing name
        setup_s = measure_setup(args.workload, args.seed)
        ops = run_ops(workload, args.seconds, bool(args.trace))
        if args.trace:
            values = per_layer(ops)
            print_layer_table(values)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(ops, setup_s)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise SetupError(f"no value for metrics {missing}")
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(op["failure"] is not None for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
