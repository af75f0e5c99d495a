"""Self-test of the benchmark's isolation and tracing.

    python3 perfbench/selftest.py

Run from the root of a symprod checkout; exits 0 if every check holds.

1. Isolation matters: repeating the op-gram input inside one child runs
   much faster than the first, cold op, because memo caches are warm.
2. Forked children start cold: two fresh children make the same number
   of poly2 gcd calls, and a warm repeat makes far fewer.
3. Traced ops produce the golden outputs on every workload.
4. A traced name that is gone from a call site fails the traced run.
"""

from __future__ import annotations

import importlib
import sys
import time

import run
import tracing
import workloads
from coldrun import run_cold

WARM_MAX_SHARE = 0.6  # a warm repeat must take under this share of the cold op
GCD_CALLS = "algebra.poly2_gcd.calls"


def _child(body) -> dict:
    res = run_cold(body, run.OP_DEADLINE_S)
    if "error" in res.report or "traceback" in res.report or res.exit_code:
        raise AssertionError(f"child failed: {res.report}")
    return res.report


def _timed_twice(workload):
    def body() -> dict:
        times = []
        for _ in range(2):
            start = time.perf_counter()
            workload.body()
            times.append(time.perf_counter() - start)
        return {"exit": 0, "times": times}

    return body


def _gcd_calls(workload, repeats: int):
    def body() -> dict:
        tracer = tracing.Tracer().install()
        calls = []
        for _ in range(repeats):
            workload.body()
            calls.append(tracer.snapshot()[GCD_CALLS] - sum(calls))
        return {"exit": 0, "calls": calls}

    return body


def _missing_site() -> dict:
    del importlib.import_module("symprod.invariants").pairing
    try:
        tracing.resolve()
    except tracing.TraceSetupError as exc:
        return {"exit": 0, "message": str(exc)}
    return {"exit": 0, "message": None}


def check_isolation(gram) -> None:
    cold, warm = _child(_timed_twice(gram))["times"]
    print(f"op-gram in one child: cold {cold:.3f} s, warm repeat {warm:.3f} s "
          f"({warm / cold:.2f} of cold)")
    if warm >= WARM_MAX_SHARE * cold:
        raise AssertionError("a warm repeat is not much faster than the cold op")


def check_cold_children(gram) -> None:
    first, repeat = _child(_gcd_calls(gram, 2))["calls"]
    (fresh,) = _child(_gcd_calls(gram, 1))["calls"]
    print(f"poly2_gcd calls: fresh child {first}, warm repeat {repeat}, "
          f"another fresh child {fresh}")
    if fresh != first:
        raise AssertionError("two fresh children did different work")
    if repeat * 2 >= first:
        raise AssertionError("a warm repeat did not skip cached work")


def check_traced_outputs(seed: int) -> None:
    for name in workloads.NAMES:
        workload = workloads.build(name, seed)
        res = run_cold(run.traced(workload.body), run.OP_DEADLINE_S)
        why = workloads.failure(workload, res.exit_code, res.report)
        print(f"traced {name}: {'golden output' if why is None else why}")
        if why is not None:
            raise AssertionError(f"traced {name} differs from untraced: {why}")


def check_missing_name() -> None:
    message = _child(_missing_site)["message"]
    print(f"removed symprod.invariants.pairing: {message}")
    if message is None:
        raise AssertionError("a removed call site did not fail the traced run")


def main() -> int:
    run.import_symprod()
    gram = workloads.build(workloads.OpGram.name, 0)
    check_isolation(gram)
    check_cold_children(gram)
    check_traced_outputs(seed=0)
    check_missing_name()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
