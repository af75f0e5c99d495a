"""Run one benchmark op in a freshly forked child.

The parent has imported symprod but computed nothing, so every memo
cache in the child starts empty, exactly as in a fresh CLI call. No
cache is cleared by name: the fork is the only source of coldness, so a
cache added later cannot stay warm across ops. One child is alive at a
time.

The child runs ``body()``, which returns a JSON-serialisable report
dict, sends the report back over a pipe and exits with the report's
``exit`` code. An exception in the body is reported with its traceback
and exit code 1.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback
from typing import Callable, NamedTuple


class ColdResult(NamedTuple):
    wall_s: float  # fork to child exit, as seen by the parent
    exit_code: int
    maxrss_kb: int  # the child's peak resident set (getrusage)
    report: dict


def run_cold(body: Callable[[], dict], timeout_s: float) -> ColdResult:
    """Fork, run ``body`` in the child, wait for it and collect its report.

    A child still running after ``timeout_s`` is killed and reported as an
    error, so a hung op cannot hold the benchmark past its time limit.
    """
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                report = body()
                code = int(report.get("exit", 0))
            except Exception:
                report = {"exit": 1, "traceback": traceback.format_exc()}
            with os.fdopen(wfd, "wb") as fh:
                fh.write(json.dumps(report).encode("utf-8"))
        finally:
            os._exit(code)

    os.close(wfd)
    chunks = []
    timed_out = False
    with os.fdopen(rfd, "rb", buffering=0) as fh:
        while True:
            left = start + timeout_s - time.perf_counter()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            chunk = fh.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if timed_out:
        report = {"error": f"killed after {timeout_s:.0f} s"}
    else:
        try:
            report = json.loads(b"".join(chunks))
        except ValueError:
            report = {"error": "child sent no report"}
    return ColdResult(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, report)
