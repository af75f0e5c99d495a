"""Host-speed sampling, to report times at a reference host speed.

The benchmark runs on shared machines whose speed shifts by a quarter or
more, for seconds to minutes at a time, in user time as much as in wall
time. Raw wall medians of two sets of runs can then differ by more than
any useful bound, while the ratio of an op's time to the time of a fixed
piece of work done during the op is far steadier.

The fixed work is a small sparse bivariate polynomial product over
stdlib ``Fraction``, the shape of symprod's ``Poly2`` arithmetic but
none of its code, so no change to symprod moves it. During an op, a
``SIGALRM`` handler in the op's child runs it every ``INTERVAL_S`` and
records its time. A normalised time is

    (wall_s - sampling time) * (REFERENCE_S / median sample) ** ELASTICITY

that is, seconds on a host where one sample takes ``REFERENCE_S``. The
sample, which stays in cache, gains more than symprod from a fast host:
over 52 op-gram ops on a 2-core host whose speed swung by 2x, log op
time regressed on log sample time with slope 0.76, and dividing by the
sample time to that power cut the ops' spread from 16% (raw) and 7.4%
(power 1) to 5.2%.
Set-up probes are too short to sample, so ``calibrate`` times the
samples in a forked child before and after them instead.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

from coldrun import run_cold

REFERENCE_S = 0.002  # one sample's time on the reference host
ELASTICITY = 0.75  # d log(op time) / d log(sample time), measured
INTERVAL_S = 0.05  # wall time between samples during an op
CALIBRATION_SAMPLES = 50

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4 - i)}
_B = {(i, j): Fraction(j - 3, i + 5) for i in range(3) for j in range(3 - i)}


def _sample() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    for _ in range(6):
        out: dict = {}
        for (i, j), c in _A.items():
            for (k, l), d in _B.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
    return time.perf_counter() - start


class Sampler:
    """Samples host speed every ``INTERVAL_S`` while the block runs."""

    def __enter__(self) -> Sampler:
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _handler(self, signum, frame) -> None:
        self.samples.append(_sample())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the block ended before the first sample
            self.samples.append(_sample())

    def report(self) -> dict:
        return {"speed_s": statistics.median(self.samples),
                "sampling_s": sum(self.samples)}


def sampled(body):
    """``body`` run under a Sampler, with its report in the result."""

    def run() -> dict:
        with Sampler() as sampler:
            result = body()
        result.update(sampler.report())
        return result

    return run


def normalise(wall_s: float, report: dict) -> float:
    """Normalised seconds of an op from its sampled report."""
    return (wall_s - report["sampling_s"]) * speed_factor(report["speed_s"])


def speed_factor(speed_s: float) -> float:
    """Factor from this host's times to the reference host's."""
    return (REFERENCE_S / speed_s) ** ELASTICITY


def calibrate() -> float:
    """Median time of one sample now, in a forked child."""

    def body() -> dict:
        return {"exit": 0, "speed_s": statistics.median(
            _sample() for _ in range(CALIBRATION_SAMPLES))}

    res = run_cold(body, 60.0)
    if "speed_s" not in res.report:
        raise RuntimeError(f"calibration failed: {res.report}")
    return res.report["speed_s"]
