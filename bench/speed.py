"""Machine-speed sampling, so timings compare across a shared host.

On a shared host the speed of a core can change by up to 2x within a
second when other tenants load it. Each timed operation therefore runs
with a sampler in the measured process: a fixed calibration loop shaped
like the program's inner work runs once before the operation, every
INTERVAL_S during it (from a SIGALRM handler, between bytecodes, no extra
thread) and once after.
The operation's seconds, less the sampler's own, are scaled by
REFERENCE_S / trimmed_mean(calibration): seconds at the reference speed.
Trimming keeps one sample that a preemption lengthens from rescaling the
whole operation, while the mean of the rest follows the slow and fast
spells that last many samples (a median does not: on a 2-vCPU shared
host it left exp1 rounds with 3x the spread). Calibration runs with the
garbage collector off, so a collection that the program's allocations
set off is charged to the program, not to the speed reference.

Run as a script it samples a child process from the inside and writes
the child's samples to a file:

    python speed.py SAMPLES_JSON -m refgame ARGS...
    python speed.py SAMPLES_JSON SCRIPT ARGS...

the first of which runs refgame as __main__ the way ``python -m refgame``
does.
"""

from __future__ import annotations

import gc
import json
import os
import runpy
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

INTERVAL_S = 0.025
CALIBRATION_REPS = 20
# share of the samples dropped from each end before averaging
TRIM = 0.1
# Calibration seconds at the reference speed: about what this loop takes
# on an unloaded 2 GHz Xeon core.
REFERENCE_S = 0.0006

_MATRIX = numpy.linspace(0.1, 1.0, 9).reshape(3, 3)
_PAIRS = numpy.array([(0, 1), (0, 2), (1, 2)])


def calibration() -> float:
    """Seconds for a fixed loop shaped like the program's inner work:
    validate a 3x3 score matrix, run one pragmatic chain on it, build
    pair products and small Python tuples. It never calls the program,
    so a change to the program cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        if enabled:
            gc.enable()


def _calibration_loop() -> float:
    start = perf_counter()
    total = 0.0
    for i in range(CALIBRATION_REPS):
        scores = numpy.asarray(_MATRIX, dtype=float)
        if not numpy.isfinite(scores).all() or (scores < 0).any():
            raise ValueError("calibration matrix changed")
        literal = scores / scores.sum(axis=0)[None, :]
        weighted = literal**1.0
        speaker = weighted / weighted.sum(axis=1)[:, None]
        column = speaker[:, 1] / speaker[:, 1].sum()
        key = tuple(int(x) for x in (i, i + 1, i + 2))
        sub = scores[numpy.ix_((0, 1, 2), (0, 1, 2))]
        products = sub[_PAIRS[:, 0]] * sub[_PAIRS[:, 1]]
        total += float(column.max()) + len(key) + float(products.sum())
    return perf_counter() - start


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples less the TRIM share at each end."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Sampler:
    """Calibration samples taken before, during (every interval seconds,
    unless interval is None) and after a block."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.samples: list[float] = []
        self.interval = interval
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(calibration())

    def __enter__(self):
        self.samples.append(calibration())
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append(calibration())
        return False


class Speedometer:
    """Times operations at the reference speed and keeps every
    calibration sample of the run. With ticking off, in-process
    operations are sampled only before and after, so that nothing runs
    inside them (the traced run, whose spans must hold only the
    program)."""

    def __init__(self, ticking: bool = True):
        self.samples: list[float] = []
        self.interval = INTERVAL_S if ticking else None

    def _scaled(self, elapsed: float, samples: list[float], inside: float) -> float:
        self.samples += samples
        return (elapsed - inside) * REFERENCE_S / trimmed_mean(samples)

    def timer(self, fn):
        """Run fn in this process; return its result and its seconds at
        the reference speed."""
        with Sampler(self.interval) as sampler:
            start = perf_counter()
            result = fn()
            elapsed = perf_counter() - start
        return result, self._scaled(elapsed, sampler.samples, sum(sampler.samples[1:-1]))

    def run(self, argv: list[str], samples_path, **kwargs):
        """Run ``python speed.py SAMPLES argv...`` (argv is ``-m MODULE
        ...`` or ``SCRIPT ...``); return the completed process and its
        seconds at the reference speed."""
        if os.path.exists(samples_path):
            os.remove(samples_path)
        before = calibration()
        start = perf_counter()
        result = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(samples_path), *argv], **kwargs
        )
        elapsed = perf_counter() - start
        after = calibration()
        try:
            with open(samples_path) as handle:
                child = json.load(handle)
        except (OSError, ValueError):
            child = []
        return result, self._scaled(elapsed, [before, *child, after], sum(child))


def _run_sampled(samples_path: str, argv: list[str]) -> None:
    """Run a module (as ``python -m`` does) or a script under a sampler."""
    calibration()  # first numpy calls in a process are slow; not a sample
    sampler = Sampler()
    try:
        with sampler:
            if argv[0] == "-m":
                sys.argv = [argv[1], *argv[2:]]
                sys.path[0] = os.getcwd()
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                sys.argv = list(argv)
                sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
                runpy.run_path(argv[0], run_name="__main__")
    finally:
        with open(samples_path, "w") as handle:
            json.dump(sampler.samples, handle)


if __name__ == "__main__":
    if len(sys.argv) < 3 or (sys.argv[2] == "-m" and len(sys.argv) < 4):
        sys.exit("usage: speed.py SAMPLES_JSON (-m MODULE | SCRIPT) [ARGS...]")
    _run_sampled(sys.argv[1], sys.argv[2:])
