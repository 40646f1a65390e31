"""Wall time rescaled to a reference host speed.

The host this benchmark was built on (a 2-vCPU VM) changes speed by a
third or more within a minute because of other tenants, in blocks of a few
seconds; no repetition inside a run of a few tens of seconds averages that
away.  ``SpeedClock`` samples two short calibration loops from a timer
signal, so also inside long operations, takes their time out of the work
it measures, and rescales work time by the host speed around it.  The loops
are the benchmark's own code: no change to rdpinv can move them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

CAL_INTERVAL_S = 0.1
#: samples within this distance of an interval's ends also describe it
CAL_WINDOW_S = 0.5
#: loop times of the two calibration loops on the reference host
CAL_REFERENCE_S = {"int": 0.0008, "product": 0.0010}


def _int_loop() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


def _sparse(seed: int) -> dict:
    return {tuple((v, e) for v, e in enumerate((i % 4, i // 4 % 4, i // 16 % 4, seed)) if e):
            Fraction(seed * i - 7, i % 3 + 1) for i in range(12)}


_FACTORS = (_sparse(1), _sparse(2))


def _product_loop() -> int:
    """A sparse product over tuple monomials with rational coefficients:
    the same mix of tuple, dict and Fraction work as rdpinv's kernel."""
    out: dict = {}
    for ma, ca in _FACTORS[0].items():
        for mb, cb in _FACTORS[1].items():
            merged = dict(ma)
            for v, e in mb:
                merged[v] = merged.get(v, 0) + e
            m = tuple(sorted(merged.items()))
            out[m] = out.get(m, 0) + ca * cb
    return len(out)


class SpeedClock:
    """Work time with calibration samples removed, and host-speed rescaling.

    A sample times both calibration loops; the speed near an interval is
    the geometric mean of the two loops' median speeds over the samples
    within ``CAL_WINDOW_S`` of it.  Neither loop alone tracks all of
    rdpinv's workloads as well as the two together.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.samples: list[tuple[float, float, float]] = []  # (start, int s, product s)
        self.paused = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if not self.sampling or self._busy:
            return
        self._busy = True
        # The loops free all they allocate; with the collector off they
        # cannot trigger a collection at a random point of the workload,
        # which would move rdpinv's own (deterministic) collections around.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _int_loop()
        t1 = time.perf_counter()
        _product_loop()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t0, t1 - t0, t2 - t1))
        self.paused += t2 - t0
        self._busy = False

    def start(self) -> None:
        if self.sampling:
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.sample()

    def now(self) -> tuple[float, float]:
        """(wall time, work time) now."""
        t = time.perf_counter()
        return t, t - self.paused

    def _speed(self, samples) -> float:
        if not samples:
            return 1.0
        si = statistics.median(CAL_REFERENCE_S["int"] / s[1] for s in samples)
        sp = statistics.median(CAL_REFERENCE_S["product"] / s[2] for s in samples)
        return (si * sp) ** 0.5

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Work time between two ``now()`` readings, in reference seconds."""
        near = [s for s in self.samples
                if start[0] - CAL_WINDOW_S <= s[0] <= end[0] + CAL_WINDOW_S]
        return (end[1] - start[1]) * self._speed(near)

    def speed(self) -> float:
        """Median host speed over the process, 1.0 at the reference."""
        return self._speed(self.samples)
