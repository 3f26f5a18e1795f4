"""A fixed probe of how fast the machine runs right now.

The shared machine the benchmark was tuned on changes speed by up to 1.7x,
in bursts of a few milliseconds whose share drifts over minutes. CPU time
moves with wall time, so the slowdown is not time spent descheduled, and
it comes from outside the benchmark's own processes. ``SpeedProbe`` runs a
fixed piece of probe work on a timer, every ``period`` seconds, for as long
as a workload runs. Each timed unit's wall time, less the probe time inside
it, is scaled by ``REFERENCE_S`` over the mean time of the probes taken
during the unit: the time the unit would take at the speed where one probe
takes ``REFERENCE_S``. Set-up, timed in fresh interpreters, is scaled the
same way by probe runs taken just before and after each one.

The probe is benchmark code, so nothing a change to the program does can
move it. It mixes the kinds of work the program does: FFTs along the rows
of a scale-by-time field, a small complex matrix product and SVD,
broadcast distances between small point sets, and float formatting in
Python.
"""

import signal
import threading
import time

import numpy as np

#: Probe seconds at the reference speed: about one probe's time at a quiet
#: moment on the 2-core machine of the README's reference figures.
REFERENCE_S = 0.005

_RNG = np.random.default_rng(20110125)
_FIELD = _RNG.normal(size=(33, 64)) + 1j * _RNG.normal(size=(33, 64))
_FILTER = np.fft.fft(np.exp(-0.5 * ((np.arange(64) + 32) % 64 - 32) ** 2
                            / 16.0))
_POINTS = _RNG.normal(size=(75, 6))
_ROW = _RNG.normal(size=64).tolist()


def _work():
    total = 0.0
    for _ in range(16):
        smoothed = np.fft.ifft(np.fft.fft(_FIELD, axis=1) * _FILTER, axis=1)
        q = _FIELD @ np.conj(smoothed.T)
        total += float(np.linalg.svd(q, compute_uv=False)[0])
        d2 = ((_POINTS[:, None, :] - _POINTS[None, :8, :]) ** 2).sum(axis=2)
        total += float(d2.min(axis=1).sum())
        total += len(",".join(repr(v) for v in _ROW))
    return total


class SpeedProbe:
    """Runs the probe work on a ``SIGALRM`` timer while it is entered.

    The handler runs in the main thread between bytecodes, and skips its
    turn while the program's pool threads run. ``start`` and ``stop`` time
    one unit, leaving out the time spent in the probe.
    """

    def __init__(self, period=0.1):
        self.period = period
        self.samples = []
        self._probing = 0.0

    def _tick(self, signum, frame):
        if threading.active_count() == 1:  # else it waits on pool threads
            self.sample()

    def sample(self, count=1):
        """Run the probe ``count`` times now and keep the times."""
        for _ in range(count):
            began = time.perf_counter()
            _work()
            spent = time.perf_counter() - began
            self.samples.append(spent)
            self._probing += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()

    def start(self):
        return time.perf_counter() - self._probing, len(self.samples)

    def stop(self, mark):
        """``(seconds, seconds at the reference speed)`` since ``mark``."""
        began, first = mark
        elapsed = time.perf_counter() - self._probing - began
        if len(self.samples) == first:  # a unit shorter than the period
            self.sample()
        during = self.samples[first:]
        return elapsed, elapsed * REFERENCE_S * len(during) / sum(during)


class WallClock:
    """``SpeedProbe``'s stopwatch without the probe, for traced runs."""

    def start(self):
        return time.perf_counter()

    def stop(self, mark):
        elapsed = time.perf_counter() - mark
        return elapsed, elapsed
