"""The calibration reference: the unit ("cal") every benchmark timing is given in.

On a small shared machine raw wall time drifts by tens of percent within a
minute, as neighbours take the cores and clocks change. Dividing each
operation's duration by a fixed reference computation timed next to it
cancels most of that drift. The reference lives here, imports
nothing of dimwitness, and so no change to the program can move it.

It mixes interpreter work (a restricted-growth-string enumeration with a
pair count, as ``classical.enumerate_max`` does) with passes of a small
batched ``eigh``, ``einsum`` and ``np.add.at`` (as the see-saw and
Helstrom code do). Contention on a shared machine slows these two kinds of
code by different factors, so each workload takes the mix nearer its own
work: mostly numpy passes for the see-saw, mostly interpreter work for the
rest. bench/README.md gives the measurements behind the choice.

Drift also happens inside one long operation (a see-saw entry runs for
seconds), so while an operation runs an interval timer takes a sample every
``INTERVAL`` seconds from a signal handler. ``Clock`` removes those samples'
own time from the operation and divides each stretch of the operation by
the median of the samples nearest to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Captured at import, before a traced run wraps numpy's eigensolvers, so the
# reference is never counted as program work.
_eigh = np.linalg.eigh

_REPEATS = 3  # one sample is the median of this many timed units
INTERVAL = 0.2  # seconds between samples taken inside an operation
WINDOW = 9  # samples in the local median an operation is divided by
#: Set-up time is reported in seconds at this fixed rate, so that it moves
#: with the work done in set-up, not with the machine's speed.
SETUP_SECONDS_PER_CAL = 1e-3


class Reference:
    """Times the reference unit and keeps every sample, in seconds."""

    def __init__(self, strings: int, passes: int) -> None:
        """``strings``: length of the enumerated strings; ``passes``: numpy passes."""
        self._n, self._passes = strings, passes
        rng = np.random.Generator(np.random.Philox(key=np.array([2012, 5643], dtype=np.uint64)))
        a = rng.standard_normal((10, 3, 3)) + 1j * rng.standard_normal((10, 3, 3))
        self._stack = (a + a.conj().swapaxes(-1, -2)) / 2.0
        self._rows = np.arange(10) % 5
        self._labels = [(x, xp) for x in range(1, 6) for xp in range(x)]
        self._expected = self._unit()
        self.samples: list[float] = []

    def _strings(self, n: int, d: int):
        # restricted-growth strings, generated as the classical enumeration does
        enc = [0] * n

        def rec(i: int, used: int):
            if i == n:
                yield tuple(enc)
                return
            for s in range(min(used + 1, d)):
                enc[i] = s
                yield from rec(i + 1, max(used, s + 1))

        yield from rec(0, 0)

    def _unit(self) -> float:
        acc = 0
        for enc in self._strings(self._n, 3):
            acc += sum(1 for x, xp in self._labels if enc[x] != enc[xp])
        for _ in range(self._passes):
            values, vectors = _eigh(self._stack)
            keep = (values > 0).astype(float)
            proj = np.einsum("...ik,...k,...jk->...ij", vectors, keep, vectors.conj())
            h = np.zeros((5, 3, 3), dtype=complex)
            np.add.at(h, self._rows, proj)
            acc += float(np.real(np.einsum("pij,pji->p", self._stack, proj)).sum()) + float(h[0, 0, 0].real)
        return acc

    def measure(self) -> float:
        """Take one sample: the median of a few timed units."""
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            result = self._unit()
            times.append(time.perf_counter() - t0)
            if abs(result - self._expected) > 1e-9:
                raise RuntimeError("calibration reference changed its result")
        sample = statistics.median(times)
        self.samples.append(sample)
        return sample

    def calibrated(self, fn) -> tuple[float, float, object]:
        """Run ``fn`` once between two samples; returns (seconds, cal, result)."""
        before = self.measure()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return seconds, seconds / ((before + self.measure()) / 2.0), result


class Clock:
    """Times operations in seconds and in cal, sampling the reference inside them.

    A stretch of an operation is divided by the median of the ``WINDOW``
    reference samples nearest to it in time: that follows drift over a
    second or two but not a single sample's spike.
    """

    def __init__(self, reference: Reference) -> None:
        self.ref = reference
        self.times: list[float] = []  # midpoint of every reference sample
        self._inside: list[tuple[float, float]] = []
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()

    def _sample(self) -> tuple[float, float]:
        start = time.perf_counter()
        self.ref.measure()
        end = time.perf_counter()
        self.times.append((start + end) / 2.0)
        return start, end

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._inside.append(self._sample())

    def start(self) -> None:
        self._inside = []
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """End the operation; returns its stretches and the samples taken between them."""
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._armed = False
        self._sample()
        stretches, edge = [], self._t0
        for start, end in self._inside:
            stretches.append((edge, start))
            edge = end
        stretches.append((edge, t1))
        return stretches, self._inside

    def cal(self, stretches: list[tuple[float, float]]) -> float:
        """Duration in cal of the given stretches, once every sample is in."""
        total = 0.0
        for start, end in stretches:
            i = bisect.bisect(self.times, (start + end) / 2.0)
            lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
            total += (end - start) / statistics.median(self.ref.samples[lo:lo + WINDOW])
        return total
