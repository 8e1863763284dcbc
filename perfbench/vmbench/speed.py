"""Machine speed, sampled by a fixed reference kernel while a run is timed.

On a shared host the speed of a core drifts with the neighbours' load on
the caches and sibling threads it shares: over seconds to minutes every
timing of a run moves by 20-60%, all alike, and CPU time moves with wall
time. No statistic of raw times escapes that. So a run also times a fixed
reference kernel, 25 times a second, from a timer signal in this process,
and scales each timing to a nominal machine speed:

    scaled = raw * NOMINAL_S / (mean kernel CPU time in or around the timed span)

The kernel's own CPU time is used, not its wall time, so a kernel call that
waits for a core (behind a set-up child, say) does not read as a slow
machine. The kernel runs between the program's Python bytecodes, never
beside them, and ``clock``/``cpu_spent`` let the caller leave its time out
of every timing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# The speed changes within a second, so a span's factor is read from the
# samples taken inside it: 15 in a 0.6 s deidentify round at 25 Hz. The
# kernel then takes about 1% of the run, all of it left out of the timings.
RATE_HZ = 25
# The kernel's CPU time while a sweep runs on the 2-core x86_64 VM where the
# bounds were set was 0.42-0.63 ms as the machine's speed drifted; this
# scale makes a scaled time read near a raw one there.
NOMINAL_S = 0.00045
# A span shorter than this many samples reads the samples around it as well.
MIN_SAMPLES = 12

_FRAMES = np.fft.rfft(np.random.default_rng(0).standard_normal((16, 512)), axis=1)


def reference_kernel() -> float:
    """A fixed mix of the work voicemask does: batched FFTs, per-frame numpy and Python."""
    spec = np.fft.rfft(np.fft.irfft(_FRAMES, axis=1), axis=1)
    phase = np.zeros(spec.shape[1])
    total = 0.0
    for frame in spec:
        phase = np.mod(phase + np.angle(frame), 2 * np.pi)
        total += float(np.abs(frame).max())
        for k in range(40):
            total += k * 0.5
    return total


class SpeedProbe:
    """Times ``reference_kernel`` RATE_HZ times a second while the probe is entered."""

    def __init__(self, rate_hz: float = RATE_HZ, kernel=reference_kernel):
        self.rate_hz, self.kernel = rate_hz, kernel
        self.samples: list[float] = []  # kernel CPU seconds, in call order
        self.times: list[float] = []  # ``clock()`` when each sample started
        self.paused = 0.0  # wall seconds spent in the kernel so far
        self.cpu_spent = 0.0  # CPU seconds spent in the kernel so far
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        self.times.append(wall0 - self.paused)
        self.kernel()
        cpu = time.thread_time() - cpu0
        self.samples.append(cpu)
        self.cpu_spent += cpu
        self.paused += time.perf_counter() - wall0

    def clock(self) -> float:
        """``time.perf_counter`` stopped while the kernel runs."""
        while True:
            before = self.paused
            now = time.perf_counter()
            if self.paused == before:
                return now - before

    def mark(self) -> int:
        """Position in ``samples``; a span's samples lie between two marks."""
        return len(self.samples)

    def factor(self, lo: int, hi: int) -> float:
        """NOMINAL_S over the mean kernel time of samples[lo:hi], widened to MIN_SAMPLES."""
        n = len(self.samples)
        if n < MIN_SAMPLES:
            raise RuntimeError(f"{n} speed samples, need at least {MIN_SAMPLES}")
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return NOMINAL_S / statistics.fmean(self.samples[lo:hi])

    def factor_at(self, t: float) -> float:
        """The factor of the MIN_SAMPLES samples nearest to ``clock()`` time t."""
        i = bisect.bisect(self.times, t)
        return self.factor(i, i)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / self.rate_hz, 1.0 / self.rate_hz)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
