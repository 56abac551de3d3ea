"""Host-speed calibration: report times in seconds of a steady reference host.

Why: on the shared 2-vCPU boxes this repository is measured on, the speed
of a CPU-bound process drifts by up to 2x in regimes lasting seconds to
tens of seconds (neighbouring guests; process CPU time tracks wall).
Identical engine runs back to back differ by 15-30 % in wall, and per-epoch
minima over a handful of repeats do not fix that — a 20 s window may never
see the fast regime.

How: an interval timer interrupts the measured process ten times a second
and times a small fixed kernel on the main thread.  Sampling is uniform in
time, so over a window ``[a, b)`` the work a steady reference host would
have done in ``b - a`` seconds of this host is::

    (b - a) * mean_i(REFERENCE_S / kernel_seconds_i)

and a wall time divided by :meth:`Sampler.slowdown` is that time in
*reference seconds*.  Measured over back-to-back identical repeats, the
spread (std / mean) of the wall fell from 17-22 % to 7-8 % on ``fdd_8x8``
and ``sessions_patch_8x8``, from 15 % to 5 % on ``sparse_10k`` and from
17-22 % to 9-12 % on ``sharded_24x24``; the kernel costs about 2 % of the
wall, the same on every commit.  The kernel only has to slow down with the
host the way the engines do; what it computes is irrelevant.  Pure Python:
sampling starts before the first import, so set-up is calibrated too.
"""

from __future__ import annotations

import random
import signal
import time

#: Seconds the kernel takes on the reference host — about the fastest this
#: repository's host runs it, so reference seconds read like quiet-host wall.
REFERENCE_S = 0.0015
INTERVAL_S = 0.1

# Half of the kernel is interpreter arithmetic, half is reads scattered over
# a 13 MB heap of float objects: neighbours slow the engines through the
# shared caches as much as through the core, and a cache-resident kernel
# under-reads that (against 30 fdd_8x8 repeats its residual was 10.7 %, this
# one's 8.0 %).
_HEAP = [float(i) for i in range(400_000)]
_PICKS = random.Random(20080617).choices(range(len(_HEAP)), k=2500)


def kernel() -> float:
    total = 0
    for i in range(15000):
        total += i * i
    heap, picked = _HEAP, 0.0
    for i in _PICKS:
        picked += heap[i]
    return total + picked


class Sampler:
    """Times :func:`kernel` every ``INTERVAL_S`` seconds on SIGALRM.

    Python runs signal handlers on the main thread between bytecodes, so a
    sample never overlaps the code it interrupts; forked pool workers
    inherit the handler but not the timer.  A workload that computes in
    pool workers would have its samples compete with them for the CPUs
    (measured: the estimate then swings by 2x with how promptly the kernel
    gets scheduled), so there the timer is stopped and :meth:`sample` is
    called at epoch boundaries instead, when the workers are idle.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, kernel seconds)
        self._busy = False

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a (very) slow sample
            return
        self._busy = True
        self.sample()
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference host this one ran over
        ``[start, end)`` — the harmonic mean of the kernel times sampled in
        the window (the nearest sample, if the window caught none)."""
        inside = [s for t, s in self.samples if start <= t < end]
        if not inside:
            if not self.samples:
                return 1.0
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return len(inside) / sum(REFERENCE_S / s for s in inside)
