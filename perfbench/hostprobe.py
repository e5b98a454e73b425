"""How fast the host runs a fixed reference kernel while the program runs.

On a small share of a shared host the same code runs up to 1.6x slower
while other tenants load the physical cores.  The loaded and unloaded
states switch every few milliseconds, but the share of time spent loaded
drifts over seconds to minutes, so a run's raw wall time says as much about
the neighbours as about the program.  ``HostProbe`` samples that share while
the program runs: a SIGALRM timer interrupts the main thread every
``INTERVAL_S`` and times a reference kernel (cubic spline resampling plus an
interpreter loop, the mix renormlab's hot paths have) in thread CPU time, so
that time the kernel waits on the GIL for the program's own worker threads
is not counted.  ``factor`` is the mean kernel time over a region divided by
``REF_S``, the kernel's time on an unloaded host; dividing a region's work
time by it gives the wall time the region would have taken unloaded.

The kernel touches no renormlab code or data and runs between bytecodes of
the main thread, so it is off the program's numeric path.  Time spent in it
is kept in ``spent`` and taken out of the work time by ``clock``.  A tick is
skipped while the program runs threads of its own, since the kernel's wall
time would then include their work, and while a tick is still running.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import threading
import time

import numpy as np
from scipy import ndimage

# Thread CPU time of one kernel on an unloaded host: the fast mode of its
# bimodal timings on a 2-vCPU Intel Xeon KVM guest (1.30-1.44 ms).
REF_S = 1.40e-3
INTERVAL_S = 0.025
MIN_SAMPLES = 8


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._image = rng.standard_normal((64, 64))
        self._points = rng.uniform(0.0, 63.0, (2, 4096))
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        for _ in range(MIN_SAMPLES):
            self.kernel()  # first calls load scipy's code paths

    def kernel(self) -> float:
        """Thread CPU seconds of one reference kernel."""
        start = time.thread_time()
        for _ in range(3):
            ndimage.map_coordinates(self._image, self._points, order=3, mode="wrap")
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.thread_time() - start

    def sample(self, count: int) -> None:
        """Run the kernel ``count`` times now, outside any timed work."""
        w0 = time.perf_counter()
        self.samples += [self.kernel() for _ in range(count)]
        self.spent += time.perf_counter() - w0

    def clock(self) -> float:
        """Wall clock minus the time spent in the kernel: work time."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        if self._busy or threading.active_count() > 1:
            return
        self._busy = True
        try:
            self.sample(1)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def region(self):
        """Sample the host every INTERVAL_S while the body runs."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if len(self.samples) < MIN_SAMPLES:
            self.sample(MIN_SAMPLES - len(self.samples))

    def factor(self) -> float:
        """Host slowdown over the samples taken since the last region began."""
        return statistics.fmean(self.samples) / REF_S
