"""A fixed reference job, timed while each step runs, to gauge host speed.

The 2-vCPU VM this benchmark was tuned on runs the same work at speeds
up to 1.6x apart, and the speed changes within half a minute: a
reference job timed once before and once after a step did not follow
it. So while a step runs, :class:`SpeedGauge` times a small fixed job
in thread CPU seconds on a background thread of ``run.py``, every
:data:`INTERVAL_S`, and ``run.py`` multiplies the step's seconds by
:data:`REFERENCE_S` over the mean job time. Thread CPU time leaves out
the time the job waits for a core, so the sharded workload's own
workers do not read as a slow host; the host's slowdown does inflate
it, as it inflates the program's CPU time. Timings then read in seconds
at the reference host's speed: a change to the program moves them, a
change of host speed cancels out.

The job is benchmark code the program under test cannot change: an
event loop's diet of heap, tuple and dict traffic in pure Python, plus
the NumPy sorts, gathers and prefix sums and the sha256 hashing that the
emission kernel, the store and the analyses spend their time in.
"""

from __future__ import annotations

import hashlib
import heapq
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

#: Mean thread CPU seconds of one job on the reference host (2-vCPU
#: Intel Xeon VM, Python 3.11.7, NumPy 2.4.6).
REFERENCE_S = 0.0065

#: Pause between two jobs: about 5% of one core while a step runs.
INTERVAL_S = 0.2

_ROWS = 16_000


class Calibration:
    """The reference job, with its fixed inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250101)
        self.times = rng.integers(0, 1 << 40, _ROWS, dtype=np.int64)
        self.keys = rng.integers(0, 500, _ROWS, dtype=np.int64)
        self.edges = np.sort(rng.integers(0, 1 << 40, 512, dtype=np.int64))
        self.blob = rng.bytes(320 << 10)
        self.sink = 0

    @staticmethod
    def _python() -> int:
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        x = 12345
        for i in range(2_400):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x % 100_003, i))
            if i % 3 == 0:
                t, j = heapq.heappop(heap)
                counts[t % 997] = counts.get(t % 997, 0) + j
        return len(heap) + len(counts)

    def _numpy(self) -> int:
        order = np.lexsort((self.times, self.keys))
        times = self.times[order]
        starts = np.flatnonzero(np.diff(self.keys[order])) + 1
        gaps = np.cumsum(np.diff(times))
        slots = np.searchsorted(self.edges, times)
        digest = hashlib.sha256(self.blob).digest()
        return int(starts.size + gaps[-1] % 7 + slots[-1]) + digest[0]

    def job(self) -> float:
        """Thread CPU seconds of one reference job."""
        start = time.thread_time()
        self.sink += self._python() + self._numpy()
        return time.thread_time() - start


class SpeedGauge:
    """Times the reference job on a background thread during a step."""

    def __init__(self) -> None:
        self.calibration = Calibration()

    @contextmanager
    def sampling(self):
        """Yield the list the job times of this block are appended to."""
        samples: list[float] = []
        stop = threading.Event()

        def loop() -> None:
            while True:
                samples.append(self.calibration.job())
                if stop.wait(INTERVAL_S):
                    return

        thread = threading.Thread(target=loop, name="speed-gauge",
                                  daemon=True)
        thread.start()
        try:
            yield samples
        finally:
            stop.set()
            thread.join()

    @staticmethod
    def speed(samples: list[float]) -> float:
        """Host speed over a block, as a share of the reference's."""
        return REFERENCE_S / statistics.mean(samples)
