"""Fixed reference work that tells how fast the host runs at the moment.

Other tenants of the host slow it by tens of percent, for seconds or for
minutes, and the same library call then takes that much longer.  The
benchmark times reference work next to the work it measures and rescales
the measured time to the host speed at which the reference takes its
nominal time, so a slow phase of the host does not read as a slower
program.  Neither reference calls blepi, so no change to the program can
move them.

- ``kernel_ms``, run by a ``Sampler`` during the library calls, does what
  blepi's hot loops do: QR, rank, SVD and ``allclose`` on small dense matrices through
  numpy's Python-level dispatch, and a k-nearest-neighbour query as in
  ``estimate.knn_entropy``.
- ``spawn_s``, timed around each set-up process, starts a fresh Python
  that imports the numpy and scipy modules blepi imports: most of set-up,
  without blepi's own modules and the building of the inputs.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time

import numpy as np
from scipy.spatial import cKDTree

# the reference times on the 2-vCPU Xeon (2.0 GHz) host the baseline was taken on
NOMINAL_KERNEL_MS = 16.0
NOMINAL_SPAWN_S = 0.85
# the interval between two kernel runs of a sampler
EVERY_S = 0.25

_rng = np.random.default_rng(0)
_MATRICES = [_rng.standard_normal((4, 3)) for _ in range(100)]
_POINTS = _rng.standard_normal((3000, 2))
_TREE = cKDTree(_POINTS)
_SPAWN = [
    sys.executable,
    "-c",
    "import numpy, scipy.integrate, scipy.linalg, scipy.optimize, scipy.spatial, scipy.special",
]


def kernel_ms() -> float:
    """Wall time of one run of the kernel, in milliseconds."""
    t0 = time.perf_counter()
    for m in _MATRICES:
        q, r = np.linalg.qr(m)
        np.linalg.matrix_rank(m)
        np.allclose(q @ r, m)
        np.linalg.svd(m, compute_uv=False)
    _TREE.query(_POINTS, k=4)
    return 1e3 * (time.perf_counter() - t0)


def spawn_s() -> float:
    """Wall time of one reference process, in seconds."""
    t0 = time.perf_counter()
    subprocess.run(_SPAWN, check=True, timeout=60)
    return time.perf_counter() - t0


class Sampler:
    """Kernel runs at the start and the end of a stretch of library calls,
    and every ``EVERY_S`` seconds in between: with ``during`` from a timer
    signal, so also inside long calls, and otherwise at the first
    ``between_calls`` after that time.  A signal handler runs between two
    Python bytecodes, so each kernel run lies wholly inside or wholly
    outside a timed call."""

    def __init__(self, during: bool):
        self.during = during
        self.runs: list[tuple[float, float, float]] = []  # start, end, kernel ms
        self._handler = None
        self._busy = False

    def _run(self, *_signal) -> None:
        if self._busy:  # a signal during a run: runs must not nest
            return
        self._busy = True
        t0 = time.perf_counter()
        ms = kernel_ms()
        self.runs.append((t0, time.perf_counter(), ms))
        self._busy = False

    def between_calls(self) -> None:
        if not self.during and time.perf_counter() - self.runs[-1][1] >= EVERY_S:
            self._run()

    def __enter__(self) -> "Sampler":
        self._run()
        if self.during:
            self._handler = signal.signal(signal.SIGALRM, self._run)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._run()

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """A call timed from ``t0`` to ``t1``: its own seconds, the kernel
        runs inside it left out, and those seconds at the nominal host
        speed, judged by the runs inside it and the nearest on each side."""
        starts = [run[0] for run in self.runs]
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        own = (t1 - t0) - sum(end - start for start, end, _ in self.runs[lo:hi])
        near = [ms for _, _, ms in self.runs[lo - 1 : hi + 1]]
        return own, own * NOMINAL_KERNEL_MS * len(near) / sum(near)
