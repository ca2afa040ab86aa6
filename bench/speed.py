"""Machine-speed probe: rescales measured times to a fixed nominal speed.

On a shared VM the CPU's speed drifts by up to 2x for minutes at a time. A
fixed compartment3 null-space solve went from about 0.72 s to about 0.35 s
within one process, and a small reference task went from about 18.5 ms to
about 9.3 ms with it. The ratio of the two stayed at 37-38 across the change.
So the benchmark runs the reference task between solves and reports every
time as wall seconds x ``NOMINAL_S / reference``: seconds at the speed where
the reference task takes 10 ms.  The reference is frozen benchmark code, so a
change to the package moves the scaled times exactly as it moves wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.010
# Share of a run spent probing: enough probes to follow the drift, few enough
# to cost a few percent.
PROBE_SHARE = 0.03
# Each time is scaled by the mean of this many probes nearest to it.  The
# mean, not the median: a solve averages the machine's speed over its whole
# duration, bursts included, and so does the mean of many short probes.
NEAREST = 15


def reference_task(reps: int = 200) -> float:
    """Fixed mix of interpreter work and small dense linear algebra, like a solve."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 2))
    eye = np.eye(6)
    acc = 0.0
    for i in range(reps):
        x = np.linalg.solve(a + (i % 7) * 0.1 * eye, b)
        k = np.kron(x.T @ x, a[:3, :3])
        s = np.linalg.svd(a + k[:6, :6] * 1e-3, compute_uv=False)
        acc += float(s[0]) + sum(float(v) for v in x.ravel())
    return acc


class SpeedProbe:
    """Reference-task timings taken during a run, and the scale factors they give."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.total = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        reference_task()
        ended = time.perf_counter()
        self.at.append((started + ended) / 2)
        self.seconds.append(ended - started)
        self.total += ended - started

    def keep_up(self) -> None:
        """Probe until the probes have taken ``PROBE_SHARE`` of the time so far."""
        if not self.at:
            self.sample()
        first = self.at[0] - self.seconds[0] / 2
        while self.total < PROBE_SHARE * (time.perf_counter() - first):
            self.sample()

    def scale(self, at: float) -> float:
        """Factor turning a wall time measured around ``at`` into nominal seconds."""
        i = bisect.bisect_left(self.at, at)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi >= len(self.at) or at - self.at[lo - 1] <= self.at[hi] - at):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.fmean(self.seconds[lo:hi])
