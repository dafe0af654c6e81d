"""A fixed yardstick of the host's speed, timed next to every workload call.

On a shared host the same call can run 30% faster or slower for a minute at
a time, as other tenants come and go.  Those phases move every call of a run
together, so a run's median wall time tracks the host as much as the code.
The yardstick is a fixed mix of the kinds of work vorbo does, run between
timed calls, so that each call is bracketed by two timings: a k-d tree query at P=100 under L-inf and one at
P=5 under L2 (SciPy's compiled tree, as in `nn_index`), small Cholesky
solves (as in `gp`) and a pure-Python loop (interpreter overhead).  It uses
only NumPy and SciPy and fixed inputs, so a change to vorbo never changes
it; the ratio call time / yardstick time is the call's cost in units of
the host's current speed.  One timing is two passes over the mix (about
0.3 s): a single pass right after a workload call runs on cold caches and
jitters more, and longer timings average out the host's sub-second swings.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree


class Reference:
    """Fixed inputs for the yardstick; `run()` times it in seconds."""

    passes = 2

    def __init__(self, smoke: bool = False) -> None:
        scale = 10 if smoke else 1
        rng = np.random.default_rng(20240207)
        self._tree100 = cKDTree(rng.random((2000, 100)))
        self._q100 = rng.random((200 // scale, 100))
        self._tree5 = cKDTree(rng.random((1000, 5)))
        self._q5 = rng.random((15000 // scale, 5))
        self._x = rng.random((60, 20))
        self._solves = 50 // scale
        self._loop = 500_000 // scale

    def _kernels(self) -> None:
        self._tree100.query(self._q100, k=2, p=np.inf)
        self._tree5.query(self._q5, k=2, p=2)
        x, eye = self._x, 1e-6 * np.eye(len(self._x))
        for i in range(self._solves):
            sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
            cho_solve(cho_factor(np.exp(-sq * (1.0 + 1e-3 * i)) + eye), x[:, 0])
        total = 0
        for i in range(self._loop):
            total += i * i

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.passes):
            self._kernels()
        return time.perf_counter() - t0
