"""Distances under L1, L2 and L-inf, and batched nearest-neighbour queries.

`nearest_batch` answers every query by one exact scan: the `cdist` distances
from a block of queries to all N points, each row taking its first minimum,
so ties resolve to the smallest index with no second pass.  A
space-partitioning tree does not pay here: at the walk's dimensions (P up to
100) it visits nearly every leaf, and its pick among equidistant points is
arbitrary, so it would need a tie re-check on top.

`distance` is the query's own arithmetic under every metric, ties included:
it sums L1 and L2 coordinates left to right, as `cdist` does, where NumPy's
pairwise `.sum` rounds differently from about eight coordinates on.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.spatial.distance import cdist

# Cap on the element count of one distance block (query rows x N doubles);
# 2**21 doubles keep a block at 16 MB whatever the query batch size.
_CHUNK_ELEMS = 2**21


class Metric(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @property
    def p(self) -> float:
        """Minkowski exponent, usable directly with scipy spatial routines."""
        return {Metric.L1: 1.0, Metric.L2: 2.0, Metric.LINF: np.inf}[self]


def distance(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between points under `metric`, broadcasting over leading axes.

    `a` and `b` are arrays whose last axis is the coordinate axis; the result
    has the broadcast shape of the leading axes (a scalar for two points).
    Sums run left to right, so the bits are those of `nearest_batch`'s `cdist`.
    """
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if metric is Metric.L1:
        return np.cumsum(diff, axis=-1)[..., -1]
    if metric is Metric.L2:
        return np.sqrt(np.cumsum(diff * diff, axis=-1)[..., -1])
    return diff.max(axis=-1)


def nearest_batch(
    points: np.ndarray, queries: np.ndarray, metric: Metric, runners_up: int = 0
) -> np.ndarray:
    """Index of the nearest of `points` (N x P, N >= 1) for each query row.

    Ties go to the smallest index.  The M x P `queries` need not lie inside
    the unit cube; the result is an (M,) integer array of indices into
    `points`.  With `runners_up` = k > 0 it is M x (k + 1): column 0 as
    before, then the next k nearest in order (k clamped to N - 1), each the
    first minimum of the same distance block once those found are set to inf.
    """
    k = min(runners_up, points.shape[0] - 1)
    chunk = max(1, _CHUNK_ELEMS // points.shape[0])
    out = np.empty((queries.shape[0], k + 1), dtype=np.intp)
    for lo in range(0, queries.shape[0], chunk):
        d = cdist(queries[lo : lo + chunk], points, "minkowski", p=metric.p)
        for j in range(k + 1):
            out[lo : lo + chunk, j] = found = np.argmin(d, axis=1)
            if j < k:
                d[np.arange(len(d)), found] = np.inf
    return out if runners_up else out[:, 0]
