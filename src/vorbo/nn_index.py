"""Batched nearest-neighbour queries with deterministic tie-breaking.

Every query is answered by one exact scan: the distances from a block of
queries to all N points are computed in a single pass, and each row takes
its first minimum, so ties always resolve to the smallest index with no
second pass.  A space-partitioning tree does not pay here: at the walk's
dimensions (P up to 100) it visits nearly every leaf, and its pick among
equidistant points is arbitrary, so it would need a tie re-check on top.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .metrics import Metric

# Cap on the element count of one distance block (query rows x N doubles);
# 2**21 doubles keep a block at 16 MB whatever the query batch size.
_CHUNK_ELEMS = 2**21


def nearest_batch(points: np.ndarray, queries: np.ndarray, metric: Metric) -> np.ndarray:
    """Index of the nearest of `points` (N x P, N >= 1) for each query row.

    Ties go to the smallest index.  The M x P `queries` need not lie inside
    the unit cube; the result is an (M,) integer array of indices into
    `points`.
    """
    chunk = max(1, _CHUNK_ELEMS // points.shape[0])
    out = np.empty(queries.shape[0], dtype=np.intp)
    for lo in range(0, queries.shape[0], chunk):
        d = cdist(queries[lo : lo + chunk], points, "minkowski", p=metric.p)
        out[lo : lo + chunk] = np.argmin(d, axis=1)
    return out
