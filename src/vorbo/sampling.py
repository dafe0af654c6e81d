"""Space-filling designs on the unit cube; `scipy.stats` loads only when a Sobol design is drawn."""

from __future__ import annotations

import warnings

import numpy as np


def lhs(n: int, dim: int, rng: np.random.Generator | int | None) -> np.ndarray:
    """Latin hypercube sample of `n` points in [0, 1]^dim, as an (n, dim) array.

    Each coordinate axis is split into `n` equal strata and every stratum
    receives exactly one point, jittered uniformly within the stratum.
    `rng` may be a Generator or a seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    gen = np.random.default_rng(rng)
    pts = np.empty((n, dim))
    for j in range(dim):
        pts[:, j] = (gen.permutation(n) + gen.random(n)) / n
    return pts


def sobol(n: int, dim: int, start_index: int = 1) -> np.ndarray:
    """Points `start_index .. start_index + n - 1` of the unscrambled Sobol sequence.

    Index 0 of the sequence is the origin, so the default skips it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    from scipy.stats import qmc  # deferred: no other vorbo path needs its slow, large import

    gen = qmc.Sobol(d=dim, scramble=False)
    if start_index:
        gen.fast_forward(start_index)
    with warnings.catch_warnings():
        # drawing a non power-of-two count is intentional here
        warnings.simplefilter("ignore", UserWarning)
        return gen.random(n)
