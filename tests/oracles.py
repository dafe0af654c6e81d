"""Reference implementations the test suite judges against, one per rule.

Each is written from the definition, independent of the `vorbo` code it
checks: the owner of a point (its nearest design point), the Sobol
sequence, the dense Gaussian-process solve, and a CLI child process run on
this checkout's source.  Pytest does not collect this module; tests import
it by name.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from vorbo.cli import THREAD_VARS
from vorbo.nn_index import Metric

#: The checkout's source tree, first on every child process's path.
SRC = str(Path(__file__).resolve().parents[1] / "src")


# ------------------------------ owner query ----------------------------------


def brute_distances(design: np.ndarray, queries: np.ndarray, metric: Metric) -> np.ndarray:
    """Exact distances from `queries` to every design point, one per design row.

    Sums run left to right, the query's arithmetic: NumPy's pairwise `.sum`
    can break a near-tie the other way from P = 8 on.  `queries` is one point
    (an (N,) array back) or an (M, P) batch (an (M, N) array back).
    """
    diff = np.abs(design - np.asarray(queries)[..., None, :])
    if metric is Metric.L1:
        return np.cumsum(diff, axis=-1)[..., -1]
    if metric is Metric.L2:
        return np.sqrt(np.cumsum(diff * diff, axis=-1)[..., -1])
    return diff.max(axis=-1)


def brute_owner(design: np.ndarray, queries: np.ndarray, metric: Metric):
    """Nearest design index of each query, the first minimum: the owner oracle.

    One point gives an index back; an (M, P) batch gives an (M,) array.
    """
    return brute_distances(design, queries, metric).argmin(axis=-1)


# --------------------------------- Sobol -------------------------------------

#: Sobol columns 2-4 after Joe & Kuo: primitive-polynomial degree s, its
#: middle coefficient bits a, and the initial odd direction integers m.
#: Column 1 is the van der Corput sequence (every m_k = 1).
_SOBOL_COLUMNS = {2: (1, 0, [1]), 3: (2, 1, [1, 3]), 4: (3, 1, [1, 3, 1])}
_SOBOL_BITS = 30


def _direction_numbers(dim: int) -> np.ndarray:
    v = np.zeros((dim, _SOBOL_BITS + 1), dtype=np.uint64)
    for d in range(1, dim + 1):
        if d == 1:
            m = [1] * _SOBOL_BITS
        else:
            s, a, m = _SOBOL_COLUMNS[d]
            m = list(m)
            for k in range(s, _SOBOL_BITS):
                new = m[k - s] ^ (m[k - s] << s)
                for i in range(1, s):
                    if (a >> (s - 1 - i)) & 1:
                        new ^= m[k - i] << i
                m.append(new)
        for k in range(1, _SOBOL_BITS + 1):
            v[d - 1, k] = np.uint64(m[k - 1]) << np.uint64(_SOBOL_BITS - k)
    return v


def sobol_reference(n: int, dim: int) -> np.ndarray:
    """The first `n` Sobol points in `dim` <= 4 dimensions, origin included.

    Points come in Gray-code order: x_0 = 0 and x_i = x_(i-1) XOR v[c], where
    c is one more than the number of trailing one bits of i - 1.
    """
    v = _direction_numbers(dim)
    pts = np.zeros((n, dim))
    state = np.zeros(dim, dtype=np.uint64)
    for i in range(1, n):
        c = 1
        j = i - 1
        while j & 1:
            j >>= 1
            c += 1
        state ^= v[:, c]
        pts[i] = state / float(1 << _SOBOL_BITS)
    return pts


# ------------------------------ dense GP -------------------------------------


def dense_gp(
    design: np.ndarray, y: np.ndarray, lengthscales: np.ndarray, nugget: float, queries: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """tau^2, and the predictive mean and sd at `queries`, by dense solves.

    The constant-mean GP with kernel tau^2 * exp(-sum_p d_p^2 / ls_p): with
    A = C + nugget * I and yc the centred outputs, tau^2 = yc' A^-1 yc / N
    (floored at 1e-12), mean = mean(y) + rho' A^-1 yc and
    var = tau^2 * (1 - rho' A^-1 rho), each solve taken afresh with
    `np.linalg.solve`; valid only at small N.
    """

    def corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.exp(-(((a[:, None, :] - b[None, :, :]) ** 2) / lengthscales).sum(axis=-1))

    n = len(y)
    yc = y - y.mean()
    a_mat = corr(design, design) + nugget * np.eye(n)
    alpha = np.linalg.solve(a_mat, yc)
    tau_sq = max(float(yc @ alpha) / n, 1e-12)
    rho = corr(queries, design)
    mean = y.mean() + rho @ alpha
    var = tau_sq * np.maximum(1.0 - (np.linalg.solve(a_mat, rho.T).T * rho).sum(axis=1), 0.0)
    return tau_sq, mean, np.sqrt(var)


# ------------------------------ CLI child ------------------------------------


def run_python(
    args: list[str], *, cwd=None, timeout: float = 120.0, threads: dict[str, str] | None = None
) -> str:
    """stdout of `python args`, run by a new process on this checkout's source.

    The child inherits the caller's environment with `SRC` first on its
    `PYTHONPATH`.  Given `threads`, its thread variables (`THREAD_VARS`) are
    exactly those: any the caller set and `threads` does not name are unset.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if threads is not None:
        env = {k: v for k, v in env.items() if k not in THREAD_VARS} | threads
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=timeout,
    ).stdout
