"""Expected improvement and its maximizers (minimization convention).

EI(x) = E[max(y_min - Y(x), 0)] under the surrogate's predictive Gaussian:
with z = (y_min - mu)/sigma,

    EI = (y_min - mu) * Phi(z) + sigma * phi(z),

falling back to the deterministic improvement max(y_min - mu, 0) when sigma
is numerically zero.  Phi is `scipy.special.ndtr` and phi its closed form,
equal to `scipy.stats.norm`'s bit for bit without its per-call argument
handling.  `argmax_discrete` scores candidate points with `ei`;
`multistart_opt` ascends `ei_and_grad`, which takes the value and the
gradient from one predictive pass per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

from . import gp
from .sampling import lhs

#: Predictive sds at or below this are treated as exactly zero in EI.
SD_FLOOR = 1e-10

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _npdf(z):
    """Standard normal density.

    Written as SciPy's `norm.pdf` computes it, so the two agree bit for bit;
    `z * z`, not `z ** 2`, because a NumPy scalar's power can round
    differently from the array product `norm.pdf` takes.
    """
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI


@dataclass
class AcqResult:
    point: np.ndarray
    acq_value: float
    evaluations: int


def ei_values(means: np.ndarray, sds: np.ndarray, y_min: float) -> np.ndarray:
    """Closed-form EI from predictive moments (elementwise)."""
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    imp = y_min - means
    out = np.maximum(imp, 0.0)
    live = sds > SD_FLOOR
    if live.any():
        z = imp[live] / sds[live]
        # clamp: the closed form can round to a tiny negative far below y_min
        out[live] = np.maximum(imp[live] * ndtr(z) + sds[live] * _npdf(z), 0.0)
    return out


def ei(model: gp.GpModel, queries: np.ndarray, y_min: float) -> np.ndarray:
    """Expected improvement below `y_min` at each query row."""
    mean, sd = gp.predict(model, queries)
    return ei_values(mean, sd, y_min)


def ei_and_grad(
    model: gp.GpModel, query: np.ndarray, y_min: float
) -> tuple[float, np.ndarray]:
    """EI and its analytic gradient at one point, from one predictive pass.

    z, Phi(z) and phi(z) are taken once, and the value is `ei_values`'
    expression and clamp on them, so it is `ei` at the same point, bit for
    bit.  dEI/dmu = -Phi(z) and dEI/dsigma = phi(z), chained through the
    predictive moment gradients; at a numerically zero sd, the value and
    gradient of the deterministic improvement max(y_min - mu, 0).
    """
    mean, sd, dmean, dsd = gp.predict_grad(model, query)
    imp = y_min - mean
    # 0.0 first: `max` then clamps -0.0 to 0.0, as `np.maximum(imp, 0.0)` does
    if sd > SD_FLOOR:
        z = imp / sd
        cdf, pdf = ndtr(z), _npdf(z)
        return float(max(0.0, imp * cdf + sd * pdf)), -cdf * dmean + pdf * dsd
    return float(max(0.0, imp)), -dmean if mean < y_min else np.zeros_like(dmean)


def argmax_discrete(model: gp.GpModel, points: np.ndarray, y_min: float) -> AcqResult:
    """Best of the candidate rows `points` by EI; ties resolve to the smallest index."""
    if points.shape[0] < 1:
        raise ValueError("candidate set is empty")
    values = ei(model, points, y_min)
    best = int(np.argmax(values))
    return AcqResult(point=points[best].copy(), acq_value=float(values[best]), evaluations=points.shape[0])


def multistart_opt(
    model: gp.GpModel,
    y_min: float,
    incumbent: np.ndarray,
    rng: np.random.Generator,
) -> AcqResult:
    """Continuous EI maximization: box-constrained quasi-Newton from many starts.

    The 2P + 1 starts are the incumbent and 2P Latin hypercube points.  Each
    start runs a bounded local ascent with the analytic gradient (max 200
    iterations, projected-gradient tolerance 1e-8).  The result is the best
    point the objective was evaluated at, across all starts, ties to the
    earliest.  L-BFGS-B's first evaluation is at the (clipped) start, so a
    start is always a candidate, and `evaluations` counts objective calls,
    each of which yields the value and the gradient.
    """
    dim = model.design.shape[1]
    incumbent = np.asarray(incumbent, dtype=float).reshape(-1)
    starts = [incumbent, *lhs(2 * dim, dim, rng)]
    best_x, best_val, evaluations = None, -np.inf, 0

    def neg_ei_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_x, best_val, evaluations
        value, grad = ei_and_grad(model, x, y_min)
        evaluations += 1
        if value > best_val:
            best_x, best_val = x.copy(), value
        return -value, -grad

    for x0 in starts:
        minimize(
            neg_ei_and_grad,
            np.clip(x0, 0.0, 1.0),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * dim,
            # ftol below machine epsilon: EI spans many orders of magnitude,
            # and the default (absolute for values < 1) would stop the ascent
            # long before the gradient tolerance gets a say
            options={"maxiter": 200, "gtol": 1e-8, "ftol": 1e-16},
        )
    return AcqResult(point=best_x, acq_value=best_val, evaluations=evaluations)
