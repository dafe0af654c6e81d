"""Constant-mean Gaussian-process surrogate with an ARD squared-exponential kernel.

The kernel is k(a, b) = tau_sq * exp(-sum_p (a_p - b_p)^2 / ls_p); every
correlation comes from the one evaluator `_corr`.  The signal scale tau_sq is
profiled out of the likelihood in closed form, so fitting optimizes only the
log-lengthscales (box-constrained quasi-Newton ascent with an analytic
gradient, all dimensions from one matrix product).  A small relative nugget
keeps factorizations positive definite on deterministic data; predictions
report the latent-function standard deviation, so at a training input the sd
collapses to roughly sqrt(nugget * tau_sq).  `predict_grad` gives the moments
and their gradients at one point from a single correlation row.

Every factorization and solve calls LAPACK (`scipy.linalg.lapack`) directly:
at the sizes a BO run reaches (N in the tens) SciPy's wrappers cost more
than the work they wrap.  The wrappers' finiteness checks move to the entry
points instead: `build` and `fit` reject non-finite designs and outputs, and
the predictive pass rejects non-finite queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

#: Floor applied to the profiled signal variance.  Constant outputs would
#: otherwise collapse tau_sq to zero and flatten every downstream
#: acquisition surface.
TAU_SQ_FLOOR = 1e-12

#: Box for the fitted lengthscales, and the fit's L-BFGS-B iteration cap.
LENGTHSCALE_BOUNDS = (1e-3, 10.0)
FIT_MAXITER = 100

#: Jitter added to the correlation matrix: NUGGET first, escalated tenfold
#: up to NUGGET_MAX before a factorization is declared impossible.
NUGGET = 1e-8
NUGGET_MAX = 1e-4


class SurrogateFitError(RuntimeError):
    """Raised when no positive-definite factorization can be produced."""


@dataclass
class GpHyper:
    lengthscales: np.ndarray
    tau_sq: float
    nugget: float


@dataclass
class GpModel:
    """Fitted surrogate state.

    `chol` is the lower Cholesky factor of the unit-scale matrix C + g*I
    (correlations plus nugget), so tau_sq * (chol @ chol.T) reproduces the
    kernel matrix plus effective jitter; `alpha` is (C + g*I)^-1 applied to
    the centered outputs.  `chol` is C-contiguous, so `chol.T` is the
    Fortran-ordered upper factor that `dtrtrs` reads without a copy.
    """

    design: np.ndarray
    y_centered: np.ndarray
    y_mean: float
    hyper: GpHyper
    chol: np.ndarray
    alpha: np.ndarray


def _check_lengthscales(lengthscales: np.ndarray, dim: int) -> np.ndarray:
    ls = np.asarray(lengthscales, dtype=float)
    if ls.shape != (dim,):
        raise ValueError(f"lengthscales must have shape ({dim},), got {ls.shape}")
    if not (np.isfinite(ls).all() and (ls > 0).all()):
        raise ValueError("lengthscales must be finite and strictly positive")
    return ls


def _corr(a: np.ndarray, b: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Unit-scale correlations exp(-sum_p (a_ip - b_jp)^2 / ls_p), len(a) x len(b).

    Distances are taken on direct differences of the scaled rows, so the
    diagonal of _corr(a, a, ls) is exactly 1 and no squared distance can
    round below zero, as the expanded form |a|^2 + |b|^2 - 2ab can.
    """
    scale = np.sqrt(lengthscales)
    return np.exp(-cdist(a / scale, b / scale, "sqeuclidean"))


def _check_data(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Design and outputs as float arrays of matching length, both finite.

    LAPACK is called without SciPy's checks, so this is where a NaN or inf
    in the training data is caught.
    """
    design = np.ascontiguousarray(design, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if design.ndim != 2 or design.shape[0] != y.shape[0]:
        raise ValueError(
            f"design {design.shape} and outputs {y.shape} have mismatched lengths"
        )
    if not np.isfinite(design).all():
        raise ValueError("design must be finite")
    if not np.isfinite(y).all():
        raise ValueError("outputs must be finite")
    return design, y


def _solved(x_info: tuple[np.ndarray, int], routine: str) -> np.ndarray:
    """The solution from a LAPACK solve, which fails only on a malformed call."""
    x, info = x_info
    if info != 0:
        raise ValueError(f"LAPACK {routine} failed with info={info}")
    return x


def _factor_with_escalation(corr: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky of corr + g*I, escalating g tenfold from NUGGET until it succeeds.

    The lower factor comes back Fortran-ordered, as `dpotrf` writes it, with
    the upper triangle zeroed.
    """
    step = corr.shape[0] + 1
    g = NUGGET
    while True:
        a = np.array(corr, dtype=float, order="F")
        a.flat[::step] += g
        low, info = dpotrf(a, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return low, g
        if info < 0:
            raise ValueError(f"LAPACK dpotrf failed with info={info}")
        if g >= NUGGET_MAX:
            raise SurrogateFitError(
                f"correlation matrix not positive definite at jitter {g:g}"
            )
        g = min(g * 10.0, NUGGET_MAX)


def build(design: np.ndarray, y: np.ndarray, lengthscales: np.ndarray) -> GpModel:
    """Assemble a model at fixed lengthscales; tau_sq is profiled from the data."""
    design, y = _check_data(design, y)
    lengthscales = _check_lengthscales(lengthscales, design.shape[1])

    y_mean = float(y.mean())
    yc = y - y_mean
    low, g = _factor_with_escalation(_corr(design, design, lengthscales))
    alpha = _solved(dpotrs(low, yc, lower=1), "dpotrs")
    tau_sq = max(float(yc @ alpha) / y.shape[0], TAU_SQ_FLOOR)
    hyper = GpHyper(lengthscales=lengthscales.copy(), tau_sq=tau_sq, nugget=g)
    return GpModel(
        design=design,
        y_centered=yc,
        y_mean=y_mean,
        hyper=hyper,
        chol=np.ascontiguousarray(low),
        alpha=alpha,
    )


def _nll_and_grad(
    theta: np.ndarray, design: np.ndarray, yc: np.ndarray
) -> tuple[float, np.ndarray]:
    """Concentrated negative log marginal likelihood over log-lengthscales.

    With A = C + g*I, alpha = A^-1 yc and tau_sq = yc' alpha / N profiled in,
    the objective (constants dropped) is N/2 * log(tau_sq) + 1/2 * log|A|, and

        d(nll)/d(theta_p) = -N/2 * (alpha' dA alpha)/(yc' alpha)
                            + 1/2 * tr(A^-1 dA),

    with dA/d(theta_p) = C .* sqdist_p / ls_p elementwise (Rasmussen &
    Williams 2006, eq. 5.9).  Both terms are sums over M .* sqdist_p / ls_p
    with M = (A^-1 / 2 - N/2 * alpha alpha' / (yc' alpha)) .* C, and since M
    is symmetric, sum_ij M_ij (x_ip - x_jp)^2 = 2 * (rowsum(M)' x_p^2 -
    x_p' M x_p): every dimension at once from one product M X.
    """
    n = design.shape[0]
    ls = np.exp(theta)
    corr = _corr(design, design, ls)
    try:
        low, _ = _factor_with_escalation(corr)
    except SurrogateFitError:
        return 1e25, np.zeros_like(theta)
    alpha = _solved(dpotrs(low, yc, lower=1), "dpotrs")
    quad = float(yc @ alpha)
    tau_sq = max(quad / n, TAU_SQ_FLOOR)
    logdet = 2.0 * float(np.log(np.diag(low)).sum())
    nll = 0.5 * n * np.log(tau_sq) + 0.5 * logdet

    m = _solved(dpotrs(low, 0.5 * np.eye(n, order="F"), lower=1, overwrite_b=1), "dpotrs")
    m -= np.outer((0.5 * n / max(quad, n * TAU_SQ_FLOOR)) * alpha, alpha)
    m *= corr
    grad = 2.0 * (m.sum(axis=1) @ design**2 - (design * (m @ design)).sum(axis=0)) / ls
    return nll, grad


def fit(design: np.ndarray, y: np.ndarray, lengthscales: np.ndarray) -> GpModel:
    """Maximum-likelihood lengthscales from a warm start, then `build`.

    Maximizes the concentrated log marginal likelihood of the centered
    outputs over log-lengthscales inside `LENGTHSCALE_BOUNDS`,
    starting from `lengthscales`.  The returned model is never worse
    (in likelihood) than the warm start; lengthscales landing on a box bound
    are legitimate fits for unidentifiable data, not errors.
    """
    design, y = _check_data(design, y)
    if design.shape[0] < 2:
        raise ValueError(f"need at least 2 observations to fit, got {design.shape[0]}")
    lengthscales = _check_lengthscales(lengthscales, design.shape[1])

    lo, hi = LENGTHSCALE_BOUNDS
    yc = y - y.mean()
    theta0 = np.clip(np.log(lengthscales), np.log(lo), np.log(hi))
    values = []

    def nll_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nll, grad = _nll_and_grad(theta, design, yc)
        values.append(nll)
        return nll, grad

    res = minimize(
        nll_and_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(np.log(lo), np.log(hi))] * design.shape[1],
        options={"maxiter": FIT_MAXITER},
    )
    # L-BFGS-B only ever accepts descent steps, but guard against a
    # pathological line search anyway: keep the better of start and result.
    # Its first evaluation is at theta0 (already inside the box).
    theta = res.x
    if not np.isfinite(res.fun) or res.fun > values[0]:
        theta = theta0
    return build(design, y, np.exp(theta))


def _moments(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, ...]:
    """Correlation rows, w = chol^-1 rho', and the predictive mean and sd.

    The queries are checked here, since LAPACK is called unchecked: finite
    queries give finite correlations, and `build` checked the data behind
    the Cholesky factor.
    """
    if not np.isfinite(queries).all():
        raise ValueError("queries must not contain infs or NaNs")
    rho = _corr(queries, model.design, model.hyper.lengthscales)
    mean = model.y_mean + rho @ model.alpha
    # chol.T is the upper factor U = L'; solving U' w = rho' is L w = rho'.
    # This is the call SciPy makes for a C-ordered lower factor, and its bits
    # differ from solving with the Fortran-ordered L itself.
    w = _solved(dtrtrs(model.chol.T, rho.T, lower=0, trans=1), "dtrtrs")
    var = model.hyper.tau_sq * np.maximum(1.0 - (w * w).sum(axis=0), 0.0)
    return rho, w, mean, np.sqrt(var)


def predict(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and latent standard deviation at each query row."""
    queries = np.asarray(queries, dtype=float)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != model.design.shape[1]:
        raise ValueError(
            f"queries must have {model.design.shape[1]} columns, got {queries.shape[1]}"
        )
    _, _, mean, sd = _moments(model, queries)
    return mean, sd


def predict_grad(
    model: GpModel, query: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Mean, sd and their gradients (d mean / dx, d sd / dx) at one query point.

    The moments are computed exactly as `predict` computes them, from the
    same correlation row, so they match it bit for bit.
    """
    query = np.asarray(query, dtype=float).reshape(1, -1)
    rho, w, mean, sd = _moments(model, query)
    # d rho_i / d x_p = rho_i * (-2 (x_p - X_ip) / ls_p)
    j = rho.T * (-2.0 * (query - model.design) / model.hyper.lengthscales)
    dmean = j.T @ model.alpha
    if sd[0] <= 0.0:
        return float(mean[0]), 0.0, dmean, np.zeros_like(dmean)
    # d var / dx = -2 tau_sq * j' A^-1 rho, and A^-1 rho = chol^-T w = U^-1 w
    v = _solved(dtrtrs(model.chol.T, w[:, 0], lower=0, trans=0), "dtrtrs")
    return float(mean[0]), float(sd[0]), dmean, -model.hyper.tau_sq * (j.T @ v) / sd[0]
