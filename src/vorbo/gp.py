"""Constant-mean Gaussian-process surrogate with an ARD squared-exponential kernel.

The kernel is k(a, b) = tau_sq * exp(-sum_p (a_p - b_p)^2 / ls_p).  The signal
scale tau_sq is profiled out of the likelihood in closed form, so fitting
optimizes only the log-lengthscales (box-constrained quasi-Newton ascent with
an analytic gradient).  A small relative nugget keeps factorizations positive
definite on deterministic data; predictions report the latent-function
standard deviation, so at a training input the sd collapses to roughly
sqrt(nugget * tau_sq).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

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

    def validate(self, dim: int) -> None:
        ls = np.asarray(self.lengthscales, dtype=float)
        if ls.shape != (dim,):
            raise ValueError(f"lengthscales must have shape ({dim},), got {ls.shape}")
        if not (np.isfinite(ls).all() and (ls > 0).all()):
            raise ValueError("lengthscales must be finite and strictly positive")
        if not (self.tau_sq > 0 and self.nugget > 0):
            raise ValueError("tau_sq and nugget must be strictly positive")


@dataclass
class GpModel:
    """Fitted surrogate state.

    `chol` is the lower Cholesky factor of the unit-scale matrix C + g*I
    (correlations plus nugget), so tau_sq * (chol @ chol.T) reproduces the
    kernel matrix plus effective jitter; `alpha` is (C + g*I)^-1 applied to
    the centered outputs.
    """

    design: np.ndarray
    y_centered: np.ndarray
    y_mean: float
    hyper: GpHyper
    chol: np.ndarray
    alpha: np.ndarray


def kernel(hyper: GpHyper, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tau_sq * exp(-sum_p (a_p - b_p)^2 / ls_p), broadcasting over leading axes."""
    ls = np.asarray(hyper.lengthscales, dtype=float)
    if (ls <= 0).any():
        raise ValueError("lengthscales must be strictly positive")
    d2 = (np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) ** 2
    return hyper.tau_sq * np.exp(-(d2 / ls).sum(axis=-1))


def _corr_matrix(design: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Unit-scale correlation matrix exp(-sum_p (x_ip - x_jp)^2 / ls_p)."""
    n = design.shape[0]
    s = np.zeros((n, n))
    for p in range(design.shape[1]):
        col = design[:, p]
        s += (col[:, None] - col[None, :]) ** 2 / lengthscales[p]
    np.exp(-s, out=s)
    return s


def _cross_corr(design: np.ndarray, queries: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Unit-scale correlations between M queries and N design points (M x N)."""
    s = np.zeros((queries.shape[0], design.shape[0]))
    for p in range(design.shape[1]):
        s += (queries[:, p, None] - design[None, :, p]) ** 2 / lengthscales[p]
    np.exp(-s, out=s)
    return s


def _factor_with_escalation(corr: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky of corr + g*I, escalating g tenfold from NUGGET until it succeeds."""
    g = NUGGET
    while True:
        try:
            low, _ = cho_factor(corr + g * np.eye(corr.shape[0]), lower=True)
            return np.tril(low), g
        except np.linalg.LinAlgError:
            pass
        if g >= NUGGET_MAX:
            raise SurrogateFitError(
                f"correlation matrix not positive definite at jitter {g:g}"
            )
        g = min(g * 10.0, NUGGET_MAX)


def build(design: np.ndarray, y: np.ndarray, lengthscales: np.ndarray) -> GpModel:
    """Assemble a model at fixed lengthscales; tau_sq is profiled from the data."""
    design = np.ascontiguousarray(design, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if design.ndim != 2 or design.shape[0] != y.shape[0]:
        raise ValueError(
            f"design {design.shape} and outputs {y.shape} have mismatched lengths"
        )
    if not np.isfinite(y).all():
        raise ValueError("outputs must be finite")
    lengthscales = np.asarray(lengthscales, dtype=float)

    y_mean = float(y.mean())
    yc = y - y_mean
    corr = _corr_matrix(design, lengthscales)
    low, g = _factor_with_escalation(corr)
    alpha = cho_solve((low, True), yc)
    tau_sq = max(float(yc @ alpha) / y.shape[0], TAU_SQ_FLOOR)
    hyper = GpHyper(lengthscales=lengthscales.copy(), tau_sq=tau_sq, nugget=g)
    return GpModel(
        design=design,
        y_centered=yc,
        y_mean=y_mean,
        hyper=hyper,
        chol=low,
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

    with dA/d(theta_p) = C .* sqdist_p / ls_p elementwise.
    """
    n = design.shape[0]
    ls = np.exp(theta)
    corr = _corr_matrix(design, ls)
    try:
        low, _ = _factor_with_escalation(corr)
    except SurrogateFitError:
        return 1e25, np.zeros_like(theta)
    alpha = cho_solve((low, True), yc)
    quad = float(yc @ alpha)
    tau_sq = max(quad / n, TAU_SQ_FLOOR)
    logdet = 2.0 * float(np.log(np.diag(low)).sum())
    nll = 0.5 * n * np.log(tau_sq) + 0.5 * logdet

    a_inv = cho_solve((low, True), np.eye(n))
    denom = max(quad, n * TAU_SQ_FLOOR)
    grad = np.empty_like(theta)
    for p in range(design.shape[1]):
        col = design[:, p]
        d_a = corr * ((col[:, None] - col[None, :]) ** 2 / ls[p])
        grad[p] = -0.5 * n * float(alpha @ d_a @ alpha) / denom + 0.5 * float(
            (a_inv * d_a).sum()
        )
    return nll, grad


def fit(design: np.ndarray, y: np.ndarray, init: GpHyper) -> GpModel:
    """Maximum-likelihood lengthscales from a warm start, then `build`.

    Maximizes the concentrated log marginal likelihood of the centered
    outputs over log-lengthscales inside `LENGTHSCALE_BOUNDS`,
    starting from `init.lengthscales`.  The returned model is never worse
    (in likelihood) than the warm start; lengthscales landing on a box bound
    are legitimate fits for unidentifiable data, not errors.
    """
    design = np.ascontiguousarray(design, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if design.shape[0] < 2:
        raise ValueError(f"need at least 2 observations to fit, got {design.shape[0]}")
    init.validate(design.shape[1])

    lo, hi = LENGTHSCALE_BOUNDS
    yc = y - y.mean()
    theta0 = np.clip(np.log(np.asarray(init.lengthscales, dtype=float)), np.log(lo), np.log(hi))
    res = minimize(
        _nll_and_grad,
        theta0,
        args=(design, yc),
        jac=True,
        method="L-BFGS-B",
        bounds=[(np.log(lo), np.log(hi))] * design.shape[1],
        options={"maxiter": FIT_MAXITER},
    )
    # L-BFGS-B only ever accepts descent steps, but guard against a
    # pathological line search anyway: keep the better of start and result.
    theta = res.x
    if not np.isfinite(res.fun) or res.fun > _nll_and_grad(theta0, design, yc)[0]:
        theta = theta0
    return build(design, y, np.exp(theta))


def predict(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and latent standard deviation at each query row."""
    queries = np.asarray(queries, dtype=float)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != model.design.shape[1]:
        raise ValueError(
            f"queries must have {model.design.shape[1]} columns, got {queries.shape[1]}"
        )
    rho = _cross_corr(model.design, queries, model.hyper.lengthscales)
    mean = model.y_mean + rho @ model.alpha
    w = solve_triangular(model.chol, rho.T, lower=True)
    var = model.hyper.tau_sq * np.maximum(1.0 - (w * w).sum(axis=0), 0.0)
    return mean, np.sqrt(var)


def predict_grad(model: GpModel, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d mean / dx, d sd / dx) at a single query point."""
    query = np.asarray(query, dtype=float).reshape(-1)
    ls = model.hyper.lengthscales
    rho = _cross_corr(model.design, query[None, :], ls)[0]
    # d rho_i / d x_p = rho_i * (-2 (x_p - X_ip) / ls_p)
    j = rho[:, None] * (-2.0 * (query[None, :] - model.design) / ls[None, :])
    dmean = j.T @ model.alpha
    w = cho_solve((model.chol, True), rho)
    var = model.hyper.tau_sq * max(1.0 - float(rho @ w), 0.0)
    sd = np.sqrt(var)
    if sd <= 0.0:
        return dmean, np.zeros_like(query)
    dvar = -2.0 * model.hyper.tau_sq * (j.T @ w)
    return dmean, dvar / (2.0 * sd)
