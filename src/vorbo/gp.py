"""Constant-mean Gaussian-process surrogate with an ARD squared-exponential kernel.

The kernel is k(a, b) = tau_sq * exp(-sum_p (a_p - b_p)^2 / ls_p); every
correlation comes from the one evaluator `_corr`.  The signal scale tau_sq is
profiled out of the likelihood in closed form, so fitting optimizes only the
log-lengthscales (box-constrained quasi-Newton ascent with an analytic
gradient, all dimensions from one matrix product with the inverse
correlation matrix, which `dpotri` forms from the likelihood's Cholesky
factor).  A small relative nugget keeps factorizations positive definite on
deterministic data; predictions report the latent-function standard
deviation, so at a training input the sd collapses to roughly
sqrt(nugget * tau_sq).  `predict_grad` gives the moments and their gradients
at one point from a single correlation row.  The batch pass in `predict`
reuses its correlation block, with no other C x N temporary: the solve
writes w over it and w is squared in place.

Every factorization, inverse and solve calls LAPACK (`scipy.linalg.lapack`)
directly: at the sizes a BO run reaches (N in the tens) SciPy's wrappers
cost more than the work they wrap.  The wrappers' finiteness checks move to
the entry points instead: `build` and `fit` reject non-finite designs and
outputs, and the predictive pass rejects non-finite queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

#: Floor applied to the profiled signal variance.  Constant outputs would
#: otherwise collapse tau_sq to zero and flatten every downstream
#: acquisition surface.
TAU_SQ_FLOOR = 1e-12

#: Lengthscale box, the start of a cell's first fit, and L-BFGS-B's iteration cap.
LENGTHSCALE_BOUNDS = (1e-3, 10.0)
LENGTHSCALE_START = 0.5
FIT_MAXITER = 100

#: Jitter added to the correlation matrix: NUGGET first, escalated tenfold
#: up to NUGGET_MAX before a factorization is declared impossible.
NUGGET = 1e-8
NUGGET_MAX = 1e-4

#: What `_nll_and_grad` returns, with a zero gradient, where no nugget factors C.
_UNFACTORABLE_NLL = 1e25


class SurrogateFitError(RuntimeError):
    """Raised when no positive-definite factorization can be produced."""


@dataclass
class GpModel:
    """Fitted surrogate state.

    `chol` is the lower Cholesky factor of the unit-scale matrix C + g*I
    (correlations plus g = `nugget`), so tau_sq * (chol @ chol.T) gives the
    kernel matrix plus effective jitter; `alpha` is (C + g*I)^-1 applied to
    the centered outputs.  `chol` is C-contiguous, so `chol.T` is the
    Fortran-ordered upper factor that `dtrtrs` reads without a copy.
    """

    design: np.ndarray
    y_mean: float
    lengthscales: np.ndarray
    tau_sq: float
    nugget: float
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
    round below zero, as the expanded form |a|^2 + |b|^2 - 2ab can.  The
    distance block is negated and exponentiated in place, and a design
    passed as both `a` and `b` is scaled once.
    """
    scale = np.sqrt(lengthscales)
    a = a / scale
    d = cdist(a, a if b is a else b / scale, "sqeuclidean")
    return np.exp(np.negative(d, d), d)  # in place; `out` by position parses faster


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


def _profiled(design: np.ndarray, yc: np.ndarray, lengthscales: np.ndarray) -> tuple:
    """Correlations C, the factor of A = C + g*I, g, alpha = A^-1 yc, yc' alpha, tau_sq."""
    corr = _corr(design, design, lengthscales)
    low, g = _factor_with_escalation(corr)
    alpha = _solved(dpotrs(low, yc, lower=1), "dpotrs")
    quad = float(yc @ alpha)
    return corr, low, g, alpha, quad, max(quad / design.shape[0], TAU_SQ_FLOOR)


def build(design: np.ndarray, y: np.ndarray, lengthscales: np.ndarray) -> GpModel:
    """Assemble a model at fixed lengthscales; tau_sq is profiled from the data."""
    design, y = _check_data(design, y)
    lengthscales = _check_lengthscales(lengthscales, design.shape[1])

    y_mean = float(y.mean())
    _, low, g, alpha, _, tau_sq = _profiled(design, y - y_mean, lengthscales)
    return GpModel(
        design=design,
        y_mean=y_mean,
        lengthscales=lengthscales.copy(),
        tau_sq=tau_sq,
        nugget=g,
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
    Williams 2006, eq. 5.9).  Together the terms are half the sum over
    M .* sqdist_p / ls_p with M = (A^-1 - N * alpha alpha' / (yc' alpha)) .* C,
    and since M is symmetric, sum_ij M_ij (x_ip - x_jp)^2 = 2 * (rowsum(M)'
    x_p^2 - x_p' M x_p): every dimension at once from one product M X.
    sqdist_p vanishes on the diagonal, so M's diagonal is set to zero first:
    kept, its terms cancel between rowsum(M)' x_p^2 and x_p' M x_p, exactly
    in exact arithmetic but catastrophically in floating point wherever A^-1
    is large.
    """
    n = design.shape[0]
    ls = np.exp(theta)
    try:
        corr, low, _, alpha, quad, tau_sq = _profiled(design, yc, ls)
    except SurrogateFitError:
        return _UNFACTORABLE_NLL, np.zeros_like(theta)
    logdet = 2.0 * float(np.log(np.diag(low)).sum())
    nll = 0.5 * n * np.log(tau_sq) + 0.5 * logdet

    # dpotri writes A^-1's lower triangle over the factor, whose upper
    # triangle `clean` zeroed: adding the transpose mirrors it, doubling
    # only the diagonal, which is zeroed below
    inv = _solved(dpotri(low, lower=1, overwrite_c=1), "dpotri")
    m = inv + inv.T
    m -= np.outer((n / max(quad, n * TAU_SQ_FLOOR)) * alpha, alpha)
    m *= corr
    m.flat[:: n + 1] = 0.0
    grad = (m.sum(axis=1) @ design**2 - (design * (m @ design)).sum(axis=0)) / ls
    return nll, grad


def fit(design: np.ndarray, y: np.ndarray, lengthscales: np.ndarray) -> GpModel:
    """Maximum-likelihood lengthscales from a warm start, then `build`.

    Maximizes the concentrated log marginal likelihood of the centered
    outputs over log-lengthscales inside `LENGTHSCALE_BOUNDS`,
    starting from `lengthscales`.  The returned model is never worse
    (in likelihood) than the warm start; lengthscales landing on a box bound
    are legitimate fits for unidentifiable data, not errors.  Raises
    `SurrogateFitError` when the warm start's correlations cannot be factored.
    """
    design, y = _check_data(design, y)
    if design.shape[0] < 2:
        raise ValueError(f"need at least 2 observations to fit, got {design.shape[0]}")
    lengthscales = _check_lengthscales(lengthscales, design.shape[1])

    lo, hi = LENGTHSCALE_BOUNDS
    yc = y - y.mean()
    theta0 = np.clip(np.log(lengthscales), np.log(lo), np.log(hi))
    # Neither this search nor `acquisition.multistart_opt` reads L-BFGS-B's
    # result: after an abnormal line-search stop it restores x to the last
    # iterate but reports the last trial's fun.  Each keeps the best point its
    # objective evaluated (a copy: SciPy may reuse the array), ties to the first.
    best_nll, best_theta = np.inf, theta0

    def nll_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_nll, best_theta
        nll, grad = _nll_and_grad(theta, design, yc)
        if nll < best_nll:
            best_nll, best_theta = nll, theta.copy()
        return nll, grad

    minimize(
        nll_and_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(np.log(lo), np.log(hi))] * design.shape[1],
        options={"maxiter": FIT_MAXITER},
    )
    # the first evaluation is at theta0 (inside the box): a start that cannot
    # be factored stops L-BFGS-B there, and `build` could only fail again
    if best_nll == _UNFACTORABLE_NLL:
        raise SurrogateFitError("correlation matrix at the warm start cannot be factored")
    return build(design, y, np.exp(best_theta))


def _moments(model: GpModel, queries: np.ndarray, keep: bool = False) -> tuple:
    """Correlation rows, w = chol^-1 rho', and the predictive mean and sd.

    Unless `keep`, w overwrites the correlation block (rho' is Fortran-ordered,
    so the solve needs no copy) and is squared in place: only the mean and sd
    come back meaningful.  The queries are checked here, for `predict` and
    `predict_grad` alike, since LAPACK is called unchecked: P-column finite
    queries give finite correlations, and `build` checked the data behind the
    Cholesky factor.
    """
    if queries.shape[1] != model.design.shape[1]:
        raise ValueError(
            f"queries must have {model.design.shape[1]} columns, got {queries.shape[1]}"
        )
    if not np.isfinite(queries).all():
        raise ValueError("queries must not contain infs or NaNs")
    rho = _corr(queries, model.design, model.lengthscales)
    mean = model.y_mean + rho @ model.alpha
    # chol.T is the upper factor U = L'; solving U' w = rho' is L w = rho'.
    # This is the call SciPy makes for a C-ordered lower factor, and its bits
    # differ from solving with the Fortran-ordered L itself.  Both solves pass
    # (lower, trans) by position: f2py parses keywords slowly for one row.
    w = _solved(dtrtrs(model.chol.T, rho.T, 0, 1, overwrite_b=not keep), "dtrtrs")
    sq = w * w if keep else np.multiply(w, w, out=w)
    var = model.tau_sq * np.maximum(1.0 - sq.sum(axis=0), 0.0)
    return rho, w, mean, np.sqrt(var)


def predict(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and latent standard deviation at each query row."""
    _, _, mean, sd = _moments(model, np.atleast_2d(np.asarray(queries, dtype=float)))
    return mean, sd


def predict_grad(
    model: GpModel, query: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Mean, sd and their gradients (d mean / dx, d sd / dx) at one query point.

    The moments are computed exactly as `predict` computes them, from the
    same correlation row, so they match it bit for bit.
    """
    query = np.asarray(query, dtype=float).reshape(1, -1)
    rho, w, (mean,), (sd,) = _moments(model, query, keep=True)
    # d rho_i / d x_p = rho_i * (-2 (x_p - X_ip) / ls_p)
    j = rho.T * (-2.0 * (query - model.design) / model.lengthscales)
    dmean = j.T @ model.alpha
    if sd <= 0.0:
        return float(mean), 0.0, dmean, np.zeros_like(dmean)
    # d var / dx = -2 tau_sq * j' A^-1 rho, and A^-1 rho = chol^-T w = U^-1 w
    v = _solved(dtrtrs(model.chol.T, w[:, 0], 0, 0), "dtrtrs")
    return float(mean), float(sd), dmean, -model.tau_sq * (j.T @ v) / sd
