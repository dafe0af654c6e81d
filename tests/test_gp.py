import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import OptimizeResult
from scipy.spatial.distance import cdist

from oracles import dense_gp
from vorbo import gp
from vorbo.gp import SurrogateFitError


# Oracles: the surrogate's linear algebra written with SciPy's checked
# wrappers. gp calls LAPACK directly and must give the same bits, except in
# the likelihood gradient, which takes A^-1 from dpotri rather than from
# cho_solve on the identity and is held to the per-dimension loop instead.


def _scipy_factor(corr):
    g = gp.NUGGET
    while True:
        try:
            low, _ = cho_factor(corr + g * np.eye(corr.shape[0]), lower=True)
            return np.tril(low), g
        except np.linalg.LinAlgError:
            if g >= gp.NUGGET_MAX:
                raise SurrogateFitError("not positive definite") from None
            g = min(g * 10.0, gp.NUGGET_MAX)


def _scipy_nll_and_grad(theta, design, yc):
    n = design.shape[0]
    ls = np.exp(theta)
    corr = gp._corr(design, design, ls)
    low, _ = _scipy_factor(corr)
    alpha = cho_solve((low, True), yc)
    quad = float(yc @ alpha)
    tau_sq = max(quad / n, gp.TAU_SQ_FLOOR)
    logdet = 2.0 * float(np.log(np.diag(low)).sum())
    nll = 0.5 * n * np.log(tau_sq) + 0.5 * logdet
    m = cho_solve((low, True), 0.5 * np.eye(n))
    m -= np.outer((0.5 * n / max(quad, n * gp.TAU_SQ_FLOOR)) * alpha, alpha)
    m *= corr
    grad = 2.0 * (m.sum(axis=1) @ design**2 - (design * (m @ design)).sum(axis=0)) / ls
    return nll, grad


def _scipy_moments(model, queries):
    low = np.ascontiguousarray(model.chol)
    rho = gp._corr(queries, model.design, model.lengthscales)
    mean = model.y_mean + rho @ model.alpha
    w = solve_triangular(low, rho.T, lower=True)
    sd = np.sqrt(model.tau_sq * np.maximum(1.0 - (w * w).sum(axis=0), 0.0))
    return low, rho, w, mean, sd


def _scipy_predict_grad(model, query):
    query = query.reshape(1, -1)
    low, rho, w, mean, sd = _scipy_moments(model, query)
    j = rho.T * (-2.0 * (query - model.design) / model.lengthscales)
    v = solve_triangular(low, w[:, 0], lower=True, trans="T")
    return mean[0], sd[0], j.T @ model.alpha, -model.tau_sq * (j.T @ v) / sd[0]


def _random_problem(rng, n):
    dim = int(rng.integers(1, 21))
    X = rng.random((n, dim))
    y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(n)
    theta = rng.uniform(np.log(0.05), np.log(5.0), size=dim)
    return X, y, theta


ORACLE_SIZES = [2, 3, 5, 8, 13, 21, 34, 55, 80]


def _fit_data(seed, n=25, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sin(3.0 * X[:, 0]) + 0.5 * np.cos(5.0 * X.sum(axis=1))
    return X, y


# ------------------------------- kernel -------------------------------------


def test_kernel_frozen_values():
    origin = np.zeros((1, 2))
    assert gp._corr(origin, origin, np.ones(2))[0, 0] == 1.0
    assert gp._corr(origin, np.array([[1.0, 0.0]]), np.ones(2))[0, 0] == pytest.approx(
        np.exp(-1.0), rel=1e-12
    )
    assert gp._corr(origin, np.ones((1, 2)), np.array([0.5, 2.0]))[0, 0] == pytest.approx(
        np.exp(-2.5), rel=1e-12
    )


def test_kernel_diagonal_is_one_and_symmetric():
    X = np.random.default_rng(15).random((30, 5))
    c = gp._corr(X, X, np.array([0.01, 0.3, 1.0, 4.0, 9.0]))
    assert (np.diag(c) == 1.0).all()
    np.testing.assert_array_equal(c, c.T)


@pytest.mark.parametrize("dim", [1, 5, 20, 100])
def test_kernel_is_bit_equal_to_the_out_of_place_expression(dim):
    # _corr negates and exponentiates its distance block in place, and scales
    # a shared design once; neither may move a bit
    rng = np.random.default_rng([23, dim])
    a, b = rng.random((40, dim)), rng.random((17, dim))
    ls = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=dim))
    s = np.sqrt(ls)
    assert np.array_equal(gp._corr(a, b, ls), np.exp(-cdist(a / s, b / s, "sqeuclidean")))
    c = gp._corr(a, a, ls)
    assert np.array_equal(c, np.exp(-cdist(a / s, a / s, "sqeuclidean")))
    assert (np.diag(c) == 1.0).all()


def test_kernel_vanishes_at_large_separation():
    assert gp._corr(np.zeros((1, 3)), np.full((1, 3), 50.0), np.full(3, 0.1))[0, 0] < 1e-300


@pytest.mark.parametrize(
    "lengthscales",
    [[0.5], [-0.5, 0.5], [np.nan, 0.5]],
    ids=["wrong-shape", "negative", "nan"],
)
def test_bad_lengthscales_are_rejected(lengthscales):
    X, y = _fit_data(16, n=10)
    with pytest.raises(ValueError, match="lengthscales"):
        gp.build(X, y, lengthscales)
    with pytest.raises(ValueError, match="lengthscales"):
        gp.fit(X, y, lengthscales)


# ------------------------------- predict ------------------------------------


def test_moments_match_dense_oracle():
    # lengthscales kept short enough that the correlation matrix stays
    # well-conditioned at N = 20, so both solve orders agree to round-off
    rng = np.random.default_rng(77)
    for n in (3, 8, 20):
        X = rng.random((n, 3))
        y = rng.standard_normal(n)
        model = gp.build(X, y, np.array([0.05, 0.08, 0.12]))
        queries = rng.random((15, 3))
        mean, sd = gp.predict(model, queries)
        _, o_mean, o_sd = dense_gp(X, y, model.lengthscales, model.nugget, queries)
        np.testing.assert_allclose(mean, o_mean, atol=1e-10, rtol=0)
        np.testing.assert_allclose(sd, o_sd, atol=1e-10, rtol=0)


def test_interpolation_at_training_points():
    X, y = _fit_data(1)
    model = gp.fit(X, y, np.full(2, 0.5))
    mean, sd = gp.predict(model, X)
    tau = np.sqrt(model.tau_sq)
    assert np.abs(mean - y).max() < 1e-4
    assert sd.max() <= 1e-3 * tau


def test_sd_at_training_points_bounded_by_nugget():
    X, y = _fit_data(2)
    model = gp.fit(X, y, np.full(2, 0.5))
    _, sd = gp.predict(model, X)
    bound = np.sqrt(model.nugget * model.tau_sq) + 1e-8
    assert (sd <= bound).all()


def test_far_query_reverts_to_prior():
    X, y = _fit_data(3)
    model = gp.build(X, y, np.full(2, 0.05))
    mean, sd = gp.predict(model, np.full((1, 2), 80.0))
    assert mean[0] == pytest.approx(model.y_mean, abs=1e-9)
    assert sd[0] == pytest.approx(np.sqrt(model.tau_sq), rel=1e-9)


def test_predictive_variance_nonnegative_and_deterministic():
    X, y = _fit_data(4, n=40)
    model = gp.fit(X, y, np.full(2, 0.5))
    q = np.random.default_rng(5).random((200, 2))
    m1, s1 = gp.predict(model, q)
    m2, s2 = gp.predict(model, q)
    assert (s1 >= 0.0).all()
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(s1, s2)


def test_predict_has_no_side_effects_and_ignores_the_query_layout():
    # the benchmark's scoring shape: N=79, P=20, C=2000; the batch pass
    # overwrites its own correlation block, and nothing else
    rng = np.random.default_rng(24)
    X = rng.random((79, 20))
    model = gp.build(X, np.sin(3.0 * X).sum(axis=1), np.full(20, 2.0))
    wide = rng.random((4000, 40))
    strided = wide[::2, 1::2]
    queries = np.ascontiguousarray(strided)
    fields = ("design", "chol", "alpha", "lengthscales")
    before = [getattr(model, f).tobytes() for f in fields]
    *_, ref_mean, ref_sd = _scipy_moments(model, queries)
    for q in (queries, np.asfortranarray(queries), strided, queries):
        snapshot = q.tobytes()
        mean, sd = gp.predict(model, q)
        assert np.array_equal(mean, ref_mean) and np.array_equal(sd, ref_sd)
        assert q.tobytes() == snapshot
    assert [getattr(model, f).tobytes() for f in fields] == before


@pytest.mark.parametrize("width", [1, 4])
def test_predict_grad_rejects_a_query_of_the_wrong_length(width):
    # a length-1 query would otherwise broadcast against the 3 lengthscales
    X, y = _fit_data(7, dim=3)
    model = gp.build(X, y, np.full(3, 0.5))
    with pytest.raises(ValueError, match="queries must have 3 columns"):
        gp.predict_grad(model, np.full(width, 0.3))
    with pytest.raises(ValueError, match="queries must have 3 columns"):
        gp.predict(model, np.full(width, 0.3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_are_rejected(bad):
    # LAPACK is called without finiteness checks, so the moments check once
    X, y = _fit_data(7)
    model = gp.build(X, y, np.full(2, 0.5))
    queries = np.random.default_rng(8).random((5, 2))
    queries[3, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp.predict(model, queries)
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp.predict_grad(model, queries[3])


def test_factorization_reproduces_kernel_matrix():
    X, y = _fit_data(6)
    ls = np.array([0.3, 1.2])
    model = gp.build(X, y, ls)
    k_full = model.tau_sq * np.exp(-(((X[:, None, :] - X[None, :, :]) ** 2) / ls).sum(-1))
    reconstructed = model.tau_sq * (model.chol @ model.chol.T)
    target = k_full + model.tau_sq * model.nugget * np.eye(len(X))
    assert np.abs(reconstructed - target).max() <= 1e-8


# --------------------------------- fit --------------------------------------


def test_likelihood_gradient_matches_finite_differences():
    X, y = _fit_data(8, n=18, dim=3)
    yc = y - y.mean()
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(20):
        theta = rng.uniform(np.log(0.05), np.log(5.0), size=3)
        _, grad = gp._nll_and_grad(theta, X, yc)
        for p in range(3):
            step = np.zeros(3)
            step[p] = h
            f_plus = gp._nll_and_grad(theta + step, X, yc)[0]
            f_minus = gp._nll_and_grad(theta - step, X, yc)[0]
            fd = (f_plus - f_minus) / (2.0 * h)
            assert abs(grad[p] - fd) <= 1e-4 * max(1.0, abs(fd))


def _loop_gradient(theta, X, yc):
    """Oracle: the textbook gradient, one dA/dtheta_p at a time, with the
    nugget gp picks and A^-1 from np.linalg.inv."""
    n, dim = X.shape
    ls = np.exp(theta)
    corr = np.exp(-(((X[:, None, :] - X[None, :, :]) ** 2) / ls).sum(-1))
    low, _ = gp._factor_with_escalation(corr)
    a_inv = np.linalg.inv(low @ low.T)
    alpha = a_inv @ yc
    ref = np.empty(dim)
    for p in range(dim):
        d_a = corr * (X[:, p, None] - X[None, :, p]) ** 2 / ls[p]
        ref[p] = -0.5 * n * (alpha @ d_a @ alpha) / (yc @ alpha) + 0.5 * (a_inv * d_a).sum()
    return ref


@pytest.mark.parametrize("n, dim", [(18, 3), (60, 20), (300, 100)])
def test_likelihood_gradient_matches_per_dimension_loop(n, dim):
    # the single-product form must agree with the loop up to round-off; at
    # (300, 100) M's diagonal, if kept, cancels to a relative error of 31
    X, y = _fit_data(17, n=n, dim=dim)
    yc = y - y.mean()
    rng = np.random.default_rng(18)
    for _ in range(5):
        theta = rng.uniform(np.log(0.05), np.log(5.0), size=dim)
        ref = _loop_gradient(theta, X, yc)
        _, grad = gp._nll_and_grad(theta, X, yc)
        assert np.abs(grad - ref).max() <= 1e-10 * np.abs(ref).max()


def test_fit_improves_on_warm_start():
    X, y = _fit_data(10, n=30)
    init = np.full(2, 5.0)
    model = gp.fit(X, y, init)
    yc = y - y.mean()
    nll_fit = gp._nll_and_grad(np.log(model.lengthscales), X, yc)[0]
    nll_init = gp._nll_and_grad(np.log(init), X, yc)[0]
    assert nll_fit <= nll_init + 1e-9


@pytest.mark.parametrize("warm", [0.01, 0.5, 5.0])
def test_fit_evaluates_the_likelihood_once_per_optimizer_evaluation(warm, monkeypatch):
    # the fit keeps the lowest likelihood the optimizer evaluated, the first
    # of them at the warm start, and builds there
    thetas, nlls, nfevs = [], [], []
    real_nll, real_minimize = gp._nll_and_grad, gp.minimize

    def counting_nll(theta, *args):
        thetas.append(theta.copy())
        nll, grad = real_nll(theta, *args)
        nlls.append(nll)
        return nll, grad

    def recording_minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        nfevs.append(res.nfev)
        return res

    monkeypatch.setattr(gp, "_nll_and_grad", counting_nll)
    monkeypatch.setattr(gp, "minimize", recording_minimize)
    X, y = _fit_data(13, n=40, dim=5)
    model = gp.fit(X, y, np.full(5, warm))
    assert len(nfevs) == 1 and len(thetas) == nfevs[0]
    np.testing.assert_array_equal(thetas[0], np.log(np.full(5, warm)))
    best = int(np.argmin(nlls))  # ties to the first
    assert model.lengthscales.tobytes() == np.exp(thetas[best]).tobytes()


@pytest.mark.parametrize("fun", [1e30, np.nan, -1e30])
def test_fit_keeps_the_warm_start_when_the_optimizer_ends_worse(fun, monkeypatch):
    # an abnormal line-search stop can return a point, and a value, other
    # than those of the best point evaluated; `fit` reads neither.  The
    # iterate moves in place, as an optimizer may move the array it passes.
    # In the second case the design's second coordinate is constant, so a
    # step in theta_2 alone gives the same NLL bit for bit: of two equal
    # points, `fit` keeps the first.
    X, y = _fit_data(14)
    tied = X.copy()
    tied[:, 1] = 0.5
    init = np.full(2, 0.5)
    for design, step in ((X, np.array([1.0, 1.0])), (tied, np.array([0.0, 1.0]))):
        nlls = []

        def worse(objective, x0, **kwargs):
            x = x0.copy()
            nlls.append(objective(x)[0])
            x += step
            nlls.append(objective(x)[0])
            return OptimizeResult(x=x, fun=fun, nfev=2, success=False)

        monkeypatch.setattr(gp, "minimize", worse)
        model = gp.fit(design, y, init)
        assert nlls[1] > nlls[0] if design is X else nlls[1] == nlls[0]
        np.testing.assert_array_equal(model.lengthscales, np.exp(np.log(init)))


def test_fit_recovers_known_lengthscale():
    # draws from a 1D GP whose correlation length is 0.3 (the kernel parameter
    # divides squared distance, so that is ls = 0.3**2) and checks the fitted
    # correlation length sqrt(ls_hat) lands near the truth
    true_corr_len = 0.3
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        X = rng.random((60, 1))
        c = np.exp(-((X - X.T) ** 2) / true_corr_len**2) + 1e-10 * np.eye(60)
        y = np.linalg.cholesky(c) @ rng.standard_normal(60)
        model = gp.fit(X, y, np.ones(1))
        if 0.15 <= np.sqrt(model.lengthscales[0]) <= 0.6:
            hits += 1
    assert hits >= 90


def test_unidentifiable_data_hits_box_bound():
    # with two centered observations the profile likelihood is monotone in the
    # pair correlation, so the optimizer rides it to a box edge instead of an
    # interior optimum; this must be an ordinary answer, not an error
    X = np.array([[0.0], [0.3]])
    y = np.array([0.0, 5.0])
    model = gp.fit(X, y, np.ones(1))
    lo, hi = gp.LENGTHSCALE_BOUNDS
    ls = model.lengthscales[0]
    assert ls == pytest.approx(lo, rel=1e-6) or ls == pytest.approx(hi, rel=1e-6)
    mean, sd = gp.predict(model, np.array([[0.15]]))
    assert np.isfinite(mean[0]) and np.isfinite(sd[0])


def test_constant_outputs_keep_model_usable():
    X = np.array([[0.0], [1.0]])
    y = np.array([2.0, 2.0])
    model = gp.fit(X, y, np.ones(1))
    assert model.tau_sq == gp.TAU_SQ_FLOOR
    mean, sd = gp.predict(model, np.array([[0.5]]))
    assert mean[0] == pytest.approx(2.0)
    assert np.isfinite(sd[0]) and sd[0] >= 0.0


@pytest.mark.parametrize("where", ["design", "outputs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_before_any_factorization(where, bad, monkeypatch):
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the likelihood search started on non-finite data")

    monkeypatch.setattr(gp, "minimize", no_optimizer)
    X, y = _fit_data(19, n=10)
    with pytest.raises(ValueError, match="mismatched lengths"):
        gp.build(X, y[:-1], np.full(2, 0.5))
    if where == "design":
        X[4, 1] = bad
    else:
        y[6] = bad
    with pytest.raises(ValueError, match=f"{where} must be finite"):
        gp.build(X, y, np.full(2, 0.5))
    with pytest.raises(ValueError, match=f"{where} must be finite"):
        gp.fit(X, y, np.full(2, 0.5))


def test_fit_requires_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        gp.fit(np.array([[0.5]]), np.array([1.0]), np.ones(1))


def test_fit_raises_only_when_its_start_fails_to_factor(monkeypatch):
    # a factorization that fails everywhere but at the start, or only there
    X, y = _fit_data(20, n=12)
    start = np.full(2, 0.5)
    start_corr = gp._corr(X, X, np.exp(np.log(start)))  # the lengthscales fit evaluates
    real = gp._factor_with_escalation

    calls = []

    def factor(fails_at_start):
        def call(corr):
            calls.append(corr)
            if np.array_equal(corr, start_corr) == fails_at_start:
                raise SurrogateFitError("synthetic failure")
            return real(corr)

        return call

    monkeypatch.setattr(gp, "_factor_with_escalation", factor(False))
    nll, grad = gp._nll_and_grad(np.log(start) + 1.0, X, y - y.mean())
    assert nll == gp._UNFACTORABLE_NLL and np.array_equal(grad, np.zeros(2))
    model = gp.fit(X, y, start)
    np.testing.assert_array_equal(model.lengthscales, np.exp(np.log(start)))

    # a start that fails is tried once: no `build` climbs its ladder again
    monkeypatch.setattr(gp, "_factor_with_escalation", factor(True))
    calls.clear()
    with pytest.raises(SurrogateFitError, match="warm start cannot be factored"):
        gp.fit(X, y, start)
    assert len(calls) == 1


def test_escalation_gives_up_on_indefinite_matrix():
    not_a_corr = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(SurrogateFitError):
        gp._factor_with_escalation(not_a_corr)


def test_escalation_succeeds_at_an_intermediate_nugget():
    # eigenvalue -5e-8: indefinite at the first nugget 1e-8, definite at 1e-7
    corr = np.array([[1.0, 1.0 + 5e-8], [1.0 + 5e-8, 1.0]])
    low, g = gp._factor_with_escalation(corr)
    assert g == pytest.approx(1e-7, rel=1e-12)
    np.testing.assert_allclose(low @ low.T, corr + g * np.eye(2), rtol=0, atol=1e-15)
    ref_low, ref_g = _scipy_factor(corr)
    assert g == ref_g and np.array_equal(low, ref_low)


def test_mirrored_dpotri_inverse_matches_inv_at_an_escalated_nugget():
    # the likelihood gradient's A^-1: dpotri overwrites the factor's lower
    # triangle, the upper stays as `clean` zeroed it, and adding the
    # transpose gives A^-1 with only its diagonal doubled
    n = 30
    X = np.random.default_rng(23).random((n, 2))
    corr = gp._corr(X, X, np.full(2, 0.5))
    corr -= (np.linalg.eigvalsh(corr)[0] + 5e-6) * np.eye(n)  # smallest eigenvalue -5e-6
    low, g = gp._factor_with_escalation(corr)
    assert g == pytest.approx(1e-5, rel=1e-12)
    inv, info = dpotri(low, lower=1, overwrite_c=1)
    assert info == 0 and not np.triu(inv, 1).any()
    mirrored = inv + inv.T
    np.testing.assert_array_equal(np.diag(mirrored), 2.0 * np.diag(inv))
    a = corr + g * np.eye(n)
    ref = np.linalg.inv(a)
    tol = np.linalg.cond(a) * np.finfo(float).eps * np.abs(ref).max()
    off = ~np.eye(n, dtype=bool)
    assert np.abs(mirrored - ref)[off].max() <= tol
    assert np.abs(np.diag(inv) - np.diag(ref)).max() <= tol


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_factorization_is_bit_equal_to_cho_factor(n):
    rng = np.random.default_rng([20, n])
    for _ in range(5):
        X, _, theta = _random_problem(rng, n)
        corr = gp._corr(X, X, np.exp(theta))
        low, g = gp._factor_with_escalation(corr)
        ref_low, ref_g = _scipy_factor(corr)
        assert g == ref_g
        assert np.array_equal(low, ref_low)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_likelihood_is_bit_equal_to_cho_solve_form(n):
    rng = np.random.default_rng([21, n])
    for _ in range(5):
        X, y, theta = _random_problem(rng, n)
        yc = y - y.mean()
        nll, grad = gp._nll_and_grad(theta, X, yc)
        ref_nll, ref_grad = _scipy_nll_and_grad(theta, X, yc)
        assert nll == ref_nll
        # the gradient takes A^-1 from dpotri, so its bits differ from the
        # cho_solve form's; it must be as close to the loop as that form is
        loop = _loop_gradient(theta, X, yc)
        ref_err = np.abs(ref_grad - loop).max()
        assert np.abs(grad - loop).max() <= max(2.0 * ref_err, 1e-12 * np.abs(loop).max())


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_predictions_are_bit_equal_to_solve_triangular(n):
    rng = np.random.default_rng([22, n])
    for _ in range(5):
        X, y, theta = _random_problem(rng, n)
        model = gp.build(X, y, np.exp(theta))
        assert model.chol.flags.c_contiguous
        queries = rng.random((7, X.shape[1]))
        *_, ref_mean, ref_sd = _scipy_moments(model, queries)
        mean, sd = gp.predict(model, queries)
        assert np.array_equal(mean, ref_mean) and np.array_equal(sd, ref_sd)
        for got, ref in zip(gp.predict_grad(model, queries[0]), _scipy_predict_grad(model, queries[0])):
            assert np.array_equal(got, ref)


def test_fit_determinism():
    X, y = _fit_data(12)
    a = gp.fit(X, y, np.full(2, 0.5))
    b = gp.fit(X, y, np.full(2, 0.5))
    np.testing.assert_array_equal(a.lengthscales, b.lengthscales)
    assert a.tau_sq == b.tau_sq


# ---------------------------- predict_grad ----------------------------------


def test_moment_gradients_match_finite_differences():
    X, y = _fit_data(13, n=20)
    model = gp.fit(X, y, np.full(2, 0.5))
    rng = np.random.default_rng(14)
    h = 1e-6
    for q in rng.random((25, 2)):
        mean, sd, dmean, dsd = gp.predict_grad(model, q)
        m0, s0 = gp.predict(model, q[None, :])
        assert mean == m0[0] and sd == s0[0]
        for p in range(2):
            step = np.zeros(2)
            step[p] = h
            mp, sp = gp.predict(model, (q + step)[None, :])
            mm, sm = gp.predict(model, (q - step)[None, :])
            fd_mean = (mp[0] - mm[0]) / (2 * h)
            fd_sd = (sp[0] - sm[0]) / (2 * h)
            assert abs(dmean[p] - fd_mean) <= 1e-5 * max(1.0, abs(fd_mean))
            assert abs(dsd[p] - fd_sd) <= 1e-4 * max(1.0, abs(fd_sd))


def test_zero_sd_gives_a_zero_sd_gradient():
    X, y = _fit_data(21, n=10)
    model = gp.build(X, y, np.full(2, 0.5))
    flat = dataclasses.replace(model, tau_sq=0.0)
    q = np.array([0.3, 0.7])
    mean, _, dmean, _ = gp.predict_grad(model, q)
    flat_mean, sd, flat_dmean, dsd = gp.predict_grad(flat, q)
    assert sd == 0.0 and np.array_equal(dsd, np.zeros(2))
    assert flat_mean == mean and np.array_equal(flat_dmean, dmean)
