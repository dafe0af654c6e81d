import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from vorbo import gp
from vorbo.gp import SurrogateFitError


def _dense_moments(model, queries):
    """Oracle: explicit inverse of the full covariance, no Cholesky reuse.

    Builds K = tau^2 * C and the effective jitter tau^2 * g directly from the
    stored hyperparameters and inverts densely; valid only at small N.
    """
    X = model.design
    ls = model.hyper.lengthscales
    tau_sq = model.hyper.tau_sq
    g = model.hyper.nugget

    def k(a, b):
        return tau_sq * np.exp(-(((a[:, None, :] - b[None, :, :]) ** 2) / ls).sum(-1))

    big_k = k(X, X) + tau_sq * g * np.eye(X.shape[0])
    k_star = k(np.atleast_2d(queries), X)
    inv = np.linalg.inv(big_k)
    mean = model.y_mean + k_star @ inv @ model.y_centered
    var = tau_sq - np.einsum("ij,jk,ik->i", k_star, inv, k_star)
    return mean, np.sqrt(np.maximum(var, 0.0))


# Oracles: the surrogate's linear algebra written with SciPy's checked
# wrappers. gp calls LAPACK directly and must give the same bits.


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
    rho = gp._corr(queries, model.design, model.hyper.lengthscales)
    mean = model.y_mean + rho @ model.alpha
    w = solve_triangular(low, rho.T, lower=True)
    sd = np.sqrt(model.hyper.tau_sq * np.maximum(1.0 - (w * w).sum(axis=0), 0.0))
    return low, rho, w, mean, sd


def _scipy_predict_grad(model, query):
    query = query.reshape(1, -1)
    low, rho, w, mean, sd = _scipy_moments(model, query)
    j = rho.T * (-2.0 * (query - model.design) / model.hyper.lengthscales)
    v = solve_triangular(low, w[:, 0], lower=True, trans="T")
    return mean[0], sd[0], j.T @ model.alpha, -model.hyper.tau_sq * (j.T @ v) / sd[0]


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
        o_mean, o_sd = _dense_moments(model, queries)
        np.testing.assert_allclose(mean, o_mean, atol=1e-10, rtol=0)
        np.testing.assert_allclose(sd, o_sd, atol=1e-10, rtol=0)


def test_interpolation_at_training_points():
    X, y = _fit_data(1)
    model = gp.fit(X, y, np.full(2, 0.5))
    mean, sd = gp.predict(model, X)
    tau = np.sqrt(model.hyper.tau_sq)
    assert np.abs(mean - y).max() < 1e-4
    assert sd.max() <= 1e-3 * tau


def test_sd_at_training_points_bounded_by_nugget():
    X, y = _fit_data(2)
    model = gp.fit(X, y, np.full(2, 0.5))
    _, sd = gp.predict(model, X)
    bound = np.sqrt(model.hyper.nugget * model.hyper.tau_sq) + 1e-8
    assert (sd <= bound).all()


def test_far_query_reverts_to_prior():
    X, y = _fit_data(3)
    model = gp.build(X, y, np.full(2, 0.05))
    mean, sd = gp.predict(model, np.full((1, 2), 80.0))
    assert mean[0] == pytest.approx(model.y_mean, abs=1e-9)
    assert sd[0] == pytest.approx(np.sqrt(model.hyper.tau_sq), rel=1e-9)


def test_predictive_variance_nonnegative_and_deterministic():
    X, y = _fit_data(4, n=40)
    model = gp.fit(X, y, np.full(2, 0.5))
    q = np.random.default_rng(5).random((200, 2))
    m1, s1 = gp.predict(model, q)
    m2, s2 = gp.predict(model, q)
    assert (s1 >= 0.0).all()
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(s1, s2)


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
    hyper = model.hyper
    k_full = hyper.tau_sq * np.exp(-(((X[:, None, :] - X[None, :, :]) ** 2) / ls).sum(-1))
    reconstructed = hyper.tau_sq * (model.chol @ model.chol.T)
    target = k_full + hyper.tau_sq * hyper.nugget * np.eye(len(X))
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


@pytest.mark.parametrize("n, dim", [(18, 3), (60, 20)])
def test_likelihood_gradient_matches_per_dimension_loop(n, dim):
    # the textbook form, one dA/dtheta_p at a time, with the nugget gp picks;
    # the single-product form must agree up to round-off
    X, y = _fit_data(17, n=n, dim=dim)
    yc = y - y.mean()
    rng = np.random.default_rng(18)
    for _ in range(5):
        theta = rng.uniform(np.log(0.05), np.log(5.0), size=dim)
        ls = np.exp(theta)
        corr = np.exp(-(((X[:, None, :] - X[None, :, :]) ** 2) / ls).sum(-1))
        low, _ = gp._factor_with_escalation(corr)
        a_inv = np.linalg.inv(low @ low.T)
        alpha = a_inv @ yc
        ref = np.empty(dim)
        for p in range(dim):
            d_a = corr * (X[:, p, None] - X[None, :, p]) ** 2 / ls[p]
            ref[p] = -0.5 * n * (alpha @ d_a @ alpha) / (yc @ alpha) + 0.5 * (a_inv * d_a).sum()
        _, grad = gp._nll_and_grad(theta, X, yc)
        assert np.abs(grad - ref).max() <= 1e-10 * np.abs(ref).max()


def test_fit_improves_on_warm_start():
    X, y = _fit_data(10, n=30)
    init = np.full(2, 5.0)
    model = gp.fit(X, y, init)
    yc = y - y.mean()
    nll_fit = gp._nll_and_grad(np.log(model.hyper.lengthscales), X, yc)[0]
    nll_init = gp._nll_and_grad(np.log(init), X, yc)[0]
    assert nll_fit <= nll_init + 1e-9


@pytest.mark.parametrize("warm", [0.01, 0.5, 5.0])
def test_fit_evaluates_the_likelihood_once_per_optimizer_evaluation(warm, monkeypatch):
    # the guard against ending worse than the warm start reuses the
    # optimizer's first evaluation, which is at the warm start
    thetas, nfevs = [], []
    real_nll, real_minimize = gp._nll_and_grad, gp.minimize

    def counting_nll(theta, *args):
        thetas.append(theta.copy())
        return real_nll(theta, *args)

    def recording_minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        nfevs.append(res.nfev)
        return res

    monkeypatch.setattr(gp, "_nll_and_grad", counting_nll)
    monkeypatch.setattr(gp, "minimize", recording_minimize)
    X, y = _fit_data(13, n=40, dim=5)
    gp.fit(X, y, np.full(5, warm))
    assert len(nfevs) == 1 and len(thetas) == nfevs[0]
    np.testing.assert_array_equal(thetas[0], np.log(np.full(5, warm)))


@pytest.mark.parametrize("fun", [1e30, np.nan])
def test_fit_keeps_the_warm_start_when_the_optimizer_ends_worse(fun, monkeypatch):
    real_minimize = gp.minimize

    def worse(objective, x0, **kwargs):
        res = real_minimize(objective, x0, **kwargs)
        res.x, res.fun = x0 + 1.0, fun
        return res

    monkeypatch.setattr(gp, "minimize", worse)
    X, y = _fit_data(14)
    init = np.full(2, 0.5)
    model = gp.fit(X, y, init)
    np.testing.assert_allclose(model.hyper.lengthscales, init, rtol=1e-15)


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
        if 0.15 <= np.sqrt(model.hyper.lengthscales[0]) <= 0.6:
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
    ls = model.hyper.lengthscales[0]
    assert ls == pytest.approx(lo, rel=1e-6) or ls == pytest.approx(hi, rel=1e-6)
    mean, sd = gp.predict(model, np.array([[0.15]]))
    assert np.isfinite(mean[0]) and np.isfinite(sd[0])


def test_constant_outputs_keep_model_usable():
    X = np.array([[0.0], [1.0]])
    y = np.array([2.0, 2.0])
    model = gp.fit(X, y, np.ones(1))
    assert model.hyper.tau_sq == gp.TAU_SQ_FLOOR
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
        assert np.array_equal(grad, ref_grad)


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
    np.testing.assert_array_equal(a.hyper.lengthscales, b.hyper.lengthscales)
    assert a.hyper.tau_sq == b.hyper.tau_sq


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
