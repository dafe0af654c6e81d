import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

from vorbo import acquisition, gp
from vorbo.acquisition import (
    SD_FLOOR,
    AcqResult,
    argmax_discrete,
    ei,
    ei_and_grad,
    ei_values,
    multistart_opt,
)
from vorbo.sampling import lhs


def _toy_model(seed=0, n=20, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sin(4.0 * np.pi * (X - 0.5) ** 2).sum(axis=1)
    return gp.fit(X, y, np.full(dim, 0.5)), X, y


# ------------------------------ ei_values -----------------------------------


def test_frozen_closed_form_values():
    vals = ei_values(
        np.array([-0.2, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]), y_min=0.0
    )
    assert vals[0] == pytest.approx(0.2, abs=1e-12)
    assert vals[1] == pytest.approx(0.3989422804, abs=1e-6)
    assert vals[2] == pytest.approx(0.0833154706, abs=1e-6)
    assert vals[2] == pytest.approx(norm.pdf(1.0) - norm.cdf(-1.0), abs=1e-12)


def test_matches_monte_carlo():
    rng = np.random.default_rng(42)
    draws = 200_000
    for mu, sigma, y_min in [(1.0, 1.0, 0.0), (-0.5, 0.3, 0.0), (2.0, 2.5, 1.0)]:
        samples = np.maximum(y_min - rng.normal(mu, sigma, size=draws), 0.0)
        estimate = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(draws)
        value = ei_values(np.array([mu]), np.array([sigma]), y_min)[0]
        assert abs(value - estimate) <= 3.0 * se


def test_zero_sd_branches():
    vals = ei_values(np.array([0.5, -0.5]), np.zeros(2), y_min=0.0)
    np.testing.assert_array_equal(vals, [0.0, 0.5])


def test_nonnegative_even_far_above_incumbent():
    vals = ei_values(np.array([50.0, 500.0]), np.array([0.1, 1e-9]), y_min=0.0)
    assert (vals >= 0.0).all()
    assert (np.isfinite(vals)).all()


def test_monotone_in_mean_and_sd():
    mus = np.linspace(-3.0, 3.0, 61)
    vals = ei_values(mus, np.ones_like(mus), y_min=0.0)
    assert (np.diff(vals) <= 1e-15).all()

    sds = np.linspace(0.0, 3.0, 61)
    for mu in (-1.0, 0.0, 2.0):
        vals = ei_values(np.full_like(sds, mu), sds, y_min=0.0)
        assert (np.diff(vals) >= -1e-15).all()


def _z_grid():
    rng = np.random.default_rng(30)
    return np.concatenate(
        [np.linspace(-40.0, 40.0, 8001), rng.uniform(-40, 40, 20_000), [-0.0, 1e-300, -1e-300]]
    )


def test_ei_values_equal_the_scipy_stats_closed_form_bit_for_bit():
    z = _z_grid()
    rng = np.random.default_rng(31)
    sds = 10.0 ** rng.uniform(-9.0, 2.0, z.size)
    y_min = 0.25
    means = y_min - z * sds
    # the SD_FLOOR branch: sds at and below the floor, on both sides of y_min
    sds[:200] = rng.choice([0.0, SD_FLOOR, 0.5 * SD_FLOOR], 200)
    live = sds > SD_FLOOR
    imp = y_min - means
    expected = np.maximum(imp, 0.0)
    zl = imp[live] / sds[live]
    expected[live] = np.maximum(imp[live] * norm.cdf(zl) + sds[live] * norm.pdf(zl), 0.0)
    assert ei_values(means, sds, y_min).tobytes() == expected.tobytes()


def test_normal_cdf_and_density_equal_scipy_stats_on_scalars():
    # `ei_and_grad` evaluates both at one z, a scalar, where a NumPy float's
    # `** 2` can round differently from the array square `norm.pdf` takes
    for z in _z_grid()[::5]:
        for scalar in (np.float64(z), float(z)):
            assert acquisition.ndtr(scalar) == norm.cdf(scalar)
            assert acquisition._npdf(scalar) == norm.pdf(scalar)


def test_gradient_equals_the_scipy_stats_chain_bit_for_bit():
    model, X, y = _toy_model(32)
    y_min = float(y.min())
    for x in [*X[:5], *np.random.default_rng(33).random((200, 2))]:
        mean, sd, dmean, dsd = gp.predict_grad(model, x)
        grad = ei_and_grad(model, x, y_min)[1]
        if sd > SD_FLOOR:
            z = (y_min - mean) / sd
            expected = -norm.cdf(z) * dmean + norm.pdf(z) * dsd
        else:
            expected = -dmean if mean < y_min else np.zeros_like(dmean)
        assert grad.tobytes() == expected.tobytes()


def test_ei_composes_predict_with_closed_form():
    model, X, y = _toy_model(1)
    q = np.random.default_rng(2).random((40, 2))
    mean, sd = gp.predict(model, q)
    np.testing.assert_array_equal(ei(model, q, y.min()), ei_values(mean, sd, y.min()))


# --------------------------- argmax_discrete --------------------------------


def test_argmax_agrees_with_direct_scan():
    model, X, y = _toy_model(3)
    cands = np.random.default_rng(4).random((100, 2))
    res = argmax_discrete(model, cands, y.min())
    vals = ei(model, cands, y.min())
    best = int(np.argmax(vals))
    np.testing.assert_array_equal(res.point, cands[best])
    assert res.acq_value == vals[best]
    assert res.evaluations == 100


def test_argmax_tie_takes_first_occurrence():
    model, X, y = _toy_model(5)
    row = np.array([[0.31, 0.62]])
    cands = np.repeat(row, 6, axis=0)
    res = argmax_discrete(model, cands, y.min())
    np.testing.assert_array_equal(res.point, row[0])


def test_argmax_single_candidate():
    model, X, y = _toy_model(6)
    res = argmax_discrete(model, np.array([[0.5, 0.5]]), y.min())
    np.testing.assert_array_equal(res.point, [0.5, 0.5])
    assert res.evaluations == 1


def test_argmax_rejects_empty_set():
    model, X, y = _toy_model(7)
    with pytest.raises(ValueError, match="empty"):
        argmax_discrete(model, np.empty((0, 2)), y.min())


def test_distant_candidate_beats_training_point():
    rng = np.random.default_rng(10)
    X = 0.1 + 0.2 * rng.random((12, 2))
    y = rng.standard_normal(12)
    model = gp.fit(X, y, np.full(2, 0.2))
    training_point = X[int(np.argmin(y))]
    res = argmax_discrete(model, np.vstack([training_point, [0.9, 0.9]]), y.min())
    np.testing.assert_array_equal(res.point, [0.9, 0.9])


# ------------------------------ ei_and_grad ---------------------------------


def test_gradient_matches_finite_differences():
    model, X, y = _toy_model(11, n=25)
    y_min = float(y.min())
    rng = np.random.default_rng(12)
    h = 1e-6
    checked = 0
    for q in rng.random((200, 2)):
        if ei(model, q[None, :], y_min)[0] < 1e-6:
            continue
        grad = ei_and_grad(model, q, y_min)[1]
        fd = np.empty(2)
        for p in range(2):
            step = np.zeros(2)
            step[p] = h
            fd[p] = (
                ei(model, (q + step)[None, :], y_min)[0]
                - ei(model, (q - step)[None, :], y_min)[0]
            ) / (2.0 * h)
        scale = max(float(np.linalg.norm(fd)), 1e-8)
        assert np.linalg.norm(grad - fd) <= 1e-4 * scale
        checked += 1
        if checked == 50:
            break
    assert checked == 50


def test_gradient_zero_sd_branch_is_finite():
    model, X, y = _toy_model(13)
    grad = ei_and_grad(model, X[0], y.min() - 1.0)[1]
    assert np.isfinite(grad).all()


def test_value_is_ei_bit_for_bit():
    model, X, y = _toy_model(19)
    y_min = float(y.min())
    for x in [*X[:5], *np.random.default_rng(20).random((50, 2))]:
        assert ei_and_grad(model, x, y_min)[0] == ei(model, x[None, :], y_min)[0]


def _ei_and_grad_before(model, query, y_min):
    """The oracle: `ei_and_grad` as first written, the value through
    `ei_values` on one-element lists and Phi and phi taken again for the
    gradient."""
    mean, sd, dmean, dsd = gp.predict_grad(model, query)
    value = float(ei_values([mean], [sd], y_min)[0])
    if sd > SD_FLOOR:
        z = (y_min - mean) / sd
        return value, -acquisition.ndtr(z) * dmean + acquisition._npdf(z) * dsd
    return value, -dmean if mean < y_min else np.zeros_like(dmean)


def _assert_same_bits(got, want):
    assert type(got[0]) is type(want[0]) is float
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def test_value_and_gradient_equal_the_oracle_where_sd_is_live():
    for seed, dim in ((50, 2), (51, 5)):
        model, X, y = _toy_model(seed, n=8 * dim, dim=dim)
        points = [*X[:5], *np.random.default_rng(seed).random((300, dim))]
        # y_min below, at and above the data, and a NumPy float
        for y_min in (y.min() - 1.0, float(y.min()), float(y.max()) + 1.0, y.min() + 0.5):
            for x in points:
                _assert_same_bits(ei_and_grad(model, x, y_min), _ei_and_grad_before(model, x, y_min))


@pytest.mark.parametrize("sd", [0.0, 0.5 * SD_FLOOR, SD_FLOOR, np.nextafter(SD_FLOOR, 1.0)])
def test_value_and_gradient_equal_the_oracle_about_the_sd_floor(monkeypatch, sd):
    # the moments are set directly, so each branch is reached exactly: sd at
    # or below the floor with the mean above, at and below y_min, and a -0.0
    # improvement (y_min = -0.0, mean = 0.0), which must clamp to 0.0
    dmean, dsd = np.array([0.25, -1.5]), np.array([-0.75, 2.0])
    for mean, y_min in ((1.0, 0.5), (0.5, 0.5), (0.25, 0.5), (0.0, -0.0), (-3.0, np.float64(2.0))):
        monkeypatch.setattr(gp, "predict_grad", lambda model, query: (mean, float(sd), dmean, dsd))
        got, want = ei_and_grad(None, None, y_min), _ei_and_grad_before(None, None, y_min)
        _assert_same_bits(got, want)
        assert np.signbit(got[0]) == np.signbit(want[0])


@pytest.mark.parametrize("seed, n, dim", [(60, 20, 2), (61, 12, 3), (62, 30, 1), (63, 25, 5)])
def test_multistart_equals_the_oracle_ascent(monkeypatch, seed, n, dim):
    model, X, y = _toy_model(seed, n=n, dim=dim)
    args = (model, float(y.min()), X[int(np.argmin(y))])
    res = multistart_opt(*args, np.random.default_rng(seed))
    monkeypatch.setattr(acquisition, "ei_and_grad", _ei_and_grad_before)
    want = multistart_opt(*args, np.random.default_rng(seed))
    assert res.point.tobytes() == want.point.tobytes()
    assert np.float64(res.acq_value).tobytes() == np.float64(want.acq_value).tobytes()
    assert res.evaluations == want.evaluations


# ----------------------------- multistart_opt -------------------------------


def test_symmetric_surface_peaks_at_center():
    design = np.array([[0.0], [1.0]])
    model = gp.build(design, np.array([1.0, 1.0]), np.array([0.5]))
    res = multistart_opt(model, y_min=1.0, incumbent=design[0], rng=np.random.default_rng(14))
    assert abs(res.point[0] - 0.5) <= 1e-2


def test_result_invariants_and_improvement_over_incumbent():
    model, X, y = _toy_model(15)
    incumbent = X[int(np.argmin(y))]
    res = multistart_opt(model, float(y.min()), incumbent, np.random.default_rng(16))
    assert isinstance(res, AcqResult)
    assert res.acq_value >= 0.0
    assert ((res.point >= 0.0) & (res.point <= 1.0)).all()
    assert res.acq_value >= ei(model, incumbent[None, :], float(y.min()))[0] - 1e-12
    assert res.evaluations >= 5  # one objective call per start at least


def test_beats_dense_uniform_probing():
    # EI over this toy surface is multimodal, so a finite multistart cannot
    # dominate dense probing on every draw; this frozen setup is one where the
    # restarts do reach the global basin and the ascent beats every probe
    model, X, y = _toy_model(23, n=10)
    y_min = float(y.min())
    res = multistart_opt(model, y_min, X[int(np.argmin(y))], np.random.default_rng(24))
    probes = np.random.default_rng(25).random((10_000, 2))
    assert res.acq_value + 1e-12 >= ei(model, probes, y_min).max()


def test_multistart_determinism():
    model, X, y = _toy_model(20)
    a = multistart_opt(model, float(y.min()), X[0], np.random.default_rng(21))
    b = multistart_opt(model, float(y.min()), X[0], np.random.default_rng(21))
    np.testing.assert_array_equal(a.point, b.point)
    assert a.acq_value == b.acq_value
    assert a.evaluations == b.evaluations


def _reference_multistart(model, y_min, incumbent, rng):
    """The loop with an explicit `ei` call at each start, ahead of the ascent.

    Every value seen is kept, in order, and the first of the largest wins.
    """
    dim = model.design.shape[1]
    starts = [np.asarray(incumbent, dtype=float).reshape(-1), *lhs(2 * dim, dim, rng)]
    seen = []  # (EI, point)
    calls = 0

    def objective(x):
        nonlocal calls
        calls += 1
        value, grad = ei_and_grad(model, x, y_min)
        seen.append((value, x.copy()))
        return -value, -grad

    for x0 in starts:
        x0 = np.clip(x0, 0.0, 1.0)
        seen.append((float(ei(model, x0[None, :], y_min)[0]), x0))
        minimize(
            objective, x0, jac=True, method="L-BFGS-B", bounds=[(0.0, 1.0)] * dim,
            options={"maxiter": 200, "gtol": 1e-8, "ftol": 1e-16},
        )
    value, point = seen[int(np.argmax([v for v, _ in seen]))]
    return point, value, calls


@pytest.mark.parametrize(
    "seed, n, dim, shift",
    [(40, 20, 2, 0.0), (41, 12, 3, -0.5), (42, 30, 1, 0.0), (43, 15, 4, 0.3), (24, 30, 4, 0.0)],
)
def test_multistart_equals_the_explicit_start_ei_loop(seed, n, dim, shift):
    model, X, y = _toy_model(seed, n=n, dim=dim)
    y_min = float(y.min()) + shift
    # an incumbent off the cube exercises the clipped start
    incumbent = X[int(np.argmin(y))] + 0.7
    res = multistart_opt(model, y_min, incumbent, np.random.default_rng(seed))
    point, value, calls = _reference_multistart(
        model, y_min, incumbent, np.random.default_rng(seed)
    )
    assert res.point.tobytes() == point.tobytes()
    assert res.acq_value == value
    assert res.evaluations == calls


@pytest.mark.parametrize("seed, n, dim", [(24, 30, 4), (39, 30, 4), (60, 20, 2), (63, 25, 5)])
def test_multistart_returns_the_best_ei_it_evaluated(monkeypatch, seed, n, dim):
    # L-BFGS-B can end on a line search that failed: it then reports the last
    # trial's value for the previous iterate, and neither is the best seen
    model, X, y = _toy_model(seed, n=n, dim=dim)
    y_min = float(y.min())
    evaluated = []

    def recorded(*args):
        value, grad = ei_and_grad(*args)
        evaluated.append(value)
        return value, grad

    monkeypatch.setattr(acquisition, "ei_and_grad", recorded)
    res = multistart_opt(model, y_min, X[int(np.argmin(y))], np.random.default_rng(seed))
    want = ei(model, res.point[None, :], y_min)[0]
    assert np.float64(res.acq_value).tobytes() == want.tobytes()
    assert max(evaluated) <= res.acq_value


def test_multistart_copies_the_point_it_keeps(monkeypatch):
    # an optimizer may move the array it passes in place between evaluations;
    # this one ends each search at a point it never evaluated
    def in_place(objective, x0, **kwargs):
        x = x0.copy()
        for _ in range(2):
            objective(x)
            x *= 0.5

    monkeypatch.setattr(acquisition, "minimize", in_place)
    model, X, y = _toy_model(24, n=30, dim=4)
    y_min = float(y.min())
    res = multistart_opt(model, y_min, X[int(np.argmin(y))], np.random.default_rng(24))
    assert res.acq_value == ei(model, res.point[None, :], y_min)[0]
    assert res.evaluations == 2 * (2 * 4 + 1)


def test_a_flat_surface_returns_the_incumbent():
    # every EI is exactly 0 far above the incumbent: ties go to the earliest
    # point evaluated, which is the (clipped) incumbent
    model, X, y = _toy_model(25)
    incumbent = X[int(np.argmin(y))] + 0.7
    res = multistart_opt(model, float(y.min()) - 1e6, incumbent, np.random.default_rng(26))
    assert res.acq_value == 0.0
    assert res.point.tobytes() == np.clip(incumbent, 0.0, 1.0).tobytes()


def test_evaluations_count_objective_calls_and_starts_cost_none(monkeypatch):
    model, X, y = _toy_model(44)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return ei_and_grad(*args)

    def no_start_ei(*args):
        raise AssertionError("multistart_opt evaluated a start outside the ascent")

    monkeypatch.setattr(acquisition, "ei_and_grad", counted)
    monkeypatch.setattr(acquisition, "ei", no_start_ei)
    res = multistart_opt(model, float(y.min()), X[0], np.random.default_rng(45))
    assert res.evaluations == calls > 5
