import math

import numpy as np
import pytest

from vorbo.bench import PROBLEM_NAMES, PROBLEMS, TestProblem, make_problem


# scalar-loop references, written independently of the vectorized module


def _ref_ackley(z):
    a, b, c = 20.0, 0.2, 2.0 * math.pi
    d = len(z)
    s1 = sum(v * v for v in z) / d
    s2 = sum(math.cos(c * v) for v in z) / d
    return -a * math.exp(-b * math.sqrt(s1)) - math.exp(s2) + a + math.e


def _ref_levy(z):
    w = [1.0 + (v - 1.0) / 4.0 for v in z]
    total = math.sin(math.pi * w[0]) ** 2
    for wi in w[:-1]:
        total += (wi - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * wi + 1.0) ** 2)
    total += (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2)
    return total


def _ref_rosenbrock(z):
    return sum(
        100.0 * (z[i + 1] - z[i] ** 2) ** 2 + (1.0 - z[i]) ** 2
        for i in range(len(z) - 1)
    )


def _ref_sinesum(z):
    return sum(math.sin(4.0 * math.pi * (v - 0.5) ** 2) for v in z)


_REFS = {
    "ackley": _ref_ackley,
    "levy": _ref_levy,
    "rosenbrock": _ref_rosenbrock,
    "sinesum2d": _ref_sinesum,
}


def _reference_value(problem: TestProblem, x: np.ndarray) -> float:
    lo, hi = PROBLEMS[problem.name].box
    u = np.array(x, dtype=float)
    if problem.shift is not None:
        u = np.mod(u - problem.shift + 0.5, 1.0)
    return _REFS[problem.name](list(lo + (hi - lo) * u))


@pytest.mark.parametrize("name,dim", [("ackley", 6), ("levy", 5), ("rosenbrock", 4), ("sinesum2d", 2)])
def test_matches_independent_reference(name, dim):
    rng = np.random.default_rng(11)
    problem = make_problem(name, dim, rng)
    points = rng.random((100, dim))
    got = problem.evaluate(points)
    want = np.array([_reference_value(problem, p) for p in points])
    # rtol floor covers summation-order rounding where values reach 1e6
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-14)


def test_ackley_optimum_sits_at_shift():
    problem = make_problem("ackley", 7, np.random.default_rng(3))
    assert problem.shift is not None and problem.shift.shape == (7,)
    assert problem.evaluate(problem.shift) == pytest.approx(0.0, abs=1e-9)
    points = np.random.default_rng(4).random((1000, 7))
    assert (problem.evaluate(points) > 0.0).all()


def test_ackley_translation_wraps_around_the_cube():
    problem = make_problem("ackley", 3, np.random.default_rng(5))
    # modulo translation identifies opposite faces, so all-zeros and all-ones
    # land on the same native point
    np.testing.assert_array_equal(
        problem.evaluate(np.zeros(3)), problem.evaluate(np.ones(3))
    )


def test_levy_native_optimum_is_zero():
    problem = make_problem("levy", 6, np.random.default_rng(6))
    unit_opt = np.full(6, (1.0 - (-10.0)) / 20.0)  # native 1 in [-10, 10]
    assert problem.evaluate(unit_opt) == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_native_optimum_is_zero():
    problem = make_problem("rosenbrock", 5, np.random.default_rng(7))
    unit_opt = np.full(5, (1.0 - (-5.0)) / 15.0)  # native 1 in [-5, 10]
    assert problem.evaluate(unit_opt) == pytest.approx(0.0, abs=1e-12)


def test_sinesum_is_two_dimensional_only():
    problem = make_problem("sinesum2d", 2, np.random.default_rng(8))
    assert problem.evaluate(np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="2-D"):
        make_problem("sinesum2d", 3, np.random.default_rng(8))


@pytest.mark.parametrize("name,dim", [("ackley", 4), ("levy", 4), ("rosenbrock", 4), ("sinesum2d", 2)])
def test_known_best_bounds_all_values(name, dim):
    # 0.0, the best value `vorbo problems` lists for every problem
    problem = make_problem(name, dim, np.random.default_rng(9))
    values = problem.evaluate(np.random.default_rng(10).random((500, dim)))
    assert values.min() >= 0.0


def test_evaluation_is_deterministic():
    problem = make_problem("ackley", 5, np.random.default_rng(12))
    x = np.random.default_rng(13).random(5)
    np.testing.assert_array_equal(problem.evaluate(x), problem.evaluate(x))


def test_rng_consumed_only_by_ackley():
    rng_a = np.random.default_rng(14)
    make_problem("levy", 3, rng_a)
    make_problem("rosenbrock", 3, rng_a)
    make_problem("sinesum2d", 2, rng_a)
    rng_b = np.random.default_rng(14)
    np.testing.assert_array_equal(rng_a.random(4), rng_b.random(4))

    rng_c = np.random.default_rng(15)
    shift_one = make_problem("ackley", 3, rng_c).shift
    shift_two = make_problem("ackley", 3, np.random.default_rng(15)).shift
    np.testing.assert_array_equal(shift_one, shift_two)


def test_batch_and_single_point_agree():
    problem = make_problem("levy", 3, np.random.default_rng(16))
    points = np.random.default_rng(17).random((8, 3))
    batched = problem.evaluate(points)
    assert batched.shape == (8,)
    singles = np.array([problem.evaluate(p) for p in points])
    np.testing.assert_array_equal(batched, singles)


def test_configuration_errors():
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("sphere", 3, rng)
    with pytest.raises(ValueError, match="dim"):
        make_problem("ackley", 0, rng)
    problem = make_problem("ackley", 3, rng)
    with pytest.raises(ValueError, match="dimensions"):
        problem.evaluate(np.zeros(4))


def test_problem_names_registry():
    assert set(PROBLEM_NAMES) == {"ackley", "levy", "rosenbrock", "sinesum2d"}
