import numpy as np
import pytest
from scipy.spatial import minkowski_distance

from vorbo.nn_index import Metric, distance


def test_frozen_values_345_triangle():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert distance(Metric.L1, a, b) == 7.0
    assert distance(Metric.L2, a, b) == 5.0
    assert distance(Metric.LINF, a, b) == 4.0


def test_matches_scipy_minkowski():
    rng = np.random.default_rng(11)
    a = rng.random((40, 6))
    b = rng.random((40, 6))
    for metric in Metric:
        np.testing.assert_allclose(
            distance(metric, a, b), minkowski_distance(a, b, p=metric.p), rtol=0, atol=0
        )


def test_broadcasting():
    rng = np.random.default_rng(3)
    a = rng.random((5, 1, 3))
    b = rng.random((1, 7, 3))
    assert distance(Metric.L2, a, b).shape == (5, 7)


def test_identity_and_symmetry():
    rng = np.random.default_rng(5)
    x = rng.random((20, 4))
    y = rng.random((20, 4))
    for metric in Metric:
        assert np.all(distance(metric, x, x) == 0.0)
        np.testing.assert_array_equal(distance(metric, x, y), distance(metric, y, x))


def test_triangle_inequality():
    # sub-additivity is what makes the bisection bracket valid downstream
    rng = np.random.default_rng(7)
    a, b, c = rng.random((3, 200, 5))
    for metric in Metric:
        lhs = distance(metric, a, c)
        rhs = distance(metric, a, b) + distance(metric, b, c)
        assert np.all(lhs <= rhs + 1e-12)


def test_diameter_is_attained_at_opposite_corners():
    # P -> (L1, L2, L-inf) diameter of [0, 1]^P
    diameters = {
        1: (1.0, 1.0, 1.0),
        3: (3.0, 1.7320508075688772, 1.0),
        10: (10.0, 3.1622776601683795, 1.0),
    }
    for dim, want in diameters.items():
        for metric, diameter in zip((Metric.L1, Metric.L2, Metric.LINF), want):
            assert distance(metric, np.zeros(dim), np.ones(dim)) == pytest.approx(diameter)
