import numpy as np
import pytest
from scipy.spatial.distance import cdist

from vorbo.nn_index import Metric, distance


def test_frozen_values_345_triangle():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert distance(Metric.L1, a, b) == 7.0
    assert distance(Metric.L2, a, b) == 5.0
    assert distance(Metric.LINF, a, b) == 4.0


def test_matches_scipy_minkowski():
    # `distance` is bit for bit the arithmetic of `nearest_batch`'s query, so
    # a pair of distances decides what a query would (the walk's upper ends
    # rest on this).  NumPy's pairwise `.sum` rounds differently from P = 8
    rng = np.random.default_rng(11)
    for dim in (1, 6, 7, 8, 10, 100, 101):
        queries = 3.0 * rng.random((30, dim)) - 1.0  # most lie outside the cube
        points = rng.random((40, dim))
        # exact ties at the centre: for x in [1/2, 3/4], 1 - x and both gaps
        # to 1/2 are exact, so x and its partial mirror tie under any order;
        # x reversed ties with x in exact arithmetic only
        x = 0.5 + 0.25 * rng.random((10, dim))
        mirror = np.where(rng.random((10, dim)) < 0.5, 1.0 - x, x)
        queries = np.vstack([queries, np.full((1, dim), 0.5), np.zeros((1, dim))])
        points = np.vstack([points, x, mirror, x[:, ::-1]])
        for metric in Metric:
            want = cdist(queries, points, "minkowski", p=metric.p)
            got = distance(metric, queries[:, None, :], points[None, :, :])
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(want[-2, 40:50], want[-2, 50:60])


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
