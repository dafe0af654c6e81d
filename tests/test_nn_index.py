import numpy as np
import pytest

from oracles import brute_distances, brute_owner
from vorbo import nn_index
from vorbo.nn_index import Metric


@pytest.mark.parametrize("metric", list(Metric))
def test_random_queries_match_reference(metric):
    rng = np.random.default_rng(42)
    for n, p in [(2, 1), (10, 2), (50, 7), (200, 3)]:
        pts = rng.random((n, p))
        queries = rng.random((100, p)) * 1.4 - 0.2  # include out-of-cube queries
        got = nn_index.nearest_batch(pts, queries, metric)
        np.testing.assert_array_equal(got, brute_owner(pts, queries, metric))


@pytest.mark.parametrize("metric", list(Metric))
def test_exact_ties_resolve_to_smallest_index(metric):
    # midpoints of design-point pairs are equidistant to both endpoints;
    # the index must pick the smaller index, as a scan's first minimum does
    rng = np.random.default_rng(9)
    pts = rng.random((40, 4))
    i = rng.integers(0, 40, size=300)
    j = rng.integers(0, 40, size=300)
    keep = i != j
    mids = 0.5 * (pts[i[keep]] + pts[j[keep]])
    got = nn_index.nearest_batch(pts, mids, metric)
    np.testing.assert_array_equal(got, brute_owner(pts, mids, metric))


def test_duplicate_points_tie():
    pts = np.array([[0.4, 0.4], [0.2, 0.2], [0.2, 0.2]])
    got = nn_index.nearest_batch(pts, np.array([[0.19, 0.21], [0.41, 0.4]]), Metric.L2)
    np.testing.assert_array_equal(got, [1, 0])


def test_queries_at_design_points_return_identity():
    rng = np.random.default_rng(1)
    pts = rng.random((30, 5))
    for metric in Metric:
        np.testing.assert_array_equal(nn_index.nearest_batch(pts, pts, metric), np.arange(30))


def test_single_point_design():
    queries = np.array([[0.0, 0.0], [0.9, 0.1]])
    got = nn_index.nearest_batch(np.array([[0.5, 0.5]]), queries, Metric.LINF)
    np.testing.assert_array_equal(got, [0, 0])


def test_empty_query_batch():
    pts = np.random.default_rng(0).random((4, 3))
    assert nn_index.nearest_batch(pts, np.empty((0, 3)), Metric.L1).shape == (0,)


def test_validation_errors():
    # queries of the wrong width are refused by the scan itself; the points
    # are a design `vorcands` has already checked
    pts = np.random.default_rng(0).random((5, 3))
    with pytest.raises(ValueError, match="same number of columns"):
        nn_index.nearest_batch(pts, np.zeros((4, 2)), Metric.L2)


def test_brute_fallback_chunks_agree(monkeypatch):
    # force the chunked path rows at a time and check it changes nothing
    monkeypatch.setattr(nn_index, "_CHUNK_ELEMS", 8)
    rng = np.random.default_rng(33)
    pts = rng.random((25, 3))
    i = rng.integers(0, 25, size=60)
    j = (i + 1 + rng.integers(0, 24, size=60)) % 25
    mids = 0.5 * (pts[i] + pts[j])
    got = nn_index.nearest_batch(pts, mids, Metric.LINF)
    np.testing.assert_array_equal(got, brute_owner(pts, mids, Metric.LINF))


def _tie_heavy_queries(rng):
    """Points with a repeated row, and queries on pair midpoints (exact ties)."""
    pts = rng.random((40, 4))
    pts[7] = pts[3]
    i, j = rng.integers(0, 40, size=(2, 200))
    return pts, np.vstack([0.5 * (pts[i] + pts[j]), rng.random((50, 4)) * 1.4 - 0.2])


@pytest.mark.parametrize("metric", list(Metric))
def test_runners_up_follow_the_owner_in_order(metric):
    pts, queries = _tie_heavy_queries(np.random.default_rng(12))
    plain = nn_index.nearest_batch(pts, queries, metric)
    got = nn_index.nearest_batch(pts, queries, metric, runners_up=4)
    assert got.shape == (len(queries), 5)
    # column 0 is the plain call's owner, bit for bit, ties included
    assert got[:, 0].tobytes() == plain.tobytes()
    # distinct, never the owner, and the k + 1 smallest distances in order,
    # ties to the smaller index: a stable sort of the brute-force distances
    assert all(len(set(row)) == 5 for row in got.tolist())
    d = brute_distances(pts, queries, metric)
    np.testing.assert_array_equal(got, np.argsort(d, axis=1, kind="stable")[:, :5])
    np.testing.assert_array_equal(np.take_along_axis(d, got, axis=1), np.sort(d, axis=1)[:, :5])


def test_runners_up_clamp_to_the_other_points():
    pts = np.random.default_rng(13).random((5, 3))
    queries = np.random.default_rng(14).random((9, 3))
    for k in (4, 5, 50):
        got = nn_index.nearest_batch(pts, queries, Metric.L2, runners_up=k)
        assert got.shape == (9, 5)
        np.testing.assert_array_equal(np.sort(got, axis=1), np.tile(np.arange(5), (9, 1)))
    # one point has no runner-up; zero runner-ups keep the plain (M,) result
    assert nn_index.nearest_batch(pts[:1], queries, Metric.L1, runners_up=3).shape == (9, 1)
    assert nn_index.nearest_batch(pts, queries, Metric.L1, runners_up=0).shape == (9,)
    assert nn_index.nearest_batch(pts, queries[:0], Metric.L1, runners_up=2).shape == (0, 3)


@pytest.mark.parametrize("metric", list(Metric))
def test_runners_up_agree_across_chunks(metric, monkeypatch):
    pts, queries = _tie_heavy_queries(np.random.default_rng(15))
    whole = nn_index.nearest_batch(pts, queries, metric, runners_up=3)
    monkeypatch.setattr(nn_index, "_CHUNK_ELEMS", 3 * len(pts))  # 3 query rows per block
    np.testing.assert_array_equal(nn_index.nearest_batch(pts, queries, metric, runners_up=3), whole)
