import numpy as np
import pytest
from scipy.spatial import Voronoi

from vorbo import nn_index, vorcands
from vorbo.nn_index import Metric, distance
from vorbo.sampling import lhs
from vorbo.vorcands import (
    BISECTION_ITERS,
    CandidateSet,
    boundary_proportion,
    scheme_final,
    vorwalk,
    walk_sample,
)


def _brute_owner(design: np.ndarray, q: np.ndarray, metric: Metric):
    """First argmin over exact distances — independent of the index module.

    Sums run left to right, the query's arithmetic: NumPy's pairwise `.sum`
    can break a near-tie the other way from P = 8 on.  `q` is one point (an
    index back) or an (M, P) batch (an (M,) array of indices back).
    """
    diff = np.abs(design - np.asarray(q)[..., None, :])
    if metric is Metric.L1:
        d = np.cumsum(diff, axis=-1)[..., -1]
    elif metric is Metric.L2:
        d = np.sqrt(np.cumsum(diff * diff, axis=-1)[..., -1])
    else:
        d = diff.max(axis=-1)
    return d.argmin(axis=-1)


#: The unpatched query and crossing, for tests that patch them.
real_nearest = nn_index.nearest_batch
real_crossing = vorcands._crossing


def _random_batch(design, count, rng):
    n, dim = design.shape
    scale = np.sqrt(dim) * (1 + 1e-9)
    u = rng.standard_normal((count, dim))
    u *= scale / np.sqrt((u * u).sum(axis=1))[:, None]
    return rng.integers(0, n, size=count).astype(np.intp), u


# ------------------------------ vorwalk ------------------------------------


def test_1d_equidistant_midpoint():
    design = np.array([[0.0], [1.0]])
    cs = vorwalk(design, np.array([0]), np.array([[1.0 + 1e-9]]), Metric.L2)
    assert cs.points[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert not cs.boundary_hit[0]
    assert cs.bracket_width == 0.5**BISECTION_ITERS


def test_1d_wall_hit():
    design = np.array([[0.2], [0.8]])
    cs = vorwalk(design, np.array([0]), np.array([[-(1.0 + 1e-9)]]), Metric.L2)
    assert cs.boundary_hit[0]
    assert cs.points[0, 0] == pytest.approx(0.0, abs=1e-8)


def test_2d_diagonal_bisector():
    design = np.array([[0.0, 0.0], [1.0, 1.0]])
    u = np.array([[1.0, 1.0]]) / np.sqrt(2.0) * np.sqrt(2.0) * (1 + 1e-9)
    cs = vorwalk(design, np.array([0]), u, Metric.L2)
    np.testing.assert_allclose(cs.points[0], [0.5, 0.5], atol=1e-8)
    assert not cs.boundary_hit[0]


@pytest.mark.parametrize("metric", list(Metric))
def test_bracket_property(metric):
    rng = np.random.default_rng(100)
    design = rng.random((30, 4))
    cs = vorwalk(design, *_random_batch(design, 150, rng), metric)

    assert np.all(cs.bracket_width == 0.5**BISECTION_ITERS)
    anchors = design[cs.origin]
    t_hi = cs.t_lower + cs.bracket_width
    lo_probe = anchors + cs.t_lower[:, None] * cs.directions
    hi_probe = anchors + t_hi[:, None] * cs.directions
    for c in range(len(cs)):
        assert _brute_owner(design, lo_probe[c], metric) == cs.origin[c]
        if cs.boundary_hit[c]:
            assert t_hi[c] == 1.0  # the bracket never closed
        else:
            assert _brute_owner(design, hi_probe[c], metric) != cs.origin[c]


@pytest.mark.parametrize("metric", list(Metric))
def test_equidistance_of_interior_candidates(metric):
    rng = np.random.default_rng(101)
    design = rng.random((50, 10))
    cs = vorwalk(design, *_random_batch(design, 200, rng), metric)
    # candidates whose bracket closed inside the cube sit on a cell boundary;
    # flagged or clamped ones ran past a wall and land on a face instead
    interior = ~cs.boundary_hit & (cs.points > 0.0).all(axis=1) & (cs.points < 1.0).all(axis=1)
    assert interior.sum() > 20  # sanity: the test exercises something
    # moving the step by one bracket width moves every distance by at most
    # the direction's length under the same metric
    for c in np.flatnonzero(interior):
        tol = 2.0 * cs.bracket_width * distance(metric, np.zeros(10), cs.directions[c])
        d_all = distance(metric, design, cs.points[c][None, :])
        d_origin = d_all[cs.origin[c]]
        others = np.delete(d_all, cs.origin[c])
        assert abs(d_origin - others.min()) <= tol


@pytest.mark.parametrize("metric", list(Metric))
def test_walks_aimed_at_design_points_land_equidistant(metric):
    # a walk aimed at another design point must cross a cell boundary on the
    # open segment between the two, so no walk hits a wall or gets clamped
    rng = np.random.default_rng(105)
    design = rng.random((50, 10))
    origins = rng.integers(0, 50, size=200).astype(np.intp)
    partners = (origins + rng.integers(1, 50, size=200)) % 50
    diff = design[partners] - design[origins]
    scale = np.sqrt(10.0) * (1 + 1e-9) / np.sqrt((diff * diff).sum(axis=1))
    cs = vorwalk(design, origins, diff * scale[:, None], metric)

    assert not cs.boundary_hit.any()
    assert cs.points.min() > 0.0 and cs.points.max() < 1.0
    for c in range(len(cs)):
        d_all = distance(metric, design, cs.points[c][None, :])
        d_origin = d_all[cs.origin[c]]
        others = np.delete(d_all, cs.origin[c])
        assert abs(d_origin - others.min()) <= 1e-6


def test_star_convexity_of_prefix():
    # any sub-step of the accepted lower bound stays in the origin's cell
    rng = np.random.default_rng(102)
    design = rng.random((25, 3))
    origins, directions = _random_batch(design, 40, rng)
    for metric in Metric:
        cs = vorwalk(design, origins, directions, metric)
        for c in range(len(cs)):
            if cs.t_lower[c] == 0.0:
                continue
            for t in rng.random(100) * cs.t_lower[c]:
                probe = design[cs.origin[c]] + t * cs.directions[c]
                assert _brute_owner(design, probe, metric) == cs.origin[c]


@pytest.fixture
def nn_queries(monkeypatch):
    """Every batched nearest-neighbour query vorwalk makes, in order."""
    queries = []

    def recording(points, q, metric):
        queries.append(np.array(q))
        return real_nearest(points, q, metric)

    monkeypatch.setattr(vorcands.nn_index, "nearest_batch", recording)
    return queries


@pytest.fixture
def nn_rows(monkeypatch):
    """Rows of every batched nearest-neighbour query vorwalk makes, in order."""
    rows = []

    def counting(points, queries, metric):
        rows.append(len(queries))
        return real_nearest(points, queries, metric)

    monkeypatch.setattr(vorcands.nn_index, "nearest_batch", counting)
    return rows


@pytest.mark.parametrize("metric", list(Metric))
def test_nn_queries_of_a_hand_checked_walk(metric, nn_rows):
    # from 0 toward 1: the lower end at t = 1 - 2^-K is owned by 1, the jump
    # to the bisector at 0.5 is certified by a second query at its lower
    # end, and the pair (1, 0) settles the upper end without a query
    design = np.array([[0.0], [1.0]])
    cs = vorwalk(design, np.array([0]), np.array([[1.0 + 1e-9]]), metric)
    assert nn_rows == [1, 1]
    assert not cs.uncertified[0] and not cs.boundary_hit[0]
    assert cs.t_lower[0] < 0.5 / (1.0 + 1e-9) < cs.t_lower[0] + cs.bracket_width


def test_blocker_behind_a_tie_is_found_by_certification(nn_rows):
    # origin 2 and point 1 share the coordinate the ray is longest in, so
    # under L-inf they tie (and 1 owns the tie) from t = 1/3 on.  The lower
    # end at t = 1 names 0, whose bisector puts the walk at t = 0.375; the
    # lower end there names 1, and one more jump lands on the cell boundary
    # at 1/3.  Its lower end certifies, and the exact tie of 1 and 2 at the
    # upper end, owned by the smaller index 1, settles that end unqueried
    design = np.array([[0.95, 0.3], [0.5, 0.2], [0.5, 0.5]])
    u = np.array([0.6, -0.3])
    cs = vorwalk(design, np.array([2]), u[None, :], Metric.LINF)
    assert nn_rows == [1, 1, 1]
    assert not cs.uncertified[0] and not cs.boundary_hit[0]
    lo = design[2] + cs.t_lower[0] * u
    hi = design[2] + (cs.t_lower[0] + cs.bracket_width) * u
    assert _brute_owner(design, lo, Metric.LINF) == 2
    assert _brute_owner(design, hi, Metric.LINF) == 1
    np.testing.assert_allclose(cs.points[0], [0.7, 0.4], atol=1e-9)


def _upper_ends(design, cs):
    """The closed upper ends of a walk batch, as the probes vorwalk queries."""
    t_hi = cs.t_lower + cs.bracket_width
    return (design[cs.origin] + t_hi[:, None] * cs.directions)[~cs.boundary_hit]


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("k", [7, 30])
def test_nn_query_rows_per_walk_are_bounded(metric, k, nn_queries, monkeypatch):
    monkeypatch.setattr(vorcands, "BISECTION_ITERS", k)
    rng = np.random.default_rng(103)
    design = rng.random((20, 5))
    cs = vorwalk(design, *_random_batch(design, 64, rng), metric)
    assert cs.bracket_width == 0.5**k
    assert not cs.uncertified.any()
    # each round queries only the live walks' lower ends, so rows never
    # grow, and the upper ends take no query at all
    rows = [len(q) for q in nn_queries]
    upper_ends = {row.tobytes() for row in _upper_ends(design, cs)}
    assert not any(row.tobytes() in upper_ends for q in nn_queries for row in q)
    assert rows[0] == 64 and all(a >= b for a, b in zip(rows, rows[1:]))
    assert len(rows) <= design.shape[0] + 1
    assert sum(rows) <= 6 * 64  # 30 rows per walk under bisection


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("scale", [np.inf, 0.5])
def test_forced_fallback_matches_bisection_bit_for_bit(metric, scale, nn_rows, monkeypatch):
    # scaling every crossing by inf stops each walk at t = 1, where walks
    # that really leave their cell fail the lower end's check; scaling by
    # 0.5 stops them inside the cell, where the upper end's check fails.
    # Either way exactly the walks that leave their cell are bisected
    monkeypatch.setattr(vorcands, "_crossing", lambda *args: scale * real_crossing(*args))
    rng = np.random.default_rng(103)
    design = rng.random((20, 5))
    origins, directions = _random_batch(design, 64, rng)
    cs = vorwalk(design, origins, directions, metric)

    anchors = design[origins]
    t_lo, t_hi = np.zeros(64), np.ones(64)
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (t_lo + t_hi)
        ok = real_nearest(design, anchors + mid[:, None] * directions, metric) == origins
        t_lo[ok] = mid[ok]
        t_hi[~ok] = mid[~ok]
    points = np.clip(anchors + (0.5 * (t_lo + t_hi))[:, None] * directions, 0.0, 1.0)
    wall = t_hi == 1.0

    assert 0 < wall.sum() < 64
    np.testing.assert_array_equal(cs.uncertified, ~wall)
    np.testing.assert_array_equal(cs.t_lower, t_lo)
    np.testing.assert_array_equal(cs.points, points)
    np.testing.assert_array_equal(cs.boundary_hit, wall)
    # the fallback makes exactly K bisection calls over the failed walks
    assert nn_rows[-BISECTION_ITERS:] == [(~wall).sum()] * BISECTION_ITERS
    if scale == np.inf:  # before it: the one round, at every lower end
        assert nn_rows[:-BISECTION_ITERS] == [64]


def _rect_grown_design(dim, rng):
    """A design grown by L-inf axis walks: each new point shares all but one
    coordinate with its origin, so the cells meet along interval ties.
    Walks that repeat an axis repeat a point, so duplicates are dropped."""
    design = rng.random((20, dim))
    for _ in range(4):
        cs = walk_sample(design, 40, "rect", Metric.LINF, 0, rng)
        design = np.unique(np.vstack([design, cs.points]), axis=0)
    return design


@pytest.mark.parametrize(
    "metric, dim", [(Metric.LINF, 10)] + [(m, p) for m in (Metric.L1, Metric.L2) for p in (10, 100)]
)
def test_pair_check_agrees_with_the_query(metric, dim):
    # the query itself must find no certified upper end still owned by its
    # origin: the pair rule and `nearest_batch` decide every end alike
    rng = np.random.default_rng(107)
    if metric is Metric.LINF:
        design = _rect_grown_design(dim, rng)
        origins, directions, _ = vorcands._walk_batch(design, 300, "rect", metric, None, rng)
    else:
        design = rng.random((200, dim))
        origins, directions = _random_batch(design, 300, rng)
    cs = vorwalk(design, origins, directions, metric)
    assert not cs.uncertified.any()
    assert (~cs.boundary_hit).sum() > 50
    upper_ends = _upper_ends(design, cs)
    owners = real_nearest(design, upper_ends, metric)
    assert (owners != cs.origin[~cs.boundary_hit]).all()
    if metric is Metric.LINF:  # the design holds the ties the pair rule settles
        d = distance(metric, design[None, :, :], upper_ends[:, None, :])
        d_origin = d[np.arange(len(d)), cs.origin[~cs.boundary_hit]]
        assert (d_origin == d.min(axis=1)).any()


@pytest.mark.parametrize("dim", [2, 3])
def test_l2_walk_points_lie_on_qhull_ridges(dim):
    rng = np.random.default_rng(106)
    design = rng.random((40, dim))
    cs = vorwalk(design, *_random_batch(design, 300, rng), Metric.L2)
    ridges = {frozenset(pair) for pair in Voronoi(design).ridge_points.tolist()}
    interior = ~cs.boundary_hit & (cs.points > 0.0).all(axis=1) & (cs.points < 1.0).all(axis=1)
    assert interior.sum() > 100
    d = distance(Metric.L2, design[None, :, :], cs.points[:, None, :])
    for c in np.flatnonzero(interior):
        first, second = np.argsort(d[c], kind="stable")[:2]
        assert cs.origin[c] in (first, second)
        assert frozenset((first, second)) in ridges


def test_walk_points_always_inside_cube():
    rng = np.random.default_rng(104)
    design = rng.random((15, 6))
    cs = vorwalk(design, *_random_batch(design, 500, rng), Metric.L1)
    assert cs.points.min() >= 0.0 and cs.points.max() <= 1.0


def test_single_point_design_every_walk_hits_wall():
    design = np.array([[0.5]])
    cs = vorwalk(design, np.array([0, 0]), np.array([[1.1], [-1.1]]), Metric.L2)
    assert cs.boundary_hit.all()
    np.testing.assert_allclose(cs.points[:, 0], [1.0, 0.0], atol=1e-8)


def test_determinism_bit_identical():
    design = np.random.default_rng(7).random((40, 8))
    a = walk_sample(design, 300, "unif", Metric.L2, 3, np.random.default_rng(55))
    b = walk_sample(design, 300, "unif", Metric.L2, 3, np.random.default_rng(55))
    for field in (
        "points", "boundary_hit", "uncertified", "origin", "bracket_width", "t_lower", "directions"
    ):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_walk_batch_validation():
    design = np.random.default_rng(0).random((10, 3))
    origins, directions = _random_batch(design, 5, np.random.default_rng(1))
    with pytest.raises(ValueError, match="1-D"):
        vorwalk(design, origins[:, None], directions, Metric.L2)
    with pytest.raises(ValueError, match="does not match"):
        vorwalk(design, origins, directions[:, :2], Metric.L2)
    with pytest.raises(ValueError, match="norm"):
        vorwalk(design, origins, directions * 0.0, Metric.L2)
    with pytest.raises(ValueError, match="out of range"):
        vorwalk(design, origins + 10, directions, Metric.L2)
    with pytest.raises(ValueError, match="finite"):
        bad = directions.copy()
        bad[0, 0] = np.inf
        vorwalk(design, origins, bad, Metric.L2)
    with pytest.raises(ValueError, match="unit cube"):
        vorwalk(design * 3.0, origins, directions, Metric.L2)
    with pytest.raises(ValueError, match="unit cube"):
        bad = design.copy()
        bad[4, 1] = np.nan
        vorwalk(bad, origins, directions, Metric.L2)
    for empty in (design[:0], design[:, :0]):
        with pytest.raises(ValueError, match="P >= 1"):
            vorwalk(empty, origins, directions, Metric.L2)
    # short directions are legal: the walk just flags more wall hits
    assert len(vorwalk(design, origins, directions * 0.1, Metric.L2)) == 5


# ------------------------------ L1 crossings --------------------------------


def _bisected_crossing(metric, anchors, directions, blockers, strict):
    """The L1 crossing by 64 halvings of [0, 1] on the distances (1.0 where
    t = 1 keeps the origin), the oracle for `_crossing`'s closed form cut
    at 1; other metrics go to `_crossing` itself."""
    if metric is not Metric.L1:
        return real_crossing(metric, anchors, directions, blockers, strict)

    def keeps_origin(t):
        probes = anchors + t[:, None] * directions
        d_blocker = distance(metric, probes, blockers)
        d_origin = distance(metric, probes, anchors)
        return np.where(strict, d_blocker > d_origin, d_blocker >= d_origin)

    lo, hi = np.zeros(len(anchors)), np.ones(len(anchors))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ok = keeps_origin(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(keeps_origin(np.ones_like(lo)), 1.0, lo)


def _l1_gap(anchors, directions, blockers, t):
    """g(t) = d(a + t*u, x) - d(a + t*u, a) under L1, summed coordinate by coordinate."""
    probes = anchors + t[:, None] * directions
    return np.abs(probes - blockers).sum(axis=1) - np.abs(probes - anchors).sum(axis=1)


@pytest.mark.parametrize("dim", [1, 2, 10, 100])
@pytest.mark.parametrize("strategy", vorcands.STRATEGIES)
def test_l1_crossing_matches_bisection(dim, strategy):
    # blockers: the owner of each walk's full step, as the walk's first round
    # meets it, or, where that is the origin, a point near the ray ahead
    rng = np.random.default_rng([109, dim])
    design = rng.random((40, dim))
    origins, directions, _ = vorcands._walk_batch(design, 400, strategy, Metric.L1, None, rng)
    anchors = design[origins]
    owners = real_nearest(design, anchors + directions, Metric.L1)
    met = owners != origins
    ahead = anchors + rng.random((len(origins), 1)) * directions
    ahead += 0.05 * rng.standard_normal(ahead.shape)
    blockers = np.where(met[:, None], design[owners], ahead)
    strict = np.where(met, owners < origins, rng.random(len(origins)) < 0.5)
    args = (Metric.L1, anchors, directions, blockers, strict)

    cross = np.minimum(real_crossing(*args), 1.0)
    oracle = _bisected_crossing(*args)
    np.testing.assert_array_equal(cross < 1.0, oracle < 1.0)
    np.testing.assert_allclose(cross, oracle, rtol=0.0, atol=1e-12)
    leave = cross < 1.0
    assert leave.sum() > 50
    a, u, x, t = anchors[leave], directions[leave], blockers[leave], cross[leave]
    assert (_l1_gap(a, u, x, t - 1e-9) >= 0.0).all()
    assert (_l1_gap(a, u, x, t + 1e-9) < 0.0).all()


def test_l1_crossing_on_a_flat_stretch(nn_rows):
    # from a = (1/4, 1/4) along u = (1, 0), the blocker x = (1/2, 1/2) ties
    # with a from t = 1/4 on: g = 1/2 - 2 min(t, 1/4).  A blocker with the
    # smaller index owns the tie, so the walk leaves where the tie starts;
    # one with the larger index never takes the ray (the oracle stops at 1)
    a, x, u = np.array([[0.25, 0.25]]), np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])
    for strict, expected, bisected in ((True, 0.25, 0.25), (False, np.inf, 1.0)):
        args = (Metric.L1, a, u, x, np.array([strict]))
        assert real_crossing(*args)[0] == expected
        assert _bisected_crossing(*args)[0] == pytest.approx(bisected, abs=1e-15)

    # the same tie in a walk: from the larger index it stops at x_0 = 1/2,
    # from the smaller it runs to the wall.  The stopped walk's upper end is
    # the exact tie, which its blocker owns by index: two lower-end rounds
    # and no query at the upper end
    step = np.array([[np.sqrt(2.0) * (1 + 1e-9), 0.0]])
    for design, hit in ((np.vstack([x, a]), False), (np.vstack([a, x]), True)):
        origin = np.flatnonzero((design == a).all(axis=1))
        nn_rows.clear()
        cs = vorwalk(design, origin, step, Metric.L1)
        assert cs.boundary_hit[0] == hit and not cs.uncertified[0]
        if not hit:
            np.testing.assert_allclose(cs.points[0], [0.5, 0.25], atol=1e-8)
            assert nn_rows == [1, 1]


def test_l1_rect_walk_never_leaves_past_a_far_blocker():
    # along axis 0 the blocker is nearer by |w_0| = 0.2 but farther by 0.4
    # in the other coordinates, so a + t*e_0 stays the origin's for every t
    a, x = np.array([0.2, 0.2, 0.2]), np.array([0.4, 0.5, 0.1])
    u = np.array([[np.sqrt(3.0) * (1 + 1e-9), 0.0, 0.0]])
    for strict in (True, False):
        args = (Metric.L1, a[None, :], u, x[None, :], np.array([strict]))
        assert real_crossing(*args)[0] == np.inf
        assert _bisected_crossing(*args)[0] == 1.0
    for design in (np.vstack([a, x]), np.vstack([x, a])):
        origin = np.flatnonzero((design == a).all(axis=1))
        assert vorwalk(design, origin, u, Metric.L1).boundary_hit[0]


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("strict", [True, False])
def test_crossing_is_the_exact_closed_form(metric, strict):
    # a ray toward x crosses the bisector at t = |x - a| / (2 |u|) = 2, past
    # the step, and a ray away from x never does: the crossing is geometry
    # alone under every metric, with no cut at t = 1
    a, x = np.array([[0.1]]), np.array([[0.9]])
    for u, expected in ((0.2, 2.0), (-0.2, np.inf)):
        assert real_crossing(metric, a, np.array([[u]]), x, np.array([strict]))[0] == expected


# --------------------------- near duplicates --------------------------------


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("dim", [2, 5, 20])
def test_walks_against_a_near_duplicate_pair(metric, dim):
    # `run_bo` perturbs a repeated proposal by at most 1e-6 per coordinate,
    # so a design can hold two rows that close.  Walks start from the pair
    # and one other row.  Half of them run within 1e-4 of the pair's L2
    # bisector and cross it far from the pair, where the two distances
    # differ by less than rounding across a whole bracket, so some L2 walks
    # reach the fallback
    rng = np.random.default_rng([211, dim])
    design = rng.random((30, dim))
    design[29] = np.clip(design[0] + rng.uniform(-1e-6, 1e-6, dim), 0.0, 1.0)
    origins = rng.choice(np.array([0, 29, 1]), size=600).astype(np.intp)
    u = rng.standard_normal((600, dim))
    w = (design[29] - design[0]) / distance(Metric.L2, design[29], design[0])
    tilt = rng.uniform(-1e-4, 1e-4, 300) * distance(Metric.L2, u[300:], 0.0)
    u[300:] += (tilt - u[300:] @ w)[:, None] * w
    u *= np.sqrt(dim) * (1 + 1e-9) / distance(metric, u, 0.0)[:, None]
    cs = vorwalk(design, origins, u, metric)
    anchors = design[origins]

    def owners(t):
        return _brute_owner(design, anchors + t[:, None] * u, metric)

    assert (owners(cs.t_lower) == origins)[~cs.uncertified].all()
    closed = ~cs.boundary_hit
    assert (owners(cs.t_lower + cs.bracket_width) != origins)[closed].all()
    redo = np.flatnonzero(cs.uncertified)
    if metric is Metric.L2:
        assert redo.size > 0
    lo, hi = np.zeros(redo.size), np.ones(redo.size)
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        ok = real_nearest(design, anchors[redo] + mid[:, None] * u[redo], metric) == origins[redo]
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    np.testing.assert_array_equal(cs.t_lower[redo], lo)
    np.testing.assert_array_equal(cs.boundary_hit[redo], hi == 1.0)
    mid = 0.5 * (lo + hi)
    points = np.clip(anchors[redo] + mid[:, None] * u[redo], 0.0, 1.0)
    np.testing.assert_array_equal(cs.points[redo], points)


def test_brute_owner_breaks_near_ties_as_the_query_does():
    # queries on the L2 bisector of a near-duplicate pair at P = 20, where
    # the two distances differ by rounding only
    rng = np.random.default_rng(0)
    design = rng.random((2, 20))
    design[1] = design[0] + rng.uniform(-1e-6, 1e-6, 20)
    w = (design[1] - design[0]) / distance(Metric.L2, design[1], design[0])
    v = rng.standard_normal((200, 20))
    v -= (v @ w)[:, None] * w
    queries = 0.5 * (design[0] + design[1]) + 0.3 * v / distance(Metric.L2, v, 0.0)[:, None]
    want = real_nearest(design, queries, Metric.L2)
    diff = design[None, :, :] - queries[:, None, :]
    pairwise = np.sqrt((diff * diff).sum(axis=-1)).argmin(axis=1)
    assert (pairwise != want).any()
    np.testing.assert_array_equal(_brute_owner(design, queries, Metric.L2), want)


# --------------------------- halfway rule -----------------------------------


def test_halfway_rule_moves_only_wall_hits():
    design = np.array([[0.2], [0.8]])
    cs = vorwalk(design, np.array([0, 0]), np.array([[-(1 + 1e-9)], [1 + 1e-9]]), Metric.L2)
    assert list(cs.boundary_hit) == [True, False]
    interior_before = cs.points[1, 0]
    vorcands._halfway_rule(cs, design)
    assert cs.points[0, 0] == pytest.approx(0.1, abs=1e-8)  # (0.2 + 0.0) / 2
    assert cs.points[1, 0] == interior_before
    assert cs.boundary_hit[0]  # flag kept for diagnostics


def test_halfway_rule_pulls_clamped_candidates():
    # the walk crosses into the neighbour's cell only outside the cube: the
    # bracket closes (no flag) but the clamp pins the point to the top face
    design = np.array([[0.4, 0.9], [0.6, 0.9]])
    cs = vorwalk(design, np.array([0]), np.array([[0.3, 0.6]]), Metric.L2)
    assert not cs.boundary_hit[0]
    np.testing.assert_allclose(cs.points[0], [0.5, 1.0], atol=1e-8)
    vorcands._halfway_rule(cs, design)
    np.testing.assert_allclose(cs.points[0], [0.45, 0.95], atol=1e-8)
    assert not cs.boundary_hit[0]


def test_halfway_rule_pulls_flagged_candidates_inside_the_cube():
    # under L1 a step of length sqrt(P) can end inside the cube: the walk is
    # flagged but its point is not clamped, and it is pulled halfway all the same
    design = np.array([[0.05, 0.05]])
    cs = vorwalk(design, np.array([0]), np.full((1, 2), 0.5 * np.sqrt(2.0)), Metric.L1)
    assert cs.boundary_hit[0] and ((cs.points > 0.0) & (cs.points < 1.0)).all()
    end = cs.points[0].copy()
    vorcands._halfway_rule(cs, design)
    np.testing.assert_array_equal(cs.points[0], 0.5 * (design[0] + end))


# ---------------------------- walk_sample -----------------------------------


def test_direct_sample_incumbent_block():
    rng = np.random.default_rng(200)
    design = rng.random((30, 10))
    cs = walk_sample(design, 40, "rect", Metric.LINF, 4, rng)
    assert (cs.origin == 4).sum() >= min(2 * 10, 40)
    assert (cs.origin[:20] == 4).all()


def test_direct_sample_rect_directions_are_axes():
    rng = np.random.default_rng(201)
    design = rng.random((12, 6))
    cs = walk_sample(design, 100, "rect", Metric.LINF, 0, rng)
    nonzero = (cs.directions != 0.0).sum(axis=1)
    np.testing.assert_array_equal(nonzero, np.ones(100))
    mags = np.abs(cs.directions).max(axis=1)
    np.testing.assert_allclose(mags, np.sqrt(6) * (1 + 1e-9))


@pytest.mark.parametrize("metric", list(Metric))
def test_rect_batch_walks_each_distinct_walk_once(metric, monkeypatch):
    # a rect walk is fixed by (origin, signed axis): 15 x 10 of them here,
    # drawn 2500 times; the batch as drawn, walked in full, is the reference
    design = np.random.default_rng(202).random((15, 5))
    n, dim = design.shape
    draws = np.random.default_rng(203)
    origins = draws.integers(0, n, size=2500).astype(np.intp)
    axes = draws.integers(0, 2 * dim, size=2500)
    scale = np.sqrt(dim) * (1.0 + 1e-9)
    directions = np.zeros((2500, dim))
    directions[np.arange(2500), axes % dim] = np.where(axes < dim, scale, -scale)
    full = vorwalk(design, origins, directions, metric)
    prop = full.boundary_hit.mean()
    full = vorcands._halfway_rule(full, design)

    sizes = []
    monkeypatch.setattr(vorcands, "vorwalk", lambda *a: sizes.append(len(a[1])) or vorwalk(*a))
    cs = walk_sample(design, 2500, "rect", metric, None, np.random.default_rng(203))
    assert sizes == [len(np.unique(origins * 2 * dim + axes))] and sizes[0] <= 150
    for field in ("points", "origin", "t_lower", "directions", "boundary_hit", "uncertified"):
        assert getattr(cs, field).tobytes() == getattr(full, field).tobytes()
    assert boundary_proportion(design, 2500, "rect", metric, np.random.default_rng(203)) == prop
    # unif and proj batches repeat no walk: the proportion is the batch's own
    for strategy in ("unif", "proj"):
        rng = np.random.default_rng(204)
        origins, directions, _ = vorcands._walk_batch(design, 2500, strategy, metric, None, rng)
        prop = vorwalk(design, origins, directions, metric).boundary_hit.mean()
        assert 0.0 < prop < 1.0
        rng = np.random.default_rng(204)
        assert boundary_proportion(design, 2500, strategy, metric, rng) == prop


@pytest.mark.parametrize("metric", list(Metric))
def test_direct_sample_unif_directions_scaled_by_walk_metric(metric):
    rng = np.random.default_rng(202)
    design = rng.random((12, 4))
    cs = walk_sample(design, 50, "unif", metric, 0, rng)
    norms = distance(metric, cs.directions, np.zeros(4))
    np.testing.assert_allclose(norms, np.sqrt(4.0) * (1 + 1e-9), rtol=1e-12)


def test_direct_sample_errors():
    design = np.random.default_rng(0).random((5, 2))
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="strategy"):
        walk_sample(design, 4, "grid", Metric.L2, 0, rng)
    with pytest.raises(ValueError, match="incumbent"):
        walk_sample(design, 4, "unif", Metric.L2, 9, rng)
    with pytest.raises(ValueError, match="count"):
        walk_sample(design, 0, "unif", Metric.L2, 0, rng)
    with pytest.raises(ValueError, match="count"):
        walk_sample(design, 0, "proj", Metric.L2, None, rng)
    # proj walks ignore the incumbent, so an index out of range is not an error
    assert len(walk_sample(design, 4, "proj", Metric.L2, 9, rng)) == 4


def test_direct_sample_single_point_design():
    design = np.array([[0.5, 0.5]])
    cs = walk_sample(design, 8, "rect", Metric.LINF, 0, np.random.default_rng(3))
    assert (cs.origin == 0).all()
    assert cs.boundary_hit.all()


def test_project_sample_1d_frozen():
    # every walk runs from the owner of its Latin hypercube point toward it
    # and stops on the bisector of {0, 1}, which ties to point 0
    design = np.array([[0.0], [1.0]])
    cs = walk_sample(design, 20, "proj", Metric.L2, None, np.random.default_rng(4))
    pre = lhs(20, 1, np.random.default_rng(4))
    np.testing.assert_allclose(cs.points[:, 0], 0.5, atol=1e-8)
    np.testing.assert_array_equal(cs.origin, pre[:, 0] > 0.5)


def test_project_sample_degenerate_precandidate(monkeypatch):
    # a precandidate exactly on a design point gives no direction, so its
    # walk is redirected at random with the same length sqrt(P)
    design = np.array([[0.25, 0.25], [0.75, 0.75]])
    monkeypatch.setattr(vorcands, "lhs", lambda count, dim, rng: np.array([[0.25, 0.25]]))
    cs = walk_sample(design, 1, "proj", Metric.L2, None, np.random.default_rng(8))
    assert cs.points.shape == (1, 2)
    assert np.isfinite(cs.points).all()
    assert cs.origin[0] == 0
    assert distance(Metric.L2, cs.directions, np.zeros(2)) == pytest.approx(np.sqrt(2.0))


# ----------------------------- scheme_final ---------------------------------


def test_scheme_parity():
    rng = np.random.default_rng(300)
    design = rng.random((20, 5))
    rect = scheme_final(design, 60, 0, 2, np.random.default_rng(1))
    proj = scheme_final(design, 60, 1, 2, np.random.default_rng(1))
    # rect walks ride single axes; projection directions are generically dense
    assert ((rect.directions != 0).sum(axis=1) == 1).all()
    assert ((proj.directions != 0).sum(axis=1) > 1).all()
    assert len(rect) == len(proj) == 60
    with pytest.raises(ValueError):
        scheme_final(design, 60, -1, 2, rng)


def test_scheme_candidates_stay_in_cube():
    rng = np.random.default_rng(301)
    design = rng.random((50, 3))
    for it in range(4):
        cs = scheme_final(design, 200, it, int(rng.integers(0, 50)), rng)
        assert cs.points.min() >= 0.0 and cs.points.max() <= 1.0


def test_scheme_2d_candidates_avoid_cube_faces():
    # with an interior design, the halfway pull keeps every returned
    # candidate strictly inside the cube, wall chasers included
    rng = np.random.default_rng(302)
    design = rng.random((8, 2))
    for it in range(2):
        cs = scheme_final(design, 300, it, 0, rng)
        assert cs.points.min() > 0.0 and cs.points.max() < 1.0


# ------------------------- boundary_proportion ------------------------------


def test_boundary_proportion_single_cell_is_one():
    design = np.array([[0.5]])
    for strategy in ("unif", "rect", "proj"):
        prop = boundary_proportion(design, 50, strategy, Metric.L2, np.random.default_rng(2))
        assert prop == 1.0


def test_boundary_proportion_unif_l1_high_dim_near_one():
    rng = np.random.default_rng(400)
    design = rng.random((10, 100))
    prop = boundary_proportion(design, 400, "unif", Metric.L1, np.random.default_rng(5))
    assert prop >= 0.95


def test_boundary_proportion_range_and_validation():
    design = np.random.default_rng(0).random((10, 2))
    prop = boundary_proportion(design, 100, "rect", Metric.LINF, np.random.default_rng(1))
    assert 0.0 <= prop <= 1.0
    with pytest.raises(ValueError, match="strategy"):
        boundary_proportion(design, 10, "grid", Metric.L2, np.random.default_rng(1))


@pytest.mark.parametrize("n", [10, 100])
@pytest.mark.parametrize("dim", [2, 10])
@pytest.mark.parametrize("strategy", vorcands.STRATEGIES)
def test_l1_wall_hit_proportions_match_bisected_crossings(n, dim, strategy, monkeypatch):
    real_vorwalk = vorcands.vorwalk
    walks = []

    def recording(*args):
        walks.append(real_vorwalk(*args))
        return walks[-1]

    monkeypatch.setattr(vorcands, "vorwalk", recording)
    design = np.random.default_rng([110, n, dim]).random((n, dim))
    study = lambda: boundary_proportion(design, 300, strategy, Metric.L1, np.random.default_rng(8))
    closed_form = study()
    monkeypatch.setattr(vorcands, "_crossing", _bisected_crossing)
    assert study() == closed_form
    assert not any(cs.uncertified.any() for cs in walks)
