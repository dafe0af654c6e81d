import numpy as np
import pytest

from oracles import brute_distances, brute_owner
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


#: The unpatched query and crossing, for tests that patch them.
real_nearest = nn_index.nearest_batch
real_crossing = vorcands._crossing


#: Walks are L-inf.  The `metric` parameter of a walk test names the norm its
#: directions are scaled to sqrt(P) under, as `_walk_batch` scales the
#: study's unif batches: L1 steps are the shortest under L-inf, L-inf the longest.
LINF = Metric.LINF


def _random_batch(design, count, rng, norm=Metric.L2):
    n, dim = design.shape
    u = rng.standard_normal((count, dim))
    u *= np.sqrt(dim) * (1 + 1e-9) / distance(norm, u, 0.0)[:, None]
    return rng.integers(0, n, size=count).astype(np.intp), u


def _t_upper(cs):
    """The upper end of each walk's bracket, of width 2^-K with K = `BISECTION_ITERS`."""
    return cs.t_lower + 0.5**vorcands.BISECTION_ITERS


# ------------------------------ vorwalk ------------------------------------


def test_1d_equidistant_midpoint():
    design = np.array([[0.0], [1.0]])
    cs = vorwalk(design, np.array([0]), np.array([[1.0 + 1e-9]]))
    assert cs.points[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert not cs.boundary_hit[0]
    assert cs.t_lower[0] < 0.5 / (1.0 + 1e-9) < _t_upper(cs)[0]


def test_1d_wall_hit():
    design = np.array([[0.2], [0.8]])
    cs = vorwalk(design, np.array([0]), np.array([[-(1.0 + 1e-9)]]))
    assert cs.boundary_hit[0]
    assert cs.points[0, 0] == pytest.approx(0.0, abs=1e-8)


def test_2d_diagonal_bisector():
    design = np.array([[0.0, 0.0], [1.0, 1.0]])
    u = np.array([[1.0, 1.0]]) * (1 + 1e-9)
    cs = vorwalk(design, np.array([0]), u)
    np.testing.assert_allclose(cs.points[0], [0.5, 0.5], atol=1e-8)
    assert not cs.boundary_hit[0]


@pytest.mark.parametrize("metric", list(Metric))
def test_bracket_property(metric):
    rng = np.random.default_rng(100)
    design = rng.random((30, 4))
    cs = vorwalk(design, *_random_batch(design, 150, rng, metric))

    anchors = design[cs.origin]
    t_hi = _t_upper(cs)
    lo_probe = anchors + cs.t_lower[:, None] * cs.directions
    hi_probe = anchors + t_hi[:, None] * cs.directions
    for c in range(len(cs)):
        assert brute_owner(design, lo_probe[c], LINF) == cs.origin[c]
        if cs.boundary_hit[c]:
            assert t_hi[c] == 1.0  # the bracket never closed
        else:
            assert brute_owner(design, hi_probe[c], LINF) != cs.origin[c]


@pytest.mark.parametrize("metric", list(Metric))
def test_equidistance_of_interior_candidates(metric):
    rng = np.random.default_rng(101)
    design = rng.random((50, 10))
    cs = vorwalk(design, *_random_batch(design, 200, rng, metric))
    # candidates whose bracket closed inside the cube sit on a cell boundary;
    # flagged or clamped ones ran past a wall and land on a face instead
    interior = ~cs.boundary_hit & (cs.points > 0.0).all(axis=1) & (cs.points < 1.0).all(axis=1)
    assert interior.sum() > 20  # sanity: the test exercises something
    # moving the step by one bracket width moves every distance by at most
    # the direction's length under the same metric
    for c in np.flatnonzero(interior):
        tol = 2.0 * 0.5**BISECTION_ITERS * distance(LINF, np.zeros(10), cs.directions[c])
        d_all = brute_distances(design, cs.points[c], LINF)
        d_origin = d_all[cs.origin[c]]
        others = np.delete(d_all, cs.origin[c])
        assert abs(d_origin - others.min()) <= tol


def test_star_convexity_of_prefix():
    # any sub-step of the accepted lower bound stays in the origin's cell
    rng = np.random.default_rng(102)
    design = rng.random((25, 3))
    cs = vorwalk(design, *_random_batch(design, 40, rng))
    for c in range(len(cs)):
        if cs.t_lower[c] == 0.0:
            continue
        for t in rng.random(100) * cs.t_lower[c]:
            probe = design[cs.origin[c]] + t * cs.directions[c]
            assert brute_owner(design, probe, LINF) == cs.origin[c]


@pytest.fixture
def nn_queries(monkeypatch):
    """Every batched nearest-neighbour query vorwalk makes, in order."""
    queries = []

    def recording(points, q, metric, **kwargs):
        queries.append(np.array(q))
        return real_nearest(points, q, metric, **kwargs)

    monkeypatch.setattr(vorcands.nn_index, "nearest_batch", recording)
    return queries


@pytest.fixture
def nn_rows(monkeypatch):
    """Rows of every batched nearest-neighbour query `vorcands` makes, in order."""
    rows = []

    def counting(points, queries, metric, **kwargs):
        rows.append(len(queries))
        return real_nearest(points, queries, metric, **kwargs)

    monkeypatch.setattr(vorcands.nn_index, "nearest_batch", counting)
    return rows


@pytest.mark.parametrize("metric", list(Metric))
def test_nn_queries_of_a_hand_checked_walk(metric, nn_rows):
    # from 0 toward 1 along the diagonal: the lower end at t = 1 - 2^-K is
    # owned by 1, the jump to the bisector at (1/2, 1/2) is certified by a
    # second query at its lower end, and the pair (1, 0) settles the upper
    # end without a query
    design = np.array([[0.0, 0.0], [1.0, 1.0]])
    u = np.ones((1, 2)) * np.sqrt(2.0) * (1 + 1e-9) / distance(metric, np.ones(2), 0.0)
    cs = vorwalk(design, np.array([0]), u)
    assert nn_rows == [1, 1]
    assert not cs.uncertified[0] and not cs.boundary_hit[0]
    assert cs.t_lower[0] < 0.5 / u[0, 0] < _t_upper(cs)[0]


def test_blocker_behind_a_tie_is_found_by_certification(nn_rows):
    # origin 2 and point 1 share the coordinate the ray is longest in, so
    # under L-inf they tie (and 1 owns the tie) from t = 1/3 on.  The lower
    # end at t = 1 names 0, whose bisector puts the walk at t = 0.375; the
    # lower end there names 1, and one more jump lands on the cell boundary
    # at 1/3.  Its lower end certifies, and the exact tie of 1 and 2 at the
    # upper end, owned by the smaller index 1, settles that end unqueried
    design = np.array([[0.95, 0.3], [0.5, 0.2], [0.5, 0.5]])
    u = np.array([0.6, -0.3])
    cs = vorwalk(design, np.array([2]), u[None, :])
    assert nn_rows == [1, 1, 1]
    assert not cs.uncertified[0] and not cs.boundary_hit[0]
    lo = design[2] + cs.t_lower[0] * u
    hi = design[2] + _t_upper(cs)[0] * u
    assert brute_owner(design, lo, LINF) == 2
    assert brute_owner(design, hi, LINF) == 1
    np.testing.assert_allclose(cs.points[0], [0.7, 0.4], atol=1e-9)


def _upper_ends(design, cs):
    """The closed upper ends of a walk batch, as the probes vorwalk queries."""
    return (design[cs.origin] + _t_upper(cs)[:, None] * cs.directions)[~cs.boundary_hit]


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("k", [7, 30])
def test_nn_query_rows_per_walk_are_bounded(metric, k, nn_queries, monkeypatch):
    monkeypatch.setattr(vorcands, "BISECTION_ITERS", k)
    rng = np.random.default_rng(103)
    design = rng.random((20, 5))
    cs = vorwalk(design, *_random_batch(design, 64, rng, metric))
    # every bracket is 2^-k wide: exactly the flagged walks end at t = 1
    np.testing.assert_array_equal(cs.boundary_hit, cs.t_lower + 0.5**k == 1.0)
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
    origins, directions = _random_batch(design, 64, rng, metric)
    cs = vorwalk(design, origins, directions)

    anchors = design[origins]
    t_lo, t_hi = np.zeros(64), np.ones(64)
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (t_lo + t_hi)
        ok = real_nearest(design, anchors + mid[:, None] * directions, LINF) == origins
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
        cs = walk_sample(design, 40, "rect", 0, rng)
        design = np.unique(np.vstack([design, cs.points]), axis=0)
    return design


@pytest.mark.parametrize(
    "metric, dim", [(Metric.LINF, 10)] + [(m, p) for m in (Metric.L1, Metric.L2) for p in (10, 100)]
)
def test_pair_check_agrees_with_the_query(metric, dim):
    # the query itself must find no certified upper end still owned by its
    # origin: the pair rule and `nearest_batch` decide every end alike.  The
    # L-inf case walks rect walks on a rect-grown design, the others the proj
    # batch the study draws under that metric on a random design
    rng = np.random.default_rng(107)
    if metric is LINF:
        design = _rect_grown_design(dim, rng)
        origins, directions, _, _ = vorcands._walk_batch(design, 300, "rect", metric, None, rng)
    else:
        design = rng.random((200, dim))
        origins, directions, _, _ = vorcands._walk_batch(design, 300, "proj", metric, None, rng)
    cs = vorwalk(design, origins, directions)
    assert not cs.uncertified.any()
    assert (~cs.boundary_hit).sum() > 50
    upper_ends = _upper_ends(design, cs)
    owners = real_nearest(design, upper_ends, LINF)
    assert (owners != cs.origin[~cs.boundary_hit]).all()
    if metric is LINF:  # the design holds the ties the pair rule settles
        d = distance(LINF, design[None, :, :], upper_ends[:, None, :])
        d_origin = d[np.arange(len(d)), cs.origin[~cs.boundary_hit]]
        assert (d_origin == d.min(axis=1)).any()


def test_walk_points_always_inside_cube():
    rng = np.random.default_rng(104)
    design = rng.random((15, 6))
    cs = vorwalk(design, *_random_batch(design, 500, rng))
    assert cs.points.min() >= 0.0 and cs.points.max() <= 1.0


def test_single_point_design_every_walk_hits_wall():
    design = np.array([[0.5]])
    cs = vorwalk(design, np.array([0, 0]), np.array([[1.1], [-1.1]]))
    assert cs.boundary_hit.all()
    np.testing.assert_allclose(cs.points[:, 0], [1.0, 0.0], atol=1e-8)


def test_determinism_bit_identical():
    design = np.random.default_rng(7).random((40, 8))
    a = walk_sample(design, 300, "unif", 3, np.random.default_rng(55))
    b = walk_sample(design, 300, "unif", 3, np.random.default_rng(55))
    for field in ("points", "boundary_hit", "uncertified", "origin", "t_lower", "directions"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_walk_batch_validation():
    design = np.random.default_rng(0).random((10, 3))
    origins, directions = _random_batch(design, 5, np.random.default_rng(1))
    with pytest.raises(ValueError, match="1-D"):
        vorwalk(design, origins[:, None], directions)
    # float origins are rejected as seeds are, not left to fail at indexing
    with pytest.raises(ValueError, match="integer"):
        vorwalk(design, np.arange(5.0), directions)
    with pytest.raises(ValueError, match="does not match"):
        vorwalk(design, origins, directions[:, :2])
    with pytest.raises(ValueError, match="norm"):
        vorwalk(design, origins, directions * 0.0)
    with pytest.raises(ValueError, match="out of range"):
        vorwalk(design, origins + 10, directions)
    with pytest.raises(ValueError, match="finite"):
        bad = directions.copy()
        bad[0, 0] = np.inf
        vorwalk(design, origins, bad)
    with pytest.raises(ValueError, match="unit cube"):
        vorwalk(design * 3.0, origins, directions)
    with pytest.raises(ValueError, match="unit cube"):
        bad = design.copy()
        bad[4, 1] = np.nan
        vorwalk(bad, origins, directions)
    for empty in (design[:0], design[:, :0]):
        with pytest.raises(ValueError, match="P >= 1"):
            vorwalk(empty, origins, directions)
    # seeds are checked like origins: a negative one would pass the tie rule
    # (blocker < origin) for row N - 1, a large one would index past the design
    seeds = np.zeros((5, 2), dtype=np.intp)
    for bad, match in (
        (seeds - 1, "seed indices"),
        (seeds + 10, "seed indices"),
        (seeds[:4], "5 rows"),
        (seeds[:, 0], "5 rows"),
        (seeds.astype(float), "integer"),
    ):
        with pytest.raises(ValueError, match=match):
            vorwalk(design, origins, directions, bad)
    # short directions are legal: the walk just flags more wall hits
    assert len(vorwalk(design, origins, directions * 0.1)) == 5


# ------------------------------- crossings ----------------------------------


def _bisected_crossing(anchors, directions, blockers, strict):
    """The crossing by 64 halvings of [0, 1] on the L-inf distances (1.0 where
    t = 1 keeps the origin), the oracle for `_crossing`'s closed form cut at 1."""

    def keeps_origin(t):
        probes = anchors + t[:, None] * directions
        d_blocker = distance(LINF, probes, blockers)
        d_origin = distance(LINF, probes, anchors)
        return np.where(strict, d_blocker > d_origin, d_blocker >= d_origin)

    lo, hi = np.zeros(len(anchors)), np.ones(len(anchors))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ok = keeps_origin(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(keeps_origin(np.ones_like(lo)), 1.0, lo)


def _gap(anchors, directions, blockers, t):
    """g(t) = d(a + t*u, x) - d(a + t*u, a) under L-inf."""
    probes = anchors + t[:, None] * directions
    return np.abs(probes - blockers).max(axis=1) - np.abs(probes - anchors).max(axis=1)


@pytest.mark.parametrize("dim", [1, 2, 10, 100])
@pytest.mark.parametrize("strategy", vorcands.STRATEGIES)
def test_l1_crossing_matches_bisection(dim, strategy):
    # the L-inf crossing against bisection of the distances.  Blockers: the
    # owner of each walk's full step, as the walk's first round meets it,
    # or, where that is the origin, a point near the ray ahead
    rng = np.random.default_rng([109, dim])
    design = rng.random((40, dim))
    origins, directions, _, _ = vorcands._walk_batch(design, 400, strategy, LINF, None, rng)
    anchors = design[origins]
    owners = real_nearest(design, anchors + directions, LINF)
    met = owners != origins
    ahead = anchors + rng.random((len(origins), 1)) * directions
    ahead += 0.05 * rng.standard_normal(ahead.shape)
    blockers = np.where(met[:, None], design[owners], ahead)
    strict = np.where(met, owners < origins, rng.random(len(origins)) < 0.5)
    args = (anchors, directions, blockers, strict)

    cross = np.minimum(real_crossing(*args), 1.0)
    oracle = _bisected_crossing(*args)
    np.testing.assert_array_equal(cross < 1.0, oracle < 1.0)
    np.testing.assert_allclose(cross, oracle, rtol=0.0, atol=1e-12)
    leave = cross < 1.0
    assert leave.sum() > 50
    a, u, x, t = anchors[leave], directions[leave], blockers[leave], cross[leave]
    assert (_gap(a, u, x, t - 1e-9) >= 0.0).all()
    assert (_gap(a, u, x, t + 1e-9) < 0.0).all()


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("strict", [True, False])
def test_crossing_is_the_exact_closed_form(metric, strict):
    # a ray toward x crosses the bisector at t = |x - a| / (2 |u|), past the
    # step: 2 for u of L-inf norm 0.2, 2 sqrt(2) for L2 norm 0.2, 4 for L1
    # norm 0.2.  A ray away from x never does: the crossing is geometry
    # alone, with no cut at t = 1
    a, x = np.array([[0.1, 0.1]]), np.array([[0.9, 0.9]])
    u = 0.2 * np.ones((1, 2)) / distance(metric, np.ones(2), 0.0)
    expected = distance(LINF, x, a)[0] / (2.0 * u[0, 0])
    assert expected >= 2.0
    for sign, want in ((1.0, expected), (-1.0, np.inf)):
        assert real_crossing(a, sign * u, x, np.array([strict]))[0] == want


# --------------------------- near duplicates --------------------------------


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("dim", [2, 5, 20])
def test_walks_against_a_near_duplicate_pair(metric, dim):
    # `run_bo` perturbs a repeated proposal by at most 1e-6 per coordinate,
    # so a design can hold two rows that close.  Walks start from the pair
    # and one other row, and half of them run within 1e-4 of the pair's L2
    # bisector.  Every certified bracket must be right, and a walk that
    # reaches the fallback must end where bisection ends
    rng = np.random.default_rng([211, dim])
    design = rng.random((30, dim))
    design[29] = np.clip(design[0] + rng.uniform(-1e-6, 1e-6, dim), 0.0, 1.0)
    origins = rng.choice(np.array([0, 29, 1]), size=600).astype(np.intp)
    u = rng.standard_normal((600, dim))
    w = (design[29] - design[0]) / distance(Metric.L2, design[29], design[0])
    tilt = rng.uniform(-1e-4, 1e-4, 300) * distance(Metric.L2, u[300:], 0.0)
    u[300:] += (tilt - u[300:] @ w)[:, None] * w
    u *= np.sqrt(dim) * (1 + 1e-9) / distance(metric, u, 0.0)[:, None]
    cs = vorwalk(design, origins, u)
    anchors = design[origins]

    def owners(t):
        return brute_owner(design, anchors + t[:, None] * u, LINF)

    assert (owners(cs.t_lower) == origins)[~cs.uncertified].all()
    closed = ~cs.boundary_hit
    assert (owners(_t_upper(cs)) != origins)[closed].all()
    redo = np.flatnonzero(cs.uncertified)
    lo, hi = np.zeros(redo.size), np.ones(redo.size)
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        ok = real_nearest(design, anchors[redo] + mid[:, None] * u[redo], LINF) == origins[redo]
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
    np.testing.assert_array_equal(brute_owner(design, queries, Metric.L2), want)


@pytest.mark.parametrize("metric", list(Metric))
def test_walks_from_a_repeated_row_are_bisected(metric):
    # row 2 repeats row 0, which owns every point the two tie on, so row 2's
    # cell is empty: its walks are bisected to t = 0 and flagged.  The copy
    # is a blocker or a seed at distance 0, where some of the crossing's
    # bounds are 0 / 0; the suite turns a RuntimeWarning into an error
    design = np.array([[0.2, 0.3], [0.7, 0.6], [0.2, 0.3]])
    rng = np.random.default_rng(116)
    u = rng.standard_normal((20, 2))
    u *= np.sqrt(2.0) * (1 + 1e-9) / distance(metric, u, 0.0)[:, None]
    for origin, seeds in ((2, None), (2, [0, 1]), (2, [2, 1]), (0, [2, 1])):
        seeds = None if seeds is None else np.tile(seeds, (20, 1))
        cs = vorwalk(design, np.full(20, origin), u, seeds)
        if origin == 2:
            assert cs.uncertified.all() and (cs.t_lower == 0.0).all()
        else:
            assert not cs.uncertified.any()
    for strategy in vorcands.STRATEGIES:
        for incumbent in (0, 2, None):
            cs = walk_sample(design, 60, strategy, incumbent, rng)
            np.testing.assert_array_equal(cs.uncertified, cs.origin == 2)


# ---------------------------- seeded walks ----------------------------------


def _fields(cs: CandidateSet) -> list[bytes]:
    names = ("points", "boundary_hit", "uncertified", "origin", "t_lower", "directions")
    return [getattr(cs, name).tobytes() for name in names]


@pytest.mark.parametrize("dim", [1, 2, 5, 20, 100])
@pytest.mark.parametrize("strategy", vorcands.STRATEGIES)
@pytest.mark.parametrize("metric", list(Metric))
def test_seeded_walks_match_unseeded_walks(metric, strategy, dim, nn_rows):
    # a seed only starts a walk lower, at an upper bound on its exit, so on
    # a design with no near-ties the walk ends where the unseeded one does.
    # Seeds: the origin itself, whose crossing is inf, so the walk is the
    # unseeded one; the batch's own (each precandidate's runner-ups for proj,
    # the origin row's otherwise, all under `metric`, as the study draws the
    # batch); then the L-inf runner-ups of every origin row
    rng = np.random.default_rng([113, dim])
    design = rng.random((200, dim))
    origins, directions, _, seeds = vorcands._walk_batch(design, 300, strategy, metric, 0, rng)
    own = real_nearest(design, design[origins], LINF, runners_up=vorcands._SEEDS)[:, 1:]
    itself = np.repeat(origins[:, None], vorcands._SEEDS, axis=1)
    nn_rows.clear()
    plain = vorwalk(design, origins, directions)
    unseeded_rows = sum(nn_rows)
    for s in (itself, seeds, own):
        nn_rows.clear()
        cs = vorwalk(design, origins, directions, s)
        assert _fields(cs) == _fields(plain)
        assert sum(nn_rows) <= unseeded_rows
    if not plain.boundary_hit.all():  # a closed walk skips its far end's probe
        assert sum(nn_rows) < unseeded_rows


def _all_crossings(design, origins, directions):
    """Walks x N: the crossing of every design point's bisector with every walk."""
    anchors = design[origins]
    cross = [
        real_crossing(anchors, directions, np.broadcast_to(x, anchors.shape), j < origins)
        for j, x in enumerate(design)
    ]
    return np.stack(cross, axis=1)


@pytest.mark.parametrize(
    "metric, grown", [(m, False) for m in Metric] + [(Metric.LINF, True)]
)
def test_adversarial_seeds_keep_every_bracket_certified(metric, grown):
    # any seed's crossing is an upper bound on the exit, so seeds that are
    # random points, the origin itself, or the point that crosses last (past
    # t = 1 where the step allows) leave every certified bracket right: the
    # origin owns its lower end and loses its upper end.  The rect-grown
    # design holds L-inf interval ties
    rng = np.random.default_rng(114)
    if grown:
        design = _rect_grown_design(5, rng)
        origins, directions, _, _ = vorcands._walk_batch(design, 300, "rect", metric, None, rng)
    else:
        design = rng.random((40, 5))
        origins, directions = _random_batch(design, 300, rng, metric)
    cross = _all_crossings(design, origins, directions)
    far = np.where(np.isfinite(cross), cross, -1.0).argmax(axis=1)
    if not grown:
        assert (cross[np.arange(len(far)), far] > 1.0).sum() > 50
    random = rng.integers(0, len(design), size=(len(origins), 2))
    seeds = np.column_stack([random[:, 0], origins, far, random[:, 1]])
    cs = vorwalk(design, origins, directions, seeds)

    anchors = design[origins]
    ok = ~cs.uncertified
    assert ok.sum() > 250
    lo = anchors + cs.t_lower[:, None] * directions
    hi = anchors + _t_upper(cs)[:, None] * directions
    assert (brute_owner(design, lo, LINF) == origins)[ok].all()
    assert (brute_owner(design, hi, LINF) != origins)[ok & ~cs.boundary_hit].all()
    assert (ok & ~cs.boundary_hit).sum() > 50
    if not grown:  # no near-ties: every walk ends where the unseeded one does
        assert _fields(cs) == _fields(vorwalk(design, origins, directions))


@pytest.mark.parametrize("strategy", ["unif", "rect"])
@pytest.mark.parametrize("metric", list(Metric))
def test_walks_from_design_points_take_their_origins_runner_ups(metric, strategy):
    # one seed rule: with an incumbent, each walk's seeds are its origin
    # row's runner-ups, whether the walk starts at the incumbent or not
    rng = np.random.default_rng([117, len(metric.value)])
    design = rng.random((60, 4))
    origins, _, _, seeds = vorcands._walk_batch(design, 400, strategy, metric, 5, rng)
    assert (origins != 5).sum() > 100
    want = real_nearest(design, design[origins], metric, runners_up=vorcands._SEEDS)[:, 1:]
    np.testing.assert_array_equal(seeds, want)


def test_seeded_axis_scheme_takes_few_query_rows_beyond_the_incumbent(nn_rows):
    # C = 1000 > 2P walks, so most start at random design points; seeded from
    # their own rows, they take about as few rows as the incumbent's walks
    design = np.random.default_rng(118).random((300, 100))
    cs = scheme_final(design, 1000, 0, 7, np.random.default_rng(118))
    assert not cs.uncertified.any()
    assert sum(nn_rows) <= 2.0 * len(cs)


def test_seeded_scheme_takes_few_query_rows_at_p100(nn_rows):
    # criterion 5's design shape, N = 2000 and P = 100, one call per parity.
    # Every walk would first probe its far end; seeds from its origin row's
    # query or its precandidate's start most walks at their exit instead
    design = np.random.default_rng(115).random((2000, 100))
    for iteration in (0, 1):
        nn_rows.clear()
        cs = scheme_final(design, 200, iteration, 7, np.random.default_rng([115, iteration]))
        assert not cs.uncertified.any()
        assert sum(nn_rows) <= 2.5 * len(cs)


# --------------------------- halfway rule -----------------------------------


def test_halfway_rule_moves_only_wall_hits():
    design = np.array([[0.2], [0.8]])
    cs = vorwalk(design, np.array([0, 0]), np.array([[-(1 + 1e-9)], [1 + 1e-9]]))
    assert list(cs.boundary_hit) == [True, False]
    interior_before = cs.points[1, 0]
    vorcands._halfway_rule(cs, design)
    assert cs.points[0, 0] == pytest.approx(0.1, abs=1e-8)  # (0.2 + 0.0) / 2
    assert cs.points[1, 0] == interior_before
    assert cs.boundary_hit[0]  # flag kept for diagnostics


def test_halfway_rule_pulls_clamped_candidates():
    # the walk crosses into the neighbour's cell only outside the cube, at
    # t = 1/3: the bracket closes (no flag) but the clamp pins the point to
    # the top face
    design = np.array([[0.5, 0.9], [0.7, 1.0]])
    cs = vorwalk(design, np.array([0]), np.array([[0.2, 0.4]]))
    assert not cs.boundary_hit[0]
    np.testing.assert_allclose(cs.points[0], [0.5 + 0.2 / 3.0, 1.0], atol=1e-8)
    vorcands._halfway_rule(cs, design)
    np.testing.assert_allclose(cs.points[0], [0.5 + 0.1 / 3.0, 0.95], atol=1e-8)
    assert not cs.boundary_hit[0]


def test_halfway_rule_pulls_flagged_candidates_inside_the_cube():
    # a step shorter than 1 under L-inf (here one of L1 norm sqrt(P)) can end
    # inside the cube: the walk is flagged but its point is not clamped, and
    # it is pulled halfway all the same
    design = np.array([[0.05, 0.05]])
    cs = vorwalk(design, np.array([0]), np.full((1, 2), 0.5 * np.sqrt(2.0)))
    assert cs.boundary_hit[0] and ((cs.points > 0.0) & (cs.points < 1.0)).all()
    end = cs.points[0].copy()
    vorcands._halfway_rule(cs, design)
    np.testing.assert_array_equal(cs.points[0], 0.5 * (design[0] + end))


# ---------------------------- walk_sample -----------------------------------


def test_direct_sample_incumbent_block():
    rng = np.random.default_rng(200)
    design = rng.random((30, 10))
    cs = walk_sample(design, 40, "rect", 4, rng)
    assert (cs.origin == 4).sum() >= min(2 * 10, 40)
    assert (cs.origin[:20] == 4).all()


def test_direct_sample_rect_directions_are_axes():
    rng = np.random.default_rng(201)
    design = rng.random((12, 6))
    cs = walk_sample(design, 100, "rect", 0, rng)
    nonzero = (cs.directions != 0.0).sum(axis=1)
    np.testing.assert_array_equal(nonzero, np.ones(100))
    mags = np.abs(cs.directions).max(axis=1)
    np.testing.assert_allclose(mags, np.sqrt(6) * (1 + 1e-9))


def _top_bracket_flags(design, origins, directions, metric):
    """The study's wall-hit flags by the owner oracle: whether each origin
    owns a + (1 - 2^-K) u, the lower end of its top bracket, under `metric`."""
    ends = design[origins] + (1.0 - 0.5**BISECTION_ITERS) * directions
    return brute_owner(design, ends, metric) == origins


@pytest.mark.parametrize("metric", list(Metric))
def test_rect_batch_walks_each_distinct_walk_once(metric, monkeypatch):
    # a rect walk is fixed by (origin, signed axis): 15 x 10 of them here,
    # drawn 2500 times; the batch as drawn, walked in full, is the reference.
    # The study's flags are the walks' under L-inf and the owner oracle's
    # under the other metrics
    design = np.random.default_rng(202).random((15, 5))
    n, dim = design.shape
    draws = np.random.default_rng(203)
    origins = draws.integers(0, n, size=2500).astype(np.intp)
    axes = draws.integers(0, 2 * dim, size=2500)
    scale = np.sqrt(dim) * (1.0 + 1e-9)
    directions = np.zeros((2500, dim))
    directions[np.arange(2500), axes % dim] = np.where(axes < dim, scale, -scale)
    full = vorwalk(design, origins, directions)
    prop = full.boundary_hit.mean()
    if metric is not LINF:
        prop = _top_bracket_flags(design, origins, directions, metric).mean()
    full = vorcands._halfway_rule(full, design)

    sizes = []
    monkeypatch.setattr(vorcands, "vorwalk", lambda *a: sizes.append(len(a[1])) or vorwalk(*a))
    cs = walk_sample(design, 2500, "rect", None, np.random.default_rng(203))
    assert sizes == [len(np.unique(origins * 2 * dim + axes))] and sizes[0] <= 150
    for field in ("points", "origin", "t_lower", "directions", "boundary_hit", "uncertified"):
        assert getattr(cs, field).tobytes() == getattr(full, field).tobytes()
    assert boundary_proportion(design, 2500, "rect", metric, np.random.default_rng(203)) == prop
    # unif and proj batches repeat no walk: the proportion is the batch's own
    for strategy in ("unif", "proj"):
        rng = np.random.default_rng(204)
        walks = vorcands._walk_batch(design, 2500, strategy, metric, None, rng)
        if metric is LINF:
            prop = vorwalk(design, *walks[:2], walks[3]).boundary_hit.mean()
        else:
            prop = _top_bracket_flags(design, *walks[:2], metric).mean()
        assert 0.0 < prop < 1.0
        rng = np.random.default_rng(204)
        assert boundary_proportion(design, 2500, strategy, metric, rng) == prop


@pytest.mark.parametrize("metric", list(Metric))
def test_direct_sample_unif_directions_scaled_by_walk_metric(metric):
    # the study's unif batches are scaled under its metric, the walks' under L-inf
    rng = np.random.default_rng(202)
    design = rng.random((12, 4))
    _, directions, _, _ = vorcands._walk_batch(design, 50, "unif", metric, 0, rng)
    norms = distance(metric, directions, np.zeros(4))
    np.testing.assert_allclose(norms, np.sqrt(4.0) * (1 + 1e-9), rtol=1e-12)


def test_direct_sample_errors():
    design = np.random.default_rng(0).random((5, 2))
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="strategy"):
        walk_sample(design, 4, "grid", 0, rng)
    with pytest.raises(ValueError, match="incumbent"):
        walk_sample(design, 4, "unif", 9, rng)
    with pytest.raises(ValueError, match="count"):
        walk_sample(design, 0, "unif", 0, rng)
    with pytest.raises(ValueError, match="count"):
        walk_sample(design, 0, "proj", None, rng)
    # proj walks ignore the incumbent, so an index out of range is not an error
    assert len(walk_sample(design, 4, "proj", 9, rng)) == 4


def test_direct_sample_single_point_design():
    design = np.array([[0.5, 0.5]])
    cs = walk_sample(design, 8, "rect", 0, np.random.default_rng(3))
    assert (cs.origin == 0).all()
    assert cs.boundary_hit.all()


def test_project_sample_1d_frozen():
    # every walk runs from the owner of its Latin hypercube point toward it
    # and stops on the bisector of {0, 1}, which ties to point 0
    design = np.array([[0.0], [1.0]])
    cs = walk_sample(design, 20, "proj", None, np.random.default_rng(4))
    pre = lhs(20, 1, np.random.default_rng(4))
    np.testing.assert_allclose(cs.points[:, 0], 0.5, atol=1e-8)
    np.testing.assert_array_equal(cs.origin, pre[:, 0] > 0.5)


def test_project_sample_degenerate_precandidate(monkeypatch):
    # a precandidate exactly on a design point gives no direction, so its
    # walk is redirected at random with the same length sqrt(P)
    design = np.array([[0.25, 0.25], [0.75, 0.75]])
    monkeypatch.setattr(vorcands, "lhs", lambda count, dim, rng: np.array([[0.25, 0.25]]))
    cs = walk_sample(design, 1, "proj", None, np.random.default_rng(8))
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
    # the study walks nothing; the L-inf walks of the same stream, under the
    # closed-form and under the bisected crossing, are its oracle
    real_vorwalk = vorcands.vorwalk
    walks = []

    def recording(*args):
        walks.append(real_vorwalk(*args))
        return walks[-1]

    monkeypatch.setattr(vorcands, "vorwalk", recording)
    design = np.random.default_rng([110, n, dim]).random((n, dim))
    study = boundary_proportion(design, 300, strategy, LINF, np.random.default_rng(8))
    assert not walks
    for crossing in (real_crossing, _bisected_crossing):
        monkeypatch.setattr(vorcands, "_crossing", crossing)
        cs = walk_sample(design, 300, strategy, None, np.random.default_rng(8))
        assert cs.boundary_hit.mean() == study
    assert len(walks) == 2 and all(len(cs) > 0 for cs in walks)
    assert not any(cs.uncertified.any() for cs in walks)


def _study_designs() -> dict[str, np.ndarray]:
    designs = {
        f"{n}x{dim}": np.random.default_rng([120, n, dim]).random((n, dim))
        for n, dim in ((10, 2), (100, 10), (1000, 2))
    }
    # row 2 repeats row 0, which owns every point the two tie on: row 2's
    # walks all reach the fallback
    designs["repeated-row"] = np.array([[0.2, 0.3], [0.7, 0.6], [0.2, 0.3]])
    # rows 0 and 2 differ by 1e-9 in one coordinate, so across most of the
    # cube their distances tie after rounding and many walks from the pair
    # reach the fallback
    for dim in (2, 5):
        design = np.random.default_rng([121, dim]).random((3, dim))
        design[2] = design[0]
        design[2, 0] += 1e-9
        designs[f"near-duplicate-{dim}"] = design
    return designs


_STUDY_DESIGNS = _study_designs()


@pytest.mark.parametrize("name", list(_STUDY_DESIGNS))
@pytest.mark.parametrize("strategy", vorcands.STRATEGIES)
@pytest.mark.parametrize("metric", list(Metric))
def test_boundary_proportion_is_the_walked_flags_mean(metric, strategy, name):
    # under L-inf the study's proportion is the walks' own; under L1 and L2,
    # which no walk takes, it is the owner oracle's at each walk's top bracket
    design = _STUDY_DESIGNS[name]
    bisected = 0
    for seed in (30, 31):
        prop = boundary_proportion(design, 400, strategy, metric, np.random.default_rng(seed))
        if metric is LINF:
            cs = walk_sample(design, 400, strategy, None, np.random.default_rng(seed))
            flags = cs.boundary_hit
            bisected += cs.uncertified.sum()
        else:
            rng = np.random.default_rng(seed)
            origins, u, rows, _ = vorcands._walk_batch(design, 400, strategy, metric, None, rng)
            flags = _top_bracket_flags(design, origins, u, metric)[rows]
        assert prop == flags.mean()
    # the fallback's flags are among those compared; proj walks start at the
    # owner of a point, so none of them reaches it on these designs
    if metric is LINF and name.startswith(("repeated", "near")) and strategy != "proj":
        assert bisected > 0


@pytest.mark.parametrize("strategy", vorcands.STRATEGIES)
@pytest.mark.parametrize("metric", list(Metric))
def test_boundary_proportion_makes_one_owner_query(metric, strategy, nn_rows):
    # one query at the lower end of every distinct walk's top bracket, after
    # proj's query of its precandidates
    design = np.random.default_rng(122).random((100, 10))
    boundary_proportion(design, 500, strategy, metric, np.random.default_rng(3))
    if strategy == "proj":
        assert nn_rows == [500, 500]
    else:
        assert len(nn_rows) == 1 and nn_rows[0] <= 500
