"""Candidate generation on the boundaries of implicit Voronoi cells.

Given a design X in [0, 1]^P, the Voronoi cell of a design point x_n is the
region whose nearest design point is x_n.  Points on the shared boundaries
of these cells are equidistant to two or more design points, which makes
them natural probe locations for sequential optimization: they are exactly
the locations the design is least sure about, away from every evaluated
point in every direction.

Rather than constructing the tessellation (hopeless beyond a few
dimensions), candidates are found by walks.  A walk starts at a design
point a = x_n, picks a direction u, and looks for the first t in [0, 1] at
which a + t*u leaves the cell of x_n.  Cells are star-shaped around their
design point under the metrics used here, so "a + t*u is still in the cell"
is monotone in t.  The walk finds the crossing by blocker-shooting: a walk
at t holds the bracket [t - 2^-(K+1), t + 2^-(K+1)] of width 2^-K ([1 -
2^-K, 1] at t = 1, where it starts), and each round probes its lower end.
If the probe's nearest design point x_j (ties to the smaller index, as in
`nn_index`) is x_n, that end is certified; otherwise t jumps to the exact
crossing of the bisector of x_n and x_j with the ray (closed form under
every metric).  Each round costs one nearest-neighbour query, batched over
the live walks, and a walk typically needs two or three.  Probes are
evaluated where they land, outside the unit cube included --
nearest-neighbour identity is well defined on all of R^P -- so the walk
tracks the true cell face even when that face lies beyond a cube wall.

The upper end needs no scan: one pair of distances shows that the last
blocker beats x_n there, and only where that pair could round the other
way does a batched query check it.  A walk that still fails (its crossing
did not fall, rounding left its upper end in the cell, or the bracket would
reach past t = 0 or t = 1) reruns the K-round bisection on the owner
predicate, the single fallback path, and is flagged `uncertified`.

Returned points are the bracket midpoints clamped to the cube.  A walk
whose full step never leaves its origin's cell is flagged `boundary_hit`:
the direction scalings of `walk_sample` make such a step leave the cube
itself, so a flagged candidate is pinned to a cube face by the clamp.
`walk_sample` draws a batch of origins and directions for one strategy
(unif, rect or proj) in one place, walks it (a rect walk that the batch
repeats, only once), and pulls every candidate that touches a face --
flagged or merely clamped -- halfway back toward its origin, which keeps
candidates off the (rarely optimal) faces of the cube without discarding
the direction searched.  `scheme_final` (the optimizer's scheme) and
`boundary_proportion` (the wall-hit study) are built on the same batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn_index
from .metrics import Metric, distance
from .sampling import lhs, sphere_direction

#: Walks bracket the boundary within 2^-30 ~ 1e-9; the fallback bisection
#: takes this many rounds.
BISECTION_ITERS = 30

#: Directions are scaled to sqrt(P) * (1 + _NORM_SLACK) so their norm lands
#: strictly past sqrt(P) rather than exactly on it.
_NORM_SLACK = 1e-9

#: Under L1 and L2 a blocker settles an upper end unqueried only if nearer by
#: _PAIR_MARGIN * P * d(origin): `distance` and the query's `cdist` sum in
#: different orders, each within about P * eps.
_PAIR_MARGIN = 16 * np.finfo(float).eps

#: Precandidates closer than this to their nearest design point give no
#: usable direction and are redirected uniformly at random.
_DEGENERATE_NORM = 1e-12

STRATEGIES = ("unif", "rect", "proj")


@dataclass
class CandidateSet:
    """Walk results.

    `t_lower` and `directions` describe the final bracket
    [t_lower, t_lower + bracket_width] of the underlying walk; `points` holds
    the clamped bracket midpoints, except that `walk_sample` replaces
    face-touching candidates by the point halfway back to their origin.
    `boundary_hit` marks walks whose full step never left the origin's cell
    (the bracket never closed), and `uncertified` marks walks whose shot
    bracket failed its owner checks and were bisected instead; both are kept
    through the halfway pull as diagnostics.
    """

    points: np.ndarray
    boundary_hit: np.ndarray
    uncertified: np.ndarray
    origin: np.ndarray
    bracket_width: float
    t_lower: np.ndarray
    directions: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    def take(self, rows: np.ndarray) -> CandidateSet:
        """The walks at `rows`, in that order (repeats allowed)."""
        return replace(
            self,
            points=self.points[rows],
            boundary_hit=self.boundary_hit[rows],
            uncertified=self.uncertified[rows],
            origin=self.origin[rows],
            t_lower=self.t_lower[rows],
            directions=self.directions[rows],
        )


def _as_design(design: np.ndarray) -> np.ndarray:
    design = np.ascontiguousarray(design, dtype=float)
    if design.ndim != 2 or min(design.shape) < 1:
        raise ValueError(f"design must be N >= 1 points in P >= 1 dimensions, got {design.shape}")
    if design.min() < 0.0 or design.max() > 1.0:
        raise ValueError("design points must lie in the unit cube")
    return design


def _crossing(
    metric: Metric,
    anchors: np.ndarray,
    directions: np.ndarray,
    blockers: np.ndarray,
    strict: np.ndarray,
) -> np.ndarray:
    """Where each ray a + t*u leaves the side of the bisector of a and x nearer a.

    By the triangle inequality g(t) = d(a + t*u, x) - d(a + t*u, a) is
    non-increasing in t under every norm.  Ties belong to the smaller index
    (as in `nn_index`), so the walk leaves at the largest t with g(t) > 0
    where `strict` (x has the smaller index) and g(t) >= 0 elsewhere; the
    two differ where g stays 0 over an interval, as under L-inf when x and
    a share the coordinate u is longest in, and under L1 when the
    coordinates u points toward x in hold half of |x - a|_1.  The crossing
    is in closed form under every metric; infinite means the walk never
    leaves.  Under L1 it is 1.0 wherever the distances at t = 1 keep a.
    """
    w = blockers - anchors
    if metric is Metric.L2:
        # g >= 0  <=>  |w|^2 - 2 t u.w >= 0, which is 0 at a single t
        uw = (directions * w).sum(axis=1)
        with np.errstate(divide="ignore"):
            return np.where(uw > 0.0, (w * w).sum(axis=1) / (2.0 * uw), np.inf)
    if metric is Metric.LINF:
        # g >= 0  <=>  |t*u_i - w_i| >= t*m for some i, m = max|u|: a union
        # of the 2P intervals t <= -w_i / (m - u_i) and t <= w_i / (m + u_i);
        # a 0 / 0 bound (w_i = 0, |u_i| = m) gives g_i = 0 for every t
        m = np.abs(directions).max(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = np.concatenate([-w / (m - directions), w / (m + directions)], axis=1)
        bounds = np.where(np.isnan(bounds), np.where(strict, -np.inf, np.inf)[:, None], bounds)
        return bounds.max(axis=1)

    # L1: g = |w|_1 - 2 F(t), F(t) = sum_i min(t |u_i|, c_i) with c_i = |w_i|
    # where u_i w_i > 0 (0 elsewhere), is concave and piecewise linear.  Over
    # the knots c_i / |u_i| in order, the segment ending at knot k is F =
    # sum_{j<k} c_j + t sum_{j>=k} |u_j|; solve the first whose end reaches
    # |w|_1 / 2 where `strict` and passes it elsewhere, so only a strict walk
    # leaves a flat stretch at |w|_1 / 2 (where it starts; at t = 0 if w = 0)
    toward = directions * w > 0.0
    c, s = np.abs(w) * toward, np.abs(directions) * toward
    knots = np.divide(c, s, out=np.zeros_like(c), where=toward)
    order = np.argsort(knots, axis=1)
    knots, c, s = (np.take_along_axis(v, order, axis=1) for v in (knots, c, s))
    c_below, s_from = np.cumsum(c, axis=1) - c, np.cumsum(s[:, ::-1], axis=1)[:, ::-1]
    half = 0.5 * np.abs(w).sum(axis=1)
    ends = c_below + knots * s_from
    past = np.where(strict[:, None], ends >= half[:, None], ends > half[:, None])
    k, rows = past.argmax(axis=1), np.arange(len(w))
    found, slope = past[rows, k], s_from[rows, k]
    cross = np.where(found, 0.0, np.inf)
    np.divide(half - c_below[rows, k], slope, out=cross, where=found & (slope > 0.0))
    # t = 1 is the origin's wherever the distances there say so
    probes = anchors + directions
    d_blocker, d_origin = distance(metric, probes, blockers), distance(metric, probes, anchors)
    return np.where(np.where(strict, d_blocker > d_origin, d_blocker >= d_origin), 1.0, cross)


def _bracket(t: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Bracket ends around crossings t; t = 1 (the walk never left) gives [1 - width, 1]."""
    t_lo = np.where(t == 1.0, 1.0 - width, t - 0.5 * width)
    return t_lo, t_lo + width


def vorwalk(
    design: np.ndarray, origins: np.ndarray, directions: np.ndarray, metric: Metric
) -> CandidateSet:
    """Run a batch of walks against `design` under `metric`.

    Each walk c starts at ``design[origins[c]]`` and shoots along
    ``directions[c]`` from t = 1.  With K = `BISECTION_ITERS`, each round
    queries the lower end of every live walk's bracket [t - 2^-(K+1), t +
    2^-(K+1)] ([1 - 2^-K, 1] at t = 1) in one batch.  A walk whose origin
    owns it is done; any other jumps t to the crossing of that owner's
    bisector with the ray, strictly lower in exact arithmetic, and keeps the
    owner as its blocker.  A walk whose crossing does not lower t
    (rounding) goes to the fallback.

    An upper end is certified when its blocker beats the origin there
    (nearer, or tied with the smaller index): exactly by `distance` under
    L-inf, which is the query's own arithmetic, by a rounding margin
    (`_PAIR_MARGIN`) under L1 and L2, and by one batched query for the
    rest.  Walks that fail rerun a K-round bisection on the owner predicate
    and are flagged `uncertified`.  The returned points are the bracket
    midpoints, clamped to the cube.

    A candidate is flagged `boundary_hit` when the origin's cell never
    ended within the full step; its bracket is [1 - 2^-K, 1], as bisection
    would give.  Directions scaled past the cube's own extent (as
    `walk_sample` scales them) make such a step exit the cube, so flagged
    candidates sit pinned on a cube face.
    """
    design = _as_design(design)
    n, dim = design.shape
    if origins.ndim != 1 or directions.ndim != 2:
        raise ValueError("origins must be 1-D and directions 2-D")
    if directions.shape != (origins.shape[0], dim):
        raise ValueError(
            f"directions shape {directions.shape} does not match "
            f"{origins.shape[0]} origins in dimension {dim}"
        )
    if origins.min(initial=0) < 0 or origins.max(initial=0) >= n:
        raise ValueError("origin indices out of range")
    if not np.isfinite(directions).all():
        raise ValueError("directions must be finite")
    if not (np.sqrt((directions * directions).sum(axis=1)) > 0.0).all():
        raise ValueError("every direction must have positive norm")

    index = nn_index.build(design, metric)
    anchors = design[origins]
    width = 0.5**BISECTION_ITERS
    t = np.ones(len(origins))
    blocker = origins.copy()
    certified = np.zeros(len(origins), dtype=bool)

    # shoot: query each live walk's lower end; the origin owning it certifies
    # that end, and any other owner moves the walk down to its own crossing
    live = np.arange(len(origins))
    while live.size:
        t_lo, _ = _bracket(t[live], width)
        owner = nn_index.nearest_batch(index, anchors[live] + t_lo[:, None] * directions[live])
        held = owner == origins[live]
        certified[live[held]] = True
        live, owner = live[~held], owner[~held]
        cross = _crossing(
            metric, anchors[live], directions[live], design[owner], owner < origins[live]
        )
        moved = cross < t[live]
        live = live[moved]
        t[live], blocker[live] = cross[moved], owner[moved]

    # certify each closed upper end by the pair (blocker, origin) alone, or,
    # where rounding could flip that pair, by one batched query
    t_lo, t_hi = _bracket(t, width)
    certified &= (t == 1.0) | ((t_lo >= 0.0) & (t_hi < 1.0))
    up = np.flatnonzero(certified & (t < 1.0))
    probes = anchors[up] + t_hi[up, None] * directions[up]
    d_blocker = distance(metric, probes, design[blocker[up]])
    d_origin = distance(metric, probes, anchors[up])
    if metric is Metric.LINF:  # `distance` is the query's arithmetic here, ties included
        tie = (d_blocker == d_origin) & (blocker[up] < origins[up])
        beaten = (d_blocker < d_origin) | tie
    else:
        beaten = d_blocker < d_origin - _PAIR_MARGIN * dim * d_origin
    if not beaten.all():
        rest = up[~beaten]
        certified[rest] = nn_index.nearest_batch(index, probes[~beaten]) != origins[rest]

    # the fallback: bisect t in [0, 1] on the owner predicate
    redo = np.flatnonzero(~certified)
    if redo.size:
        t_lo[redo], t_hi[redo] = 0.0, 1.0
        for _ in range(BISECTION_ITERS):
            mid = 0.5 * (t_lo[redo] + t_hi[redo])
            probes = anchors[redo] + mid[:, None] * directions[redo]
            ok = nn_index.nearest_batch(index, probes) == origins[redo]
            t_lo[redo[ok]], t_hi[redo[~ok]] = mid[ok], mid[~ok]

    mid = 0.5 * (t_lo + t_hi)
    return CandidateSet(
        points=np.clip(anchors + mid[:, None] * directions, 0.0, 1.0),
        boundary_hit=t_hi == 1.0,
        uncertified=~certified,
        origin=origins.copy(),
        bracket_width=width,
        t_lower=t_lo,
        directions=directions.copy(),
    )


def _halfway_rule(cands: CandidateSet, design: np.ndarray) -> CandidateSet:
    """Pull every face-touching point to the midpoint between it and its origin.

    A candidate touches a face when its walk was flagged (the step never
    left the origin's cell) or when the clamp pinned any coordinate to 0 or
    1 because the cell boundary lay beyond the cube.  Either way the point
    is replaced by the midpoint of its origin and the face location, so no
    returned candidate keeps a coordinate on the cube faces (unless its
    origin is there).  Candidates clear of the faces are untouched; the
    `boundary_hit` flags are kept as diagnostics.  Operates in place and
    returns the same set.
    """
    pinned = (cands.points == 0.0).any(axis=1) | (cands.points == 1.0).any(axis=1)
    hit = cands.boundary_hit | pinned
    if hit.any():
        cands.points[hit] = 0.5 * (design[cands.origin[hit]] + cands.points[hit])
    return cands


def _walk_batch(
    design: np.ndarray,
    count: int,
    strategy: str,
    metric: Metric,
    incumbent: int | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origins and directions of the distinct walks of one strategy, and `rows`.

    The batch of `count` walks (see `walk_sample`) is walk `rows[c]` of the
    returned ones for each c.  A rect walk is fixed by its origin and signed
    axis, both drawn with replacement, so only rect batches repeat walks; the
    others return every walk, with `rows` = 0, 1, ..., count - 1.
    """
    n, dim = design.shape
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    scale = np.sqrt(dim) * (1.0 + _NORM_SLACK)

    if strategy == "proj":
        # one walk from each precandidate's nearest design point toward it
        pre = lhs(count, dim, rng)
        origins = nn_index.nearest_batch(nn_index.build(design, metric), pre)
        d = pre - design[origins]
        norms = np.sqrt((d * d).sum(axis=1))
        for i in np.flatnonzero(norms <= _DEGENERATE_NORM):
            d[i] = sphere_direction(dim, rng)
            norms[i] = 1.0
        return origins, d * (scale / norms)[:, None], np.arange(count)

    # origins before directions; with an incumbent, the other origins are
    # drawn from the other n - 1 points (all zeros when it is the only one)
    if incumbent is None:
        origins = rng.integers(0, n, size=count).astype(np.intp)
    else:
        if not 0 <= incumbent < n:
            raise ValueError(f"incumbent {incumbent} out of range for {n} design points")
        n_inc = min(2 * dim, count)
        others = np.zeros(count - n_inc, dtype=np.intp)
        if n > 1:
            others = np.delete(np.arange(n), incumbent)[rng.integers(0, n - 1, others.size)]
        origins = np.concatenate([np.full(n_inc, incumbent, dtype=np.intp), others.astype(np.intp)])

    if strategy == "unif":
        d = rng.standard_normal((count, dim))
        norms = distance(metric, d, 0.0)
        for i in np.flatnonzero(norms <= _DEGENERATE_NORM):
            d[i] = sphere_direction(dim, rng)
            norms[i] = distance(metric, d[i], 0.0)
        return origins, d * (scale / norms)[:, None], np.arange(count)
    axes = rng.integers(0, 2 * dim, size=count)
    _, first, rows = np.unique(origins * (2 * dim) + axes, return_index=True, return_inverse=True)
    origins, axes = origins[first], axes[first]
    d = np.zeros((first.size, dim))
    d[np.arange(first.size), axes % dim] = np.where(axes < dim, scale, -scale)
    return origins, d, rows


def walk_sample(
    design: np.ndarray,
    count: int,
    strategy: str,
    metric: Metric,
    incumbent: int | None,
    rng: np.random.Generator,
) -> CandidateSet:
    """`count` walk candidates of one strategy, pulled off the cube faces.

    "unif" walks go along isotropic directions scaled to norm sqrt(P) under
    the walk metric, "rect" walks along signed coordinate axes of length
    sqrt(P), the same under every metric.  Given an `incumbent` design
    index, the first min(2P, count) of these walks start there and the
    rest from the other design points; without one, every origin is drawn
    uniformly (with replacement) from all design points.  "proj" walks
    ignore the incumbent: each point z of a fresh Latin hypercube starts a
    walk at its nearest design point, aimed at z with Euclidean length
    sqrt(P), so the candidates inherit the hypercube's spread without an
    origin bias; a z on its design point carries no direction and is
    redirected uniformly at random.  Face-touching candidates are pulled
    halfway back toward their origins (`_halfway_rule`).
    """
    design = _as_design(design)
    origins, directions, rows = _walk_batch(design, count, strategy, metric, incumbent, rng)
    return _halfway_rule(vorwalk(design, origins, directions, metric).take(rows), design)


def scheme_final(
    design: np.ndarray,
    count: int,
    iteration: int,
    incumbent: int,
    rng: np.random.Generator,
) -> CandidateSet:
    """The candidate scheme used by the optimizer: alternate rect and proj.

    Even iterations (0-based) run incumbent-biased axis walks, odd iterations
    run projection walks from a fresh Latin hypercube, both under the
    Chebyshev metric -- axis walks exploit around the incumbent while the
    projection iterations restore global coverage.
    """
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    if iteration % 2 == 0:
        return walk_sample(design, count, "rect", Metric.LINF, incumbent, rng)
    return walk_sample(design, count, "proj", Metric.LINF, None, rng)


def boundary_proportion(
    design: np.ndarray,
    count: int,
    strategy: str,
    metric: Metric,
    rng: np.random.Generator,
) -> float:
    """Fraction of raw walks flagged as wall hits.

    Runs `count` walks with unbiased origins (uniform over all design points
    for "unif"/"rect"; precandidate assignment for "proj") and no halfway
    pull-back, and reports the mean of the `boundary_hit` flags: the
    fraction of walks whose step ran out before the origin's cell did.
    """
    design = _as_design(design)
    origins, directions, rows = _walk_batch(design, count, strategy, metric, None, rng)
    return float(vorwalk(design, origins, directions, metric).boundary_hit[rows].mean())
