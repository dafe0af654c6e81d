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
at t holds the bracket [t - 2^-(K+1), t + 2^-(K+1)] of width 2^-K, starting
at the top bracket [1 - 2^-K, 1], and each round probes its lower end.
If the probe's nearest design point x_j (ties to the smaller index) is
x_n, that end is certified; otherwise t jumps to the exact crossing of the
bisector of x_n and x_j with the ray (closed form under every metric).
Each round costs one owner query (`nn_index.nearest_batch`), batched over
the live walks, and a walk typically needs two or three.  One seed rule
serves every batch with an incumbent or precandidates: a walk starts at the
lowest crossing among a few runner-ups of the owner query that named its
origin, an upper bound on its exit, and most then need one round.  Probes are
evaluated where they land, outside the unit cube included --
nearest-neighbour identity is well defined on all of R^P -- so the walk
tracks the true cell face even when that face lies beyond a cube wall.

The upper end needs no scan: one pair of distances in the query's own
arithmetic (`nn_index.distance`) shows that the last blocker beats x_n
there, nearer or tied with the smaller index.  A walk that fails (its
crossing did not fall, rounding left its upper end in the cell, or the
bracket would reach past t = 0 or t = 1) reruns the K-round bisection on the
owner predicate, the single fallback path, and is flagged `uncertified`.

Returned points are the bracket midpoints clamped to the cube.  A walk
whose full step never leaves its origin's cell is flagged `boundary_hit`.
The direction scalings of `walk_sample` make most such steps leave the
cube, so the clamp pins the candidate to a face; but a unif step under L1
has length sqrt(P), short of the cube's L1 diameter P, and can end inside.
`walk_sample` draws a batch of origins and directions for one strategy
(unif, rect or proj) in one place, walks it (a rect walk that the batch
repeats, only once), and pulls every flagged or clamped candidate halfway
back toward its origin, which keeps candidates off the (rarely optimal)
faces of the cube, keeping the direction searched.  `scheme_final` (the
optimizer's scheme) walks such batches.  `boundary_proportion` (the wall-hit
study) draws the same batches but walks none: a walk is flagged when its
origin owns the lower end of its top bracket, so one owner query per walk
settles the flag (exactly, but for a proj seed crossing in that bracket).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import nn_index
from .nn_index import Metric, distance
from .sampling import lhs

#: Walks bracket the boundary within 2^-30 ~ 1e-9; the fallback bisection
#: takes this many rounds.
BISECTION_ITERS = 30

#: Directions are scaled to sqrt(P) * (1 + _NORM_SLACK) so their norm lands
#: strictly past sqrt(P) rather than exactly on it.
_NORM_SLACK = 1e-9

#: A direction shorter than this (a precandidate on its design point, or a
#: vanishing normal draw) is unusable and is redrawn uniformly at random.
_DEGENERATE_NORM = 1e-12

#: Runner-ups of an owner query that `walk_sample` passes as seeds to `vorwalk`.
_SEEDS = 4

STRATEGIES = ("unif", "rect", "proj")


@dataclass
class CandidateSet:
    """Walk results.

    `t_lower` and `directions` describe the final bracket
    [t_lower, t_lower + bracket_width] of the underlying walk; `points` holds
    the clamped bracket midpoints, except that `walk_sample` replaces
    flagged or clamped candidates by the point halfway back to their origin.
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
        """The walks at `rows`, in that order (repeats allowed), from every array field."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{k: v[rows] for k, v in arrays.items() if isinstance(v, np.ndarray)})


def _as_design(design: np.ndarray) -> np.ndarray:
    design = np.ascontiguousarray(design, dtype=float)
    if design.ndim != 2 or min(design.shape) < 1:
        raise ValueError(f"design must be N >= 1 points in P >= 1 dimensions, got {design.shape}")
    # written so that a NaN, which compares false, fails too
    if not (design.min() >= 0.0 and design.max() <= 1.0):
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
    (as in `nn_index.nearest_batch`), so the walk leaves at the largest t
    with g(t) > 0 where `strict` (x has the smaller index) and g(t) >= 0
    elsewhere; the two differ where g stays 0 over an interval, as under
    L-inf when x and a share the coordinate u is longest in, and under L1
    when the coordinates u points toward x in hold half of |x - a|_1.  The
    crossing is the exact closed form under every metric, with no distance
    evaluated; it may exceed 1, and infinite means the ray never leaves.
    """
    w = blockers - anchors
    if metric is Metric.L2:
        # g >= 0  <=>  |w|^2 - 2 t u.w >= 0, which is 0 at a single t
        uw = (directions * w).sum(axis=1)
        cross = np.full(len(w), np.inf)
        return np.divide((w * w).sum(axis=1), 2.0 * uw, out=cross, where=uw > 0.0)
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
    return cross


def vorwalk(
    design: np.ndarray,
    origins: np.ndarray,
    directions: np.ndarray,
    metric: Metric,
    seeds: np.ndarray | None = None,
) -> CandidateSet:
    """Run a batch of walks against `design` under `metric`.

    Each walk c starts at ``design[origins[c]]`` and shoots along
    ``directions[c]``.  With K = `BISECTION_ITERS`, a walk at t holds the
    bracket [t - 2^-(K+1), t + 2^-(K+1)], and t starts at 1 - 2^-(K+1), the
    top bracket [1 - 2^-K, 1] exactly.  Each round queries the lower end of
    every live walk's bracket in one batch.  A walk whose origin owns it is
    done; any other jumps t to the crossing of that owner's bisector with
    the ray, strictly lower in exact arithmetic, and keeps the owner as its
    blocker.  A walk whose crossing does not lower t (rounding) goes to the
    fallback.

    `seeds`, a (walks x k) array of design indices, moves each walk before
    the first round to the lowest crossing among its seeds, ties to the
    smaller index, if that lies below the top bracket.  `_crossing`'s g(t)
    is non-increasing, so the exit is the lowest crossing over all design
    points and any seed's bounds it from above: the rounds go on as before.

    An upper end is certified when its blocker beats the origin there
    (nearer, or tied with the smaller index) by `distance`, the query's own
    arithmetic, so the pair decides it as a query would.  Walks that fail
    rerun a K-round bisection on the owner predicate and are flagged
    `uncertified`.  The returned points are the bracket midpoints, clamped
    to the cube.

    A candidate is flagged `boundary_hit` when the origin's cell never
    ended within the full step; its bracket is [1 - 2^-K, 1], as bisection
    would give.  A step longer than the cube's extent then ends outside it,
    and the clamp pins the candidate to a face; `walk_sample`'s unif steps
    under L1 are shorter, so their flagged candidates can end inside.
    """
    design = _as_design(design)
    n, dim = design.shape
    if origins.ndim != 1 or origins.dtype.kind not in "iu" or directions.ndim != 2:
        raise ValueError("origins must be a 1-D integer array and directions 2-D")
    if directions.shape != (origins.shape[0], dim):
        raise ValueError(
            f"directions shape {directions.shape} does not match "
            f"{origins.shape[0]} origins in dimension {dim}"
        )
    if origins.min(initial=0) < 0 or origins.max(initial=0) >= n:
        raise ValueError("origin indices out of range")
    if seeds is not None:
        if seeds.ndim != 2 or len(seeds) != len(origins) or seeds.dtype.kind not in "iu":
            raise ValueError(f"seeds must be a 2-D integer array with {len(origins)} rows")
        if seeds.min(initial=0) < 0 or seeds.max(initial=0) >= n:
            raise ValueError("seed indices out of range")
    if not np.isfinite(directions).all():
        raise ValueError("directions must be finite")
    if not (distance(Metric.L2, directions, 0.0) > 0.0).all():
        raise ValueError("every direction must have positive norm")

    anchors = design[origins]
    width = 0.5**BISECTION_ITERS
    t = np.full(len(origins), 1.0 - 0.5 * width)
    blocker = origins.copy()
    certified = np.zeros(len(origins), dtype=bool)

    # seed: start at the lowest crossing among the seeds (in index order, so
    # ties go to the smaller), where it is below t; a seed on its origin never crosses
    if seeds is not None:
        for s in np.sort(seeds, axis=1).T:
            cross = _crossing(metric, anchors, directions, design[s], s < origins)
            lower = cross < t
            t[lower], blocker[lower] = cross[lower], s[lower]

    # shoot: query each live walk's lower end; the origin owning it certifies
    # that end, and any other owner moves the walk down to its own crossing
    live = np.arange(len(origins))
    while live.size:
        probes = anchors[live] + (t[live] - 0.5 * width)[:, None] * directions[live]
        owner = nn_index.nearest_batch(design, probes, metric)
        held = owner == origins[live]
        certified[live[held]] = True
        live, owner = live[~held], owner[~held]
        cross = _crossing(
            metric, anchors[live], directions[live], design[owner], owner < origins[live]
        )
        moved = cross < t[live]
        live = live[moved]
        t[live], blocker[live] = cross[moved], owner[moved]

    # certify each closed upper end by the pair (blocker, origin) alone
    t_lo, t_hi = t - 0.5 * width, t + 0.5 * width
    certified &= t_lo >= 0.0
    up = np.flatnonzero(certified & (t_hi < 1.0))
    probes = anchors[up] + t_hi[up, None] * directions[up]
    d_blocker = distance(metric, probes, design[blocker[up]])
    d_origin = distance(metric, probes, anchors[up])
    certified[up] = (d_blocker < d_origin) | ((d_blocker == d_origin) & (blocker[up] < origins[up]))

    # the fallback: bisect t in [0, 1] on the owner predicate
    redo = np.flatnonzero(~certified)
    if redo.size:
        t_lo[redo], t_hi[redo] = 0.0, 1.0
        for _ in range(BISECTION_ITERS):
            mid = 0.5 * (t_lo[redo] + t_hi[redo])
            probes = anchors[redo] + mid[:, None] * directions[redo]
            ok = nn_index.nearest_batch(design, probes, metric) == origins[redo]
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
    """Pull every flagged or clamped point to the midpoint between it and its origin.

    A candidate is pulled when its walk was flagged (the step never left the
    origin's cell), whether or not it ended on a face, or when the clamp
    pinned any coordinate to 0 or 1 because the cell boundary lay beyond the
    cube.  Either way the point is replaced by the midpoint of its origin
    and itself, so no returned candidate keeps a coordinate on the cube
    faces (unless its origin is there).  Other candidates are untouched; the
    `boundary_hit` flags are kept as diagnostics.  Operates in place and
    returns the same set.
    """
    pinned = (cands.points == 0.0).any(axis=1) | (cands.points == 1.0).any(axis=1)
    hit = cands.boundary_hit | pinned
    cands.points[hit] = 0.5 * (design[cands.origin[hit]] + cands.points[hit])
    return cands


def _scaled(d: np.ndarray, metric: Metric, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Rows of `d` scaled to norm `scale` under `metric`, degenerate rows
    redrawn from the standard normal first."""
    norms = distance(metric, d, 0.0)
    while (bad := np.flatnonzero(norms <= _DEGENERATE_NORM)).size:
        d[bad] = rng.standard_normal((bad.size, d.shape[1]))
        norms[bad] = distance(metric, d[bad], 0.0)
    return d * (scale / norms)[:, None]


def _walk_batch(
    design: np.ndarray,
    count: int,
    strategy: str,
    metric: Metric,
    incumbent: int | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Origins and directions of the distinct walks of one strategy, `rows`, and seeds.

    The batch of `count` walks (see `walk_sample`) is walk `rows[c]` of the
    returned ones for each c.  A rect walk is fixed by its origin and signed
    axis, both drawn with replacement, so only rect batches repeat walks; the
    others return every walk, with `rows` = 0, 1, ..., count - 1.  The seeds are
    the runner-ups of the owner query naming each walk's origin: its precandidate's
    for proj, else one query of every distinct origin's row, or None without an incumbent.
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
        near = nn_index.nearest_batch(design, pre, metric, runners_up=_SEEDS)
        d = _scaled(pre - design[near[:, 0]], Metric.L2, scale, rng)
        return near[:, 0], d, np.arange(count), near[:, 1:]

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
        d, rows = _scaled(rng.standard_normal((count, dim)), metric, scale, rng), np.arange(count)
    else:
        axes = rng.integers(0, 2 * dim, size=count)
        keys = origins * (2 * dim) + axes
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        origins, axes = origins[first], axes[first]
        d = np.zeros((first.size, dim))
        d[np.arange(first.size), axes % dim] = np.where(axes < dim, scale, -scale)
    if incumbent is None:
        return origins, d, rows, None
    distinct, at = np.unique(origins, return_inverse=True)
    ups = nn_index.nearest_batch(design, design[distinct], metric, runners_up=_SEEDS)[:, 1:]
    return origins, d, rows, ups[at]


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
    redirected uniformly at random.  Walks start at their origin's runner-ups
    (the seeds of `_walk_batch`), and flagged or clamped candidates are pulled
    halfway back toward their origins (`_halfway_rule`).
    """
    design = _as_design(design)
    origins, directions, rows, seeds = _walk_batch(design, count, strategy, metric, incumbent, rng)
    return _halfway_rule(vorwalk(design, origins, directions, metric, seeds).take(rows), design)


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
    """Fraction of `count` walks of `walk_sample` flagged as wall hits.

    Draws the batch `walk_sample` would from the same stream (origins
    uniform over the design for "unif"/"rect", precandidate owners for
    "proj") and walks none of it.  With K = `BISECTION_ITERS`, `vorwalk`
    flags a walk (t_hi = 1) only when its origin owns a + (1 - 2^-K) u, the
    lower end of the top bracket: a walk that stays in the top bracket was
    certified there by its first round, and a bisected one ends at t_hi = 1
    only if its last probe, the same point, held.  Conversely a walk that
    starts at the top and whose origin owns that point stops there flagged.
    So one owner query per distinct walk at that point, formed bit for bit
    as the first round forms it, gives the flags of the unseeded unif and
    rect walks exactly, ties and rounding included.  A proj walk's seeds
    start it lower only at a seed crossing below 1 - 2^-(K+1), past which the
    seed takes the point from the origin unless the crossing lies in
    [1 - 2^-K, 1 - 2^-(K+1)) or within rounding of it; only there can the
    query and the walk differ.  The halfway pull-back moves points, not flags.
    """
    design = _as_design(design)
    origins, directions, rows, _ = _walk_batch(design, count, strategy, metric, None, rng)
    ends = design[origins] + (1.0 - 0.5**BISECTION_ITERS) * directions
    held = nn_index.nearest_batch(design, ends, metric) == origins
    return float(held[rows].mean())
