"""Sequential Bayesian-optimization loop and replicated-experiment runner.

One *cell* is a (method, seed) pair.  Within a cell the loop is: fit or
rebuild the surrogate per the refit schedule, produce a proposal with the
method's acquisition machinery, evaluate the black box, append, repeat.
Everything consumed from randomness is keyed so that identical (config,
seed) reruns are bit-identical: the problem instance and initial design
depend on the seed alone (and are therefore shared across methods), and
each acquisition iteration draws from an independent substream keyed by
(seed, iteration).

The refit schedule counts acquisition iterations (0-based): a full
maximum-likelihood refit on each of the first `refit_until` iterations and
every `refit_every`-th iteration thereafter; in between, the factorization
is rebuilt with the previous lengthscales so new data still enters the
model.  Fits and rebuilds start from the held model, or from
`gp.LENGTHSCALE_START` before the first.

Timing fields: `cand_ms` records candidate generation for the candidate
methods and the continuous inner search for `opt`; `fit_ms` the surrogate
fit or rebuild; `elapsed_ms` cumulative wall time since the cell started.

Records are returned, never written: `cli` owns the CSV format and every file.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import acquisition, gp
from .bench import TestProblem, check_problem, make_problem
from .nn_index import Metric, distance
from .sampling import lhs, sobol
from .vorcands import scheme_final

DISCRETE_METHODS = ("vor", "lhs", "sobol")  # the methods that score a candidate set
METHODS = (*DISCRETE_METHODS, "opt")

#: Proposals closer than this (L-inf) to an existing row are perturbed.
_DUPLICATE_TOL = 1e-12
_PERTURB_HALFWIDTH = 1e-6

#: The least value of each count setting (n_init: two points fit a surrogate).
FLOORS = {"n_init": 2, "n_candidates": 1, "refit_until": 0, "refit_every": 1, "jobs": 1}


@dataclass
class ExperimentConfig:
    problem: str
    dim: int
    budget: int
    methods: tuple[str, ...] = ("vor",)
    seeds: tuple[int, ...] = (0,)
    n_init: int | None = None  # default 3P
    n_candidates: int | None = None  # default min(5000, 100P)
    refit_until: int = 200
    refit_every: int = 25
    jobs: int = 1

    def resolved_n_init(self) -> int:
        return self.n_init if self.n_init is not None else 3 * self.dim

    def resolved_n_candidates(self) -> int:
        return self.n_candidates if self.n_candidates is not None else min(5000, 100 * self.dim)

    def validate(self) -> None:
        check_problem(self.problem, self.dim)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
        if not self.methods:
            raise ValueError("need at least one method")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        for name, floor in FLOORS.items():
            value = getattr(self, name)  # None resolves to a default above the floor
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if self.budget <= self.resolved_n_init():
            raise ValueError(
                f"budget ({self.budget}) must exceed the initial design size "
                f"({self.resolved_n_init()})"
            )


@dataclass
class TrajectoryRecord:
    seed: int
    method: str
    iteration: int
    x: np.ndarray
    y: float
    y_best: float
    elapsed_ms: float
    cand_ms: float
    fit_ms: float


def seed_instance(config: ExperimentConfig, seed: int) -> tuple[TestProblem, np.random.Generator]:
    """The problem instance of `seed`, and the seed's stream after drawing it."""
    rng = np.random.default_rng([seed])
    return make_problem(config.problem, config.dim, rng), rng


def _shared_start(
    config: ExperimentConfig, seed: int
) -> tuple[TestProblem, np.ndarray, np.ndarray]:
    """Problem instance and evaluated initial design, identical across methods."""
    problem, rng = seed_instance(config, seed)
    design = lhs(config.resolved_n_init(), config.dim, rng)
    y = np.asarray(problem.evaluate(design), dtype=float)
    return problem, design, y


def candidate_points(
    method: str,
    design: np.ndarray,
    count: int,
    iteration: int,
    incumbent: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """`count` candidates of a method in `DISCRETE_METHODS`."""
    if method == "vor":
        return scheme_final(design, count, iteration, incumbent, rng).points
    if method == "lhs":
        return lhs(count, design.shape[1], rng)
    # sobol: advance through the sequence so each iteration is fresh
    return sobol(count, design.shape[1], start_index=1 + iteration * count)


def _propose(
    method: str,
    model: gp.GpModel,
    design: np.ndarray,
    y: np.ndarray,
    iteration: int,
    n_cand: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One proposal; returns (point, seconds spent generating/searching)."""
    y_min = float(y.min())
    incumbent = int(np.argmin(y))
    t0 = time.perf_counter()
    if method == "opt":
        res = acquisition.multistart_opt(model, y_min, design[incumbent], rng)
        return res.point, time.perf_counter() - t0
    points = candidate_points(method, design, n_cand, iteration, incumbent, rng)
    gen_seconds = time.perf_counter() - t0
    return acquisition.argmax_discrete(model, points, y_min).point, gen_seconds


def run_bo(config: ExperimentConfig, seed: int, method: str) -> list[TrajectoryRecord]:
    """Run one cell; one record per acquisition (budget - n_init in total)."""
    config.validate()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    problem, design, y = _shared_start(config, seed)
    n_cand = config.resolved_n_candidates()
    n_acq = config.budget - design.shape[0]

    if method == "sobol":  # load scipy.stats now, or the first draw's timings carry it
        from scipy.stats import qmc  # noqa: F401

    model: gp.GpModel | None = None
    records: list[TrajectoryRecord] = []
    cell_t0 = time.perf_counter()

    for i in range(n_acq):
        rng = np.random.default_rng([seed, i])

        refit = i < config.refit_until or (i - config.refit_until) % config.refit_every == 0
        fit_t0 = time.perf_counter()
        try:
            start = model.lengthscales if model else np.full(config.dim, gp.LENGTHSCALE_START)
            model = (gp.fit if refit else gp.build)(design, y, start)
        except gp.SurrogateFitError:
            # keep the stale model, or fail with none: a rebuild would redo the
            # factorization that just failed (fit raises only if its start's does)
            if model is None:
                raise
        fit_seconds = time.perf_counter() - fit_t0

        proposal, cand_seconds = _propose(method, model, design, y, i, n_cand, rng)

        # the clip can undo the noise (at a corner, all of it), so redraw it
        x_new = proposal
        while distance(Metric.LINF, design, x_new).min() <= _DUPLICATE_TOL:
            noise = rng.uniform(-_PERTURB_HALFWIDTH, _PERTURB_HALFWIDTH, config.dim)
            x_new = np.clip(proposal + noise, 0.0, 1.0)
        y_new = float(problem.evaluate(x_new))
        design = np.vstack([design, x_new])
        y = np.append(y, y_new)

        records.append(
            TrajectoryRecord(
                seed=seed,
                method=method,
                iteration=design.shape[0],
                x=x_new.copy(),
                y=y_new,
                y_best=float(y.min()),
                elapsed_ms=(time.perf_counter() - cell_t0) * 1e3,
                cand_ms=cand_seconds * 1e3,
                fit_ms=fit_seconds * 1e3,
            )
        )
    return records


def _run_cell(args: tuple[ExperimentConfig, str, int]):
    config, method, seed = args
    try:
        return method, seed, run_bo(config, seed, method), None
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return method, seed, [], f"{type(exc).__name__}: {exc}"


def _failure_record(config: ExperimentConfig, method: str, seed: int) -> TrajectoryRecord:
    nan = float("nan")
    return TrajectoryRecord(
        seed=seed,
        method=method,
        iteration=-1,
        x=np.full(config.dim, nan),
        y=nan,
        y_best=nan,
        elapsed_ms=nan,
        cand_ms=nan,
        fit_ms=nan,
    )


def run_suite(
    config: ExperimentConfig,
) -> tuple[list[TrajectoryRecord], list[tuple[str, int, str]]]:
    """Run every (method, seed) cell; returns (records, failures).

    Cells are independent; min(config.jobs, cells) worker processes run
    them, or this process when that is 1.  Records are sorted by (method,
    seed, iteration) so scheduling order can never change them.  A failed
    cell contributes one sentinel record (iteration -1, NaN outputs) and is
    reported in the returned failure list; other cells proceed.
    """
    config.validate()
    cells = [(config, m, s) for m in config.methods for s in config.seeds]
    workers = min(config.jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(c) for c in cells]

    records: list[TrajectoryRecord] = []
    failures: list[tuple[str, int, str]] = []
    for method, seed, recs, error in outcomes:
        if error is None:
            records.extend(recs)
        else:
            failures.append((method, seed, error))
            records.append(_failure_record(config, method, seed))
    records.sort(key=lambda r: (r.method, r.seed, r.iteration))
    return records, failures
