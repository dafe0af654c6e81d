import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from vorbo import driver, gp
from vorbo.driver import ExperimentConfig, TrajectoryRecord, run_bo, run_suite


def _config(**kwargs):
    base = dict(
        problem="ackley",
        dim=2,
        budget=10,
        methods=("vor",),
        seeds=(0,),
        n_candidates=50,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def _content(records):
    return [
        (r.seed, r.method, r.iteration, tuple(r.x), r.y, r.y_best) for r in records
    ]


# -------------------------------- run_bo ------------------------------------


def test_budget_one_past_init_yields_single_record():
    config = _config(budget=7)  # n_init = 3 * 2 = 6
    records = run_bo(config, seed=3, method="vor")
    assert len(records) == 1
    rec = records[0]
    assert rec.iteration == 7
    assert rec.method == "vor" and rec.seed == 3
    assert rec.x.shape == (2,) and ((rec.x >= 0) & (rec.x <= 1)).all()
    assert np.isfinite(rec.y) and rec.y_best <= rec.y


def test_record_count_and_running_minimum():
    config = _config(budget=12)
    records = run_bo(config, seed=1, method="vor")
    assert len(records) == 6
    assert [r.iteration for r in records] == list(range(7, 13))
    best = np.array([r.y_best for r in records])
    assert (np.diff(best) <= 0.0).all()
    for earlier, later in zip(records, records[1:]):
        assert later.y_best == min(earlier.y_best, later.y)
        assert later.elapsed_ms >= earlier.elapsed_ms
    assert all(r.cand_ms >= 0.0 and r.fit_ms >= 0.0 for r in records)


def test_reruns_are_identical():
    config = _config(budget=11)
    first, second = (run_bo(config, seed=5, method="vor") for _ in range(2))
    assert _content(first) == _content(second)


@pytest.mark.parametrize("method", driver.METHODS)
def test_each_method_completes(method):
    config = _config(budget=8, methods=(method,))
    records = run_bo(config, seed=2, method=method)
    assert len(records) == 2
    for rec in records:
        assert ((rec.x >= 0) & (rec.x <= 1)).all()
        assert np.isfinite(rec.y)


def test_initial_design_shared_across_methods():
    one = driver._shared_start(_config(methods=("vor",)), seed=9)
    two = driver._shared_start(_config(methods=("opt", "lhs")), seed=9)
    np.testing.assert_array_equal(one[1], two[1])
    np.testing.assert_array_equal(one[2], two[2])
    np.testing.assert_array_equal(one[0].shift, two[0].shift)


def test_sobol_method_advances_through_sequence():
    config = _config(budget=9, methods=("sobol",))
    records = run_bo(config, seed=4, method="sobol")
    xs = np.array([r.x for r in records])
    assert len({tuple(row) for row in xs}) == len(records)


def test_a_sobol_cell_loads_scipy_stats_before_its_first_timer(monkeypatch):
    # a fresh process: scipy.stats not yet imported, as after `import vorbo.cli`
    for name in [m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")]:
        monkeypatch.delitem(sys.modules, name)
    loaded = []

    def perf_counter():
        loaded.append("scipy.stats.qmc" in sys.modules)
        return time.perf_counter()

    monkeypatch.setattr(driver, "time", SimpleNamespace(perf_counter=perf_counter))
    run_bo(_config(budget=8, methods=("sobol",)), seed=4, method="sobol")
    # every read, the cell's start and each `_propose` timer among them
    assert loaded and all(loaded)


def test_duplicate_proposals_get_perturbed(monkeypatch):
    # every proposal repeats the first design row, or a cube corner; at the
    # corner the clip can undo the noise, so it is redrawn until the point
    # is new (seed 0 draws such noise)
    config = _config(budget=12)
    for anchor, seed in ((None, 6), (np.array([1.0, 0.0]), 0)):
        held = {}

        def resubmit(method, model, design, y, iteration, n_cand, rng):
            held.setdefault("x", design[0].copy() if anchor is None else anchor)
            return held["x"].copy(), 0.0

        monkeypatch.setattr(driver, "_propose", resubmit)
        xs = np.array([rec.x for rec in run_bo(config, seed=seed, method="vor")])
        gaps = np.abs(xs[:, None, :] - xs[None, :, :]).max(axis=2)
        assert (gaps[np.triu_indices(len(xs), 1)] > driver._DUPLICATE_TOL).all()
        if anchor is not None:  # the corner is new when first proposed
            np.testing.assert_array_equal(xs[0], anchor)
            xs = xs[1:]
        offsets = np.abs(xs - held["x"]).max(axis=1)
        assert (offsets > driver._DUPLICATE_TOL).all()
        assert (offsets <= driver._PERTURB_HALFWIDTH).all()


def test_refit_schedule_counts_acquisition_iterations(monkeypatch):
    config = _config(budget=15, refit_until=2, refit_every=3)  # 9 acquisitions
    seen_sizes = []
    real_fit = gp.fit

    def counting_fit(design, y, init, *args, **kwargs):
        seen_sizes.append(design.shape[0])
        return real_fit(design, y, init, *args, **kwargs)

    monkeypatch.setattr(driver.gp, "fit", counting_fit)
    run_bo(config, seed=7, method="vor")
    # full refits on iterations 0,1 then every 3rd from iteration 2: 2,5,8
    assert seen_sizes == [6 + i for i in (0, 1, 2, 5, 8)]


def _failing_from(rows, real):
    """`real`, except that designs of more than `rows` points raise SurrogateFitError."""

    def call(design, y, lengthscales):
        if design.shape[0] > rows:
            raise gp.SurrogateFitError("synthetic failure")
        return real(design, y, lengthscales)

    return call


def test_fit_and_rebuild_failure_keeps_the_previous_model(monkeypatch):
    # 6 initial points, 4 acquisitions: from iteration 2 (8 rows) on, both the
    # refit and the rebuild fail, and the cell proposes from iteration 1's model
    config = _config(budget=10)
    monkeypatch.setattr(driver.gp, "fit", _failing_from(7, gp.fit))
    monkeypatch.setattr(driver.gp, "build", _failing_from(7, gp.build))
    models = []
    real_propose = driver._propose

    def recording_propose(method, model, *args):
        models.append(model)
        return real_propose(method, model, *args)

    monkeypatch.setattr(driver, "_propose", recording_propose)
    records = run_bo(config, seed=8, method="vor")
    assert len(records) == 4
    assert all(np.isfinite(r.y) for r in records)
    assert [m.design.shape[0] for m in models] == [6, 7, 7, 7]
    assert models[0] is not models[1] and models[1] is models[2] is models[3]


def test_each_fit_starts_from_the_held_model(monkeypatch):
    # 6 initial points, 4 acquisitions: refits on iterations 0, 1 and 3 and a
    # rebuild on 2; from iteration 2 (8 rows) on every call fails, so
    # iterations 2 and 3 start from iteration 1's model
    config = _config(budget=10, refit_until=1, refit_every=2)
    starts, held, models = [], [], []

    def recording(real):
        failing = _failing_from(7, real)

        def call(design, y, lengthscales):
            starts.append(np.array(lengthscales, copy=True))
            held.append(models[-1] if models else None)
            models.append(failing(design, y, lengthscales))
            return models[-1]

        return call

    # a copy of the module for the driver alone, so that fit's own build
    # call is not recorded
    calls = {"fit": recording(gp.fit), "build": recording(gp.build)}
    monkeypatch.setattr(driver, "gp", SimpleNamespace(**{**vars(gp), **calls}))
    run_bo(config, seed=8, method="vor")
    assert len(starts) == 4 and len(models) == 2
    np.testing.assert_array_equal(starts[0], np.full(config.dim, gp.LENGTHSCALE_START))
    assert held[0] is None and held[2] is held[3] is models[1]
    for start, model in zip(starts[1:], held[1:]):
        np.testing.assert_array_equal(start, model.lengthscales)
    # the first fit moved, so a start from LENGTHSCALE_START would differ
    assert not np.array_equal(starts[1], starts[0])


def test_fit_and_rebuild_failure_on_the_first_iteration_fails_the_cell(monkeypatch):
    # with no previous model to fall back on, the cell fails, and the suite
    # records it as a sentinel record
    monkeypatch.setattr(driver.gp, "fit", _failing_from(0, gp.fit))
    monkeypatch.setattr(driver.gp, "build", _failing_from(0, gp.build))
    config = _config(budget=8)
    with pytest.raises(gp.SurrogateFitError, match="synthetic failure"):
        run_bo(config, seed=0, method="vor")
    records, failures = run_suite(config)
    assert failures == [("vor", 0, "SurrogateFitError: synthetic failure")]
    assert len(records) == 1 and records[0].iteration == -1 and np.isnan(records[0].y)


# ------------------------------- run_suite ----------------------------------


def test_suite_runs_every_cell_in_sorted_order():
    config = _config(budget=8, methods=("lhs", "vor"), seeds=(2, 0, 1))
    records, failures = run_suite(config)
    assert failures == []
    assert len(records) == 2 * 3 * 2
    keys = [(r.method, r.seed, r.iteration) for r in records]
    assert keys == sorted(keys)


def test_suite_isolates_failing_cells(monkeypatch):
    config = _config(budget=8, methods=("lhs",), seeds=(0, 1))

    real_run_bo = driver.run_bo

    def run_or_explode(config, seed, method):
        if seed == 1:
            raise RuntimeError("synthetic cell crash")
        return real_run_bo(config, seed, method)

    monkeypatch.setattr(driver, "run_bo", run_or_explode)
    records, failures = run_suite(config)
    assert [(m, s) for m, s, _ in failures] == [("lhs", 1)]
    sentinel = [r for r in records if r.iteration == -1]
    assert len(sentinel) == 1
    assert sentinel[0].seed == 1 and np.isnan(sentinel[0].y)
    assert len([r for r in records if r.iteration > 0]) == 2


@pytest.mark.parametrize(
    "jobs, seeds, pools",
    [(8, (0,), []), (1, (0, 1, 2), []), (8, (0, 1, 2), [3]), (2, (0, 1, 2), [2])],
    ids=["one-cell", "one-job", "more-jobs-than-cells", "fewer-jobs-than-cells"],
)
def test_suite_starts_no_more_workers_than_cells(monkeypatch, jobs, seeds, pools):
    """A pool of min(jobs, cells) workers, and none for one; the stand-in
    pool records its size and maps in this process, so no process starts."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(driver, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(driver, "run_bo", lambda config, seed, method: [])
    assert run_suite(_config(seeds=seeds, jobs=jobs)) == ([], [])
    assert sizes == pools


# ----------------------------- configuration --------------------------------


def test_config_defaults():
    config = _config(dim=7, n_candidates=None)
    assert config.resolved_n_init() == 21
    assert config.resolved_n_candidates() == 700
    assert _config(dim=80).resolved_n_candidates() == 50  # explicit override
    assert ExperimentConfig(problem="ackley", dim=80, budget=500).resolved_n_candidates() == 5000


def test_config_validation_errors():
    with pytest.raises(ValueError, match="budget"):
        _config(budget=6).validate()  # equal to n_init
    with pytest.raises(ValueError, match="unknown methods"):
        _config(methods=("vor", "grid")).validate()
    with pytest.raises(ValueError, match="need at least one method"):
        _config(methods=()).validate()
    with pytest.raises(ValueError, match="seed"):
        _config(seeds=()).validate()
    with pytest.raises(ValueError, match=r"seeds must be >= 0, got -1"):
        _config(seeds=(-1,)).validate()
    with pytest.raises(ValueError, match="dim"):
        _config(dim=0).validate()
    with pytest.raises(ValueError, match="refit"):
        _config(refit_every=0).validate()
    with pytest.raises(ValueError, match="jobs"):
        _config(jobs=0).validate()
    # each of these would start every cell only for the cell to fail
    with pytest.raises(ValueError, match="n_init"):
        _config(n_init=1).validate()
    with pytest.raises(ValueError, match="n_candidates"):
        _config(n_candidates=0).validate()
    with pytest.raises(ValueError, match="unknown problem"):
        _config(problem="sphere").validate()
    with pytest.raises(ValueError, match="sinesum2d"):
        _config(problem="sinesum2d", dim=3).validate()
    _config(problem="sinesum2d", dim=2).validate()


@pytest.mark.parametrize("field", list(driver.FLOORS))
def test_config_rejects_a_count_below_its_floor(field):
    floor = driver.FLOORS[field]
    with pytest.raises(ValueError, match=rf"^{field} must be >= {floor}, got {floor - 1}$"):
        _config(**{field: floor - 1}).validate()
    _config(**{field: floor}).validate()


def test_unknown_problem_surfaces_at_run_time():
    with pytest.raises(ValueError, match="unknown problem"):
        run_bo(_config(problem="sphere"), seed=0, method="vor")
    with pytest.raises(ValueError, match="unknown method 'grid'"):
        run_bo(_config(), seed=0, method="grid")
