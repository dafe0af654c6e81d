import dataclasses
import json
import os

import numpy as np
import pytest

from oracles import run_python
from vorbo import driver, gp
from vorbo.bench import PROBLEMS, make_problem
from vorbo.cli import THREAD_VARS, main


def _run_args(out_path, **overrides):
    settings = {
        "problem": "ackley",
        "dim": "2",
        "budget": "8",
        "method": "vor",
        "candidates": "50",
        "out": str(out_path),
    }
    settings.update({k.replace("_", "-"): v for k, v in overrides.items()})
    args = ["run"]
    for key, val in settings.items():
        if val is not None:
            args += [f"--{key}", val]
    return args


# ---------------------------------- run -------------------------------------


def test_run_end_to_end(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(_run_args(out, method="vor,lhs", reps="2")) == 0

    lines = out.read_text().splitlines()
    # header + 2 methods x 2 seeds x (8 - 6) acquisitions
    assert len(lines) == 1 + 2 * 2 * 2
    assert lines[0].startswith("seed,method,problem,dim,iteration")

    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["command"] == "run"
    assert meta["threads"] == {name: os.environ[name] for name in THREAD_VARS}
    assert meta["settings"]["budget"] == 8
    assert meta["settings"]["method"] == ["vor", "lhs"]
    assert meta["settings"] == {
        "problem": "ackley", "dim": 2, "budget": 8, "method": ["vor", "lhs"], "reps": 2,
        "seed": 0, "n_init": None, "candidates": 50, "refit_until": 200,
        "refit_every": 25, "jobs": 1, "out": str(out), "include_x": True, "timing": True,
    }
    assert meta["failures"] == []
    # the sidecar records each seed's hidden optimum location
    for seed in (0, 1):
        expected = make_problem("ackley", 2, np.random.default_rng([seed])).shift
        np.testing.assert_allclose(meta["shifts"][str(seed)], expected)


@pytest.mark.parametrize("key", ["problem", "dim", "budget", "out"])
def test_run_requires_flag(tmp_path, monkeypatch, capsys, cells, key):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(_run_args("x.csv", **{key: None}))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: vorbo run ")
    assert err.splitlines()[-1] == f"vorbo run: error: the following arguments are required: --{key}"
    assert cells == []
    assert not list(tmp_path.iterdir())


def test_run_rejects_budget_at_initial_size(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(tmp_path / "x.csv", budget="6"))
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        _run_args("x.csv", problem="levy"),
        _run_args("x.csv"),
        ["boundary-study", "--out", "x.csv"],
        ["candidates", "--dim", "2", "--out", "x.csv"],
    ],
    ids=["run-levy", "run-ackley", "boundary-study", "candidates"],
)
def test_negative_seed_is_rejected_by_name(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "-1"])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "--seed" in error and "got -1" in error
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value, floor",
    [
        ("--reps", "0", 1),
        ("--reps", "-2", 1),
        ("--dim", "0", 1),
        ("--n-init", "1", 2),
        ("--candidates", "0", 1),
        ("--refit-until", "-1", 0),
        ("--refit-every", "0", 1),
        ("--jobs", "0", 1),
    ],
)
def test_run_rejects_out_of_range_counts_by_name(
    tmp_path, monkeypatch, capsys, flag, value, floor
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*_run_args("x.csv", problem="levy"), flag, value])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert f"{flag} must be >= {floor}, got {value}" in error
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["vor,x", ",", "vor,vor"])
def test_run_rejects_unknown_or_no_method_by_name(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(_run_args("x.csv", method=value))
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "--method" in error and f"got {value!r}" in error
    assert not list(tmp_path.iterdir())


#: A value for each `run` flag that differs from the `_run_args` setting or
#: the default: its flags, its sidecar setting, and the ExperimentConfig
#: fields it sets (none for the three that shape only the written file).
_RUN_FLAGS = {
    "problem": (["--problem", "levy"], "levy", {"problem": "levy"}),
    "dim": (["--dim", "1"], 1, {"dim": 1}),
    "budget": (["--budget", "9"], 9, {"budget": 9}),
    "method": (["--method", "lhs,vor"], ["lhs", "vor"], {"methods": ("lhs", "vor")}),
    "reps": (["--reps", "2"], 2, {"seeds": (0, 1)}),
    "seed": (["--seed", "5"], 5, {"seeds": (5,)}),
    "n_init": (["--n-init", "4"], 4, {"n_init": 4}),
    "candidates": (["--candidates", "60"], 60, {"n_candidates": 60}),
    "refit_until": (["--refit-until", "3"], 3, {"refit_until": 3}),
    "refit_every": (["--refit-every", "4"], 4, {"refit_every": 4}),
    "jobs": (["--jobs", "2"], 2, {"jobs": 2}),
    "out": (["--out", "other.csv"], "other.csv", {}),
    "include_x": (["--no-x"], False, {}),
    "timing": (["--no-timing"], False, {}),
}


@pytest.fixture
def cells(monkeypatch):
    """Stop `run` short of its cells: it writes a CSV of the header alone and
    the sidecar, and each config that would have run is recorded."""
    configs = []

    def run_suite(config):
        configs.append(config)
        return [], []

    monkeypatch.setattr("vorbo.cli.run_suite", run_suite)
    return configs


@pytest.mark.parametrize("key", sorted(_RUN_FLAGS))
def test_run_flag_reaches_sidecar_and_config(tmp_path, monkeypatch, cells, key):
    monkeypatch.chdir(tmp_path)
    flags, setting, fields = _RUN_FLAGS[key]
    settings = []
    for argv in ([*_run_args("traj.csv", **{key: None}), *flags], _run_args("traj.csv")):
        assert main(argv) == 0
        (sidecar,) = tmp_path.glob("*.meta.json")
        settings.append(json.loads(sidecar.read_text())["settings"])
        sidecar.unlink()
    with_flag, without = settings
    assert with_flag == {**without, key: setting}
    assert setting != without[key]
    assert cells[0] == dataclasses.replace(cells[1], **fields)


@pytest.mark.parametrize("key, value", [("problem", "nosuch"), ("dim", "x"), ("jobs", "2.5")])
def test_run_rejects_an_invalid_flag_value(tmp_path, capsys, cells, key, value):
    with pytest.raises(SystemExit) as exc:
        main([*_run_args(tmp_path / "x.csv", **{key: None}), f"--{key}", value])
    assert exc.value.code == 2
    assert f"vorbo run: error: --{key} invalid" in capsys.readouterr().err
    assert cells == []
    assert not list(tmp_path.iterdir())


def test_run_no_timing_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(_run_args(first, no_timing=None) + ["--no-timing"])
    main(_run_args(second, no_timing=None) + ["--no-timing"])
    assert first.read_bytes() == second.read_bytes()
    meta_a = (tmp_path / "a.csv.meta.json").read_text()
    meta_b = (tmp_path / "b.csv.meta.json").read_text()
    assert meta_a.replace("a.csv", "") == meta_b.replace("b.csv", "")


def _bad_outs(tmp_path):
    """`--out` values that name no writable file, each with its message."""
    (tmp_path / "adir").mkdir()
    return [
        (str(tmp_path / "absent" / "x.csv"), "output directory"),
        (str(tmp_path / "adir"), "--out must name a file"),
        ("", "--out must name a file, got ''"),
    ]


def test_run_rejects_missing_output_directory(tmp_path, capsys, cells):
    for out, message in _bad_outs(tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "\nvorbo run: error: --out " in err and message in err
    assert cells == []
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


# ----------------------------- trajectory CSV -------------------------------


@pytest.fixture
def suites(monkeypatch):
    """The records and failures of each suite that `run` writes."""
    results = []

    def run_suite(config):
        results.append(driver.run_suite(config))
        return results[-1]

    monkeypatch.setattr("vorbo.cli.run_suite", run_suite)
    return results


def test_run_csv_schema(tmp_path, suites):
    out = tmp_path / "runs.csv"
    assert main(_run_args(out)) == 0
    ((records, _),) = suites
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,method,problem,dim,iteration,x0,x1,y,y_best,elapsed_ms,cand_ms,fit_ms"
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[:5] == ["0", "vor", "ackley", "2", "7"]
    assert float(first[6]) == records[0].x[1]


def test_run_csv_without_coordinates_or_timing(tmp_path):
    out = tmp_path / "runs.csv"
    assert main([*_run_args(out), "--no-x", "--no-timing"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,method,problem,dim,iteration,y,y_best,elapsed_ms,cand_ms,fit_ms"
    assert all(line.endswith(",0,0,0") for line in lines[1:])


def test_run_failure_row_serializes(tmp_path, monkeypatch):
    def crash(config, seed, method=None):
        raise RuntimeError("synthetic cell crash")

    monkeypatch.setattr(driver, "run_bo", crash)
    out = tmp_path / "runs.csv"
    assert main(_run_args(out, seed="3")) == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[:5] == ["3", "vor", "ackley", "2", "-1"]
    assert row[5] == row[6] == "nan"


def test_run_first_iteration_fit_failure_writes_a_sentinel_row(tmp_path, monkeypatch):
    def fail(design, y, lengthscales):
        raise gp.SurrogateFitError("synthetic failure")

    monkeypatch.setattr(driver.gp, "fit", fail)
    monkeypatch.setattr(driver.gp, "build", fail)
    out = tmp_path / "runs.csv"
    assert main(_run_args(out)) == 1
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[:5] == ["0", "vor", "ackley", "2", "-1"]


def test_run_parallel_and_serial_write_identical_files(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["--method", "lhs,vor", "--reps", "2", "--no-timing"]
    assert main([*_run_args(serial, method=None), *base, "--jobs", "1"]) == 0
    assert main([*_run_args(parallel, method=None), *base, "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# ----------------------------- boundary-study -------------------------------


def test_boundary_study_grid(tmp_path):
    out = tmp_path / "study.csv"
    args = [
        "boundary-study",
        "--sizes", "5",
        "--dims", "2",
        "--reps", "1",
        "--count", "50",
        "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,metric,N,P,rep,prop_boundary"
    assert len(lines) == 1 + 3 * 3  # strategies x metrics
    for line in lines[1:]:
        strat, metric, n, p, rep, prop = line.split(",")
        assert strat in ("unif", "rect", "proj")
        assert metric in ("l1", "l2", "linf")
        assert (n, p, rep) == ("5", "2", "0")
        assert 0.0 <= float(prop) <= 1.0

    meta = json.loads((tmp_path / "study.csv.meta.json").read_text())
    assert meta["settings"]["count"] == 50
    assert meta["settings"]["sizes"] == [5]
    assert meta["command"] == "boundary-study"
    assert meta["threads"] == {name: os.environ[name] for name in THREAD_VARS}
    assert meta["settings"] == {
        "count": 50, "dims": [2], "metrics": ["l1", "l2", "linf"], "reps": 1, "seed": 0,
        "sizes": [5], "strategies": ["unif", "rect", "proj"],
    }


def test_boundary_study_deterministic(tmp_path):
    args = lambda path: [
        "boundary-study", "--sizes", "5,8", "--dims", "2", "--reps", "2",
        "--count", "40", "--out", str(path),
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args(first))
    main(args(second))
    assert first.read_bytes() == second.read_bytes()


def test_boundary_study_row_depends_only_on_its_own_strategy(tmp_path):
    """A strategy's rows are the same alone, first, or after others."""
    out = tmp_path / "study.csv"

    def rows(strategies):
        argv = [
            "boundary-study", "--reps", "1", "--count", "200", "--sizes", "100",
            "--dims", "2", "--metrics", "l1,linf", "--strategies", strategies, "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()[1:]
        return {s: [row for row in lines if row.startswith(s + ",")] for s in strategies.split(",")}

    together = rows("unif,rect,proj")
    for strategies in ("rect", "proj", "rect,unif", "proj,rect,unif"):
        for strat, got in rows(strategies).items():
            assert got == together[strat], (strategies, strat)


def test_boundary_study_rejects_unknown_strategy(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "boundary-study", "--strategies", "unif,spiral",
            "--out", str(tmp_path / "x.csv"),
        ])
    assert exc.value.code == 2


def test_boundary_study_rejects_unknown_metric(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "boundary-study", "--metrics", "l3",
            "--out", str(tmp_path / "x.csv"),
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dims", "0"),
        ("--sizes", "0"),
        ("--sizes", ","),
        ("--reps", "0"),
        ("--reps", "-1"),
        ("--count", "0"),
        ("--strategies", ","),
        ("--metrics", ""),
        ("--sizes", "x"),
        ("--dims", "2,x"),
        ("--sizes", "5,5"),
        ("--strategies", "rect,rect"),
    ],
)
def test_boundary_study_rejects_empty_or_nonpositive_flags(
    tmp_path, monkeypatch, capsys, flag, value
):
    def walk(*args):
        raise AssertionError("the study ran")

    monkeypatch.setattr("vorbo.cli.boundary_proportion", walk)
    out = tmp_path / "study.csv"
    with pytest.raises(SystemExit) as exc:
        main(["boundary-study", f"{flag}={value}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {flag} " in err
    assert value in err.splitlines()[-1]
    assert not out.exists()


def test_boundary_study_rejects_missing_output_directory(tmp_path, monkeypatch, capsys):
    def walk(*args):
        raise AssertionError("the study ran")

    monkeypatch.setattr("vorbo.cli.boundary_proportion", walk)
    for out, message in _bad_outs(tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["boundary-study", "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "\nvorbo boundary-study: error: --out " in err and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


# ------------------------------- candidates ---------------------------------


@pytest.mark.parametrize("scheme", ["vor", "lhs", "sobol"])
def test_candidates_schemes(tmp_path, scheme):
    out = tmp_path / f"{scheme}.csv"
    args = [
        "candidates", "--dim", "2", "--n", "8", "--scheme", scheme,
        "--count", "20", "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tag,x0,x1"
    assert sum(line.startswith("design,") for line in lines[1:]) == 8
    assert sum(line.startswith(f"{scheme},") for line in lines[1:]) == 20
    coords = np.array(
        [line.split(",")[1:] for line in lines[1:]], dtype=float
    )
    assert ((coords >= 0.0) & (coords <= 1.0)).all()
    meta = json.loads((tmp_path / f"{scheme}.csv.meta.json").read_text())
    assert meta["command"] == "candidates"
    assert meta["threads"] == {name: os.environ[name] for name in THREAD_VARS}
    assert meta["settings"] == {
        "count": 20, "design_file": None, "dim": 2, "incumbent": 0, "iteration": 0,
        "n": 8, "scheme": scheme, "seed": 0,
    }


def test_candidates_from_design_file(tmp_path):
    design = np.array([[0.1, 0.2], [0.8, 0.3], [0.4, 0.9], [0.6, 0.6]])
    design_path = tmp_path / "design.csv"
    np.savetxt(design_path, design, delimiter=",")
    out = tmp_path / "cands.csv"
    args = [
        "candidates", "--design", str(design_path), "--scheme", "vor",
        "--count", "10", "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    design_rows = [l for l in lines if l.startswith("design,")]
    assert len(design_rows) == 4
    np.testing.assert_allclose(
        np.array([r.split(",")[1:] for r in design_rows], dtype=float), design
    )
    meta = json.loads((out.with_name("cands.csv.meta.json")).read_text())
    assert meta["settings"]["design_file"] == str(design_path)
    assert meta["settings"]["dim"] == 2 and meta["settings"]["n"] == 4
    assert meta["settings"] == {
        "count": 10, "design_file": str(design_path), "dim": 2, "incumbent": 0,
        "iteration": 0, "n": 4, "scheme": "vor", "seed": 0,
    }


def test_candidates_unreadable_design_file(tmp_path, capsys):
    args = [
        "candidates", "--design", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "x.csv"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "vorbo candidates: error: cannot read design file" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_candidates_rejects_repeated_design_rows(tmp_path, capsys):
    # rows 1 and 4 repeat (row 4 with -0.0); so do rows 2 and 5, found later
    design = np.array(
        [[0.5, 0.5], [0.1, 0.0], [0.8, 0.3], [0.4, 0.9], [0.1, -0.0], [0.8, 0.3]]
    )
    design_path = tmp_path / "design.csv"
    np.savetxt(design_path, design, delimiter=",")
    with pytest.raises(SystemExit) as exc:
        main([
            "candidates", "--design", str(design_path), "--scheme", "vor",
            "--out", str(tmp_path / "x.csv"),
        ])
    assert exc.value.code == 2
    assert "rows 1 and 4 are identical" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scheme", ["vor", "lhs", "sobol"])
def test_candidates_rejects_negative_iteration(tmp_path, capsys, scheme):
    with pytest.raises(SystemExit) as exc:
        main([
            "candidates", "--dim", "2", "--scheme", scheme, "--iteration", "-1",
            "--out", str(tmp_path / "x.csv"),
        ])
    assert exc.value.code == 2
    assert "--iteration must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scheme", ["vor", "lhs", "sobol"])
@pytest.mark.parametrize(
    "flags, error",
    [
        (["--dim", "2", "--count", "0"], "--count must be >= 1, got 0"),
        (["--dim", "2", "--count", "-3"], "--count must be >= 1, got -3"),
        (["--dim", "2", "--n", "0"], "--n must be >= 1, got 0"),
        (["--dim", "0"], "--dim must be >= 1, got 0"),
        (["--dim", "2", "--n", "8", "--incumbent", "8"], "--incumbent must be in [0, 8), got 8"),
        (["--dim", "2", "--incumbent", "-1"], "--incumbent must be in [0, 10), got -1"),
        (["--design", "design.csv", "--incumbent", "4"], "--incumbent must be in [0, 4), got 4"),
    ],
    ids=["0", "-3", "n-0", "dim-0", "incumbent-8", "incumbent--1", "design-incumbent-4"],
)
def test_candidates_rejects_nonpositive_count_by_name(
    tmp_path, monkeypatch, capsys, scheme, flags, error
):
    def walk(*args):
        raise AssertionError("the scheme ran")

    monkeypatch.setattr("vorbo.cli.candidate_points", walk)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "design.csv").write_text("0.1,0.2\n0.8,0.3\n0.4,0.9\n0.6,0.6\n")
    with pytest.raises(SystemExit) as exc:
        main(["candidates", *flags, "--scheme", scheme, "--out", "x.csv"])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scheme", ["vor", "lhs", "sobol"])
@pytest.mark.parametrize(
    "text, error",
    [
        *[
            (f"0.1,0.2\n0.8,0.3\n0.4,{bad}\n0.6,0.6\n", "row 2 is not a point of the unit cube")
            for bad in ["nan", "inf", "-0.1", "1.5"]
        ],
        ("", "holds no points"),
        ("0.1,0.2\n0.3\n", "the number of columns changed from 2 to 1 at row 2"),
    ],
    ids=["nan", "inf", "-0.1", "1.5", "empty", "ragged"],
)
def test_candidates_rejects_design_outside_the_cube(tmp_path, capsys, scheme, text, error):
    design_path = tmp_path / "design.csv"
    design_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([
            "candidates", "--design", str(design_path), "--scheme", scheme,
            "--out", str(tmp_path / "x.csv"),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"design file {design_path}: {error}" in err
    assert not (tmp_path / "x.csv").exists()


def test_errors_after_parsing_report_through_the_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--dim", "2", "--incumbent", "50", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    usage, *_, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: vorbo candidates ")
    assert error == "vorbo candidates: error: --incumbent must be in [0, 10), got 50"


def test_candidates_needs_dim_or_design(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


# -------------------------------- problems ----------------------------------


def test_problems_listing(capsys):
    assert main(["problems"]) == 0
    text = capsys.readouterr().out
    for name in ("ackley", "levy", "rosenbrock", "sinesum2d"):
        assert name in text
    assert "[-32.768, 32.768]" in text
    header, *rows = text.splitlines()
    box, dims, best = (header.index(col) for col in ("native domain", "dims", "known_best"))
    assert [row.split()[0] for row in rows] == list(PROBLEMS)
    for row, spec in zip(rows, PROBLEMS.values()):
        lo, hi = row[box:dims].strip().removeprefix("[").removesuffix("]^P").split(", ")
        assert (float(lo), float(hi)) == spec.box
        assert row[dims:best].strip() == str(spec.dim or "any")


def test_problems_columns_line_up(capsys):
    assert main(["problems"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    dims, best = header.index("dims"), header.index("known_best")
    assert len(rows) == 4
    for row in rows:
        assert row[dims - 1] == " " != row[dims]
        assert row[best - 1] == " " and row[best:] == "0.0"


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2


# ------------------------------- thread pin ---------------------------------


def test_cli_runs_on_one_thread_unless_the_caller_sets_one(tmp_path):
    # Left alone, OpenBLAS starts a thread per CPU and the surrogate's last
    # bits move, so on a host with two or more CPUs this fails without the
    # pin.  On a one-CPU host both runs take one thread and it passes either way.
    run = [
        "-m", "vorbo.cli", "run", "--problem", "ackley", "--dim", "3", "--budget", "14",
        "--method", "opt,vor", "--reps", "2", "--no-timing",
    ]
    run_python([*run, "--out", "absent.csv"], cwd=tmp_path, threads={})
    run_python([*run, "--out", "one.csv"], cwd=tmp_path, threads=dict.fromkeys(THREAD_VARS, "1"))
    assert (tmp_path / "absent.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    for name in ("absent", "one"):
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        assert meta["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def test_cli_keeps_and_records_a_callers_thread_count(tmp_path):
    cands = ["-m", "vorbo.cli", "candidates", "--dim", "2", "--n", "6", "--count", "20"]
    run_python([*cands, "--out", "c.csv"], cwd=tmp_path, threads={"OPENBLAS_NUM_THREADS": "2"})
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}


def test_only_the_cli_sets_the_thread_variables(tmp_path):
    probe = f"import os, {{}}; print([n for n in {THREAD_VARS!r} if n in os.environ])"
    library = probe.format("vorbo.driver, vorbo.gp, vorbo.vorcands")
    assert run_python(["-c", library], cwd=tmp_path, threads={}) == "[]\n"
    cli = run_python(["-c", probe.format("vorbo.cli")], cwd=tmp_path, threads={})
    assert cli == f"{list(THREAD_VARS)}\n"
