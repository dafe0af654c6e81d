import json

import numpy as np
import pytest

from vorbo.bench import make_problem
from vorbo.cli import main


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
    assert meta["settings"]["budget"] == 8
    assert meta["settings"]["method"] == "vor,lhs"
    assert meta["failures"] == []
    # the sidecar records each seed's hidden optimum location
    for seed in (0, 1):
        expected = make_problem("ackley", 2, np.random.default_rng([seed])).shift
        np.testing.assert_allclose(meta["shifts"][str(seed)], expected)


def test_run_requires_problem(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(tmp_path / "x.csv", problem=None))
    assert exc.value.code == 2


def test_run_rejects_budget_at_initial_size(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(tmp_path / "x.csv", budget="6"))
    assert exc.value.code == 2


def test_run_config_file_with_flag_override(tmp_path):
    out = tmp_path / "traj.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment settings\n"
        "problem = ackley\n"
        "dim = 2\n"
        "budget = 8\n"
        "\n"
        "candidates = 50\n"
        f"out = {out}\n"
    )
    assert main(["run", "--config", str(cfg), "--budget", "9"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3  # flag override: budget 9 -> 3 acquisitions

    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["settings"]["budget"] == 9
    assert meta["settings"]["problem"] == "ackley"


def test_run_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = ackley\nwalks = 7\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2


def test_run_rejects_missing_config_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert exc.value.code == 2


#: A value for each config key that differs from the `_run_args` setting or
#: the default, and the flags that give the same.
_CONFIG_KEYS = {
    "problem": ("levy", ["--problem", "levy"]),
    "dim": ("1", ["--dim", "1"]),
    "budget": ("9", ["--budget", "9"]),
    "method": ("lhs,vor", ["--method", "lhs,vor"]),
    "reps": ("2", ["--reps", "2"]),
    "seed": ("5", ["--seed", "5"]),
    "n_init": ("4", ["--n-init", "4"]),
    "candidates": ("60", ["--candidates", "60"]),
    "refit_until": ("3", ["--refit-until", "3"]),
    "refit_every": ("4", ["--refit-every", "4"]),
    "jobs": ("2", ["--jobs", "2"]),
    "out": ("other.csv", ["--out", "other.csv"]),
    "include_x": ("false", ["--no-x"]),
    "timing": ("off", ["--no-timing"]),
}


@pytest.fixture
def cells(monkeypatch):
    """Stop `run` short of its cells: it writes only the sidecar, and each
    config that would have run is recorded."""
    configs = []

    def run_suite(config):
        configs.append(config)
        return [], []

    monkeypatch.setattr("vorbo.cli.run_suite", run_suite)
    return configs


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_config_file_value_parses_like_its_flag(tmp_path, monkeypatch, cells, key):
    monkeypatch.chdir(tmp_path)
    value, flags = _CONFIG_KEYS[key]
    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
    base = _run_args("traj.csv", **{key: None})
    settings = []
    for argv in ([*base, "--config", "run.cfg"], [*base, *flags], _run_args("traj.csv")):
        assert main(argv) == 0
        (sidecar,) = tmp_path.glob("*.meta.json")
        settings.append(json.loads(sidecar.read_text())["settings"])
        sidecar.unlink()
    from_file, from_flags, without = settings
    assert from_file == from_flags
    assert from_file[key] != without[key]
    assert cells[0] == cells[1]


@pytest.mark.parametrize("key, value", [("problem", "nosuch"), ("dim", "x"), ("jobs", "2.5")])
def test_invalid_config_value_fails_like_its_flag(tmp_path, capsys, cells, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    base = _run_args(tmp_path / "x.csv", **{key: None})
    errors = []
    for argv in ([*base, "--config", str(cfg)], [*base, f"--{key}", value]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "invalid" in errors[0]
    assert cells == []


def test_invalid_config_boolean_names_file_and_line(tmp_path, capsys, cells):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# booleans\ntiming = maybe\n")
    with pytest.raises(SystemExit) as exc:
        main([*_run_args(tmp_path / "x.csv"), "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:2: expected a boolean, got 'maybe'" in capsys.readouterr().err
    assert cells == []


def test_run_no_timing_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(_run_args(first, no_timing=None) + ["--no-timing"])
    main(_run_args(second, no_timing=None) + ["--no-timing"])
    assert first.read_bytes() == second.read_bytes()
    meta_a = (tmp_path / "a.csv.meta.json").read_text()
    meta_b = (tmp_path / "b.csv.meta.json").read_text()
    assert meta_a.replace("a.csv", "") == meta_b.replace("b.csv", "")


def test_run_rejects_missing_output_directory(tmp_path, capsys, cells):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(tmp_path / "absent" / "x.csv"))
    assert exc.value.code == 2
    assert "output directory" in capsys.readouterr().err
    assert cells == []


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


def test_boundary_study_deterministic(tmp_path):
    args = lambda path: [
        "boundary-study", "--sizes", "5,8", "--dims", "2", "--reps", "2",
        "--count", "40", "--out", str(path),
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args(first))
    main(args(second))
    assert first.read_bytes() == second.read_bytes()


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
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


def test_boundary_study_rejects_missing_output_directory(tmp_path, monkeypatch, capsys):
    def walk(*args):
        raise AssertionError("the study ran")

    monkeypatch.setattr("vorbo.cli.boundary_proportion", walk)
    with pytest.raises(SystemExit) as exc:
        main(["boundary-study", "--out", str(tmp_path / "absent" / "study.csv")])
    assert exc.value.code == 2
    assert "output directory" in capsys.readouterr().err


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


def test_candidates_unreadable_design_file(tmp_path, capsys):
    args = [
        "candidates", "--design", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(args) == 1
    assert "cannot read design file" in capsys.readouterr().err


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


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2
