"""Command-line front end: experiments, the boundary study, candidate dumps.

Subcommands
-----------
run             BO experiment grid (methods x seeds) -> trajectory CSV
boundary-study  wall-hit proportions over the (N, P, strategy, metric) grid
candidates      design + candidate cloud dump for plotting
problems        list built-in test problems

Every file-writing subcommand also writes a `<out>.meta.json` sidecar with
the full effective configuration, seeds, and package version (never
timestamps, so identical invocations produce identical files).  For `run`,
values may come from a flat `key = value` config file via --config, keyed by
flag name with underscores (`n_init = 12`, `timing = false` for --no-timing).
Each file value is parsed and checked as its flag is, and explicit flags
override file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .bench import NATIVE_DOMAINS, PROBLEM_NAMES, make_problem
from .driver import METHODS, ExperimentConfig, _fmt, _write_lines, candidate_points, run_suite
from .metrics import Metric
from .sampling import lhs
from .vorcands import STRATEGIES, boundary_proportion


def _write_sidecar(path: str, payload: dict) -> None:
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _config_argv(path: str, settings: dict[str, argparse.Action]) -> list[str]:
    """A flat `key = value` file as `run` flags; each key is a flag's dest."""
    argv = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in settings:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                flag = settings[key]
                if flag.nargs != 0:
                    argv.append(f"{flag.option_strings[0]}={val}")
                elif val.lower() not in _BOOLEANS:
                    raise ValueError(f"{path}:{lineno}: expected a boolean, got {val!r}")
                elif _BOOLEANS[val.lower()] == flag.const:  # --no-x, --no-timing take no value
                    argv.append(flag.option_strings[0])
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return argv


def cmd_run(args: argparse.Namespace) -> int:
    settings = {name: getattr(args, name) for name in args.settings}
    for required in ("problem", "dim", "budget", "out"):
        if settings[required] is None:
            raise ValueError(f"missing required setting: {required}")
    seeds = tuple(range(settings["seed"], settings["seed"] + settings["reps"]))
    config = ExperimentConfig(
        methods=tuple(m.strip() for m in settings["method"].split(",") if m.strip()),
        seeds=seeds,
        n_candidates=settings["candidates"],
        # every other setting has the name of its ExperimentConfig field
        **{k: v for k, v in settings.items() if k not in ("method", "seed", "reps", "candidates")},
    )
    _, failures = run_suite(config)

    meta = {
        "command": "run",
        "version": __version__,
        "settings": settings,
        "seeds": list(seeds),
        "failures": [{"method": m, "seed": s, "error": e} for m, s, e in failures],
    }
    if config.problem == "ackley":
        meta["shifts"] = {
            str(s): list(make_problem("ackley", config.dim, np.random.default_rng([s])).shift)
            for s in seeds
        }
    _write_sidecar(config.out, meta)
    if failures:
        for method, seed, error in failures:
            print(f"cell ({method}, seed {seed}) failed: {error}", file=sys.stderr)
        return 1
    return 0


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_boundary_study(args: argparse.Namespace) -> int:
    sizes = _int_list(args.sizes)
    dims = _int_list(args.dims)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    counts = {"--reps": [args.reps], "--count": [args.count], "--sizes": sizes, "--dims": dims}
    for flag, values in counts.items():
        if min(values, default=0) < 1:
            raise ValueError(f"{flag} takes integers >= 1, got {values}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    for flag, names in (("--strategies", strategies), ("--metrics", metrics)):
        if not names:
            raise ValueError(f"{flag} is empty")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    metric_objs = {m: Metric.from_string(m) for m in metrics}

    lines = ["strategy,metric,N,P,rep,prop_boundary"]
    for rep in range(args.reps):
        for dim in dims:
            for n in sizes:
                # one design per (rep, P, N), shared by every strategy/metric
                design = np.random.default_rng([args.seed, rep, dim, n]).random((n, dim))
                for strat_id, strat in enumerate(strategies):
                    for name in metrics:
                        # identically keyed stream per strategy: the same
                        # origins/directions are walked under every metric
                        rng = np.random.default_rng([args.seed, rep, dim, n, strat_id])
                        prop = boundary_proportion(
                            design, args.count, strat, metric_objs[name], rng
                        )
                        lines.append(f"{strat},{name},{n},{dim},{rep},{_fmt(prop)}")
    _write_lines(args.out, lines)
    _write_sidecar(
        args.out,
        {
            "command": "boundary-study",
            "version": __version__,
            "settings": {
                "count": args.count,
                "dims": dims,
                "metrics": metrics,
                "reps": args.reps,
                "seed": args.seed,
                "sizes": sizes,
                "strategies": strategies,
            },
        },
    )
    return 0


def cmd_candidates(args: argparse.Namespace) -> int:
    for flag, value in (("--seed", args.seed), ("--iteration", args.iteration)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.design is not None:
        try:
            design = np.loadtxt(args.design, delimiter=",", ndmin=2)
        except OSError as exc:
            print(f"cannot read design file {args.design}: {exc}", file=sys.stderr)
            return 1
        # every scheme writes the design back out, so every scheme checks it
        # (a NaN fails both comparisons)
        outside = np.flatnonzero(~((design >= 0.0) & (design <= 1.0)).all(axis=1))
        if outside.size:
            raise ValueError(
                f"design file {args.design}: row {outside[0]} is not a point of the"
                " unit cube [0, 1]^P (rows count from 0)"
            )
        # a repeated row's later copy owns no cell, so every walk from it fails
        _, first, rows = np.unique(design, axis=0, return_index=True, return_inverse=True)
        repeats = np.flatnonzero(first[rows] != np.arange(design.shape[0]))
        if repeats.size:
            j = int(repeats[0])
            raise ValueError(
                f"design file {args.design}: rows {first[rows[j]]} and {j} are identical"
                " (rows count from 0)"
            )
        dim = design.shape[1]
    else:
        if args.dim is None:
            raise ValueError("either --design or --dim is required")
        dim = args.dim
        design = lhs(args.n, dim, np.random.default_rng([args.seed]))

    rng = np.random.default_rng([args.seed, args.iteration])
    points = candidate_points(args.scheme, design, args.count, args.iteration, args.incumbent, rng)

    lines = ["tag," + ",".join(f"x{p}" for p in range(dim))]
    for row in design:
        lines.append("design," + ",".join(_fmt(v) for v in row))
    for row in points:
        lines.append(f"{args.scheme}," + ",".join(_fmt(v) for v in row))
    _write_lines(args.out, lines)
    _write_sidecar(
        args.out,
        {
            "command": "candidates",
            "version": __version__,
            "settings": {
                "count": args.count,
                "design_file": args.design,
                "dim": dim,
                "incumbent": args.incumbent,
                "iteration": args.iteration,
                "n": design.shape[0],
                "scheme": args.scheme,
                "seed": args.seed,
            },
        },
    )
    return 0


def cmd_problems(_: argparse.Namespace) -> int:
    print(f"{'name':<12} {'native domain':<22} {'dims':<8} known_best")
    for name in PROBLEM_NAMES:
        lo, hi = NATIVE_DOMAINS[name]
        dims = "2" if name == "sinesum2d" else "any"
        print(f"{name:<12} [{lo:g}, {hi:g}]^P{'':<6} {dims:<8} 0.0")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vorbo",
        description="Bayesian optimization with Voronoi-boundary candidates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a (methods x seeds) experiment grid")
    run.add_argument("--config", help="flat key=value config file; flags override")
    # The one table of `run` settings.  A flag's dest is its config-file key
    # and its name in the sidecar; a default is read from ExperimentConfig,
    # whose class attributes hold its fields' defaults.
    flag, cfg = run.add_argument, ExperimentConfig
    settings = (
        flag("--problem", choices=PROBLEM_NAMES),
        flag("--dim", type=int),
        flag("--budget", type=int, help="total evaluations including the initial design"),
        flag(
            "--method",
            default=",".join(cfg.methods),
            help=f"comma-separated subset of {', '.join(METHODS)}",
        ),
        flag(
            "--reps",
            type=int,
            default=len(cfg.seeds),
            help="number of replicate seeds (default %(default)s)",
        ),
        flag(
            "--seed",
            type=int,
            default=cfg.seeds[0],
            help="base seed; replicates use seed..seed+reps-1",
        ),
        flag("--n-init", type=int, default=cfg.n_init, help="initial design size (default 3P)"),
        flag(
            "--candidates",
            type=int,
            default=cfg.n_candidates,
            help="candidate count C (default min(5000, 100P))",
        ),
        flag("--refit-until", type=int, default=cfg.refit_until),
        flag("--refit-every", type=int, default=cfg.refit_every),
        flag(
            "--jobs",
            type=int,
            default=cfg.jobs,
            help="parallel worker processes (default %(default)s)",
        ),
        flag("--out", help="output CSV path"),
        flag(
            "--no-x",
            dest="include_x",
            action="store_false",
            default=cfg.include_x,
            help="omit x columns",
        ),
        flag(
            "--no-timing",
            dest="timing",
            action="store_false",
            default=cfg.timing,
            help="zero the timing columns (byte-stable output)",
        ),
    )
    run.set_defaults(func=cmd_run, settings={a.dest: a for a in settings})

    study = sub.add_parser("boundary-study", help="wall-hit proportion grid")
    study.add_argument("--reps", type=int, default=10)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--count", type=int, default=1000, help="walks per cell")
    study.add_argument("--sizes", default="10,100,1000", help="design sizes N")
    study.add_argument("--dims", default="2,10,100", help="dimensions P")
    study.add_argument("--strategies", default="unif,rect,proj")
    study.add_argument("--metrics", default="l1,l2,linf")
    study.add_argument("--out", required=True)
    study.set_defaults(func=cmd_boundary_study)

    cand = sub.add_parser("candidates", help="dump design + candidate cloud")
    cand.add_argument("--dim", type=int)
    cand.add_argument("--n", type=int, default=10, help="generated design size")
    cand.add_argument("--design", help="CSV file of design rows (overrides --dim/--n)")
    cand.add_argument("--scheme", choices=("vor", "lhs", "sobol"), default="vor")
    cand.add_argument("--count", type=int, default=1000)
    cand.add_argument("--seed", type=int, default=0)
    cand.add_argument("--iteration", type=int, default=0, help="scheme parity for vor")
    cand.add_argument("--incumbent", type=int, default=0, help="incumbent index for vor")
    cand.add_argument("--out", required=True)
    cand.set_defaults(func=cmd_candidates)

    probs = sub.add_parser("problems", help="list built-in problems")
    probs.set_defaults(func=cmd_problems)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # parse again with the file's settings ahead of the command line's
            # flags: argparse checks both alike, and the later flag wins
            at = argv.index("run") + 1
            file_argv = _config_argv(args.config, args.settings)
            args = parser.parse_args([*argv[:at], *file_argv, *argv[at:]])
        out_dir = os.path.dirname(getattr(args, "out", None) or "")
        if out_dir and not os.path.isdir(out_dir):
            raise ValueError(f"output directory {out_dir} does not exist")
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2 with usage
        return 2  # unreachable; keeps type checkers honest


if __name__ == "__main__":
    raise SystemExit(main())
