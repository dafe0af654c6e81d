"""Command-line front end: experiments, the boundary study, candidate dumps.

Subcommands
-----------
run             BO experiment grid (methods x seeds) -> trajectory CSV
boundary-study  wall-hit proportions over the (N, P, strategy, metric) grid
candidates      design + candidate cloud dump for plotting
problems        list built-in test problems

Each subcommand declares its flags once, in one table.  An input error exits
2 before any work, as `vorbo <subcommand>: error:` under that subcommand's
usage; a bad value names its flag (`--reps must be >= 1, got 0`), and a list
flag rejects a repeated value (`--method repeats vor, got 'vor,vor'`).
This module formats every number and writes every file: the library
returns records and values.  Every file-writing subcommand also writes a
`<out>.meta.json` sidecar whose `settings` are its table's values (list
flags, `run --method` too, as lists), the package version and, under
`threads`, the thread variables in effect (never timestamps, so identical
invocations produce identical files).  `run` takes its settings from flags
alone; --problem, --dim, --budget and --out are required.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import warnings

# One BLAS and one OpenMP thread unless the caller set a value: the
# surrogate's last bits, so a run's bytes, follow the thread count.  Set
# before NumPy loads; `--jobs` workers inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__
from .bench import PROBLEM_NAMES, PROBLEMS
from .driver import (
    DISCRETE_METHODS, FLOORS, METHODS, ExperimentConfig, candidate_points, run_suite, seed_instance
)
from .nn_index import Metric
from .sampling import lhs
from .vorcands import STRATEGIES, boundary_proportion


class _Parser(argparse.ArgumentParser):
    """An error about a flag's value leads with the flag, as the checks after
    parsing word theirs: "--sizes must be >= 1, got 0"."""

    def error(self, message: str):
        super().error(re.sub(r"^argument (-\S+): ", r"\1 ", message))


def _first_repeat(values: list):
    """The first value that `values` holds twice, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def _ints(floor: int, many: bool = False):
    """An argparse type: an integer >= `floor`, or with `many` a non-empty
    comma-separated list of distinct ones."""

    def parse(text: str) -> int | list[int]:
        values = [int(tok) for tok in text.split(",") if tok.strip()] if many else [int(text)]
        if min(values, default=floor - 1) < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {text}")
        if (repeat := _first_repeat(values)) is not None:
            raise argparse.ArgumentTypeError(f"repeats {repeat}, got {text}")
        return values if many else values[0]

    parse.__name__ = "int list" if many else "int"  # "invalid int value: 'x'"
    return parse


def _names(valid: tuple[str, ...]):
    """An argparse type: a non-empty comma-separated list of distinct names
    from `valid`."""

    def parse(text: str) -> list[str]:
        names = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not names or not set(names) <= set(valid):
            raise argparse.ArgumentTypeError(f"takes names from {', '.join(valid)}, got {text!r}")
        if (repeat := _first_repeat(names)) is not None:
            raise argparse.ArgumentTypeError(f"repeats {repeat}, got {text!r}")
        return names

    return parse


def _fmt(v: float) -> str:
    """Shortest text that reads back as the same float."""
    return repr(float(v))


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_sidecar(args: argparse.Namespace, **extra) -> None:
    settings = {name: getattr(args, name) for name in args.settings}
    threads = {name: os.environ.get(name) for name in THREAD_VARS}
    payload = {
        "command": args.subcommand,
        "version": __version__,
        "settings": settings,
        "threads": threads,
        **extra,
    }
    _write_lines(args.out + ".meta.json", [json.dumps(payload, indent=2, sort_keys=True)])


def cmd_run(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.seed, args.seed + args.reps))
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    config = ExperimentConfig(
        methods=tuple(args.method),
        seeds=seeds,
        n_candidates=args.candidates,
        # out, include_x and timing shape only the file written below
        **{k: v for k, v in vars(args).items() if k in fields},
    )
    records, failures = run_suite(config)

    # seed,method,problem,dim,iteration[,x0..x{P-1}],y,y_best,elapsed_ms,cand_ms,fit_ms
    cols = ["seed", "method", "problem", "dim", "iteration"]
    cols += [f"x{p}" for p in range(config.dim)] if args.include_x else []
    lines = [",".join([*cols, "y", "y_best", "elapsed_ms", "cand_ms", "fit_ms"])]
    for r in records:
        row = [str(r.seed), r.method, config.problem, str(config.dim), str(r.iteration)]
        row += [_fmt(v) for v in r.x] if args.include_x else []
        row += [_fmt(r.y), _fmt(r.y_best)]
        row += [_fmt(r.elapsed_ms), _fmt(r.cand_ms), _fmt(r.fit_ms)] if args.timing else ["0"] * 3
        lines.append(",".join(row))
    _write_lines(args.out, lines)

    extra = {
        "seeds": list(seeds),
        "failures": [{"method": m, "seed": s, "error": e} for m, s, e in failures],
    }
    if PROBLEMS[config.problem].shifted:
        extra["shifts"] = {str(s): list(seed_instance(config, s)[0].shift) for s in seeds}
    _write_sidecar(args, **extra)
    if failures:
        for method, seed, error in failures:
            print(f"cell ({method}, seed {seed}) failed: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_boundary_study(args: argparse.Namespace) -> int:
    lines = ["strategy,metric,N,P,rep,prop_boundary"]
    for rep in range(args.reps):
        for dim in args.dims:
            for n in args.sizes:
                # one design per (rep, P, N), shared by every strategy/metric
                design = np.random.default_rng([args.seed, rep, dim, n]).random((n, dim))
                for strat in args.strategies:
                    for name in args.metrics:
                        # one stream per strategy name: the same origins and directions
                        # under every metric, whichever other strategies are asked for
                        key = [args.seed, rep, dim, n, STRATEGIES.index(strat)]
                        rng = np.random.default_rng(key)
                        prop = boundary_proportion(design, args.count, strat, Metric(name), rng)
                        lines.append(f"{strat},{name},{n},{dim},{rep},{_fmt(prop)}")
    _write_lines(args.out, lines)
    _write_sidecar(args)
    return 0


def cmd_candidates(args: argparse.Namespace) -> int:
    if args.design_file is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file is reported below
                design = np.loadtxt(args.design_file, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read design file {args.design_file}: {exc}") from None
        except ValueError as exc:  # a ragged row or a non-number
            raise ValueError(f"design file {args.design_file}: {exc}") from None
        if not design.size:
            raise ValueError(f"design file {args.design_file}: holds no points")
        # every scheme writes the design back out, so every scheme checks it
        # (a NaN fails both comparisons)
        outside = np.flatnonzero(~((design >= 0.0) & (design <= 1.0)).all(axis=1))
        if outside.size:
            raise ValueError(
                f"design file {args.design_file}: row {outside[0]} is not a point of the"
                " unit cube [0, 1]^P (rows count from 0)"
            )
        # a repeated row's later copy owns no cell, so every walk from it fails
        _, first, rows = np.unique(design, axis=0, return_index=True, return_inverse=True)
        repeats = np.flatnonzero(first[rows] != np.arange(design.shape[0]))
        if repeats.size:
            j = int(repeats[0])
            raise ValueError(
                f"design file {args.design_file}: rows {first[rows[j]]} and {j} are identical"
                " (rows count from 0)"
            )
        args.n, args.dim = design.shape  # the sidecar records the design read
    elif args.dim is None:
        raise ValueError("either --design or --dim is required")
    else:
        design = lhs(args.n, args.dim, np.random.default_rng([args.seed]))
    # checked for every scheme, though only vor reads it
    if not 0 <= args.incumbent < args.n:
        raise ValueError(f"--incumbent must be in [0, {args.n}), got {args.incumbent}")

    rng = np.random.default_rng([args.seed, args.iteration])
    points = candidate_points(args.scheme, design, args.count, args.iteration, args.incumbent, rng)

    lines = ["tag," + ",".join(f"x{p}" for p in range(args.dim))]
    for row in design:
        lines.append("design," + ",".join(_fmt(v) for v in row))
    for row in points:
        lines.append(f"{args.scheme}," + ",".join(_fmt(v) for v in row))
    _write_lines(args.out, lines)
    _write_sidecar(args)
    return 0


def cmd_problems(_: argparse.Namespace) -> int:
    print(f"{'name':<12} {'native domain':<22} {'dims':<8} known_best")
    for name, (_, (lo, hi), dim, _) in PROBLEMS.items():
        print(f"{name:<12} {f'[{lo:g}, {hi:g}]^P':<22} {dim or 'any':<8} 0.0")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vorbo",
        description="Bayesian optimization with Voronoi-boundary candidates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a (methods x seeds) experiment grid")
    # One table of settings per subcommand.  A flag's type parses and checks
    # it, and its dest is its name in the sidecar; a `run` default is read
    # from ExperimentConfig's class attributes.
    flag, cfg = run.add_argument, ExperimentConfig
    settings = (
        flag("--problem", required=True, choices=PROBLEM_NAMES),
        flag("--dim", required=True, type=_ints(1)),
        flag(
            "--budget",
            required=True,
            type=int,
            help="total evaluations including the initial design",
        ),
        flag(
            "--method",
            type=_names(METHODS),
            default=",".join(cfg.methods),
            help=f"comma-separated subset of {', '.join(METHODS)}",
        ),
        flag(
            "--reps",
            type=_ints(1),
            default=len(cfg.seeds),
            help="number of replicate seeds (default %(default)s)",
        ),
        flag(
            "--seed",
            type=_ints(0),
            default=cfg.seeds[0],
            help="base seed; replicates use seed..seed+reps-1",
        ),
        flag(
            "--n-init",
            type=_ints(FLOORS["n_init"]),
            default=cfg.n_init,
            help="initial design size (default 3P)",
        ),
        flag(
            "--candidates",
            type=_ints(FLOORS["n_candidates"]),
            default=cfg.n_candidates,
            help="candidate count C (default min(5000, 100P))",
        ),
        flag("--refit-until", type=_ints(FLOORS["refit_until"]), default=cfg.refit_until),
        flag("--refit-every", type=_ints(FLOORS["refit_every"]), default=cfg.refit_every),
        flag(
            "--jobs",
            type=_ints(FLOORS["jobs"]),
            default=cfg.jobs,
            help="parallel worker processes (default %(default)s)",
        ),
        flag("--out", required=True, help="output CSV path"),
        flag("--no-x", dest="include_x", action="store_false", help="omit x columns"),
        flag(
            "--no-timing",
            dest="timing",
            action="store_false",
            help="zero the timing columns (byte-stable output)",
        ),
    )
    run.set_defaults(func=cmd_run, parser=run, settings=[a.dest for a in settings])

    study = sub.add_parser("boundary-study", help="wall-hit proportion grid")
    study.add_argument("--out", required=True)
    flag = study.add_argument
    settings = (
        flag("--reps", type=_ints(1), default=10),
        flag("--seed", type=_ints(0), default=0),
        flag("--count", type=_ints(1), default=1000, help="walks per cell"),
        flag("--sizes", type=_ints(1, many=True), default="10,100,1000", help="design sizes N"),
        flag("--dims", type=_ints(1, many=True), default="2,10,100", help="dimensions P"),
        flag("--strategies", type=_names(STRATEGIES), default="unif,rect,proj"),
        flag("--metrics", type=_names(tuple(m.value for m in Metric)), default="l1,l2,linf"),
    )
    study.set_defaults(func=cmd_boundary_study, parser=study, settings=[a.dest for a in settings])

    cand = sub.add_parser("candidates", help="dump design + candidate cloud")
    cand.add_argument("--out", required=True)
    flag = cand.add_argument
    settings = (
        flag("--dim", type=_ints(1)),
        flag("--n", type=_ints(1), default=10, help="generated design size"),
        flag("--design", dest="design_file", help="CSV file of design rows (overrides --dim/--n)"),
        flag("--scheme", choices=DISCRETE_METHODS, default="vor"),
        flag("--count", type=_ints(1), default=1000),
        flag("--seed", type=_ints(0), default=0),
        flag("--iteration", type=_ints(0), default=0, help="scheme parity for vor"),
        flag("--incumbent", type=int, default=0, help="incumbent index for vor"),
    )
    cand.set_defaults(func=cmd_candidates, parser=cand, settings=[a.dest for a in settings])

    probs = sub.add_parser("problems", help="list built-in problems")
    probs.set_defaults(func=cmd_problems, parser=probs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None and (not out or os.path.isdir(out)):
            raise ValueError(f"--out must name a file, got {out!r}")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"--out {out}: output directory {os.path.dirname(out)} does not exist")
        return args.func(args)
    except ValueError as exc:
        args.parser.error(str(exc))  # exits 2 with the subcommand's usage


if __name__ == "__main__":
    raise SystemExit(main())
