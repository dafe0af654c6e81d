"""Benchmark entry point: run one workload for one seed, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload bo-desk --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout, with BLAS and
OpenMP pinned to one thread.  With ``--trace 0`` the end-to-end metrics are
reported: set-up time, each call's wall time over that of a fixed yardstick
timed just before and just after it (``reference.py``), and peak memory.  With
``--trace 1`` every workload call runs twice, untraced and traced, and the
per-layer metrics plus the tracing overhead are reported.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every size so a run takes seconds.
"""

from __future__ import annotations

import os

# Pinned before anything can import NumPy: the benchmark measures one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("bo-desk", "bo-p20-lhs", "cands-p100", "study-lowdim")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "call_rel": "ratio",
    "peak_rss_mb": "MB",
}


#: A run is flagged when the 1-minute load average at its start exceeds
#: this share of the CPUs: something else was running.
LOAD_SHARE = 0.75


def setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Import vorbo and build the workload's inputs; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import workloads  # imports NumPy and vorbo

    w = workloads.make(workload, seed, smoke, workdir)
    return time.perf_counter() - t0, w


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter (import and inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def provenance() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "vorbo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if above p50."""
    n = len(samples)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return None
    ordered = sorted(samples)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def measure(w, seconds: float, trace: bool, smoke: bool) -> dict:
    """Closed loop of workload calls for about `seconds`.

    The loop stops on a whole `w.cycle` of calls, at the boundary nearest to
    `seconds` but after two cycles at least.  Untraced, a call whose inputs
    repeat an earlier call's (every `w.period` calls, if set) must give an
    identical output; if none repeated, call 0 is run once more after the
    loop to check that.  The yardstick runs between timed calls, so each
    call is bracketed by two yardstick timings; their mean is the host's
    speed during the call.
    Traced, every call runs untraced and traced, in alternating order, which
    checks reruns and gives the tracing overhead from matched pairs.
    """
    from layers import install
    from reference import Reference
    from tracer import Tracer

    from vorbo import acquisition, cli, driver, gp, nn_index, vorcands

    modules = dict(acquisition=acquisition, cli=cli, driver=driver, gp=gp,
                   nn_index=nn_index, vorcands=vorcands)
    tracer = Tracer()
    reference = Reference(smoke)
    res = dict(samples=[], rates=[], ref=[], rel=[], parts=defaultdict(list), attempted=0,
               failed=0, traced_calls=0, overhead=[], tracer=tracer)

    def run(k: int, traced: bool, sample: bool) -> tuple[float, str]:
        if sample and not trace:
            res["ref"].append(reference.run())
        if traced:
            install(tracer, modules)
        try:
            t0 = time.perf_counter()
            parts, raw = w.call(k)
            elapsed = time.perf_counter() - t0
        finally:
            tracer.unwrap_all()
        checked = w.check(raw)
        res["attempted"] += checked.attempted
        res["failed"] += checked.failed
        if traced:
            res["traced_calls"] += 1
        elif sample:
            res["samples"].append(elapsed)
            res["rates"].append(checked.items / elapsed)
            for name, value in parts.items():
                res["parts"][name].append(value)
            for name, values in checked.latencies.items():
                res["parts"][name].extend(values)
        return elapsed, checked.digest

    def same(a: tuple[float, str], b: tuple[float, str]) -> None:
        res["attempted"] += 1
        res["failed"] += a[1] != b[1]

    start = time.perf_counter()
    done = []  # untraced (seconds, digest) of each call
    k = 0
    while True:
        if trace:
            order = (False, True) if k % 2 == 0 else (True, False)
            runs = {traced: run(k, traced, True) for traced in order}
            same(runs[False], runs[True])
            res["overhead"].append(runs[True][0] / runs[False][0] - 1.0)
        else:
            done.append(run(k, False, True))
            if w.period and k >= w.period:
                same(done[k - w.period], done[k])
        k += 1
        if k % w.cycle == 0 and k >= 2 * w.cycle:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed * w.cycle / k >= seconds:
                break
    if not trace:
        res["ref"].append(reference.run())
        ref = res["ref"]
        res["rel"] = [t / (0.5 * (a + b)) for t, a, b in zip(res["samples"], ref, ref[1:])]
        if not (w.period and k > w.period):
            same(done[0], run(0, False, False))
    return res


def _line(name: str, samples: list[float], unit: str) -> str:
    text = f"{name} median {statistics.median(samples)} {unit}"
    t = tail(samples)
    text += f", p{t[0]} {t[1]} {unit}" if t else ", no percentile above p50 has ten samples beyond it"
    return text + f", n={len(samples)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "vorbo" / "__init__.py").is_file():
        print(f"error: no vorbo package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        print(setup(args.workload, args.seed, args.smoke, str(ROOT))[0])
        return 0

    load_before = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, w = setup(args.workload, args.seed, args.smoke, workdir)
        import vorbo

        if not Path(vorbo.__file__).resolve().is_relative_to(SRC):
            print(f"error: vorbo imported from {vorbo.__file__}, not {SRC}", file=sys.stderr)
            return 2
        # set-up is timed in this process and in fresh interpreters just
        # before and after the loop, so one burst of load rarely hits all three
        setups = [setup_s]
        if not args.trace:
            setups.append(probe_setup(args))
        res = measure(w, args.seconds, bool(args.trace), args.smoke)
        if not args.trace:
            setups.append(probe_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()
    prov = provenance()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} smoke {int(args.smoke)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    under_load = load_before[0] > LOAD_SHARE * prov["nproc"]
    print(f"load_before {load_before[0]:.2f} {load_before[1]:.2f} {load_before[2]:.2f} "
          f"load_after {load_after[0]:.2f} {load_after[1]:.2f} {load_after[2]:.2f} "
          f"under_load {'yes: results are not comparable' if under_load else 'no'}")
    print(f"call = {w.call_name}; work = {w.item}")
    print(_line("call_s", res["samples"], "s"))
    print(_line("work_per_s", res["rates"], "1/s"))
    if res["rel"]:
        print(_line("ref_s", res["ref"], "s"))
        print(_line("call_rel", res["rel"], "ratio"))
    for name, values in res["parts"].items():
        print(_line(name, values, "s"))
    error_rate = res["failed"] / res["attempted"]
    print(f"checks attempted {res['attempted']} failed {res['failed']} error_rate {error_rate}")

    if args.trace:
        import layers

        overhead = statistics.median(res["overhead"])
        values = layers.metrics(res["tracer"], res["traced_calls"], overhead)
        units = layers.METRICS
        missing = sorted(res["tracer"].missing)
        print("missing " + (", ".join(missing) if missing else "none"))
        print(f"traced calls {res['traced_calls']}, tracing overhead {overhead:.4f} "
              f"(median traced/untraced - 1 over matched pairs)")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "call_rel": statistics.median(res["rel"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"setup_s samples {setups}")
    for name, unit in units.items():
        print(f"metric {name} {values[name]} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
