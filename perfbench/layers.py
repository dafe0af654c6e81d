"""Which vorbo functions the traced run wraps, and the per-layer metrics.

Every entry of `WRAPS` is wrapped at each module that looks the function up,
so calls from inside the package are seen as well as the benchmark's own
calls.  Per-layer counts and self times are divided by the number of traced
workload calls, so runs of different lengths compare directly.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

#: Span name -> (module, attribute) lookup sites, as callers resolve them.
WRAPS = {
    "nn_index.nearest_batch": [("nn_index", "nearest_batch")],
    "nn_index.build": [("nn_index", "build")],
    "vorcands.vorwalk": [("vorcands", "vorwalk")],
    "vorcands.scheme_final": [("vorcands", "scheme_final"), ("driver", "scheme_final")],
    "vorcands.boundary_proportion": [
        ("vorcands", "boundary_proportion"),
        ("cli", "boundary_proportion"),
    ],
    "gp.fit": [("gp", "fit")],
    "gp.build": [("gp", "build")],
    "gp.predict": [("gp", "predict")],
    "gp.predict_grad": [("gp", "predict_grad")],
    "acquisition.multistart_opt": [("acquisition", "multistart_opt")],
    "acquisition.argmax_discrete": [("acquisition", "argmax_discrete")],
    "sampling.lhs": [("driver", "lhs"), ("vorcands", "lhs"), ("acquisition", "lhs")],
    "driver.run_bo": [("driver", "run_bo")],
    "cli.main": [("cli", "main")],
}

#: Per-layer metrics in report order: name -> unit.
METRICS = {
    "nn_index.nearest_batch.calls": "count/call",
    "nn_index.nearest_batch.rows": "count/call",
    "nn_index.nearest_batch.self_s": "s/call",
    "nn_index.build.calls": "count/call",
    "nn_index.build.self_s": "s/call",
    "nn_index.rows_per_candidate": "ratio",
    "vorcands.scheme_final.nn_calls.even": "count",
    "vorcands.scheme_final.nn_calls.odd": "count",
    "vorcands.scheme_final.self_s": "s/call",
    "vorcands.vorwalk.self_s": "s/call",
    "vorcands.vorwalk.walks": "count/call",
    "vorcands.boundary_proportion.self_s": "s/call",
    "vorcands.wall_hit_ratio": "ratio",
    "gp.fit.calls": "count/call",
    "gp.fit.self_s": "s/call",
    "gp.fit.errors": "count/call",
    "gp.fit.nfev": "count/call",
    "gp.build.calls": "count/call",
    "gp.build.self_s": "s/call",
    "gp.predict.calls": "count/call",
    "gp.predict.rows": "count/call",
    "gp.predict.self_s": "s/call",
    "gp.predict_grad.calls": "count/call",
    "gp.predict_grad.self_s": "s/call",
    "acquisition.multistart_opt.calls": "count/call",
    "acquisition.multistart_opt.self_s": "s/call",
    "acquisition.multistart_opt.evaluations": "count/call",
    "acquisition.predicts_per_eval": "ratio",
    "acquisition.argmax_discrete.self_s": "s/call",
    "sampling.lhs.calls": "count/call",
    "sampling.lhs.self_s": "s/call",
    "driver.run_bo.self_s": "s/call",
    "driver.acquisitions": "count/call",
    "cli.main.self_s": "s/call",
    "driver.y_best_final_median": "y",
    "trace.overhead_ratio": "ratio",
}


def _rows(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["nn_index.nearest_batch.rows"] += len(result)


def _walks(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["vorcands.vorwalk.walks"] += len(result)
    tracer.counts["vorcands.wall_hits"] += int(result.boundary_hit.sum())


def _nn_calls_now(tracer: Tracer, args, kwargs) -> int:
    return tracer.calls("nn_index.nearest_batch")


def _nn_calls_by_parity(tracer: Tracer, args, kwargs, result, before: int) -> None:
    iteration = args[2] if len(args) > 2 else kwargs["iteration"]
    parity = "even" if iteration % 2 == 0 else "odd"
    tracer.counts[f"scheme_final.{parity}"] += 1
    nn_calls = tracer.calls("nn_index.nearest_batch") - before
    tracer.counts[f"scheme_final.nn_calls.{parity}"] += nn_calls


def _predict_rows(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["gp.predict.rows"] += len(result[0])
    if tracer.active("acquisition.multistart_opt"):
        tracer.counts["acquisition.predicts_in_opt"] += 1


def _evaluations(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["acquisition.multistart_opt.evaluations"] += result.evaluations


def _acquisitions(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["driver.acquisitions"] += len(result)
    if result:
        tracer.samples["driver.y_best_final"].append(result[-1].y_best)


def _nfev(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["gp.fit.nfev"] += int(result.nfev)


_AFTER = {
    "nn_index.nearest_batch": _rows,
    "vorcands.vorwalk": _walks,
    "gp.predict": _predict_rows,
    "acquisition.multistart_opt": _evaluations,
    "driver.run_bo": _acquisitions,
    "vorcands.scheme_final": _nn_calls_by_parity,
}
_BEFORE = {"vorcands.scheme_final": _nn_calls_now}


def install(tracer: Tracer, modules: dict[str, object]) -> None:
    """Wrap every lookup site in `WRAPS`; `modules` maps short names to modules."""
    for name, sites in WRAPS.items():
        for mod, attr in sites:
            tracer.wrap(modules[mod], attr, name, after=_AFTER.get(name), before=_BEFORE.get(name))
    # gp.fit's optimizer result carries the likelihood evaluation count; count
    # it without a span so the evaluations stay in gp.fit's self time
    tracer.wrap(modules["gp"], "minimize", "gp.minimize", after=_nfev, span=False)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, traced_calls: int, overhead: float) -> dict[str, float]:
    """Every metric in `METRICS`, from the aggregates of `traced_calls` calls."""
    c = tracer.counts
    out: dict[str, float] = {}
    for name in WRAPS:
        st = tracer.stats.get(name)
        out[f"{name}.calls"] = _ratio(st.calls if st else 0, traced_calls)
        out[f"{name}.self_s"] = _ratio(st.self_s if st else 0.0, traced_calls)
    fit = tracer.stats.get("gp.fit")
    out["gp.fit.errors"] = _ratio(fit.errors if fit else 0, traced_calls)
    for key in (
        "nn_index.nearest_batch.rows",
        "vorcands.vorwalk.walks",
        "gp.fit.nfev",
        "gp.predict.rows",
        "acquisition.multistart_opt.evaluations",
        "driver.acquisitions",
    ):
        out[key] = _ratio(c[key], traced_calls)
    out["nn_index.rows_per_candidate"] = _ratio(
        c["nn_index.nearest_batch.rows"], c["vorcands.vorwalk.walks"]
    )
    out["vorcands.wall_hit_ratio"] = _ratio(c["vorcands.wall_hits"], c["vorcands.vorwalk.walks"])
    for parity in ("even", "odd"):
        out[f"vorcands.scheme_final.nn_calls.{parity}"] = _ratio(
            c[f"scheme_final.nn_calls.{parity}"], c[f"scheme_final.{parity}"]
        )
    out["acquisition.predicts_per_eval"] = _ratio(
        c["acquisition.predicts_in_opt"], c["acquisition.multistart_opt.evaluations"]
    )
    finals = tracer.samples["driver.y_best_final"]
    out["driver.y_best_final_median"] = statistics.median(finals) if finals else 0.0
    out["trace.overhead_ratio"] = overhead
    return {name: out[name] for name in METRICS}
