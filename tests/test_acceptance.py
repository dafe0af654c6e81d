"""End-to-end acceptance checks: one test (one pass/fail line) per criterion.

Each test exercises a complete user-visible contract -- geometry, study
reproduction, surrogate math, acquisition math, scaling, the optimizer
comparison, determinism, and sampling correctness -- at its stated tolerance
and runtime budget.  Run with ``pytest -v tests/test_acceptance.py`` to get
the per-criterion lines.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from oracles import brute_distances, brute_owner, dense_gp, run_python, sobol_reference
from vorbo import acquisition, gp, sampling
from vorbo.nn_index import Metric
from vorbo.vorcands import scheme_final, vorwalk


# -----------------------------------------------------------------------------
# 1. Equidistance (geometry core): walks land on cell boundaries strictly
#    inside the cube, exactly bracketed, equidistant to their two nearest
#    design points within 1e-6.
# -----------------------------------------------------------------------------


def test_criterion_1_equidistance_geometry_core():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    design = rng.random((50, 10))
    for metric in Metric:
        # 200 walks, each aimed at another design point so the cell crossing
        # falls on the open segment between two interior points
        origins = rng.integers(0, 50, size=200).astype(np.intp)
        partners = (origins + rng.integers(1, 50, size=200)) % 50
        diff = design[partners] - design[origins]
        scale = np.sqrt(10.0) * (1 + 1e-9) / np.sqrt((diff * diff).sum(axis=1))
        cs = vorwalk(design, origins, diff * scale[:, None], metric)

        assert not cs.boundary_hit.any()  # every candidate is non-boundary
        assert cs.points.min() > 0.0 and cs.points.max() < 1.0  # nor clamped to a face
        np.testing.assert_array_equal(cs.bracket_width, 0.5**30)
        anchors = design[cs.origin]
        lo = anchors + cs.t_lower[:, None] * cs.directions
        hi = anchors + (cs.t_lower + cs.bracket_width)[:, None] * cs.directions
        assert (brute_owner(design, lo, metric) == cs.origin).all()
        assert (brute_owner(design, hi, metric) != cs.origin).all()

        d_all = brute_distances(design, cs.points, metric)
        d_origin = d_all[np.arange(200), cs.origin]
        d_all[np.arange(200), cs.origin] = np.inf
        gaps = np.abs(d_origin - d_all.min(axis=1))
        assert gaps.max() <= 1e-6
    assert time.perf_counter() - start < 5.0


# -----------------------------------------------------------------------------
# 2. Boundary-study reproduction: the default 10-replicate study satisfies
#    the four ordinal claims about wall-hit rates.  Claims (a), (c) and (d)
#    hold within each replicate.  Claim (b), rect/linf hits walls no more
#    often than any unif arm, is tested on hit counts pooled over the
#    replicates with an exact one-sided binomial test at p < 1e-4: the study
#    keys its random streams by strategy, so the two arms are independent
#    draws, and at N >= 100 an arm sees only about 1-15 hits per replicate,
#    more noise than the gap between the true rates.
# -----------------------------------------------------------------------------

#: One-sided p-value below which pooled counts refute claim (b).  With equal
#: true rates, all 27 comparisons together raise a false alarm in under 0.3%
#: of studies.
_CLAIM_B_ALPHA = 1e-4


def _claim_b_violations(hits: dict[tuple[str, str, int, int], int]) -> list[str]:
    """Claim (b) on pooled wall-hit counts keyed (strategy, metric, N, P).

    Every arm runs the same number of walks, so with equal rates rect/linf's
    share of a pair's hits is Binomial(h_rect + h_unif, 1/2).  A comparison
    fails when that test finds rect/linf's share too high at `_CLAIM_B_ALPHA`.
    """
    violations = []
    for (strat, met, n, p), r in sorted(hits.items()):
        if (strat, met) != ("rect", "linf"):
            continue
        for m in ("l1", "l2", "linf"):
            u = hits[("unif", m, n, p)]
            if r + u == 0:
                continue
            pvalue = binomtest(r, r + u, 0.5, alternative="greater").pvalue
            if pvalue < _CLAIM_B_ALPHA:
                violations.append(
                    f"(b) N={n} P={p}: rect/linf {r} hits > unif/{m} {u} hits (p={pvalue:.1e})"
                )
    return violations


def test_claim_b_pooled_check_catches_a_reversal():
    # pooled hits of the default study at N=10, P=2 (10,000 walks per arm)
    measured = {("rect", "linf", 10, 2): 1018, ("unif", "l1", 10, 2): 1385,
                ("unif", "l2", 10, 2): 1375, ("unif", "linf", 10, 2): 1256}
    assert _claim_b_violations(measured) == []

    reversed_pair = dict(measured)
    reversed_pair[("rect", "linf", 10, 2)] = 1256
    reversed_pair[("unif", "linf", 10, 2)] = 1018
    (violation,) = _claim_b_violations(reversed_pair)
    assert "rect/linf 1256 hits > unif/linf 1018 hits" in violation

    # no hits in either arm carries no evidence
    assert _claim_b_violations({("rect", "linf", 1000, 100): 0, ("unif", "l1", 1000, 100): 0,
                                ("unif", "l2", 1000, 100): 0, ("unif", "linf", 1000, 100): 0}) == []


@pytest.mark.slow
def test_criterion_2_boundary_study_reproduction(tmp_path):
    out = tmp_path / "study.csv"
    start = time.perf_counter()
    run_python(["-m", "vorbo.cli", "boundary-study", "--out", str(out)], timeout=660)
    elapsed = time.perf_counter() - start

    rows: dict[tuple[str, str, int, int, int], float] = {}
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "strategy,metric,N,P,rep,prop_boundary"
    for line in lines[1:]:
        strat, met, n, p, rep, prop = line.split(",")
        rows[(strat, met, int(n), int(p), int(rep))] = float(prop)
    sizes, dims, metrics = (10, 100, 1000), (2, 10, 100), ("l1", "l2", "linf")
    assert len(rows) == 3 * 3 * 3 * 3 * 10
    count = json.loads((tmp_path / "study.csv.meta.json").read_text())["settings"]["count"]

    violations: list[str] = []
    hits: dict[tuple[str, str, int, int], int] = {}
    for (strat, met, n, p, _), prop in rows.items():
        key = (strat, met, n, p)
        hits[key] = hits.get(key, 0) + round(prop * count)
    violations += _claim_b_violations(hits)
    for rep in range(10):
        for n in sizes:
            for m in metrics:
                v = rows[("proj", m, n, 100, rep)]
                if v > 0.05:
                    violations.append(f"(a) rep{rep} proj/{m} N={n} P=100: {v}")
        for s in ("unif", "rect", "proj"):
            for m in metrics:
                for p in dims:
                    if rows[(s, m, 1000, p, rep)] > rows[(s, m, 10, p, rep)]:
                        violations.append(f"(c) rep{rep} {s}/{m} P={p}")
        for p in (10, 100):
            for n in sizes:
                v1, v2, vi = (rows[("unif", m, n, p, rep)] for m in metrics)
                if not (v1 >= v2 >= vi):
                    violations.append(f"(d) rep{rep} N={n} P={p}: {v1},{v2},{vi}")

    assert elapsed < 600.0, f"study took {elapsed:.0f}s"
    assert not violations, f"{len(violations)} claim violations:\n" + "\n".join(violations)


# -----------------------------------------------------------------------------
# 3. GP oracle equivalence: predictive moments against an independent dense
#    solve at 1e-10; likelihood gradient against central differences at 1e-4.
# -----------------------------------------------------------------------------


def test_criterion_3_gp_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    design = rng.random((20, 3))
    y = np.sin(design.sum(axis=1) * 3.0) + 0.1 * rng.standard_normal(20)
    ls = np.array([0.3, 0.12, 0.6])
    model = gp.build(design, y, ls)
    queries = rng.random((40, 3))
    tau_sq, mean_oracle, sd_oracle = dense_gp(design, y, ls, model.nugget, queries)

    mean, sd = gp.predict(model, queries)
    assert abs(model.tau_sq - tau_sq) <= 1e-10
    assert np.max(np.abs(mean - mean_oracle)) <= 1e-10
    assert np.max(np.abs(sd - sd_oracle)) <= 1e-10

    yc = y - y.mean()
    h = 1e-5
    for _ in range(20):
        theta = rng.uniform(np.log(0.05), np.log(2.0), size=3)
        _, grad = gp._nll_and_grad(theta, design, yc)
        for p in range(3):
            step = np.zeros(3)
            step[p] = h
            f_plus = gp._nll_and_grad(theta + step, design, yc)[0]
            f_minus = gp._nll_and_grad(theta - step, design, yc)[0]
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(grad[p] - fd) / max(abs(grad[p]), abs(fd), 1.0)
            assert rel <= 1e-4, f"grad[{p}] {grad[p]} vs FD {fd} at theta {theta}"
    assert time.perf_counter() - start < 10.0


# -----------------------------------------------------------------------------
# 4. EI oracle equivalence: closed form within 3 standard errors of a
#    10^6-sample Monte Carlo estimate at 50 random (mu, sigma, y_min) triples.
# -----------------------------------------------------------------------------


def test_criterion_4_ei_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    n_mc = 1_000_000
    for _ in range(50):
        z = rng.uniform(-2.5, 2.5)
        sigma = 10.0 ** rng.uniform(-3.0, 0.5)
        y_min = rng.uniform(-5.0, 5.0)
        mu = y_min - z * sigma
        closed = acquisition.ei_values(np.array([mu]), np.array([sigma]), y_min)[0]
        improvements = np.maximum(y_min - (mu + sigma * rng.standard_normal(n_mc)), 0.0)
        mc = improvements.mean()
        se = improvements.std(ddof=1) / np.sqrt(n_mc)
        assert abs(closed - mc) <= 3.0 * se, f"EI {closed} vs MC {mc} +- {se}"
    assert time.perf_counter() - start < 30.0


# -----------------------------------------------------------------------------
# 5. Scaling: 5000 candidates on an N=2000, P=100 design in under 30 s
#    for each half of the alternating scheme.
# -----------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_candidate_scaling():
    design = np.random.default_rng(51).random((2000, 100))
    for iteration in (0, 1):
        t0 = time.perf_counter()
        cs = scheme_final(design, 5000, iteration, 0, np.random.default_rng(52 + iteration))
        elapsed = time.perf_counter() - t0
        assert len(cs) == 5000
        assert cs.points.min() >= 0.0 and cs.points.max() <= 1.0
        assert elapsed < 30.0, f"iteration {iteration} took {elapsed:.1f}s"


# -----------------------------------------------------------------------------
# 6. Desk-scale optimizer comparison: on Ackley P=5 with budget 100 over 20
#    paired seeds, the walk-based candidates match LHS candidates and the
#    gradient-polished method in median final value, and spend under half
#    the inner-search time of the gradient-polished method.
# -----------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_desk_scale_bo_comparison(tmp_path):
    out = tmp_path / "bo.csv"
    start = time.perf_counter()
    run_python(
        [
            "-m", "vorbo.cli", "run",
            "--problem", "ackley",
            "--dim", "5",
            "--budget", "100",
            "--method", "vor,lhs,opt",
            "--reps", "20",
            "--seed", "0",
            "--no-x",
            "--out", str(out),
        ],
        timeout=1800,
    )
    elapsed = time.perf_counter() - start

    finals: dict[str, dict[int, float]] = {"vor": {}, "lhs": {}, "opt": {}}
    cand_ms: dict[str, float] = {"vor": 0.0, "lhs": 0.0, "opt": 0.0}
    lines = out.read_text().strip().splitlines()
    cols = lines[0].split(",")
    i_seed, i_method = cols.index("seed"), cols.index("method")
    i_ybest, i_cand = cols.index("y_best"), cols.index("cand_ms")
    for line in lines[1:]:
        parts = line.split(",")
        method, seed = parts[i_method], int(parts[i_seed])
        finals[method][seed] = float(parts[i_ybest])  # rows are iteration-ordered
        if parts[i_cand]:
            cand_ms[method] += float(parts[i_cand])

    assert set(finals["vor"]) == set(finals["lhs"]) == set(finals["opt"]) == set(range(20))
    vor_median, lhs_median, opt_median = (
        float(np.median(list(finals[m].values()))) for m in ("vor", "lhs", "opt")
    )
    assert vor_median <= lhs_median, f"vor median {vor_median} > lhs median {lhs_median}"
    assert vor_median <= opt_median, f"vor median {vor_median} > opt median {opt_median}"
    assert cand_ms["vor"] <= 0.5 * cand_ms["opt"], (
        f"vor candidate time {cand_ms['vor']:.0f}ms > "
        f"0.5 x opt inner-search time {cand_ms['opt']:.0f}ms"
    )
    assert elapsed < 1800.0, f"suite took {elapsed:.0f}s"


# -----------------------------------------------------------------------------
# 7. Determinism: every subcommand, run twice with the same seed, produces
#    byte-identical CSV.
# -----------------------------------------------------------------------------


def test_criterion_7_determinism_suite(tmp_path):
    cases = {
        "study": ["boundary-study", "--sizes", "10,50", "--dims", "2,3",
                  "--reps", "2", "--count", "60", "--seed", "7"],
        "run": ["run", "--problem", "levy", "--dim", "2", "--budget", "12",
                "--method", "vor,lhs,sobol,opt", "--reps", "2", "--seed", "3",
                "--no-timing"],
        "cands": ["candidates", "--dim", "3", "--n", "15", "--scheme", "vor",
                  "--count", "40", "--seed", "9"],
    }
    for name, args in cases.items():
        outs = []
        for attempt in (1, 2):
            path = tmp_path / f"{name}_{attempt}.csv"
            run_python(["-m", "vorbo.cli", *args, "--out", str(path)], timeout=300)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], f"{name}: reruns differ"


# -----------------------------------------------------------------------------
# 8. LHS / Sobol correctness: stratification on 100 random (n, P) pairs, and
#    the first 8 Sobol points in P <= 4 against the direction-number
#    construction computed from first principles.
# -----------------------------------------------------------------------------


def test_criterion_8_lhs_sobol_correctness():
    rng = np.random.default_rng(81)
    for _ in range(100):
        n = int(rng.integers(1, 64))
        dim = int(rng.integers(1, 12))
        pts = sampling.lhs(n, dim, rng)
        assert pts.shape == (n, dim)
        assert pts.min() >= 0.0 and pts.max() < 1.0
        strata = np.floor(pts * n).astype(int)
        for p in range(dim):
            np.testing.assert_array_equal(np.sort(strata[:, p]), np.arange(n))

    for dim in (1, 2, 3, 4):
        got = sampling.sobol(8, dim, start_index=0)
        np.testing.assert_array_equal(got, sobol_reference(8, dim))
