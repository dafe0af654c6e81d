"""The benchmark's closed-loop workloads: inputs from the seed, calls, checks.

Each workload is one caller that issues a call, waits for it, and issues the
next, as sequential Bayesian optimization does.  A workload object is built
from the seed alone (its inputs), `call(k)` does the k-th unit of work
through vorbo's public functions, and `check(raw)` verifies what came back
and condenses it to a digest, so two runs of the same call can be compared
byte for byte.  Only `call` is timed.

Call k of a run with seed s uses the derived seed ``s * 100_000 + k``; the
same seed always gives the same inputs.  The exception is the `bo-*`
workloads, whose calls visit a fixed panel of cell seeds 0..PANEL-1
(criterion 6's seeds), starting at ``s % PANEL``, and whose runs end on whole
passes of the panel: a cell's cost varies by up to 30% between problem
instances (the opt cell's most), so a run that drew fresh instances, or part
of a pass, would measure which instances it drew rather than the code.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from vorbo import cli, driver, vorcands

#: Halfway points must reflect to a cube face within this; equidistant
#: candidates must match their two nearest distances within `EQUIDISTANT_TOL`.
FACE_TOL = 1e-9
EQUIDISTANT_TOL = 1e-6

#: Candidates per scheme_final call that get the brute-force geometry check.
GEOMETRY_SAMPLE = 32


@dataclass
class Checked:
    items: int  # work completed: acquisitions, candidates or walks
    attempted: int  # cells, candidates and study rows checked
    failed: int
    digest: str  # equal for byte-identical outputs
    latencies: dict[str, list[float]] = field(default_factory=dict)


def _call_seed(seed: int, k: int) -> int:
    return seed * 100_000 + k


class BoCells:
    """One call runs a `run_bo` cell per method on the same cell seed.

    With `panel` > 0, call k uses cell seed ``(seed + k) % panel``, runs end
    on whole passes of the panel, and call k + panel repeats call k.
    """

    item = "acquisitions"

    def __init__(self, seed: int, config: driver.ExperimentConfig, panel: int = 0) -> None:
        config.validate()
        self.seed = seed
        self.config = config
        self.panel = panel
        self.cycle = panel or 1
        self.period = panel or None
        self.n_acq = config.budget - config.resolved_n_init()
        self.call_name = "one cell per method (" + ", ".join(config.methods) + ")"

    def key(self, k: int) -> int:
        return (self.seed + k) % self.panel if self.panel else _call_seed(self.seed, k)

    def call(self, k: int):
        parts, cells = {}, {}
        for method in self.config.methods:
            t0 = perf_counter()
            try:
                cells[method] = driver.run_bo(self.config, self.key(k), method)
            except Exception as exc:  # noqa: BLE001 - a raising cell is a counted failure
                traceback.print_exc()
                cells[method] = exc
            parts[f"cell_s.{method}"] = perf_counter() - t0
        return parts, cells

    def check(self, cells) -> Checked:
        h = hashlib.sha256()
        items = failed = 0
        latencies = {}
        for method, records in cells.items():
            h.update(method.encode())
            if isinstance(records, Exception):
                h.update(repr(records).encode())
                failed += 1
                continue
            x = np.array([r.x for r in records])
            y = np.array([r.y for r in records])
            h.update(x.tobytes())
            h.update(y.tobytes())
            items += len(records)
            # per-acquisition wall time, from the cell's own elapsed_ms column
            elapsed = np.array([0.0] + [r.elapsed_ms for r in records]) / 1e3
            latencies[f"acquisition_s.{method}"] = np.diff(elapsed).tolist()
            ok = (
                len(records) == self.n_acq
                and x.min() >= 0.0
                and x.max() <= 1.0
                and np.isfinite(y).all()
            )
            failed += not ok
        return Checked(items, len(cells), failed, h.hexdigest(), latencies)


class Candidates:
    """Call k runs `scheme_final` at parity k % 2 on the seeded design."""

    item = "candidates"
    call_name = "scheme_final, parity alternating between calls"
    cycle = 2  # runs end on whole even/odd pairs
    period = None  # no two calls share inputs

    def __init__(self, seed: int, n: int, dim: int, count: int) -> None:
        self.seed = seed
        self.count = count
        self.design = np.random.default_rng([seed]).random((n, dim))

    def call(self, k: int):
        call_seed = _call_seed(self.seed, k)
        incumbent = int(np.random.default_rng([call_seed]).integers(self.design.shape[0]))
        rng = np.random.default_rng([call_seed, 1])
        parity = ("even", "odd")[k % 2]
        t0 = perf_counter()
        cs = vorcands.scheme_final(self.design, self.count, k, incumbent, rng)
        return {f"scheme_final_s.{parity}": perf_counter() - t0}, (call_seed, cs)

    def _bad_geometry(self, points: np.ndarray, origin: np.ndarray) -> int:
        """Sampled candidates that are neither equidistant nor a halfway point (L-inf)."""
        bad = 0
        for c, o in zip(points, origin):
            d = np.abs(self.design - c).max(axis=1)
            d1, d2 = np.partition(d, 1)[:2]
            if abs(d2 - d1) <= EQUIDISTANT_TOL:
                continue
            face = 2.0 * c - self.design[o]  # the point c is halfway to
            on_face = np.minimum(np.abs(face), np.abs(face - 1.0)).min() <= FACE_TOL
            inside = face.min() >= -FACE_TOL and face.max() <= 1.0 + FACE_TOL
            bad += not (on_face and inside)
        return bad

    def check(self, raw) -> Checked:
        call_seed, cs = raw
        outside = (cs.points < 0.0).any(axis=1) | (cs.points > 1.0).any(axis=1)
        rng = np.random.default_rng([call_seed, 2])
        pick = rng.choice(len(cs), size=min(GEOMETRY_SAMPLE, len(cs)), replace=False)
        pick = pick[~outside[pick]]
        failed = int(len(cs) != self.count) + int(outside.sum())
        failed += self._bad_geometry(cs.points[pick], cs.origin[pick])
        digest = hashlib.sha256(cs.points.tobytes()).hexdigest()
        return Checked(len(cs), 1 + len(cs), failed, digest)


class Study:
    """One call runs `vorbo boundary-study` in process through `cli.main`."""

    item = "walks"
    call_name = "boundary-study invocation (CSV written)"
    cycle = 1
    period = None

    def __init__(self, seed: int, workdir: str, sizes: str, dims: str, count: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.count = count
        self.rows = len(sizes.split(",")) * len(dims.split(",")) * 3 * 3
        self.args = ["--reps", "1", "--count", str(count), "--sizes", sizes, "--dims", dims]

    def call(self, k: int):
        out = os.path.join(self.workdir, f"study-{k}.csv")
        argv = ["boundary-study", *self.args, "--seed", str(_call_seed(self.seed, k)), "--out", out]
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse reports bad arguments by exiting
            status = exc.code
        return {}, (status, out)

    def check(self, raw) -> Checked:
        status, out = raw
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        for path in (out, out + ".meta.json"):
            if os.path.exists(path):
                os.remove(path)
        lines = data.decode().strip().splitlines()[1:]
        props = [float(line.rsplit(",", 1)[1]) for line in lines]
        failed = int(status != 0) + int(len(lines) != self.rows)
        failed += sum(not 0.0 <= p <= 1.0 for p in props)
        return Checked(len(lines) * self.count, 2 + len(lines), failed, hashlib.sha256(data).hexdigest())


#: Cell seeds in the panel of each bo-* workload: a pass takes about 12 s.
PANEL = 6


def make(name: str, seed: int, smoke: bool, workdir: str):
    """Build workload `name` for `seed`; `smoke` shrinks every size to seconds."""
    if name == "bo-desk":
        size = dict(dim=2, budget=8) if smoke else dict(dim=5, budget=20)
        config = driver.ExperimentConfig(problem="ackley", methods=("vor", "lhs", "opt"), **size)
        return BoCells(seed, config, panel=3 if smoke else PANEL)
    if name == "bo-p20-lhs":
        size = dict(dim=3, n_init=6, budget=9) if smoke else dict(dim=20, n_init=60, budget=80)
        config = driver.ExperimentConfig(problem="levy", methods=("lhs",), **size)
        return BoCells(seed, config, panel=3 if smoke else PANEL)
    if name == "cands-p100":
        return Candidates(seed, 40, 5, 30) if smoke else Candidates(seed, 2000, 100, 200)
    if name == "study-lowdim":
        if smoke:
            return Study(seed, workdir, "10,20", "2", 20)
        return Study(seed, workdir, "10,100,1000", "2,10", 200)
    raise ValueError(f"unknown workload {name!r}")
