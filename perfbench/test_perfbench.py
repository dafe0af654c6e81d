"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_nesting():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and then d [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.open("a")
    tracer.open("b")
    tracer.open("c")
    tracer.close()
    tracer.close()
    tracer.open("d")
    tracer.close()
    tracer.close()
    self_s = {name: st.self_s for name, st in tracer.stats.items()}
    total_s = {name: st.total_s for name, st in tracer.stats.items()}
    assert self_s == {"a": 3, "b": 2, "c": 1, "d": 4}
    assert total_s == {"a": 10, "b": 3, "c": 1, "d": 4}
    assert sum(self_s.values()) == total_s["a"]


def test_wrappers_nest_count_errors_and_restore():
    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return mod.inner(x) + 1  # looked up on the module at call time

    mod.inner, mod.outer = inner, outer
    tracer = Tracer(clock=FakeClock([0, 2, 5, 6, 10, 11]))
    seen = []
    assert tracer.wrap(mod, "outer", "outer")
    assert tracer.wrap(mod, "inner", "inner", after=lambda t, a, k, r, tok: seen.append(r))
    assert not tracer.wrap(mod, "gone", "gone")
    assert mod.outer(3) == 4
    with pytest.raises(ValueError):
        mod.inner(-1)
    tracer.unwrap_all()

    assert mod.outer is outer and mod.inner is inner
    assert tracer.missing == {"fake.gone"}
    assert seen == [3]
    assert tracer.stats["outer"].self_s == 6 - 0 - (5 - 2)
    assert tracer.stats["inner"].calls == 2 and tracer.stats["inner"].errors == 1
    assert tracer.stats["inner"].self_s == 3 + 1


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} {got['value']} {m['unit']}" in lines
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "bo-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _Repeating:
    """A fake workload whose call k repeats call k - 2; call `bad` does not."""

    item = "items"
    cycle = 2
    period = 2

    def __init__(self, bad=None):
        self.bad = bad

    def call(self, k):
        return {}, "bad" if k == self.bad else str(k % 2)

    def check(self, raw):
        from workloads import Checked

        return Checked(items=1, attempted=1, failed=0, digest=raw)


@pytest.mark.parametrize("bad, failed", [(None, False), (3, True)])
def test_repeated_inputs_must_give_identical_outputs(bad, failed):
    sys.path.insert(0, str(ROOT / "src"))
    import run

    res = run.measure(_Repeating(bad), seconds=0.3, trace=False, smoke=True)
    assert len(res["samples"]) >= 4 and len(res["samples"]) % 2 == 0
    assert (res["failed"] > 0) == failed
    # every call is bracketed by two yardstick timings
    assert len(res["ref"]) == len(res["samples"]) + 1
    assert len(res["rel"]) == len(res["samples"])
