"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q bench/check_bench.py

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` at the repository root does not collect it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, internal_triangles  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    res = run.run_one(name, seed=3, seconds=0, trace=False, tiny=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_tiny_run_reports_every_layer_metric(name):
    spans = run.OUT / f"spans_{name}.csv"
    spans.unlink(missing_ok=True)
    res = run.run_one(name, seed=3, seconds=0, trace=True, tiny=True)
    assert res["correct"] and res["failed"] == 0
    assert sorted(res["metrics"]) == sorted(PER_LAYER)
    assert all(m["value"] is not None for m in res["metrics"].values())
    lines = spans.read_text().splitlines()
    assert lines[0] == "id,parent,name,start_s,end_s" and len(lines) > 1


def test_layer_counts_of_a_known_call():
    import xratio

    problem = xratio.triangulation_to_problem(xratio.inscribed_polygon_triangulation(8))
    tracer = Tracer()
    tracer.install()
    try:
        # both references to canonical_key are wrapped, not only its home
        assert xratio.engine.core.canonical_key is xratio.engine.canon.canonical_key
        assert xratio.engine.core.canonical_key.__wrapped__ is not None
        engine = xratio.Engine()
        assert engine.degree(problem) == 4  # 2 ** (8 // 2 - 2)
    finally:
        tracer.uninstall()
    assert not hasattr(xratio.engine.core.canonical_key, "__wrapped__")
    m = tracer.layer_metrics()
    assert m["core.degree_calls"][0] == 1
    assert m["core.nodes"][0] == engine.nodes
    assert m["core.cache_misses"][0] == engine.cache_misses
    assert m["canon.calls"][0] == engine.cache_hits + engine.cache_misses
    assert m["core.self_s"][0] > 0 and m["canon.s"][0] > 0


def test_missing_engine_counter_is_reported_missing():
    import xratio

    class NoNodeCounter:  # an engine that keeps no `nodes` counter
        cache_hits = cache_misses = 0

        def _degree(self, m, masks):
            return 1

    problem = xratio.triangulation_to_problem(xratio.inscribed_polygon_triangulation(7))
    tracer = Tracer()
    tracer.install()
    try:
        assert xratio.Engine.degree(NoNodeCounter(), problem) == 1
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["core.nodes"][0] is None
    assert m["core.cache_hits"][0] == 0


def test_internal_triangles_counts_from_diagonals():
    import xratio

    for n in range(6, 15):
        t = xratio.inscribed_polygon_triangulation(n)
        assert internal_triangles(t.diagonals) == n // 2 - 2
    fan = [(1, k) for k in range(3, 10)]
    assert internal_triangles(fan) == 0


def test_planted_wrong_engine_fails_operations(monkeypatch):
    import xratio

    class OffByOne(xratio.Engine):
        def degree(self, inst):
            return super().degree(inst) + 1

    monkeypatch.setattr(xratio, "Engine", OffByOne)
    for name in ("search_n10", "triangulation_sweep", "large_exact"):
        res = run.run_one(name, seed=3, seconds=0, trace=False, tiny=True)
        assert not res["correct"], name
        if name == "search_n10":
            assert res["failed"] > 0  # only witnesses and a sample are rechecked
        else:
            assert res["failed"] == res["attempted"], name


def test_planted_wrong_oracle_fails_operations(monkeypatch):
    import xratio

    real = xratio.numeric_degree

    def off_by_one(problem, **kwargs):
        fc = real(problem, **kwargs)
        return dataclasses.replace(fc, count=fc.count + 1)

    monkeypatch.setattr(xratio, "numeric_degree", off_by_one)
    res = run.run_one("oracle_certify", seed=3, seconds=0, trace=False, tiny=True)
    assert not res["correct"]
    assert res["failed"] == res["attempted"]


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "large_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
