"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

They shrink every workload to its first slots so they finish in about a
minute; the full workloads are exercised by running `run.py` itself.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads


@pytest.fixture
def tiny(monkeypatch):
    """At most three items per workload (a matroid and a non-matroid among them),
    one set-up, a census on 2 vertices and one startup probe."""
    make_items = workloads.make_items

    def few(workload, seed, catalogue):
        items = make_items(workload, seed, catalogue)
        picked = [items[0], next(it for it in items if it["matroid"])]
        picked += [it for it in items if not it["matroid"]][:1]
        return list({it["id"]: it for it in picked}.values())

    monkeypatch.setattr(workloads, "make_items", few)
    monkeypatch.setattr(workloads, "CLI_CENSUS_MAX_N", 2)
    monkeypatch.setattr(tracing, "CENSUS_MAX_N", 2)
    monkeypatch.setattr(tracing, "STARTUP_RUNS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(*args: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(tiny, workload):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    printed = {line.split()[0]: line.split()[2] for line in lines[2:-1]}
    for kind in workloads.WORKLOADS[workload]["ops"]:
        if kind in run.OP_METRICS:
            assert printed[run.OP_METRICS[kind]] == "ms"
    assert printed["fail_frac"] == "ratio"

    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "1")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in tracing.PER_LAYER}


def fail_count(s) -> int:
    passes = run.measure(s, 0.0)
    return sum(1 for p in passes for _, _, ok in p.latencies if not ok)


def test_corrupted_table_counts_as_failure(tiny):
    s = run.setup("dense-matroids", 1)
    assert fail_count(s) == 0
    real = s.lib.t1_table

    def corrupted(cx, threads=1):
        t = real(cx, threads)
        (key, dim), *rest = list(t.items())
        return s.lib.T1Table(t.n, [(key, dim + 1), *rest])

    s.lib.t1_table = corrupted
    try:
        assert fail_count(s) > 0
    finally:
        s.lib.t1_table = real


def test_flipped_verdict_counts_as_failure(tiny):
    s = run.setup("recognition", 1)
    assert fail_count(s) == 0
    real = s.lib.is_matroid_via_t1
    s.lib.is_matroid_via_t1 = lambda cx: not real(cx)
    try:
        assert fail_count(s) > 0
    finally:
        s.lib.is_matroid_via_t1 = real


def test_same_seed_gives_identical_inputs():
    catalogue = workloads.load_catalogue()
    for name in workloads.WORKLOADS:
        assert workloads.make_items(name, 7, catalogue) == workloads.make_items(name, 7, catalogue)
        assert workloads.make_items(name, 7, catalogue) != workloads.make_items(name, 8, catalogue)
    first = {p.name: p.read_bytes() for p in input_files(run.setup("sparse-complexes", 7))}
    second = {p.name: p.read_bytes() for p in input_files(run.setup("sparse-complexes", 7))}
    assert first == second and first


def input_files(s) -> list[Path]:
    return [Path(item["file"]) for item in s.items]


def test_benchmark_json_matches_the_metrics_reported():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracing.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: spec["why"] for name, spec in workloads.WORKLOADS.items()
    }
