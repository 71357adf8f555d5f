"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
The workload runs here use tiny inputs and one-second timed phases: they
check that every metric is produced and every answer is checked, not the
program's speed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import inputs
import run as bench
from measure import PER_LAYER_UNITS, tail
from spans import Probes, SpanRecorder, union_length
from workloads import (
    WORKLOADS,
    IngestSizes,
    IngestWorkload,
    LookupSizes,
    LookupWorkload,
    SweepSizes,
    SweepWorkload,
)

TINY = {
    SweepWorkload: SweepSizes(runs_per_spec=3, vertices=300, batch_pairs=50, setup_repeats=1),
    LookupWorkload: LookupSizes(specs=2, runs_per_spec=3, vertices=200, batch_pairs=50, setup_repeats=1),
    IngestWorkload: IngestSizes(pool_runs=2, batch_runs=1, vertices=300, window_batches=2, setup_repeats=1),
}

#: a layer each workload must visibly enter when traced
ENTERED = {
    SweepWorkload: ("engine.parallel.ms", "storage.fetch.ms", "engine.kernels.ms", "api.compile_ms"),
    LookupWorkload: ("server.service_us", "server.frame_bytes", "api.compile_ms"),
    IngestWorkload: ("skeleton.label_ms", "skeleton.vertices_per_s", "storage.write.ms"),
}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    percentile, value = tail(values)
    assert (percentile, value) == (90.0, 90.0)
    assert sum(1 for v in values if v > value) == 10
    percentile, value = tail([5.0] * 3 + [1.0] * 8)
    assert value == 1.0 and percentile == pytest.approx(100 / 11)
    # from 1,000 samples on, p99 however many samples lie beyond
    assert tail([float(v) for v in range(1000)]) == (99.0, 989.0)
    assert tail([float(v) for v in range(20000)]) == (99.0, 19799.0)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], clip=(2, 4)) == 2
    assert union_length([]) == 0


def test_probes_restore_every_original():
    from repro.api.session import ProvenanceSession
    import repro.storage.store as store_module

    run_before = ProvenanceSession.__dict__["run"]
    fetch_before = store_module.load_label_arrays
    probes = Probes(SpanRecorder())
    probes.install()
    assert ProvenanceSession.__dict__["run"] is not run_before
    probes.uninstall()
    assert ProvenanceSession.__dict__["run"] is run_before
    assert store_module.load_label_arrays is fetch_before


@pytest.mark.parametrize("workload_cls", list(TINY), ids=lambda cls: cls.name)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_reports_every_metric_without_errors(workload_cls, trace, tmp_path):
    report = bench.measure_workload(
        workload_cls, seed=3, seconds=2.2 if trace else 1.0, trace=trace,
        workdir=tmp_path, sizes=TINY[workload_cls],
    )
    result = bench.result_line(report, trace)
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 11
    expected = PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    if trace:
        for name in ENTERED[workload_cls]:
            assert result["metrics"][name]["value"] > 0, name
        assert result["metrics"]["trace.overhead"]["value"] > 0
    else:
        for name in bench.END_TO_END_UNITS:
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload_cls", list(TINY), ids=lambda cls: cls.name)
def test_corrupted_expected_answer_counts_as_failure(workload_cls, tmp_path, monkeypatch):
    real_sweep, real_point, real_batch = (
        inputs.Oracle.sweep, inputs.Oracle.point, inputs.Oracle.batch,
    )
    monkeypatch.setattr(inputs.Oracle, "sweep", lambda self, *a: real_sweep(self, *a) + [("x", 0)])
    monkeypatch.setattr(inputs.Oracle, "point", lambda self, *a: not real_point(self, *a))
    monkeypatch.setattr(inputs.Oracle, "batch", lambda self, *a: [not x for x in real_batch(self, *a)])
    report = bench.measure_workload(
        workload_cls, seed=3, seconds=0.5, trace=False, workdir=tmp_path,
        sizes=TINY[workload_cls],
    )
    result = bench.result_line(report, False)
    assert result["failed"] >= 1 and result["correct"] is False
    assert all(r.error == "wrong answer" for r in report["records"] if not r.ok)


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_exits_nonzero_without_output_when_the_program_is_missing(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
