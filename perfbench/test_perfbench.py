"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke tests run each workload for one short run (a warm-up and
MIN_PASSES passes, some seconds each) and require its correctness gate to
pass.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import client  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, parent, start, end):
    return spans.Span(name, 0, parent, start, end)


# A [0, 10] > B [1, 4], C [5, 9] > D [6, 7]
TREE = [_span("A", None, 0.0, 10.0), _span("B", 0, 1.0, 4.0), _span("C", 0, 5.0, 9.0), _span("D", 2, 6.0, 7.0)]


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children(self):
        assert spans.self_times(TREE) == [3.0, 3.0, 3.0, 1.0]

    def test_self_times_sum_to_root_duration(self):
        assert sum(spans.self_times(TREE)) == 10.0

    def test_inclusive_time_counts_nested_spans_once(self):
        assert spans.inclusive_time(TREE, ["A", "C"]) == 10.0
        assert spans.inclusive_time(TREE, ["C", "D"]) == 4.0
        assert spans.inclusive_time(TREE, ["B", "D"]) == 4.0

    def test_counts(self):
        assert spans.count(TREE, "D") == 1
        assert spans.child_count(TREE, "D", "C") == 1
        assert spans.child_count(TREE, "D", "A") == 0

    def test_table(self):
        table = spans.self_time_table(TREE)
        assert table["C"] == {"calls": 1, "s": 4.0, "self_s": 3.0}


class TestTracer:
    def test_patches_every_binding_and_restores(self):
        import silopile
        from silopile import cli, cones, geometry, regions, verify

        before = (cli.solve_dual, verify.partition, cones.areas_with_floor, regions.partition,
                  geometry.ConvexDomain.escape_cost, silopile.partition)
        tracer = spans.Tracer()
        assert tracer.install(silopile) > 50
        try:
            after = (cli.solve_dual, verify.partition, cones.areas_with_floor, regions.partition,
                     geometry.ConvexDomain.escape_cost, silopile.partition)
            assert all(a is not b for a, b in zip(after, before))
            assert verify.partition is regions.partition is cli.partition
            domain = geometry.ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.0] * 4)
            grid = regions.build_grid(domain, 0.25)
            src = silopile.make_sources(domain, [[0.5, 0.5]], [1.0])
            cones.areas_with_floor(grid, domain, src, [0.3], [True])
        finally:
            tracer.uninstall()
        now = (cli.solve_dual, verify.partition, cones.areas_with_floor, regions.partition,
               geometry.ConvexDomain.escape_cost, silopile.partition)
        assert all(a is b for a, b in zip(now, before))

        names = [s.name for s in tracer.spans]
        assert names[names.index("regions.areas_with_floor") + 1] == "regions.areas_only"
        part = next(s for s in tracer.spans if s.name == "regions.partition")
        assert tracer.spans[part.parent].name == "regions.areas_only"
        assert part.counts == {"cells": 16, "bytes_computed": 32 * 16}
        assert all(s.end >= s.start for s in tracer.spans)


class TestMetricNames:
    def test_names_are_well_formed(self):
        for name in [*run.END_TO_END, *run.PER_LAYER, *(w for w in workloads.WORKLOADS)]:
            assert NAME.fullmatch(name), name

    def test_end_to_end_match_benchmark_json(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END

    def test_per_layer_match_benchmark_json(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER

    def test_workloads_match_benchmark_json(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)

    def test_layer_metrics_are_all_reported(self):
        produced = set(client.layer_metrics(TREE)) | {"cli.import_s", "simulate_s", "verify_s", "w1_s",
                                                      "converge_s", "trace.overhead_s", "probe.failed",
                                                      "ops.failed_frac", "hot_spot.share"}
        assert set(run.PER_LAYER) <= produced


class TestGate:
    TEXT = "x,y\n0.25,1.5\n0.125,2\n"

    def _grow_mismatch(self, text):
        want = {"nu.csv": workloads.parse_numbers(self.TEXT)}
        return workloads.compare("grow", {"nu.csv": workloads.parse_numbers(text)}, want)

    def test_numbers_within_tolerance_pass(self):
        assert self._grow_mismatch("x,y\n0.25,1.5000000000001\n0.125,2\n") == {}

    def test_one_number_off_fails(self):
        assert self._grow_mismatch("x,y\n0.25,1.500000001\n0.125,2\n")

    def test_layout_change_fails(self):
        assert self._grow_mismatch("x;y\n0.25,1.5\n0.125,2\n")

    def test_dual_off_fails(self):
        want = workloads.load_reference("certify")["0"]
        got = copy.deepcopy(want)
        assert workloads.compare("certify", got, want) == {}
        got["snapshots"][2]["dual"] += 1e-6
        assert workloads.compare("certify", got, want)

    def test_grow_reference_has_every_file(self):
        table = workloads.load_reference("grow")
        for files in table.values():
            assert all(len(entry["values"]) > 0 for entry in files.values())

    def test_reference_covers_every_variant(self):
        table = json.loads((HERE / "reference.json").read_text())
        for workload in workloads.WORKLOADS:
            assert sorted(table[workload]) == sorted(str(v) for v in range(workloads.VARIANTS))

    def test_variants_keep_the_walls(self):
        for v in range(workloads.VARIANTS):
            text = workloads.certify_config(v)
            walls = next(line for line in text.splitlines() if line.startswith("wall_values"))
            assert sorted(map(float, walls.split("=")[1].split())) == sorted(workloads.CERTIFY_WALLS)


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_gate(workload):
    proc = _bench(HERE.parent, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_grow_counts_the_probe():
    proc = _bench(HERE.parent, "grow", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    # The probe ran and counts as one more attempted operation.  Whether it
    # fails, and how much the hot spot takes, are the report's to say.
    assert metrics["probe.failed"] in (0, 1)
    assert metrics["ops.failed_frac"] == metrics["probe.failed"] / (result["attempted"] + 1)
    assert 0.0 < metrics["hot_spot.share"] <= 100.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
