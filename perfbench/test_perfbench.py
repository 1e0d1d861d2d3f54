"""Smoke tests of the benchmark itself (not of the package).

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
from workloads import TINY, gate

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_the_gate(name, tmp_path):
    out = worker.run(name, seed=3, mode="plain", tiny=True, work_dir=tmp_path)
    assert out["failed"] == []
    assert out["time_to_cert_s"] >= out["solve_s"] > 0
    assert len(out["setup_s"]) >= worker.SETUP_MIN
    tracing.assert_unwrapped()


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_spans_nest_and_self_times_add_up(name, tmp_path):
    out = worker.run(name, seed=5, mode="trace", tiny=True, work_dir=tmp_path)
    tracing.assert_unwrapped()
    assert out["failed"] == []
    assert run._trace_checks(out) == []
    spans = [tracing.Span(s["name"], s["start"], s["end"], s["parent"]) for s in out["spans"]]
    own = tracing.self_times(spans)
    subtree = list(own)
    for idx in range(len(spans) - 1, -1, -1):
        s = spans[idx]
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert s.parent < idx
            assert parent.start <= s.start and s.end <= parent.end
            subtree[s.parent] += subtree[idx]
        assert own[idx] >= -1e-9
    for s, total in zip(spans, subtree):
        assert math.isclose(total, s.duration, rel_tol=1e-9, abs_tol=1e-12)
    assert out["coverage"] >= run.MIN_COVERAGE


def test_memory_pass_records_containment_peak(tmp_path):
    out = worker.run("dense-tall", seed=1, mode="memory", tiny=True, work_dir=tmp_path)
    assert out["failed"] == []
    layers = out["layers"]
    assert layers["certification.containment_check"]["peak_mb"] > 0
    assert layers["fixed_point.fixed_point_solve"]["peak_mb"] > 0


def test_every_listed_module_calls_the_traced_function():
    # A module dropped from a binding is skipped silently by the tracer; this
    # keeps the table in tracing.TRACED in step with the package's imports.
    bound = {(span, module.__name__) for span, module, _ in tracing._bindings()}
    listed = {(span, f"johnellip.{caller}")
              for span, callers in tracing.TRACED.items() for caller in callers}
    assert bound == listed


def test_tracer_restores_functions_after_an_error():
    from johnellip import certification, core

    original = core.cholesky_of_weighted_gram
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            assert certification.cholesky_of_weighted_gram is not original
            1 / 0
    assert core.cholesky_of_weighted_gram is original
    assert certification.cholesky_of_weighted_gram is original
    tracing.assert_unwrapped()


@pytest.mark.parametrize("name", sorted(TINY))
def test_gate_counts_corrupted_weights(name, tmp_path):
    workload = TINY[name]
    inst = workload.setup(2, workload.prepare(tmp_path, 2))
    solved = workload.solve(inst, 2)
    assert gate(workload, inst, solved, workload.grade(inst, solved, 2)) == []
    solved["weights"] = solved["weights"] * 1.5
    failed = gate(workload, inst, solved, workload.grade(inst, solved, 2))
    assert "weight_sum" in failed


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    layer_units["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(TINY)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-tall", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
