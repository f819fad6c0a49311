"""Tests of the benchmark itself: self-time arithmetic, isolation, seeding."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tracer_with(spans: list[list]) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.spans = spans
    return tracer


NESTED = [
    ["bench.instance", 0.0, 10.0, -1, 0],
    ["flow.find_gflow", 1.0, 7.0, 0, 0],
    ["gf2.solve_min", 2.0, 3.0, 1, 0],
    ["gf2.solve_min", 4.0, 6.5, 1, 0],
    ["cones.forward_cone", 8.0, 9.0, 0, 0],
    ["graph.odd_neighborhood", 8.25, 8.5, 4, 0],
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(NESTED) == pytest.approx([3.0, 2.5, 1.0, 2.5, 0.75, 0.25])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["bench.instance", 0.0, 10.0, -1, 0],
        ["a.x", 1.0, 4.0, 0, 0],
        ["a.y", 3.0, 6.0, 0, 0],
        ["a.z", 9.0, 12.0, 0, 0],  # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_module_self_times_add_up_to_instance_time():
    metrics = tracing.layer_metrics(_tracer_with([list(s) for s in NESTED]))
    modules = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    assert modules == pytest.approx(metrics["trace.instance_s"]) == pytest.approx(10.0)
    assert metrics["gf2.solve_min.calls"] == 2
    assert metrics["bench.self_s"] == pytest.approx(3.0)


def test_wrappers_are_removed_after_instrumenting():
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert tracing.traced_bindings() > len(tracing.FUNCTIONS)
    finally:
        restore()
    assert tracing.traced_bindings() == 0


def test_untraced_process_sees_no_wrappers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]))
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "sim-clifford",
            "--seed", "3", "--mode", "measure", "--workdir", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["traced_bindings"] == 0
    assert result["failed"] == 0 and not result["problems"]


def test_memory_limit_applies_to_workload_processes():
    # calloc-backed, so no page is touched even if the limit were missing
    oversized = f"bytearray({2 * run.MEMORY_LIMIT_BYTES})"
    with pytest.raises(run.WorkerError, match="exit 1"):
        run.run_child([sys.executable, "-c", oversized], dict(os.environ), time.perf_counter() + 60)


def _manifest_digest(name: str, seed: int) -> str:
    return workloads.digest([inst.manifest_item() for inst in workloads.build_pool(name, seed)])


@pytest.mark.parametrize("name", ["flow-scan", "exact-small", "cli-session"])
def test_seed_fixes_the_inputs(name):
    assert _manifest_digest(name, 5) == _manifest_digest(name, 5)
    assert _manifest_digest(name, 5) != _manifest_digest(name, 6)
