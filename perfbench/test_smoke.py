"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each run must be correct, print every end-to-end or per-layer metric named
in BENCHMARK.json with its unit, and repeat its exact counters when run
again with the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "sweep": {"starts_per_s"},
    "sweep_resume": {"starts_per_s", "resume_s"},
    "explore": {"checked_per_s", "words_per_s", "tree_nodes_per_s",
                "orbit_p50_us", "orbit_p99_us"},
}
COMMON_METRICS = {"setup_s", "wall_s", "cpu_s", "wall_rel", "peak_rss_mb", "error_rate"}


def run_bench(out: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((out / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(tmp_path, workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, details = run_bench(tmp_path, workload, 7, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
            printed = details["end_to_end"]
            assert COMMON_METRICS | WORKLOAD_METRICS[workload] <= set(printed)
            assert all(unit for _, unit in printed.values())
            assert printed["error_rate"][0] == 0


def test_counters_repeat_for_a_seed(tmp_path):
    for workload in ("sweep", "explore"):
        _, first = run_bench(tmp_path, workload, 11, 0)
        _, second = run_bench(tmp_path, workload, 11, 0)
        assert first["counters"] == second["counters"]
        _, other = run_bench(tmp_path, workload, 12, 0)
        assert other["counters"] != first["counters"]
