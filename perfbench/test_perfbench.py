"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json declares is printed with its
unit for each workload and trace mode, that tracing puts every riskcal
function back, that same-seed runs produce the same outputs, and that
the benchmark fails without the riskcal sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, _ = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_same_seed_runs_write_identical_outputs():
    digests = {tiny_run("crc_default", 0, seed=5)[1]["digest"] for _ in range(2)}
    assert len(digests) == 1


def _namespaces() -> dict:
    snap = {}
    for mod in tracing.riskcal_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, dict):
                snap.update({(mod.__name__, key, k): v for k, v in value.items()})
    return snap


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_restores_riskcal_functions(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _namespaces()
    wl = WORKLOADS[workload](tiny=True)
    with tracing.Tracer() as tracer:
        from riskcal import sim

        assert hasattr(sim.lrc, "__perfbench_original__")
        wl.check(wl.run(wl.setup(3), tracer))
    assert tracer.calls["calibration.lrc"] == wl.node_rounds
    assert tracing.leftover_wrappers() == []
    after = _namespaces()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_fails_without_riskcal_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "crc_default", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
