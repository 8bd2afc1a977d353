"""Measurement loop of the riskcal benchmark; started by ``run.py``.

Usage (from the repository root, through run.py, which pins BLAS):

    python3 perfbench/run.py --workload crc_scale --seed 3 --seconds 30 --trace 0

One run: a tiny warm-up of the workload, then

* ``--trace 0``: timed set-ups (repeated for at least ``SETUP_SLOT_S``)
  each followed by one timed workload iteration and its untimed checks,
  until ``--seconds`` are used.  Only ``run_crc`` is wrapped, to time the
  round loop inside run_experiment.
* ``--trace 1``: pairs of one untraced iteration and one traced set-up
  plus traced iteration, every riskcal layer wrapped (see tracing.py).
  Per-layer values are medians over the traced iterations; round-time
  percentiles pool every traced round; ``trace.overhead_s`` is the
  traced minus the untraced median wall time.

Every iteration's outputs are checked; a failed check counts in
``failed``, and ``pass_frac`` is 1 - failed/attempted.  All iterations
of a run use the same inputs, so their output digests must agree, and
two runs with one seed print the same digest.  The last stdout line is
the result object; the line before it is a record with the environment,
the digest, the failures and the per-iteration samples.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

# Least time spent setting up before each iteration; short set-ups repeat.
SETUP_SLOT_S = 0.25
ROOT = Path.cwd()


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caller_OPENBLAS_NUM_THREADS": os.environ.get("PERFBENCH_CALLER_OPENBLAS_NUM_THREADS"),
    }


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _percentile(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


class Run:
    """Samples and checks collected over one benchmark run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.samples: dict[str, list[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(float(value))

    def iteration(self, state, tracer):
        """One timed workload run inside ``tracer``; returns its wall time and outcome."""
        gc.collect()
        with tracer:
            t0 = time.perf_counter()
            out = self.wl.run(state, tracer)
            wall = time.perf_counter() - t0
        out = self.wl.check(out)
        self.digest = self.digest or out.digest
        if out.digest != self.digest:
            out.failures.append("outputs differ from the first iteration on the same inputs")
        self.attempted += 1
        if out.failures:
            self.failures.append("; ".join(out.failures))
        run_crc_s = sum(dt for dt, _ in tracer.crc_runs)
        self.add("node_rounds_per_s", self.wl.node_rounds / run_crc_s if run_crc_s else 0.0)
        return wall, out

    def timed_setups(self, seed: int):
        """Set up at least once and for at least SETUP_SLOT_S; returns the last state."""
        slot = time.perf_counter()
        while True:
            gc.collect()
            t0 = time.perf_counter()
            state = self.wl.setup(seed)
            self.add("setup_s", time.perf_counter() - t0)
            if time.perf_counter() - slot >= SETUP_SLOT_S:
                return state

    @property
    def failed(self) -> int:
        return len(self.failures)


def _keep_going(t0: float, steps: int, seconds: float) -> bool:
    """Start another step only if it should end within the window."""
    elapsed = time.perf_counter() - t0
    return steps == 0 or elapsed * (steps + 1) / steps <= seconds


def measure_untraced(run: Run, seed: int, seconds: float) -> dict:
    # Set-ups are interleaved with the iterations so that both sample the
    # same stretch of machine time.
    walls: list[float] = []
    t0 = time.perf_counter()
    while _keep_going(t0, len(walls), seconds):
        state = run.timed_setups(seed)
        walls.append(run.iteration(state, tracing.Tracer(only={"sim.run_crc"}))[0])
    run.samples["wall_s"] = walls
    return {
        "wall_s": _median(walls),
        "node_rounds_per_s": _median(run.samples["node_rounds_per_s"]),
        "setup_s": _median(run.samples["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - run.failed / run.attempted,
    }


def layer_metrics(wl, setup: tracing.Tracer, work: tracing.Tracer, out) -> dict:
    """Per-layer values of one traced set-up and one traced iteration."""
    t, calls, own = work.total, work.calls, work.self_time
    return {
        "model.evaluate_many_s": t["model.evaluate_many"],
        "model.evaluate_many_calls": calls["model.evaluate_many"],
        "model.eval_cells": work.eval_cells,
        "model.prob_stat_map_s": t["model.prob_stat_map"],
        "model.prob_stat_map_calls": calls["model.prob_stat_map"],
        "model.param_map_s": t["model.param_map"],
        "model.param_map_calls": calls["model.param_map"],
        "model.stat_map_dataset_s": t["model.stat_map_dataset"],
        "calibration.lrc_s": t["calibration.lrc"],
        "calibration.lrc_calls": calls["calibration.lrc"],
        "calibration.lrc_self_s": own["calibration.lrc"],
        "calibration.project_s": t["calibration.project"],
        "calibration.project_calls": calls["calibration.project"],
        "calibration.rc_s": t["calibration.rc"],
        "sim.run_crc_s": t["sim.run_crc"],
        "sim.self_s": own["sim.run_crc"],
        "sim.evaluate_round_s": t["sim.evaluate_round"],
        "sim.node_rounds": wl.node_rounds * calls["sim.run_crc"],
        "network.build_s": t["network.build"],
        "network.build_calls": calls["network.build"],
        "data.validate_calls": calls["data.validate"],
        "data.validate_s": t["data.validate"],
        "data.load_s": setup.total["data.load"],
        "partition.split_s": setup.total["partition.split"],
        "synth.gen_s": setup.total["synth.gen"],
        "cli.write_s": own["cli.run_experiment"],
        "cli.bytes_written": out.bytes_written,
    }


def measure_traced(run: Run, seed: int, seconds: float) -> dict:
    state = run.wl.setup(seed)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    rounds: list[float] = []
    t0 = time.perf_counter()
    while _keep_going(t0, len(traced), seconds):
        plain.append(run.iteration(state, tracing.Tracer(only={"sim.run_crc"}))[0])
        gc.collect()
        with tracing.Tracer() as setup:
            traced_state = run.wl.setup(seed)
        work = tracing.Tracer()
        wall, out = run.iteration(traced_state, work)
        traced.append(wall)
        layers.append(layer_metrics(run.wl, setup, work, out))
        rounds.extend(work.round_s)
    run.samples["wall_s"] = plain
    run.samples["traced_wall_s"] = traced
    out = {k: _median([row[k] for row in layers]) for k in layers[0]}
    out["sim.round_ms_p50"] = 1e3 * _percentile(rounds, 50)
    out["sim.round_ms_p95"] = 1e3 * _percentile(rounds, 95)
    out["trace.overhead_s"] = _median(traced) - _median(plain)
    run.samples["round_count"] = [len(rounds)]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    wl_class = WORKLOADS[args.workload]
    run = Run(wl_class(tiny=args.tiny))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        warm = wl_class(tiny=True)
        with tracing.Tracer(only={"sim.run_crc"}) as tracer:
            warm.run(warm.setup(args.seed), tracer)
        measure = measure_traced if args.trace else measure_untraced
        values = measure(run, args.seed, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        print(f"error: tracing wrappers left in place: {leftovers}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "digest": run.digest,
        "fail_frac": run.failed / run.attempted,
        "failures": run.failures,
        "samples": run.samples,
    }
    print("perfbench-record " + json.dumps(record))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
