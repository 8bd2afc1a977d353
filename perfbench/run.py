"""riskcal benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload crc_default --seed 1 --seconds 30 --trace 0

Runs ``harness.py`` in a child process that imports riskcal from this
checkout's ``src/`` with BLAS pinned to one thread, waits for it (killing
it after ``TIMEOUT_S``) and exits with its code.  Workloads, metrics and
the result line are described in harness.py and workloads.py; metric
names and units are declared in BENCHMARK.json.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 170
# Thread pools of every BLAS numpy may be built against.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str]) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "riskcal" / "__init__.py").is_file():
        print(f"error: no riskcal sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PERFBENCH_CALLER_OPENBLAS_NUM_THREADS"] = env.get("OPENBLAS_NUM_THREADS", "unset")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    harness = Path(__file__).resolve().parent / "harness.py"
    try:
        return subprocess.run([sys.executable, str(harness), *argv], env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark run exceeded {TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
