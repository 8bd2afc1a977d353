"""Reference runs of the command line, whose outputs are committed under tests/golden/.

Each run reads a synthetic pool that ``gendata`` writes in-process (400
rows each: blobs seed 1, categorical seed 2, mixed r = 3 seed 3) and
writes every output file into its own directory.  ``tests/test_golden.py``
runs them again and compares.  To rewrite the references, from the
repository root:

    PYTHONPATH=src python tests/golden_runs.py

and name in CHANGES.md every column that moved and its largest change.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from riskcal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

POOLS = {
    "blobs.csv": ["--kind", "blobs", "--m", "400", "--seed", "1"],
    "categorical.csv": ["--kind", "categorical", "--m", "400", "--seed", "2"],
    "mixed.csv": ["--kind", "mixed", "--m", "400", "--r", "3", "--seed", "3"],
}

_SMALL = ["--n", "4", "--m_v", "25", "--test_size", "100"]
_XY = ["--dataset", "mixed.csv", "--n", "6", "--m_v", "20", "--t_max", "4", "--partition", "drift_xy",
       "--topology", "tree+2", "--repetitions", "2", "--test_size", "100"]

# Run name (its output directory) and its command line, --outdir left out.
RUNS = {
    "blobs_iid": ["run", "--dataset", "blobs.csv", *_SMALL, "--t_max", "4", "--repetitions", "2"],
    "mixed_drift_xy": ["run", *_XY],
    "mixed_drift_xy_iter3": ["run", *_XY, "--iter", "3"],
    "categorical_drift_x": ["run", "--dataset", "categorical.csv", *_SMALL, "--t_max", "3",
                            "--partition", "drift_x", "--repetitions", "1"],
    "baseline_rc": ["baseline", "--kind", "rc", "--dataset", "blobs.csv", *_SMALL, "--t_max", "4",
                    "--repetitions", "2"],
    "baseline_ml": ["baseline", "--kind", "ml", "--dataset", "blobs.csv", *_SMALL],
    # m0 below m_v: round 2 floors a class mass at COUNT_FLOOR and the nodes end at chance
    "blobs_m0_10": ["run", "--dataset", "blobs.csv", *_SMALL, "--t_max", "4", "--repetitions", "2",
                    "--m0", "10"],
}


def write_runs(outdir: Path) -> None:
    """Write the pools into the working directory and every run's outputs into ``outdir / name``."""
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in POOLS.items():
            assert main(["gendata", *argv, "--out", name]) == 0, name
        for name, argv in RUNS.items():
            assert main([*argv, "--outdir", str(outdir / name)]) == 0, name


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the pools' relative names are what the configs record
        write_runs(GOLDEN)
    print(f"wrote {sum(1 for p in GOLDEN.rglob('*') if p.is_file())} files under {GOLDEN}", file=sys.stderr)
