"""The reference runs of ``golden_runs`` write what tests/golden/ holds.

File names, integer cells, 0-1 error columns (``err01`` in their name),
plans and configs must match exactly; every other number within 1e-12
relative, the last bits ``np.exp`` may round differently on another CPU.
The runs hold on the GEMM kernels a ``DYNAMIC_ARCH`` OpenBLAS picks for
other CPUs too: each is written again in a subprocess under every
``OPENBLAS_CORETYPE`` of ``KERNELS``.
"""
from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskcal
from golden_runs import GOLDEN, RUNS, write_runs

RTOL = 1e-12
# OpenBLAS kernels of AVX2 (Haswell, Zen), SSE3 (Prescott) and SSE4.2 (Nehalem) CPUs.
KERNELS = ("Haswell", "Zen", "Prescott", "Nehalem")
# Round 2 floors a class mass, and the floored run amplifies one ulp of the Nehalem and Atom GEMMs (feature[0].var[2]);
# Atom is forced on the whole suite only, so only there does its pair apply.
KERNEL_FAILS = {("Nehalem", "blobs_m0_10"), ("Atom", "blobs_m0_10")}


def _dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy has no dict mode
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    work = tmp_path_factory.mktemp("pools")
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        write_runs(out)
    return out


def _cells(path) -> list[tuple[str, str]]:
    """(column or key, cell) of every value in a CSV or a ``name = value`` dump; other lines pair with themselves."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return [("header", ",".join(header))] + [(h, c) for row in rows for h, c in zip(header, row, strict=True)]
    return [tuple(line.split(" = ")) if " = " in line else (line, line) for line in path.read_text().splitlines()]


def _close(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) or (math.isnan(a) and math.isnan(b))


@pytest.fixture(scope="module", params=KERNELS)
def kernel(request, tmp_path_factory):
    """(kernel, directory of every run written under it in a subprocess)."""
    if not _dynamic_arch():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: OPENBLAS_CORETYPE picks no kernel")
    work = tmp_path_factory.mktemp("pools")
    out = tmp_path_factory.mktemp(request.param)
    paths = [str(Path(riskcal.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": request.param,
           "PYTHONPATH": os.pathsep.join([*paths, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys; from pathlib import Path; from golden_runs import write_runs; write_runs(Path(sys.argv[1]))"
    done = subprocess.run([sys.executable, "-c", code, str(out)], cwd=work, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return request.param, out


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_writes_its_reference(run, fresh, request):
    if (os.environ.get("OPENBLAS_CORETYPE"), run) in KERNEL_FAILS:  # a kernel forced on the whole suite
        request.applymarker(pytest.mark.xfail(strict=True, reason="a floored run amplifies one ulp: ROADMAP.md item "
                                                                  "13, outputs that do not depend on the BLAS kernel"))
    _compare(GOLDEN / run, fresh / run)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_writes_its_reference_on_another_kernel(run, kernel, request):
    name, out = kernel
    if (name, run) in KERNEL_FAILS:
        request.applymarker(pytest.mark.xfail(strict=True, reason="a floored run amplifies one ulp"))
    _compare(GOLDEN / run, out / run)


def _compare(want_dir: Path, got_dir: Path) -> None:
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in got_dir.iterdir()) == names
    for name in names:
        want, got = want_dir / name, got_dir / name
        if name.endswith(("_plan.csv", "_config.txt")):
            assert got.read_bytes() == want.read_bytes(), name
            continue
        got_cells, want_cells = _cells(got), _cells(want)
        assert len(got_cells) == len(want_cells), name
        for (key, g), (want_key, w) in zip(got_cells, want_cells):
            assert key == want_key, (name, key, want_key)
            exact = "err01" in key or w.lstrip("-").isdigit()
            assert g == w or (not exact and _close(g, w)), (name, key, g, w)
