"""The reference runs of ``golden_runs`` write what tests/golden/ holds.

File names, integer cells, 0-1 error columns (``err01`` in their name),
plans and configs must match exactly; every other number within 1e-12
relative, the last bits ``np.exp`` may round differently on another CPU.
"""
from __future__ import annotations

import csv
import math

import pytest

from golden_runs import GOLDEN, RUNS, write_runs

RTOL = 1e-12


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


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_writes_its_reference(run, fresh):
    want_dir, got_dir = GOLDEN / run, fresh / run
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
