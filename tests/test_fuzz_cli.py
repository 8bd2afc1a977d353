"""A seeded fuzz of the command line: a command publishes its files whole, or refuses in one line and writes none.

Each case generates one pool with ``gendata`` and runs one ``run``,
``sweep`` or ``baseline`` on it, in process through ``main``, with every
warning an error.  Sizes are drawn so that many cases are refused: a
pool of 3 rows, more nodes than rows, a graph too small for its extra
edges, a drifted split of identical rows.  Every fourth case that publishes
is run again into a fresh --outdir, and must write the same bytes and
print the same lines.  A longer fuzz, printing every failing case's
command lines, runs from the repository root:

    PYTHONPATH=src python tests/test_fuzz_cli.py --cases 1000 --seed 4
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from riskcal.cli import SWEEP_AXES, main
from riskcal.network import NEIGHBORHOODS
from riskcal.partition import SPLITTERS
from riskcal.synth import GENERATORS

CASES_PER_SEED = 75
# The values a generator keyword is drawn from, for the kinds that take it.
KNOBS = {"r": [2, 3, 4], "cardinality": [2, 3, 4], "d": [1, 2, 5], "d_continuous": [1, 2], "d_discrete": [1, 2],
         "separation": [0.0, 1.0, 4.0, 50.0]}
# The values a config key or sweep axis is drawn from; m0 is drawn on a log scale too.  Small sizes come more often,
# so that pools of 60 and 400 rows run about half their commands, where pools of 3 and 10 refuse nearly all.
VALUES = {
    "n": [1, 2, 3, 4, 4, 7],
    "m_v": [1, 2, 5, 5, 20],
    "test_size": [1, 2, 10, 10, 100],
    "topology": ["tree", "tree", "chain", "full", "tree+1", "tree+5"],
    "partition": sorted(SPLITTERS),
    "neighborhood": NEIGHBORHOODS,
    "m0": ["heuristic", "log-uniform"],
    "lr": [0.05, 0.3, 1.0, 2.0],
    "iter": [1, 2, 3],
    "delta": ["inf", 1, 2, 4],
    "ml_smoothing": [0.0, 0.5, 1.0],
    "t_max": range(1, 9),
    "repetitions": [1, 2, 3],
    "seed": range(100),
    "fragmentation": [1, 2, 3, 4, 5, 10],
}


def _pool_argv(rnd: random.Random, out: Path) -> list[str]:
    """A gendata command line of a drawn kind, size and shape."""
    kind = rnd.choice(sorted(GENERATORS))
    argv = ["gendata", "--kind", kind, "--m", str(rnd.choice([3, 10, 60, 400])), "--seed", str(rnd.randrange(100)),
            "--out", str(out)]
    for name in sorted(GENERATORS[kind].__kwdefaults__.keys() & KNOBS.keys()):
        if rnd.random() < 0.5:
            argv += [f"--{name}", str(rnd.choice(KNOBS[name]))]
    return argv


def _value(rnd: random.Random, key: str) -> str:
    """A drawn value of one config key or sweep axis, as its flag's text."""
    value = rnd.choice(VALUES[key])
    return repr(10 ** rnd.uniform(-6, 12)) if value == "log-uniform" else str(value)


def _command_argv(rnd: random.Random, pool: Path, outdir: Path) -> list[str]:
    """A run, sweep or baseline command line on ``pool``, every config flag drawn."""
    command = rnd.choice(["run", "sweep", "baseline"])
    argv = [command, "--dataset", str(pool), "--outdir", str(outdir)]
    keys = ("n", "m_v", "test_size", "topology", "partition", "neighborhood", "m0", "lr", "iter", "delta",
            "ml_smoothing", "t_max", "repetitions", "seed")
    argv += [arg for key in keys for arg in (f"--{key}", _value(rnd, key))]
    if command == "sweep":
        axis = rnd.choice(SWEEP_AXES)
        argv += ["--axis", axis, "--values", ",".join(_value(rnd, axis) for _ in range(2))]
    elif command == "baseline":
        argv += ["--kind", rnd.choice(["rc", "ml"])]
    return argv


def _main(argv: list[str]) -> tuple[int, str, str]:
    """main's exit status, stdout and stderr, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


def _assert_finite(path: Path) -> None:
    """Every cell of a written CSV is a finite number, but for the names of models and a sweep's axis and values."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for column, cell in row.items():
                assert column in ("model", "axis", "value") or math.isfinite(float(cell)), (path.name, column, cell)


def _check_published(argv: list[str], stdout: str, made: dict[str, bytes], before: dict[str, bytes]) -> None:
    """What a command that exited 0 says it wrote is there, beside what --outdir held, and its metrics are finite."""
    assert made.keys() >= before.keys() and all(made[name] == data for name, data in before.items())
    new = made.keys() - before.keys()
    lines = stdout.splitlines()
    if argv[0] == "run":
        count, stem = lines[0].removeprefix("wrote ").split(" files, stem ")
        assert len(new) == int(count) and all(name.startswith(stem) for name in new)
    else:
        assert Path(lines[-1].removeprefix("wrote ")).name in new
    if argv[0] == "baseline":
        assert len(new) == (2 if argv[-1] == "rc" else 1)
        assert all(math.isfinite(float(part.split("=")[1])) for part in lines[0].split()[1:])
    for name in new:
        if name.endswith(".csv"):
            _assert_finite(Path(argv[argv.index("--outdir") + 1]) / name)


def _check_rerun(argv: list[str], stdout: str, made: dict[str, bytes], before: dict[str, bytes], again: Path) -> None:
    """The command run again into the fresh directory ``again`` prints ``stdout`` and writes the files it added."""
    outdir = argv[argv.index("--outdir") + 1]
    status, rerun_stdout, stderr = _main([str(again) if arg == outdir else arg for arg in argv])
    assert (status, stderr) == (0, "")
    assert rerun_stdout.replace(str(again), outdir) == stdout
    assert _files(again) == {name: data for name, data in made.items() if name not in before}


def run_case(rnd: random.Random, where: Path, rerun: bool) -> None:
    """One drawn case in the empty directory ``where``, whose published command is run again if ``rerun``.

    Any failure is an AssertionError that names the case's command lines.
    """
    pool, outdir = where / "pool.csv", where / "out"
    argvs = [_pool_argv(rnd, pool), _command_argv(rnd, pool, outdir)]
    if rnd.random() < 0.25:  # an --outdir that already holds a file keeps it, whatever the command does
        outdir.mkdir()
        (outdir / "kept.txt").write_text(f"{rnd.random()!r}\n")
    for i, argv in enumerate(argvs):
        status, stdout, stderr = "not run", "", ""
        try:
            before = _files(outdir)
            status, stdout, stderr = _main(argv)
            made = _files(outdir)
            if status == 0:
                assert stderr == ""
                if argv[0] == "gendata":
                    assert pool.is_file()
                else:
                    _check_published(argv, stdout, made, before)
                    if rerun:
                        _check_rerun(argv, stdout, made, before, where / "again")
            else:
                assert status == 1
                assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr
                assert made == before and outdir.exists() == bool(before), sorted(made)
                if argv[0] == "gendata":
                    assert not pool.exists()
                return
        except Exception as e:
            lines = "".join(f"riskcal {' '.join(a)}\n" for a in argvs[: i + 1])
            raise AssertionError(f"{lines}exit {status}\n{stderr}{stdout}") from e


def run_cases(seed: int, cases: int, root: Path):
    """Run ``cases`` drawn cases of ``seed`` under ``root``, every fourth with a rerun; yields each failure."""
    rnd = random.Random(seed)
    for case in range(cases):
        where = root / str(case)
        where.mkdir()
        try:
            run_case(rnd, where, rerun=case % 4 == 0)
        except AssertionError as e:
            yield case, e


@pytest.mark.parametrize("seed", range(4))
def test_every_command_publishes_whole_or_refuses_in_one_line(tmp_path, seed):
    for _, failure in run_cases(seed, CASES_PER_SEED, tmp_path):
        raise failure


def _cli(argv: list[str]) -> int:
    """Run a longer fuzz and print each failing case's command lines; exit 1 if any case fails."""
    parser = argparse.ArgumentParser(description=_cli.__doc__)
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start, failed = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="riskcal_fuzz_") as root:
        for case, failure in run_cases(args.seed, args.cases, Path(root)):
            failed += 1
            where = "".join(traceback.format_exception(failure.__cause__)[-2:])  # the failing line and its error
            print(f"case {case} failed:\n{failure}\n{where}", flush=True)
    print(f"{args.cases - failed} of {args.cases} cases passed, seed {args.seed}, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_cli(sys.argv[1:]))
