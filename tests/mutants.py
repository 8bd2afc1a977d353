"""Hand-written mutants of src/riskcal, and a runner that checks the tests tell each one apart.

Each entry of ``MUTANTS`` replaces one exact text, found once in its
file, with another.  A ``killed`` mutant must fail the tier-1 suite; an
``equivalent`` one changes no result and must pass it.  For every
mutant the runner copies src/, tests/ and pyproject.toml to a temporary
directory, applies it there and runs the suite with ``-x -q``: the
working tree is never written.  From the repository root:

    python tests/mutants.py          # every mutant, a few minutes
    python tests/mutants.py 3 21     # mutants 3 and 21 only

It prints one line per mutant and exits 1 if any mutant's fate is not
the one listed.  pytest does not collect this file.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to src/riskcal
    old: str
    new: str
    fate: str  # "killed" or "equivalent"
    why: str


MUTANTS = [
    Mutant("model.py", "beats = [np.greater_equal if c < y else np.greater for c in others]",
           "beats = [np.greater for c in others]", "killed",
           "a tie between the true class and a lower one counts as right: ties no longer go to the lowest class"),
    Mutant("model.py", "        logj = _by_class(W, self.phiT, out)",
           "        logj = W @ self.phiT", "killed",
           "the log joint is a plain GEMM: equal weight rows may round apart on another kernel"),
    Mutant("model.py", "self.c = _reduce(np.add, self.xc, -2, keepdims=True) / max(X.shape[-2], 1)",
           "self.c = 0.0 * self.xc[..., :1, :]", "killed",
           "no row shift: (x - c)^2 / var cancels at its full magnitude"),
    Mutant("model.py", "self.c = _reduce(np.add, self.xc, -2, keepdims=True) / max(X.shape[-2], 1)",
           "self.c = self.xc[..., :1, :]", "killed",
           "the rows are shifted by their first row, not by their mean"),
    Mutant("calibration.py", "np.maximum(counts, COUNT_FLOOR, out=counts)", "np.maximum(counts, 0.0, out=counts)",
           "killed", "project floors no count"),
    Mutant("calibration.py", "s0 * VAR_FLOOR + s[..., 0] ** 2 / s0", "s[..., 0] ** 2 / s0", "killed",
           "project floors no variance"),
    Mutant("model.py", "np.maximum(s[..., 1] / s0 - mu * mu, VAR_FLOOR, out=t[..., 1])",
           "np.maximum(s[..., 1] / s0 - mu * mu, 0.0, out=t[..., 1])", "killed",
           "param_map floors no variance"),
    Mutant("calibration.py", "uniform_init(dataset.schema, smoothing)", "uniform_init(dataset.schema, 2 * smoothing)",
           "killed", "ml adds twice its smoothing mass"),
    Mutant("sim.py", "train_err_std=float(tr01.std()),", "train_err_std=float(tr01.std(ddof=1)),", "killed",
           "the spread over nodes is the sample, not the population, standard deviation"),
    Mutant("sim.py", 'n, closed = graph.n, neighborhood == "closed"', "n, closed = graph.n, True", "killed",
           "open neighborhoods average the node itself too"),
    Mutant("sim.py", "np.divide(total, self.degree, out=total)",
           "np.divide(total, self.degree / (1.0 + 1e-13), out=total)", "killed",
           "averaging is biased by 1e-13 relative"),
    Mutant("sim.py", "slots[first[run - (np.cumsum(lower) - lower)[v[by_v]]] + self.place[v[by_v]]] = u[by_v]\n"
           "        if closed:\n"
           "            slots[first[lower] + self.place] = np.arange(n)\n"
           "        slots[first[lower[u] + closed + run - (np.cumsum(higher) - higher)[u]] + self.place[u]] = v",
           "slots[first[higher[v[by_v]] + closed + run - (np.cumsum(lower) - lower)[v[by_v]]] + self.place[v[by_v]]] = "
           "u[by_v]\n"
           "        if closed:\n"
           "            slots[first[higher] + self.place] = np.arange(n)\n"
           "        slots[first[run - (np.cumsum(higher) - higher)[u]] + self.place[u]] = v",
           "killed", "the plan adds each node's higher neighbors before its lower ones: sums round otherwise"),
    Mutant("sim.py", 'np.add(0.0, np.take(S2, self.slots[0], axis=0, out=out, mode="clip"), out=total)',
           'np.take(S2, self.slots[0], axis=0, out=total, mode="clip")', "killed",
           "the sums start from the first term, not 0.0 + it: a neighborhood of -0.0 averages to -0.0, not 0.0"),
    Mutant("sim.py", "if plan is None or plan.graph is not graph:", "if plan is None:", "killed",
           "a rewired run keeps averaging over its first graph's plan"),
    Mutant("model.py", "_CHAIN = 8", "_CHAIN = 9", "killed",
           "a sum of 8 terms is chained in order, not left to numpy's pairwise sum: its bits differ"),
    Mutant("model.py", "sound = bound.max(initial=0.0) <= _CANCEL",
           "sound = True", "killed", "no (model, row) whose terms cancel or overflow is formed again"),
    Mutant("model.py", "e - n, e, d == 0,", "e - n, e, d == len(datasets) - 1,", "killed",
           "the soft error is read from the last dataset, the test set, not the first"),
    Mutant("model.py", "                    total += 1.0", "                    total += 1.0 + 1e-9", "killed",
           "the true-class posterior's denominator is 1e-9 too large"),
    Mutant("model.py", "_CANCEL = 2.0**10", "_CANCEL = 2.0**40", "killed",
           "a log joint is trusted with 2^30 times more cancellation"),
    Mutant("calibration.py", "stats = [project(StatsVector(init.schema, project(init).values / lr))]",
           "stats = [StatsVector(init.schema, project(init).values / lr)]", "killed",
           "rc does not project its scaled start, project(init) / lr"),
    Mutant("calibration.py", "stats = [project(StatsVector(init.schema, project(init).values / lr))]",
           "stats = [project(StatsVector(init.schema, init.values / lr))]", "killed",
           "rc scales init, not project(init): they part at a floor"),
    Mutant("sim.py", "graph = rewire(schedule, t, graph, rng)",
           "graph = rewire(schedule, t, graph, rng) if t > 1 else graph", "killed",
           "a period-1 schedule does not redraw before round 1"),
    Mutant("model.py", "_EVAL_CELLS = 2**17", "_EVAL_CELLS = 1", "equivalent",
           "log joint cells scored per pass: one model per pass gives the same scores as many"),
    Mutant("model.py", "_finite(StatsVector(schema, _by_class(PT, phi)))", "_finite(StatsVector(schema, PT @ phi))",
           "killed", "P^T Phi is a plain GEMM: unseen classes' statistics may round apart on another kernel"),
    Mutant("model.py", "cells / _by_class(cells, fm.same_feature)", "cells / (cells @ fm.same_feature)", "killed",
           "each feature's cell total is a plain GEMM: equal classes' tables may round apart on another kernel"),
    Mutant("model.py", "                P3[at, j] = P3[at, i]", "                pass", "killed",
           "_by_class copies no product: equal class rows keep whatever rounding the kernel gives them"),
    Mutant("data.py", "    if not _is_real(value):", "    if not (_is_real(value) or isinstance(value, bool)):",
           "killed", "the real rule takes a bool: True reads as 1, a learning rate or mass of one"),
    Mutant("data.py", "if not (low <= x if closed else low < x) or", "if not low < x or", "killed",
           "the real rule ignores closed: a smoothing or skew of 0 is refused"),
    Mutant("data.py", "    if (len(shape) == 3) != stacked:", "    if False:", "killed",
           "the node rule is a no-op: a stacked dataset is split, partitioned and written as instances, and one "
           "node's table is indexed as a stack"),
    Mutant("data.py", "    if (len(shape) == 3) != stacked:", "    if data and (len(shape) == 3) != stacked:", "killed",
           "the node rule checks datasets only: one model is scored, indexed and counted as a stack"),
    Mutant("model.py", "    if A.ndim not in (2, 3) or A.shape[-2:] != (r, w):", "    if A.shape[-2:] != (r, w):",
           "killed", "a statistics or model table may hold a second node axis"),
    Mutant("data.py", "    if X.ndim not in (2, 3) or X.shape[-1] != schema.d:",
           "    if X.ndim < 2 or X.shape[-1] != schema.d:", "killed", "a dataset's X may hold a second node axis"),
    Mutant("data.py", "    x = float(value) if not _is_int(value) or -_FLOAT_MAX <= value <= _FLOAT_MAX else",
           "    x = float(value) if True else", "killed", "an int beyond the float range raises a bare OverflowError"),
    Mutant("data.py", "schema is not schemas[0] and schema != schemas[0] for", "False for", "killed",
           "the schema rule is a no-op: statistics, models and datasets of other schemas are combined"),
    Mutant("sim.py", "rng = np.random.default_rng(0)", "rng = np.random.default_rng(1)", "killed",
           "run_crc's default graph stream is seed 1, not seed 0"),
    Mutant("sim.py", "        if on_round is not None or t == t_max:", "        if True:", "killed",
           "a run without a hook maps every round, not only its last"),
    Mutant("partition.py", "if X.shape[0] < 2:", "if X.shape[0] <= 2:", "killed",
           "a principal component of exactly two instances is refused"),
    Mutant("partition.py", "                c = (c + 1) % r", "                c = (c - 1) % r", "killed",
           "a drift split's node whose pool runs short tops up from the previous pool, not the next"),
    Mutant("partition.py", "        if end < n:  # take what is left", "        if False:  # take what is left",
           "killed", "the node whose pool runs short skips its top-up: its block is never dealt"),
    Mutant("partition.py", "pooled = order[np.argsort(labels, kind=\"stable\")]",
           "pooled = order[np.argsort(labels, kind=\"quicksort\")]", "killed",
           "the class pools are gathered by an unstable sort: a pool's rows leave the drawn order"),
    Mutant("partition.py", "labels = dataset.y[order].astype(np.min_scalar_type(r))", "labels = dataset.y[order]",
           "equivalent", "the class pools are sorted on int64 labels: the same stable order, by merge sort instead "
           "of radix"),
    Mutant("model.py", "_reduce(np.logical_and, mask, -2)", "_reduce(np.logical_or, mask, -2)", "killed",
           "a row -inf under any class, not every class, is refused"),
    Mutant("network.py", "    if n is None and not edges:", "    if False:", "killed",
           "an edge list of no edges and no n raises numpy's bare zero-size reduction error, naming no file"),
    Mutant("network.py", "        if min(u, v) < 1 or n is not None and max(u, v) > n:", "        if False:", "killed",
           "an edge list's id below 1 or above n surfaces Graph's bare refusal, naming no file or line"),
    Mutant("model.py", "[*zip(beats, others)]",
           "[(np.greater if b is np.greater_equal else np.greater_equal, c) for b, c in zip(beats, others)]",
           "killed", "a later dataset's log joint comparison gives a tie to the higher class, and an equal L_c does "
           "not beat a lower true class"),
    Mutant("model.py", "np.copyto(diff, -inf, where=np.isnan(diff))", "pass", "killed",
           "a -inf L_c against a -inf L_y leaves d_c nan: the first dataset's soft error is nan"),
    Mutant("model.py", "                wrong_rows = self._wrong[: k * M].reshape(k, M)\n",
           "                if mask is not None:\n"
           "                    logj[mask] = 0.0\n"
           "                wrong_rows = self._wrong[: k * M].reshape(k, M)\n", "killed",
           "a masked pass compares its -inf cells as 0: a -inf L_c beats a negative L_y"),
    Mutant("model.py", "weighed: tuple | None = None, first: int = 0)", "weighed: tuple | None = None, first: int = 1)",
           "killed", "a refusal outside Scorer numbers the impossible model one past its place in the stack"),
    Mutant("model.py", "impossible = impossible[..., np.argsort(self.order)]", "impossible = impossible", "killed",
           "a Scorer's refusal names the lowest impossible column grouped by class, not the lowest row of its table"),
    Mutant("model.py", "impossible = impossible[..., np.argsort(self.order)]",
           "impossible = impossible[..., self.order]", "killed",
           "a Scorer's refusal maps columns to rows by the grouping's inverse: it may name a possible row"),
    Mutant("model.py", "_CANCEL = 2.0**10", "_CANCEL = 2.0**11", "killed",
           "a log joint is trusted with twice the cancellation: rows whose terms sum to 1215 to 1352 times 1 + |L| "
           "keep the GEMM's rounding, about 1e-13"),
    Mutant("model.py", "_CANCEL * (1.0 + np.abs(logj))", "_CANCEL * (2.0 + np.abs(logj))", "killed",
           "a log joint near 0 is trusted with up to twice the cancellation"),
    Mutant("model.py", "_CANCEL = 2.0**10", "_CANCEL = 2.0**9", "equivalent",
           "half the trusted cancellation only forms more (model, row)s again, each as accurate: where to trust the "
           "GEMM is a judgement of speed against rounding, and no output the suite checks depends on it"),
    Mutant("data.py", "        raise _first_fault(path, header, records)",
           "        for j, column in enumerate(columns):\n"
           "            if '' in column:\n"
           "                raise DataError(f\"row {column.index('') + 2}, column {header[j]!r}: empty cell\")\n"
           "        raise _first_fault(path, header, records)", "killed",
           "the empty cell reported is the first in column order, in a row counted without the blank records"),
    Mutant("data.py", "if not set(map(len, rows)) <= {len(header)} or", "if", "killed",
           "a ragged row is not refused: zip truncates every column to the shortest row"),
    Mutant("data.py", "        if header.index(name) < j:", "        if False:", "killed",
           "a repeated header name is taken: the label is the first column of that name, the other a feature"),
    Mutant("data.py", 'raise DataError(f"{path}: row {len(records) + 1}: {e}")',
           'raise DataError(f"{path}: row {len(records)}: {e}")', "killed",
           "a csv fault names the row before its record"),
    Mutant("data.py", "floats = {issubclass(kind, float) for kind in set(map(type, column))}",
           "floats = {issubclass(type(column[0]), float)} if column else set()", "killed",
           "a column whose first cell is not a float writes its floats with str, not the float rule"),
    Mutant("data.py", "    lone = len(columns) == 1", "    lone = False", "killed",
           "a table of one column writes an empty cell as an empty line, which the csv module writes as \"\""),
    Mutant("data.py", """_QUOTED = re.compile('[,"\\r\\n]')""", """_QUOTED = re.compile('[,"\\n]')""", "killed",
           "a cell holding a carriage return is written unquoted and reads back as two records"),
    Mutant("data.py", "columns = list(zip(header, *rows, strict=True))", "columns = list(zip(header, *rows))", "killed",
           "a row not as long as the header is cut, or the table cut to its shortest row, without a word"),
    Mutant("cli.py", "        yield Path(stage), published\n",
           "        try:\n"
           "            yield Path(stage), published\n"
           "        finally:\n"
           "            Path(outdir).mkdir(parents=True, exist_ok=True)\n"
           "            for path in sorted(Path(stage).iterdir()):\n"
           "                shutil.move(path, Path(outdir) / path.name)\n", "killed",
           "a refused command publishes what it wrote before the refusal: earlier repetitions, or an empty --outdir"),
    Mutant("cli.py", "        for path in sorted(Path(stage).iterdir()):\n"
           "            Path(outdir).mkdir(parents=True, exist_ok=True)\n",
           "        Path(outdir).mkdir(parents=True, exist_ok=True)\n"
           "        for path in sorted(Path(stage).iterdir()):\n", "killed",
           "gendata or gengraph --out FILE, which stages nothing, makes an empty --outdir"),
    Mutant("cli.py", 'raise ValueError(f"repetition {rep}: {cfg.partition}: {e}") from e', "raise", "killed",
           "a split refused inside a repetition names neither the repetition nor the partition"),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """The mutant's fate under tier-1 (``killed``, ``equivalent`` or an error) and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="riskcal_mutant_") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        path = tree / "src" / "riskcal" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times in {mutant.file}", 0.0
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        paths = [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"], cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    fate = {0: "equivalent", 1: "killed"}.get(done.returncode)
    if fate is None:
        tail = done.stdout.strip().splitlines()[-1:] or ["no output"]
        return f"error: pytest exited {done.returncode}: {tail[0]}", seconds
    return fate, seconds


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    wrong = 0
    for i in chosen:
        mutant = MUTANTS[i - 1]
        fate, seconds = run(mutant)
        ok = fate == mutant.fate
        wrong += not ok
        print(f"{i:2d} {'ok ' if ok else 'BAD'} {fate:10s} {seconds:5.1f}s  {mutant.file}: {mutant.why}", flush=True)
    print(f"{len(chosen) - wrong} of {len(chosen)} mutants as listed")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
