"""Command line front end: experiments, sweeps, baselines, generators.

Subcommands:

* ``run``       collaborative calibration experiment from a config file
* ``sweep``     repeat ``run`` along one config axis, summarizing final rounds
* ``baseline``  centralized reference model of repetition 0 only (rc or ml)
* ``gengraph``  write a communication graph as an edge list
* ``gendata``   write a synthetic dataset as CSV, one per ``synth.GENERATORS`` kind

Configuration is a flat text file of ``key = value`` lines; ``#`` starts
a comment line.  Every key can also be given as a command line flag of
the same name, which takes precedence.  An ``ExperimentConfig`` checks
itself when built, so a sweep's ``replace`` variants are checked too.

An experiment (``run``, and each ``sweep`` value) is its repetitions and
then their aggregate and the config echo.  One repetition is one call
that splits, partitions, fits the centralized references, runs the
rounds and writes its five files.  ``baseline`` fits the same references
of repetition 0 through the same helper.  A subcommand publishes its
files into --outdir (else RISKCAL_OUTDIR, else "."), created if absent,
once it has succeeded: a refusal or an interrupt leaves --outdir as it was.
"""
from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .calibration import ml, rc
from .data import (DataError, Dataset, _count, _is_int, _is_real, _read_text, _real, infer_schema, load_csv,
                   train_test_split, write_csv, write_table)
from .model import Scorer, uniform_init
from .network import RewireSchedule, _neighborhood, _parse_topology, build_topology, write_edge_list
from .partition import SPLITTERS, global_sample, local_datasets
from .sim import METRICS_COLUMNS, RoundMetrics, evaluate_round, m0_heuristic, run_crc
from .synth import GENERATORS

OUTDIR_ENV = "RISKCAL_OUTDIR"

SWEEP_AXES = ("n", "m_v", "iter", "delta", "topology", "partition", "fragmentation")

class ConfigError(ValueError):
    """Bad configuration key, value or combination."""


# The types a config field's annotation string names: an integer and a real as the count and real rules read them.
_IS_TYPE = {"int": _is_int, "float": _is_real, "str": lambda v: isinstance(v, str), "None": lambda v: v is None}
# The least value of each count key; delta, when not None (inf), is a count too.
_LEAST = dict(n=1, m_v=1, t_max=1, iter=1, test_size=1, repetitions=1, workers=1, seed=0, delta=1)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked when built: a wrong type, value or combination raises ConfigError."""

    dataset: str | None = None
    label_column: int | str = "y"
    n: int = 50
    m_v: int = 50
    t_max: int = 64
    iter: int = 1
    lr: float = 0.05
    m0: float | str = "heuristic"
    topology: str = "tree"
    neighborhood: str = "closed"
    partition: str = "iid"
    delta: int | None = None
    train_size: int | None = None
    test_size: int = 1000
    seed: int = 0
    repetitions: int = 5
    ml_smoothing: float = 1.0
    workers: int = 1  # checked, then ignored: a round is whole-network array operations

    def __post_init__(self) -> None:
        for f in fields(self):  # every type before any value: the value checks compare keys
            value = getattr(self, f.name)
            kind = next((t for t in f.type.split(" | ") if _IS_TYPE[t](value)), None)
            if kind is None:
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if kind == "int":  # a numpy number is kept as the plain one, written as text reads back
                object.__setattr__(self, f.name, int(value))
        for key, least in _LEAST.items():
            if getattr(self, key) is not None:
                _count(key, getattr(self, key), least, ConfigError)
        for key, closed in (("lr", False), ("m0", False), ("ml_smoothing", True)):  # a real as the plain float, too
            if getattr(self, key) != "heuristic":
                object.__setattr__(self, key, _real(key, getattr(self, key), 0, closed=closed, error=ConfigError))
        name = self.label_column
        if isinstance(name, str) and (name != name.strip() or not isinstance(_parse_label_column(name), str)):
            # its echo would read back as a position or a stripped name, and load_csv strips the header
            raise ConfigError(f"label_column must be an int position, or a name that is not an integer and has "
                              f"no surrounding whitespace; got {name!r}")
        _parse_topology(self.topology, self.n, ConfigError)
        if _neighborhood(self.neighborhood, ConfigError) == "open" and self.n < 2:
            raise ConfigError("neighborhood 'open' needs n >= 2: a lone node has no neighbors")
        if self.partition not in SPLITTERS:
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.train_size is not None and self.train_size < self.n * self.m_v:
            raise ConfigError(f"train_size {self.train_size} cannot cover n * m_v = {self.n * self.m_v}")


def _parse_label_column(text: str):
    return int(text) if re.fullmatch(r"-?\d+", text) else text


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
# Keys whose text does not parse as their default's type; every other key parses with type(default).
_PARSERS = {"dataset": str, "label_column": _parse_label_column, "m0": float, "delta": int, "train_size": int}
# Words a key takes in place of a number; the first one of a value is written.
_WORDS = {
    "m0": {"heuristic": "heuristic"},
    "delta": {"inf": None, "infinite": None, "none": None},
    "train_size": {"auto": None},
}


def _parse_value(key: str, text: str, where: str):
    """The value ``text`` gives ``key`` (or the sweep axis ``fragmentation``)."""
    text = text.strip()
    if text in _WORDS.get(key, {}):
        return _WORDS[key][text]
    parse = int if key == "fragmentation" else _PARSERS.get(key, type(_DEFAULTS[key]))
    try:
        return parse(text)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {text!r}") from e


def _format_value(key: str, value) -> str:
    if value is None:
        return next(word for word, v in _WORDS[key].items() if v is None)
    return repr(value) if isinstance(value, float) else str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse_config reads back an equal one."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "dataset" and value is None:
            continue
        lines.append(f"{f.name} = {_format_value(f.name, value)}")
    return "\n".join(lines) + "\n"


def parse_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a config file and apply flag overrides on top of the defaults.

    Unknown keys are errors; an empty file with no overrides yields the
    default configuration.
    """
    values: dict = {}

    def absorb(key: str, text: str, where: str) -> None:
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        values[key] = _parse_value(key, text, where)

    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"no such config file: {path}")
        for lineno, line in enumerate(_read_text(path, ConfigError).splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, text = stripped.partition("=")
            absorb(key, text, f"{path}: line {lineno}")
    for key, text in (overrides or {}).items():
        absorb(key, text, "flag")
    return ExperimentConfig(**values)


def resolved_train_size(cfg: ExperimentConfig) -> int:
    return cfg.train_size if cfg.train_size is not None else cfg.n * cfg.m_v


def resolved_m0(cfg: ExperimentConfig) -> float:
    return m0_heuristic(cfg.n * cfg.m_v, cfg.lr, cfg.n) if cfg.m0 == "heuristic" else cfg.m0


def config_stem(cfg: ExperimentConfig) -> str:
    """Filename stem derived only from config fields, no timestamps."""
    ds = Path(cfg.dataset).stem if cfg.dataset else "nodata"
    topo = cfg.topology.replace("+", "p")
    m0 = "h" if cfg.m0 == "heuristic" else repr(float(cfg.m0))
    delta = "inf" if cfg.delta is None else str(cfg.delta)
    return (
        f"{ds}_{cfg.partition}_{topo}_n{cfg.n}_mv{cfg.m_v}_t{cfg.t_max}"
        f"_it{cfg.iter}_lr{cfg.lr!r}_m0{m0}_delta{delta}_seed{cfg.seed}"
    )


@dataclass
class ExperimentResult:
    paths: list[Path]
    aggregate: list[list[float]]
    final_metrics: list[RoundMetrics]


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset is None:
        raise ConfigError("no dataset configured")
    _, full = infer_schema(load_csv(cfg.dataset, cfg.label_column))
    return full


def _prepare_repetition(cfg: ExperimentConfig, full: Dataset, rep: int):
    """Train/test split, partition plan, pooled sample and graph stream of repetition rep."""
    # Independent substreams per repetition: split, partition, graph.
    split_rng, part_rng, graph_rng = (
        np.random.default_rng(np.random.SeedSequence([cfg.seed, rep, j])) for j in range(3)
    )
    train, test = train_test_split(full, resolved_train_size(cfg), cfg.test_size, split_rng)
    try:
        plan = SPLITTERS[cfg.partition](train, cfg.n, cfg.m_v, part_rng)
    except ValueError as e:
        raise ValueError(f"repetition {rep}: {cfg.partition}: {e}") from e
    return train, test, plan, global_sample(train, plan), graph_rng


def _write_trace(path, soft: np.ndarray, train01: np.ndarray) -> None:
    """The centralized trace CSV of ``rc``'s iterates: per iterate t, the train soft and 0-1 errors."""
    write_table(path, ["t", "soft_err", "err01"], zip(range(len(train01)), soft.tolist(), train01.tolist()))


def _references(cfg: ExperimentConfig, kind: str, gtrain: Dataset):
    """The centralized reference ``kind`` on the pooled sample, as models to score, the reference last.

    ``ml`` is one smoothed fit; ``rc`` gives its t_max + 1 iterates, started
    from the total mass lr * n * m0 of a node run.
    """
    if kind == "ml":
        return [ml(gtrain, cfg.ml_smoothing)]
    return rc(gtrain, cfg.lr, cfg.t_max, uniform_init(gtrain.schema, cfg.lr * cfg.n * resolved_m0(cfg)))


def _run_repetition(cfg: ExperimentConfig, full: Dataset, rep: int, outdir: Path):
    """Run repetition rep and write its five files into outdir; returns its per-round metrics and their paths."""
    train, test, plan, gtrain, graph_rng = _prepare_repetition(cfg, full, rep)

    scorer = Scorer([gtrain, test])  # the pooled sets: the references once, then every round
    (ml_train, ml_test), _ = scorer(_references(cfg, "ml", gtrain))
    (rc_train, rc_test), rc_soft = scorer(_references(cfg, "rc", gtrain))

    metrics: list[RoundMetrics] = []

    def score(t, aggregate, result):
        metrics.append(evaluate_round(result.params, scorer, t, (float(rc_train[t]), float(rc_test[t]))))

    params = run_crc(
        local_datasets(train, plan),
        RewireSchedule(cfg.topology, cfg.delta),
        m0=resolved_m0(cfg),
        t_max=cfg.t_max,
        iterations=cfg.iter,
        neighborhood=cfg.neighborhood,
        rng=graph_rng,
        workers=cfg.workers,
        on_round=score,
    ).params
    names = ("metrics.csv", "rc_trace.csv", "plan.csv", "baselines.csv", "params.txt")
    paths = [outdir / f"{config_stem(cfg)}_rep{rep}_{name}" for name in names]
    metrics_path, trace_path, plan_path, base_path, params_path = paths
    write_table(metrics_path, METRICS_COLUMNS, (rm.as_row() for rm in metrics))
    _write_trace(trace_path, rc_soft, rc_train)
    plan.to_csv(plan_path)
    baselines = [("ml", float(ml_train[0]), float(ml_test[0])), ("rc", float(rc_train[-1]), float(rc_test[-1]))]
    write_table(base_path, ["model", "train_err01", "test_err01"], baselines)
    dump = "".join(f"node {v + 1}\n{params[v].to_text()}" for v in range(len(params)))
    params_path.write_text(dump, encoding="utf-8")
    return metrics, paths


def _aggregate_rows(per_rep: list[list[RoundMetrics]]) -> list[list[float]]:
    data = np.array([[rm.as_row() for rm in rep] for rep in per_rep], dtype=np.float64)
    mean = data.mean(axis=0)  # (t_max, columns); column 0 is t itself
    return [[int(row[0])] + [float(v) for v in row[1:]] for row in mean]


@contextmanager
def _staged(outdir):
    """A fresh directory for a command's files, each moved into outdir, created if absent, once the block succeeds.

    It is made in outdir, else in outdir's nearest existing ancestor, so that each move is a rename.
    """
    published: list[Path] = []  # their paths in outdir, by name
    near = next(path for path in (Path(outdir), *Path(outdir).parents) if path.is_dir())
    with tempfile.TemporaryDirectory(prefix=".riskcal-", dir=near) as stage:
        yield Path(stage), published
        for path in sorted(Path(stage).iterdir()):
            Path(outdir).mkdir(parents=True, exist_ok=True)
            published.append(Path(shutil.move(path, Path(outdir) / path.name)))


def run_experiment(cfg: ExperimentConfig, outdir=".") -> ExperimentResult:
    """Run all repetitions of one experiment and publish its artifacts into outdir, all of them or none.

    Per repetition: metrics CSV, centralized trace CSV, partition plan
    CSV, baseline errors CSV and final node parameter dump.  Across
    repetitions: the aggregate metrics CSV (per-round means) and the
    exact configuration used.  Fully deterministic given the config.
    """
    with _staged(outdir) as (stage, published):
        aggregate, final_metrics = _write_experiment(cfg, _load_dataset(cfg), stage)
    return ExperimentResult(published, aggregate, final_metrics)


def _write_experiment(cfg: ExperimentConfig, full: Dataset, outdir: Path):
    """Write one experiment's files into outdir; returns its aggregate rows and each repetition's final round."""
    per_rep_metrics = [_run_repetition(cfg, full, rep, outdir)[0] for rep in range(cfg.repetitions)]
    agg_rows = _aggregate_rows(per_rep_metrics)
    agg_path, cfg_path = (outdir / f"{config_stem(cfg)}_{name}" for name in ("aggregate.csv", "config.txt"))
    write_table(agg_path, METRICS_COLUMNS, agg_rows)
    cfg_path.write_text(config_to_text(cfg), encoding="utf-8")
    return agg_rows, [metrics[-1] for metrics in per_rep_metrics]


def _sweep_variant(cfg: ExperimentConfig, axis: str, text: str) -> ExperimentConfig:
    value = _parse_value(axis, text, "sweep")
    if axis == "fragmentation":
        total = cfg.n * cfg.m_v
        if value < 1 or total % value != 0:
            raise ConfigError(f"fragmentation must be >= 1 and divide {total} total instances, got {value}")
        return replace(cfg, n=value, m_v=total // value)
    return replace(cfg, **{axis: value})


def sweep(cfg: ExperimentConfig, axis: str, values: list[str], outdir=".") -> Path:
    """Check every axis value's config, then run one experiment each and publish them with their summary."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    variants = [_sweep_variant(cfg, axis, text) for text in values]
    for k, variant in enumerate(variants):
        if variant in variants[:k]:
            first = values[variants.index(variant)]
            raise ConfigError(f"sweep values {first!r} and {values[k]!r} give one experiment")
    full = _load_dataset(cfg)  # no axis changes the dataset
    name = f"sweep_{axis}_{config_stem(cfg)}.csv"
    with _staged(outdir) as (stage, _):
        rows = [[axis, text] + _write_experiment(v, full, stage)[0][-1] for text, v in zip(values, variants)]
        write_table(stage / name, ["axis", "value", *METRICS_COLUMNS], rows)
    return Path(outdir) / name


# ---- argument parsing ----

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
    for f in fields(ExperimentConfig):  # a flag not given is absent, so the file's value or the default holds
        p.add_argument(f"--{f.name}", metavar="V", default=argparse.SUPPRESS)
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or '.')")


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's settings, overridden by every config flag given."""
    return parse_config(args.config, {key: value for key, value in vars(args).items() if key in _DEFAULTS})


def _outdir(args: argparse.Namespace) -> Path:
    """The output directory, not created: --outdir, else $RISKCAL_OUTDIR, else "."."""
    return Path(args.outdir or os.environ.get(OUTDIR_ENV, "."))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config(args)
    result = run_experiment(cfg, _outdir(args))
    final = dict(zip(METRICS_COLUMNS, result.aggregate[-1]))
    print(f"wrote {len(result.paths)} files, stem {config_stem(cfg)}")
    print(
        f"final round {final['t']}: test_err_mean={final['test_err_mean']:.4f} "
        f"rc_test_err={final['rc_test_err']:.4f} test_gap={final['test_gap']:.4f}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    path = sweep(cfg, args.axis, values, _outdir(args))
    print(f"wrote {path}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    cfg = _config(args)
    _, test, _, gtrain, _ = _prepare_repetition(cfg, _load_dataset(cfg), 0)
    models = _references(cfg, args.kind, gtrain)
    (tr01, te01), soft = Scorer([gtrain, test])(models)  # as run scores repetition 0
    outdir, stem = _outdir(args), f"{config_stem(cfg)}_baseline_{args.kind}"
    with _staged(outdir) as (stage, _):
        if args.kind == "rc":
            _write_trace(stage / f"{stem}_trace.csv", soft, tr01)
        (stage / f"{stem}_params.txt").write_text(models[-1].to_text(), encoding="utf-8")
    print(f"{args.kind}: train_err={tr01[-1]:.4f} test_err={te01[-1]:.4f}")
    print(f"wrote {outdir / stem}_params.txt")
    return 0


def _cmd_gengraph(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = build_topology(args.topology, args.n, rng)
    topo = args.topology.replace("+", "p")
    with _staged(_outdir(args)) as (stage, published):  # --out names the file itself: nothing is staged
        write_edge_list(graph, args.out or stage / f"graph_{topo}_n{args.n}_seed{args.seed}.txt")
    print(f"wrote {Path(args.out or published[0])} ({len(graph.edges)} edges, sparseness {graph.sparseness():.4f})")
    return 0


def _cmd_gendata(args: argparse.Namespace) -> int:
    generate = GENERATORS[args.kind]
    # Every keyword parameter with a default (all but rng) is the flag of the same name;
    # a flag not given leaves the generator's own default, and one of another kind is refused.
    given = {name for g in GENERATORS.values() for name in g.__kwdefaults__ if getattr(args, name) is not None}
    foreign = sorted(given - generate.__kwdefaults__.keys())
    if foreign:
        raise ConfigError(f"--kind {args.kind} does not take " + ", ".join(f"--{name}" for name in foreign))
    knobs = {name: getattr(args, name) for name in given}
    ds = generate(args.m, rng=np.random.default_rng(args.seed), **knobs)
    with _staged(_outdir(args)) as (stage, published):  # --out names the file itself: nothing is staged
        write_csv(ds, args.out or stage / f"{args.kind}_m{args.m}_seed{args.seed}.csv")
    out = Path(args.out or published[0])
    print(f"wrote {out} ({ds.m} instances, {ds.schema.d} features, {ds.schema.class_cardinality} classes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcal",
        description="Collaborative risk calibration of naive Bayes classifiers over networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment with repetitions")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment per value of one axis")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma separated axis values")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_base = sub.add_parser("baseline", help="centralized reference models only")
    p_base.add_argument("--kind", required=True, choices=["rc", "ml"])
    _add_config_flags(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_graph = sub.add_parser("gengraph", help="generate a communication graph")
    p_graph.add_argument("--topology", required=True)
    p_graph.add_argument("--n", type=int, required=True)
    p_graph.set_defaults(func=_cmd_gengraph)

    p_data = sub.add_parser("gendata", help="generate a synthetic dataset")
    p_data.add_argument("--kind", required=True, choices=list(GENERATORS))
    p_data.add_argument("--m", type=int, required=True)
    # One flag per generator keyword, typed by its default; not given, it stays None.
    knobs = {name: type(v) for g in GENERATORS.values() for name, v in g.__kwdefaults__.items()}
    for name, kind in knobs.items():
        p_data.add_argument(f"--{name}", type=kind)
    p_data.set_defaults(func=_cmd_gendata)
    for p in (p_graph, p_data):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--outdir", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
