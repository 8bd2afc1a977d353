"""Span tracing of riskcal from outside, by wrapping its public functions.

riskcal modules import each other's functions by name (``sim`` holds its
own references to ``lrc`` and ``rewire``, ``calibration`` to
``prob_stat_map``, ``cli`` and ``partition`` share the ``SPLITTERS``
dict).  A wrapper therefore has to replace the function at every place a
reference to it is held: every ``riskcal`` module namespace and every
dict stored in one.  :class:`Tracer` finds those places by identity,
patches them on ``install`` and puts the originals back on ``remove``.

Spans are folded into per-name totals as they close: wall time, call
count and self time (duration minus the time covered by direct child
spans).  Round durations of ``run_crc`` are taken from the ``rewire``
call that starts every round.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

# (span name, module, attribute).  Every span is recorded and
# harness.layer_metrics picks the ones it reports; run_baseline and
# evaluate report nothing themselves but keep their time out of
# run_experiment's self time.  Targets missing from the riskcal version
# under test are skipped, so their metrics read 0.
TARGETS = (
    ("cli.run_experiment", "cli", "run_experiment"),
    ("sim.run_crc", "sim", "run_crc"),
    ("sim.evaluate_round", "sim", "evaluate_round"),
    ("sim.run_baseline", "sim", "run_baseline"),
    ("sim.rewire", "network", "rewire"),
    ("calibration.lrc", "calibration", "lrc"),
    ("calibration.rc", "calibration", "rc"),
    ("calibration.project", "calibration", "project"),
    ("model.evaluate", "model", "evaluate"),
    ("model.evaluate_many", "model", "evaluate_many"),
    ("model.prob_stat_map", "model", "prob_stat_map"),
    ("model.param_map", "model", "param_map"),
    ("model.stat_map_dataset", "model", "stat_map_dataset"),
    ("network.build", "network", "build_topology"),
    ("data.validate", "data", "validate_instances"),
    ("data.load", "data", "load_csv"),
    ("data.load", "data", "infer_schema"),
    ("partition.split", "data", "train_test_split"),
    ("partition.split", "partition", "split_iid"),
    ("partition.split", "partition", "split_drift_x"),
    ("partition.split", "partition", "split_drift_y"),
    ("partition.split", "partition", "split_drift_xy"),
    ("partition.split", "partition", "local_datasets"),
    ("partition.split", "partition", "global_sample"),
    ("synth.gen", "synth", "gaussian_blobs"),
    ("synth.gen", "synth", "categorical_mixture"),
    ("synth.gen", "synth", "mixed_dataset"),
)


def _eval_cells(args, kwargs) -> int:
    """models x rows x features of one evaluate_many call."""
    params_list = args[0] if args else kwargs["params_list"]
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return len(params_list) * dataset.m * dataset.schema.d


def riskcal_modules() -> list:
    """The riskcal package and every submodule, imported."""
    pkg = importlib.import_module("riskcal")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"riskcal.{info.name}"))
    return mods


def reference_sites(mods, original) -> list[tuple[dict, str]]:
    """Every (namespace or dict, key) in ``mods`` that holds ``original``."""
    sites = []
    for mod in mods:
        ns = vars(mod)
        for key, value in list(ns.items()):
            if value is original:
                sites.append((ns, key))
            elif isinstance(value, dict):
                sites.extend((value, k) for k, v in value.items() if v is original)
    return sites


class _Frame:
    __slots__ = ("name", "start", "child", "marks")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.marks: list[float] = []


class Tracer:
    """Wraps riskcal functions and aggregates the spans they produce.

    ``only`` restricts the wrapped span names; ``None`` wraps them all.
    Use as a context manager so the originals are always restored.
    """

    def __init__(self, only: set[str] | None = None) -> None:
        self.only = only
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.eval_cells = 0
        self.round_s: list[float] = []
        self.crc_runs: list[tuple[float, object]] = []  # (seconds, CRCResult)
        self._stack: list[_Frame] = []
        self._patched: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "model.evaluate_many":
                self.eval_cells += _eval_cells(args, kwargs)
            frame = _Frame(name, clock())
            if name == "sim.rewire" and stack and stack[-1].name == "sim.run_crc":
                stack[-1].marks.append(frame.start)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - frame.start
                self.total[name] += dt
                self.self_time[name] += dt - frame.child
                self.calls[name] += 1
                if stack:
                    stack[-1].child += dt
                if frame.marks:
                    bounds = frame.marks + [end]
                    self.round_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
            if name == "sim.run_crc":
                self.crc_runs.append((dt, out))
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = riskcal_modules()
        for name, modname, attr in TARGETS:
            if self.only is not None and name not in self.only:
                continue
            original = getattr(importlib.import_module(f"riskcal.{modname}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for container, key in reference_sites(mods, original):
                self._patched.append((container, key, original))
                container[key] = wrapper
        return self

    def remove(self) -> None:
        while self._patched:
            container, key, original = self._patched.pop()
            container[key] = original

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def leftover_wrappers() -> list[str]:
    """Places in riskcal that still hold a tracing wrapper; empty when clean."""
    found = []
    for mod in riskcal_modules():
        for key, value in vars(mod).items():
            values = value.items() if isinstance(value, dict) else [(key, value)]
            for k, v in values:
                if hasattr(v, "__perfbench_original__"):
                    found.append(f"{mod.__name__}.{key}" + (f"[{k!r}]" if k != key else ""))
    return found
