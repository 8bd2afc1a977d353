"""The three benchmark workloads, driven through riskcal's public API.

Each workload makes its inputs from the benchmark seed (``setup``), runs
the timed call (``run``) and checks what came out (``check``).  Module
functions are looked up on the module at call time, so the tracing
wrappers in ``tracing.py`` see every call the benchmark makes.

Why these three:

* crc_default is the ``riskcal run`` path at the default config, the
  end-to-end workload of the project: per-round evaluation
  (``evaluate_many``) is most of its time and graph building is nil.
* crc_scale is a large static network with no per-round evaluation:
  the local step ``lrc`` is most of the loop, spent as thousands of tiny
  ``prob_stat_map``/``param_map`` calls rather than one batched
  evaluation, so it moves the other way from crc_default when the model
  layer is tuned for one use.
* crc_rewire redraws a ``tree+K`` graph every round on single-class
  nodes: the only workload where the network layer (and its memory)
  matters, and the one that covers the skewed partition path.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riskcal import cli, data, model, network, partition, sim, synth


@dataclass(frozen=True)
class Size:
    n: int
    m_v: int
    t_max: int
    test: int
    # Quality bounds hold at full size only; None skips the check.
    err_bound: float | None
    gap_bound: float | None = None


@dataclass
class Outcome:
    """What one timed run produced, for the checks and the digest."""

    crc_results: list  # every CRCResult run_crc returned during the run
    test_errs: np.ndarray  # final per-node 0-1 test errors
    metrics: list = field(default_factory=list)  # final RoundMetrics (crc_default)
    files: list[Path] = field(default_factory=list)  # output files (crc_default)
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.files)


# The default learning rate of riskcal's config; sets m0 through m0_heuristic.
LR = 0.05


def _rngs(seed: int, k: int) -> list[np.random.Generator]:
    return [np.random.default_rng(np.random.SeedSequence([seed, 0, j])) for j in range(k)]


def _ess_failures(crc_results, m0: float) -> list[str]:
    """Each node's final ESS must equal m0: the local step conserves mass."""
    worst = max(
        abs(st.stats.ess - m0) / m0 for res in crc_results for st in res.states
    )
    return [] if worst <= 1e-9 else [f"final ESS deviates from m0 by {worst:.3g} relative"]


class _Workload:
    name: str
    full: Size
    tiny: Size

    def __init__(self, tiny: bool = False) -> None:
        self.size = self.tiny if tiny else self.full

    @property
    def node_rounds(self) -> int:
        return self.size.n * self.size.t_max

    @property
    def m0(self) -> float:
        s = self.size
        return sim.m0_heuristic(s.n * s.m_v, LR, s.n)

    def check(self, out: Outcome) -> Outcome:
        s = self.size
        fails = out.failures
        values = [float(v) for rm in out.metrics for v in rm.as_row()]
        if not (np.all(np.isfinite(out.test_errs)) and np.all(np.isfinite(values))):
            fails.append("non-finite metric")
        if not out.crc_results:
            fails.append("run_crc was not called")
        else:
            fails.extend(_ess_failures(out.crc_results, self.m0))
        err = float(np.mean(out.test_errs))
        if s.err_bound is not None and not err < s.err_bound:
            fails.append(f"final mean test error {err:.4f} >= {s.err_bound}")
        out.digest = self.digest(out)
        return out


class CrcDefault(_Workload):
    """``cli.run_experiment`` at the default config, one repetition."""

    name = "crc_default"
    full = Size(n=50, m_v=50, t_max=64, test=1000, err_bound=0.05, gap_bound=0.01)
    tiny = Size(n=4, m_v=10, t_max=3, test=30, err_bound=None)

    def setup(self, seed: int):
        """Write the blobs CSV, then replay run_experiment's steps before round 1.

        run_experiment loads, splits and partitions internally; the replay
        calls the same public functions on the same inputs so that their
        cost shows as set-up time.
        """
        s = self.size
        pool = synth.gaussian_blobs(s.n * s.m_v + s.test, rng=np.random.default_rng(seed))
        data.write_csv(pool, "blobs.csv")
        _, full = data.infer_schema(data.load_csv("blobs.csv", "y"))
        split_rng, part_rng, graph_rng = _rngs(seed, 3)
        train, test = data.train_test_split(full, s.n * s.m_v, s.test, split_rng)
        plan = partition.SPLITTERS["iid"](train, s.n, s.m_v, part_rng)
        partition.local_datasets(train, plan)
        partition.global_sample(train, plan)
        network.build_topology("tree", s.n, graph_rng)
        return cli.ExperimentConfig(
            dataset="blobs.csv", n=s.n, m_v=s.m_v, t_max=s.t_max,
            lr=LR, test_size=s.test, seed=seed, repetitions=1, workers=1,
        )

    def run(self, cfg, tracer) -> Outcome:
        result = cli.run_experiment(cfg, "out")
        crc = [res for _, res in tracer.crc_runs]
        final = result.final_metrics
        errs = np.array([e for rm in final for e in rm.node_test_errs])
        return Outcome(crc, errs, final, list(result.paths))

    def check(self, out: Outcome) -> Outcome:
        out = super().check(out)
        bound = self.size.gap_bound
        for rm in out.metrics if bound is not None else []:
            if not (rm.test_gap < bound and rm.test_err_std < bound):
                out.failures.append(
                    f"test gap {rm.test_gap:.4f} or std {rm.test_err_std:.4f} not < {bound}"
                )
        return out

    @staticmethod
    def digest(out: Outcome) -> str:
        h = hashlib.sha256()
        for p in sorted(out.files):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()


@dataclass
class CrcInputs:
    locals_: list
    test: object
    schedule: object
    seed: int


def _graph_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


class _CrcDirect(_Workload):
    """``sim.run_crc`` without per-round evaluation, then one ``evaluate_many``."""

    partition_mode: str

    def make_pool(self, rows: int, rng):
        raise NotImplementedError

    def schedule(self, n: int, graph_rng):
        raise NotImplementedError

    def setup(self, seed: int) -> CrcInputs:
        s = self.size
        gen_rng, split_rng, part_rng = _rngs(seed, 3)
        pool = self.make_pool(s.n * s.m_v + s.test, gen_rng)
        train, test = data.train_test_split(pool, s.n * s.m_v, s.test, split_rng)
        plan = partition.SPLITTERS[self.partition_mode](train, s.n, s.m_v, part_rng)
        locals_ = partition.local_datasets(train, plan)
        return CrcInputs(locals_, test, self.schedule(s.n, _graph_rng(seed)), seed)

    def run(self, inputs: CrcInputs, tracer) -> Outcome:
        res = sim.run_crc(
            inputs.locals_, inputs.schedule, m0=self.m0, t_max=self.size.t_max,
            rng=_graph_rng(inputs.seed), workers=1,
        )
        errs, _ = model.evaluate_many([st.params for st in res.states], inputs.test)
        return Outcome([res], errs)

    @staticmethod
    def digest(out: Outcome) -> str:
        h = hashlib.sha256()
        for res in out.crc_results:
            h.update(np.stack([st.stats.values for st in res.states]).tobytes())
        h.update(np.asarray(out.test_errs, dtype=np.float64).tobytes())
        return h.hexdigest()


class CrcScale(_CrcDirect):
    """800 nodes of a mixed schema on a static random tree, iid."""

    name = "crc_scale"
    full = Size(n=800, m_v=10, t_max=4, test=1000, err_bound=0.15)
    tiny = Size(n=8, m_v=10, t_max=2, test=30, err_bound=None)
    partition_mode = "iid"

    def make_pool(self, rows, rng):
        return synth.mixed_dataset(rows, d_continuous=4, d_discrete=4, r=3, rng=rng)

    def schedule(self, n, graph_rng):
        # The tree is drawn in set-up and handed over as a fixed graph.
        return network.RewireSchedule(network.build_topology("tree", n, graph_rng))


class CrcRewire(_CrcDirect):
    """1500 single-class nodes of blobs on a tree+1500 graph redrawn every round."""

    name = "crc_rewire"
    full = Size(n=1500, m_v=5, t_max=4, test=1000, err_bound=0.1)
    tiny = Size(n=12, m_v=5, t_max=2, test=30, err_bound=None)
    partition_mode = "drift_y"

    def make_pool(self, rows, rng):
        return synth.gaussian_blobs(rows, rng=rng)

    @property
    def topology(self) -> str:
        return f"tree+{self.size.n}"

    def schedule(self, n, graph_rng):
        # run_crc draws its own initial graph from the same stream; building
        # it here as well puts its cost in set-up time.
        network.build_topology(self.topology, n, graph_rng)
        return network.RewireSchedule(self.topology, 1)


WORKLOADS = {w.name: w for w in (CrcDefault, CrcScale, CrcRewire)}
