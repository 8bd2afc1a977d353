"""Collaborative calibration rounds over a communication graph.

Every node starts from the same uniform statistics of mass m0.  One
round is, for every node simultaneously: average the statistics of the
neighborhood as of the previous round (synchronous barrier), then
calibrate the average against the node's local data.  The network is
arrays: its data a stacked Dataset (for uneven local sizes, one stack
per size group), its state one (n, r, w) array of statistics and a
round's result, ``CRCResult``, those statistics with their
``param_map``.  A round is one neighborhood average of the whole array
plus one ``lrc`` call per size group, against the group's
``LocalStep``, built once per run.  The loop only simulates: whatever
observes a round (per-round metrics, recorded aggregates) attaches
through ``run_crc``'s ``on_round`` hook, which receives the round's
result.  ``evaluate_round`` scores the batched models of one round, one
row per node, against a centralized baseline, with a ``Scorer`` of the
pooled train and test sets built once per run.  A metrics CSV is
``data.write_table`` of ``METRICS_COLUMNS`` and each round's
``RoundMetrics.as_row()``.  The baselines themselves, ``rc`` and ``ml``
on the pooled sample, are plain calls into ``calibration``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from math import nan

import numpy as np

from .calibration import LocalStep, lrc
from .data import DataError, Dataset, _count, _nodes, _real, _same_schema
from .model import NBParams, Scorer, StatsVector, param_map, uniform_init
from .network import Graph, RewireSchedule, _neighborhood, rewire


def m0_heuristic(m: float, lr: float, n: int) -> float:
    """Initial mass per node matching a centralized run: m / (lr * n).

    Chosen so that the effective local learning rate m_v / m0 of an
    average node equals lr when the m instances are spread over n nodes.
    """
    return _real("m", m, 0) / (_real("lr", lr, 0) * _count("n", n, 1))


@dataclass
class RoundMetrics:
    """Cross-node error summary for one round.

    Means and standard deviations (population, ddof=0) are taken over
    nodes.  Gaps are node means minus the centralized calibration
    baseline at the same round; nan when no baseline was supplied.
    """

    t: int
    train_err_mean: float
    train_err_std: float
    test_err_mean: float
    test_err_std: float
    soft_train_mean: float
    rc_train_err: float
    rc_test_err: float
    train_gap: float
    test_gap: float
    node_train_errs: tuple[float, ...]
    node_test_errs: tuple[float, ...]

    def as_row(self) -> list:
        return [getattr(self, c) for c in METRICS_COLUMNS]


# The metrics CSV columns: every field but the per-node tuples.
METRICS_COLUMNS = tuple(f.name for f in fields(RoundMetrics) if not f.name.startswith("node_"))


def evaluate_round(params: NBParams, scorer: Scorer, t: int,
                   baseline: tuple[float, float] | None = None) -> RoundMetrics:
    """Round t's metrics of the models stacked in ``params``; ``scorer`` is a ``Scorer`` of the pooled train, test."""
    (tr01, te01), tr_soft = scorer(params)
    rc_tr, rc_te = baseline if baseline is not None else (nan, nan)
    tr_mean = float(tr01.mean())
    te_mean = float(te01.mean())
    return RoundMetrics(
        t=t,
        train_err_mean=tr_mean,
        train_err_std=float(tr01.std()),
        test_err_mean=te_mean,
        test_err_std=float(te01.std()),
        soft_train_mean=float(tr_soft.mean()),
        rc_train_err=float(rc_tr),
        rc_test_err=float(rc_te),
        train_gap=tr_mean - rc_tr,
        test_gap=te_mean - rc_te,
        node_train_errs=tuple(float(e) for e in tr01),
        node_test_errs=tuple(float(e) for e in te01),
    )


@dataclass
class CRCResult:
    """One round's statistics, stacked, and their ``param_map``: node v's are ``stats[v - 1]``, ``params[v - 1]``."""

    stats: StatsVector
    params: NBParams

    @property
    def states(self) -> list["CRCResult"]:
        """One-node results, views into the stacks, made when read."""
        schema, tables = self.stats.schema, zip(self.stats.values, self.params.theta)
        return [CRCResult(StatsVector(schema, s), NBParams(schema, p)) for s, p in tables]


class _Plan:
    """How ``_average`` sums the neighborhoods of one graph, slot by slot; built once per graph.

    Node v adds its lower neighbors by id, itself if closed, then its higher
    ones by id, to a sum started at 0.0: np.bincount's order, so every run
    rounds alike.  The sums are kept with the nodes by decreasing degree
    (``place`` is each node's row), so that slot k, the k-th term of every
    node of degree above k, is one gather of rows added into a prefix of
    the sums.
    """

    def __init__(self, graph: Graph, neighborhood: str) -> None:
        n, closed = graph.n, neighborhood == "closed"
        u, v = graph.pairs.T - 1  # sorted by (u, v): each node's higher neighbors are a run, by id
        lower, higher = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
        degree = lower + closed + higher
        for lonely in np.flatnonzero(degree == 0)[:1]:
            raise ValueError(f"node {lonely + 1} has no neighbors; open aggregation is undefined")
        top = int(degree.max())
        # Stable sorts of narrow keys, which numpy sorts by radix: nodes by decreasing degree, pairs by v.
        order = np.argsort((top - degree).astype(np.min_scalar_type(top)), kind="stable")
        by_v = np.argsort(v.astype(np.min_scalar_type(n)), kind="stable")  # each node's lower neighbors, by id
        self.place = np.empty(n, dtype=np.intp)
        self.place[order] = np.arange(n)
        sizes = n - np.cumsum(np.bincount(degree, minlength=top + 1))[:-1]  # nodes of degree above k
        first, run = np.cumsum(sizes) - sizes, np.arange(len(u))
        slots = np.empty(int(degree.sum()), dtype=np.intp)
        # Term k of node x, from source s: slots[first[k] + place[x]] = s.
        slots[first[run - (np.cumsum(lower) - lower)[v[by_v]]] + self.place[v[by_v]]] = u[by_v]
        if closed:
            slots[first[lower] + self.place] = np.arange(n)
        slots[first[lower[u] + closed + run - (np.cumsum(higher) - higher)[u]] + self.place[u]] = v
        self.graph, self.slots = graph, [slots[a : a + size] for a, size in zip(first.tolist(), sizes.tolist())]
        self.degree = degree[order, None].astype(np.float64)

    def average(self, S: np.ndarray) -> np.ndarray:
        """Neighborhood means of S[v - 1], a fresh array; each slot gathers its rows into the result first."""
        S2 = S.reshape(len(self.place), -1)
        total = np.empty_like(S2)  # before the result: freed below it, its pages serve the round's next arrays
        out = np.empty_like(S2)
        np.add(0.0, np.take(S2, self.slots[0], axis=0, out=out, mode="clip"), out=total)  # slot 0 holds every node
        for slot in self.slots[1:]:
            at = total[: len(slot)]
            np.add(at, np.take(S2, slot, axis=0, out=out[: len(slot)], mode="clip"), out=at)
        np.divide(total, self.degree, out=total)
        return np.take(total, self.place, axis=0, out=out, mode="clip").reshape(S.shape)


def _average(S: np.ndarray, graph: Graph, neighborhood: str) -> np.ndarray:
    """Neighborhood means of S[v - 1]: v adds its lower neighbors, itself if closed, then its higher ones, by id."""
    return _Plan(graph, neighborhood).average(S)


def _stack_by_size(local_datasets: list[Dataset]) -> tuple[list[np.ndarray], list[Dataset]]:
    """Node indices of every group of one local size, smallest size first, and each group's datasets stacked."""
    for ds in local_datasets:
        _nodes("a list of local datasets", ds, False, "; pass a stacked Dataset by itself, not in a list", DataError)
    _same_schema("local datasets", *(ds.schema for ds in local_datasets))
    sizes = np.array([ds.m for ds in local_datasets])
    groups = [np.flatnonzero(sizes == m) for m in sorted(set(sizes.tolist()))]
    return groups, [Dataset(local_datasets[g[0]].schema, np.stack([local_datasets[v].X for v in g]),
                            np.stack([local_datasets[v].y for v in g])) for g in groups]


def run_crc(
    local_datasets: Dataset | list[Dataset],
    schedule: RewireSchedule,
    *,
    m0: float,
    t_max: int,
    iterations: int = 1,
    neighborhood: str = "closed",
    rng: np.random.Generator | None = None,
    workers: int = 1,
    on_round: Callable[[int, StatsVector, CRCResult], object] | None = None,
) -> CRCResult:
    """Run t_max collaborative calibration rounds.

    ``local_datasets`` is one stacked Dataset, X of shape (n, m_v, d),
    node v's rows at X[v - 1], or a list of n datasets, which may differ
    in size.  ``schedule`` provides the (possibly rewired) communication
    graph; ``rng`` drives its randomness.  ``on_round(t, aggregate,
    result)``, when given, is called after round t's local step with the
    stacked (n, r, w) ``StatsVector`` of neighborhood averages the nodes
    calibrated from and the round's ``CRCResult``, node v's at index
    v - 1.  Every round's arrays are fresh, so a callback may keep them.
    Returns round t_max's result, the one the callback last received: a
    round is mapped only when a callback observes it or it is the last.
    ``workers`` is checked but otherwise ignored: a round is
    whole-network array operations, not per-node tasks.
    """
    if isinstance(local_datasets, Dataset):  # one size group: every node
        _nodes("run_crc", local_datasets, True, "; one node's data goes in a list", ValueError)
        groups, stacks = [np.arange(len(local_datasets.X))], [local_datasets]
    else:
        groups, stacks = _stack_by_size(list(local_datasets))
    n = sum(map(len, groups))
    if n < 1:
        raise ValueError("need at least one node")
    t_max = _count("t_max", t_max, 1)
    _neighborhood(neighborhood)
    _count("workers", workers, 1)

    if rng is None:
        rng = np.random.default_rng(0)
    graph, plan = schedule.initial(n, rng), None
    schema = stacks[0].schema
    steps = [LocalStep(ds) for ds in stacks]
    S = np.tile(uniform_init(schema, m0).values, (n, 1, 1))  # (n, r, w), node v's table at S[v - 1]

    for t in range(1, t_max + 1):
        graph = rewire(schedule, t, graph, rng)
        if plan is None or plan.graph is not graph:  # a static graph is planned once
            plan = _Plan(graph, neighborhood)
        agg = plan.average(S)
        S = np.empty_like(agg)  # a fresh array: earlier states keep their values
        for g, step in zip(groups, steps):
            S[g] = lrc(StatsVector(schema, agg[g]), step, iterations).values
        if on_round is not None or t == t_max:
            result = CRCResult(stats := StatsVector(schema, S), param_map(stats))
        if on_round is not None:
            on_round(t, StatsVector(schema, agg), result)
    return result

