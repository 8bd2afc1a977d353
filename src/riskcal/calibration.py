"""Risk-based calibration of statistics, centralized and local, and the ML reference.

The update direction is always the same: add the statistics of the
labelled data and subtract the expected statistics the current model
assigns to the same instances.  At a perfect fit the two cancel and the
statistics are a fixed point.  That one step, projected, is
``LocalStep.step``.  The local variant used inside collaborative rounds,
``lrc``, projects its input and applies the full step, with the
aggregated mass acting as inertia.  The centralized variant, ``rc``,
scales the step by a learning rate, which is the same full step taken
at mass / lr: ``rc`` steps the pooled data's ``LocalStep`` from
project(init) / lr, and returns its iterates as models for the caller to
score.  ``ml``, the other reference a network is judged against, is the
closed-form smoothed maximum likelihood fit.
"""
from __future__ import annotations

import numpy as np

from .data import DataError, Dataset, _count, _nodes, _real, _same_schema
from .model import (
    COUNT_FLOOR,
    VAR_FLOOR,
    NBParams,
    StatsVector,
    _accumulate,
    _feature_map,
    _labelled,
    _posterior,
    _Rows,
    param_map,
    stat_map_dataset,
    uniform_init,
)


def project(stats: StatsVector) -> StatsVector:
    """Pull statistics back into the region where parameters exist.

    Counts, class masses included, are floored at COUNT_FLOOR; sums of
    x^2 are raised just enough that every implied variance is at least
    VAR_FLOOR.  Idempotent, and the identity on statistics of real data
    of at least one instance per class.
    """
    fm = _feature_map(stats.schema)
    S = stats.values.copy()
    counts = S[..., : fm.moments]  # class masses and one-hot cells
    np.maximum(counts, COUNT_FLOOR, out=counts)
    s0, s = S[..., :1], fm.pairs(S)  # s holds (s1, s2) pairs
    # var >= VAR_FLOOR  <=>  s2 >= s0 * VAR_FLOOR + s1^2 / s0.  s1^2 can overflow
    # where s2 did not; the inf it leaves is refused by param_map.
    with np.errstate(over="ignore"):
        np.maximum(s[..., 1], s0 * VAR_FLOOR + s[..., 0] ** 2 / s0, out=s[..., 1])
    return StatsVector(stats.schema, S)


class LocalStep:
    """What every calibration step against one (stacked) local dataset shares, built once for many rounds.

    The rows Phi(X), the labelled statistics D taken from them and the log-joint rows Phi(X - c)^T, c each
    node's own mean.
    """

    def __init__(self, local_dataset: Dataset) -> None:
        self.schema = local_dataset.schema
        self.phi = _feature_map(self.schema).phi(local_dataset.X)
        self.labelled = _labelled(local_dataset, self.phi)  # refuses an empty dataset and non-finite sums
        self.rows = _Rows(self.schema, local_dataset.X, phi=self.phi)

    def expected(self, params: NBParams) -> StatsVector:
        """``prob_stat_map`` of the local rows under ``params``."""
        return _accumulate(self.schema, _posterior(params, self.rows), self.phi)

    def step(self, stats: StatsVector) -> StatsVector:
        """One full calibration step from projected ``stats``: project(stats + D - E(param_map(stats)))."""
        return project(stats + self.labelled - self.expected(param_map(stats)))


def lrc(agg_stats: StatsVector, local_dataset: Dataset | LocalStep, iterations: int = 1) -> StatsVector:
    """Local calibration of aggregated statistics against local data, or a ``LocalStep`` built from it.

    Applies the full (unscaled) calibration step ``iterations`` times:
    the step has total mass zero, so the mass of ``agg_stats`` is
    conserved and acts as the inertia that turns aggregate mass into an
    effective local learning rate.  Returns the calibrated statistics;
    ``param_map`` of them is the calibrated model.  Stacked statistics
    (n, r, w) and a stacked dataset (see Dataset) calibrate n nodes at once.
    """
    iterations = _count("iterations", iterations, 1)
    _same_schema("statistics and local data", agg_stats.schema, local_dataset.schema)
    local = local_dataset if isinstance(local_dataset, LocalStep) else LocalStep(local_dataset)
    stats = project(agg_stats)
    for _ in range(iterations):
        stats = local.step(stats)
    return stats


def rc(dataset: Dataset, lr: float, t_max: int, init: StatsVector) -> NBParams:
    """Centralized risk calibration for t_max iterations: the models after each, stacked.

    One iteration is s + lr * (s(X, Y) - s(X, theta)), projected.  The
    model is homogeneous of degree 0 in the statistics, and ``project``
    of degree 1 above its count floor, so that iteration is lr times one
    full ``lrc`` step from s / lr: ``rc`` projects project(init) / lr
    once (not a no-op for lr > 1 or at a floor) and then takes t_max
    steps of the pooled ``LocalStep``, each of whose outputs is already
    projected.  Row t of the returned (t_max + 1)-model stack is the
    model after iteration t, row 0 the model of that projected start,
    the state the first step is taken from.  Where a floor fires, the
    two forms part: the count floor acts on s / lr, not on s, and a
    floored variance, the difference s2 / s0 - mu^2 of near-equal terms,
    takes the rounding of either scale (on blobs scaled by 100, up to
    4e-5 relative at lr 0.05).  Models carry no scale; statistics
    rescaled by lr could hold counts below COUNT_FLOOR, which
    ``param_map`` refuses.  ``dataset`` is the pooled sample: a stacked
    one is refused.
    """
    t_max, lr = _count("t_max", t_max, 1), _real("lr", lr, 0)
    _nodes("rc", dataset, False, "; pass global_sample(dataset, plan)", DataError)
    _same_schema("init and dataset", init.schema, dataset.schema)
    _nodes("rc's init", init.values, False, "; index one node first: S[v]", ValueError)
    local = LocalStep(dataset)
    stats = [project(StatsVector(init.schema, project(init).values / lr))]
    for _ in range(t_max):
        stats.append(local.step(stats[-1]))
    return param_map(StatsVector(init.schema, np.stack([s.values for s in stats])))


def ml(dataset: Dataset, smoothing: float = 1.0) -> NBParams:
    """Closed-form maximum likelihood with ``smoothing`` units of uniform mass added (0 adds nothing).

    param_map(project(stat_map_dataset(dataset) + uniform_init(schema,
    smoothing))); a stacked dataset gives one model per node.
    """
    stats = stat_map_dataset(dataset)
    if _real("smoothing", smoothing, 0, closed=True) > 0:
        stats = stats + uniform_init(dataset.schema, smoothing)
    return param_map(project(stats))
