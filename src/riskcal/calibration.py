"""Risk-based calibration of statistics, centralized and local.

The update direction is always the same: add the statistics of the
labelled data and subtract the expected statistics the current model
assigns to the same instances.  At a perfect fit the two cancel and the
statistics are a fixed point.  The centralized variant scales the step
by a learning rate; the local variant used inside collaborative rounds
applies the full step, with the aggregated mass acting as inertia.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, write_table
from .model import (
    COUNT_FLOOR,
    VAR_FLOOR,
    NBParams,
    StatsVector,
    _accumulate,
    _feature_map,
    _posterior,
    _Rows,
    evaluate_many,
    param_map,
    stat_map_dataset,
)


def project(stats: StatsVector) -> StatsVector:
    """Pull statistics back into the region where parameters exist.

    Counts, class masses included, are floored at COUNT_FLOOR; sums of
    x^2 are raised just enough that every implied variance is at least
    VAR_FLOOR.  Idempotent, and the identity on statistics of real data
    of at least one instance per class.
    """
    fm = _feature_map(stats.schema)
    S = stats.rows.copy()
    counts = S[..., : fm.moments]  # class masses and one-hot cells
    np.maximum(counts, COUNT_FLOOR, out=counts)
    s0, s = S[..., :1], fm.pairs(S)  # s holds (s1, s2) pairs
    # var >= VAR_FLOOR  <=>  s2 >= s0 * VAR_FLOOR + s1^2 / s0.  s1^2 can overflow
    # where s2 did not; the inf it leaves is refused by param_map.
    with np.errstate(over="ignore"):
        np.maximum(s[..., 1], s0 * VAR_FLOOR + s[..., 0] ** 2 / s0, out=s[..., 1])
    return StatsVector(stats.schema, S.reshape(stats.values.shape))


def rc_update(stats: StatsVector, dataset: Dataset | LocalStep, lr: float, params: NBParams) -> StatsVector:
    """One calibration step at learning rate lr, followed by projection.

    Moves the statistics towards the labelled data and away from the
    model's own expectations: s + lr * (s(X, Y) - s(X, theta)).  With
    lr = 0 the input is returned unchanged (up to projection).  ``dataset``
    may also be a ``LocalStep`` built from it.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be nonnegative, got {lr}")
    if stats.schema != dataset.schema or params.schema != dataset.schema:
        raise ValueError("schema mismatch")
    local = dataset if isinstance(dataset, LocalStep) else LocalStep(dataset)
    return project(stats + lr * (local.labelled - local.expected(params)))


@dataclass
class RCRecord:
    """State after iteration t (t = 0 is the initialization)."""

    t: int
    soft_err: float
    err01: float
    params: NBParams
    stats: StatsVector


@dataclass
class RCTrace:
    """Per-iteration history of a centralized calibration run."""

    records: list[RCRecord]

    @property
    def best_index(self) -> int:
        """Iteration with the lowest soft training error (earliest wins)."""
        softs = [rec.soft_err for rec in self.records]
        return int(np.argmin(softs))

    @property
    def best(self) -> RCRecord:
        return self.records[self.best_index]

    @property
    def final(self) -> RCRecord:
        return self.records[-1]

    def to_csv(self, path) -> None:
        write_table(path, ["t", "soft_err", "err01"], ((r.t, r.soft_err, r.err01) for r in self.records))


def rc(dataset: Dataset, lr: float, t_max: int, init: StatsVector) -> RCTrace:
    """Centralized risk calibration for t_max iterations.

    Records soft and 0-1 training error at every iteration including the
    initialization, scoring all t_max + 1 models in one ``evaluate_many``
    call after the last iteration.  The final record holds the model
    after the last iteration; ``trace.best`` marks the lowest soft error
    seen.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    local = LocalStep(dataset)
    stats = [project(init)]
    params = [param_map(stats[0])]
    for _ in range(t_max):
        stats.append(rc_update(stats[-1], local, lr, params[-1]))
        params.append(param_map(stats[-1]))
    err01, soft = evaluate_many(params, dataset)
    return RCTrace([RCRecord(t, float(soft[t]), float(err01[t]), params[t], stats[t]) for t in range(t_max + 1)])


class LocalStep:
    """What every calibration step against one (stacked) local dataset shares, built once for many rounds.

    The labelled statistics D, the rows Phi(X) and the log-joint rows Phi(X - c)^T, c each node's own mean.
    """

    def __init__(self, local_dataset: Dataset) -> None:
        self.schema = local_dataset.schema
        self.labelled = stat_map_dataset(local_dataset)  # refuses an empty dataset and non-finite sums
        self.phi = _feature_map(self.schema).phi(local_dataset.X)
        self.rows = _Rows(self.schema, local_dataset.X)

    def expected(self, params: NBParams) -> StatsVector:
        """``prob_stat_map`` of the local rows under ``params``."""
        return _accumulate(self.schema, _posterior(params, self.rows), self.phi)


def lrc(agg_stats: StatsVector, local_dataset: Dataset | LocalStep, iterations: int = 1) -> StatsVector:
    """Local calibration of aggregated statistics against local data, or a ``LocalStep`` built from it.

    Applies the full (unscaled) calibration step ``iterations`` times:
    the step has total mass zero, so the mass of ``agg_stats`` is
    conserved and acts as the inertia that turns aggregate mass into an
    effective local learning rate.  Returns the calibrated statistics;
    ``param_map`` of them is the calibrated model.  Stacked statistics
    (n, len) and a stacked dataset (see Dataset) calibrate n nodes at once.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if agg_stats.schema != local_dataset.schema:
        raise ValueError("schema mismatch")
    local = local_dataset if isinstance(local_dataset, LocalStep) else LocalStep(local_dataset)
    stats = project(agg_stats)
    for _ in range(iterations):
        stats = project(stats + local.labelled - local.expected(param_map(stats)))
    return stats
