"""Assigning training instances to nodes: iid and drifted splits.

Every splitter, one per mode in ``SPLITTERS``, deals n * m_v instances
drawn without replacement into n blocks of size m_v: a ``PartitionPlan``,
that (n, m_v) index array and nothing else, which ``local_datasets``
gathers as one stacked Dataset.  The drift variants skew what each node sees:

* drift_x: instances ordered along the first principal component, so
  neighbouring nodes receive neighbouring regions of feature space,
* drift_y: each node filled from a single preferred class, topping up
  cyclically from the next non-empty class when a pool runs dry,
* drift_xy: drift_y with every class pool pre-sorted along the first
  principal component.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, _count, _nodes, _row_indices, write_table


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Which global training indices each node owns: node v's block is row v - 1 of ``assignment``, (n, m_v).

    Indices follow ``Dataset.subset``'s rule, distinct and nonnegative, held read-only.  Plans compare by identity.
    """

    assignment: np.ndarray

    def __post_init__(self) -> None:
        assignment = _row_indices(self.assignment)
        if assignment.ndim != 2:
            raise ValueError(f"a plan is an (n, m_v) array of blocks, got shape {assignment.shape}")
        if np.any(assignment < 0):
            raise ValueError(f"negative index {assignment.min()}")
        if np.any(np.diff(np.sort(assignment, axis=None)) == 0):
            raise ValueError("blocks overlap")
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def m_v(self) -> int:
        return self.assignment.shape[1]

    def to_csv(self, path) -> None:
        """Audit dump: one (node, global_index) row per assigned instance."""
        nodes = np.repeat(np.arange(1, self.n + 1), self.m_v)
        write_table(path, ["node", "global_index"], zip(nodes.tolist(), self.assignment.ravel().tolist()))


def local_datasets(dataset: Dataset, plan: PartitionPlan) -> Dataset:
    """Every node's block as one stacked dataset, X (n, m_v, d): node v's rows are X[v - 1]."""
    return dataset.subset(plan.assignment)


def global_sample(dataset: Dataset, plan: PartitionPlan) -> Dataset:
    """Union of all blocks in sorted index order: the pooled training set."""
    return dataset.subset(np.sort(plan.assignment, axis=None))


def _standardize(X: np.ndarray) -> np.ndarray:
    """Center columns and scale unit variance; zero-variance columns stay centered."""
    Z, sd = X - X.mean(axis=0), X.std(axis=0)
    Z[:, sd > 0] /= sd[sd > 0]
    return Z


def first_principal_component(X) -> np.ndarray:
    """Leading eigenvector of the standardized covariance, from ``np.linalg.eigh``.

    The sign is fixed so the largest-magnitude coordinate is positive.
    Raises on an array that is not 2-d, on fewer than two instances or
    on all-identical instances (zero covariance).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a principal component takes a 2-d array of instances, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least two instances for a principal component")
    Z = _standardize(X)
    C = (Z.T @ Z) / X.shape[0]
    if not np.any(np.abs(C) > 0):
        raise ValueError("zero covariance: all instances identical")
    v = np.linalg.eigh(C)[1][:, -1]  # eigenvalues ascend: the last column leads
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0 else v


def _draw(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> np.ndarray:
    n, m_v = _count("n", n, 1), _count("m_v", m_v, 1)
    if n * m_v > _nodes("partition", dataset, False, error=DataError).m:
        raise ValueError(f"partition wants {n * m_v} instances, dataset has {dataset.m}")
    return rng.choice(dataset.m, size=n * m_v, replace=False)


def split_iid(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> PartitionPlan:
    return PartitionPlan(_draw(dataset, n, m_v, rng).reshape(n, m_v))


def _along_component(dataset: Dataset, take: np.ndarray) -> np.ndarray:
    """``take`` sorted along the first principal component of its rows; ties keep draw order."""
    proj = _standardize(dataset.X[take]) @ first_principal_component(dataset.X[take])
    return take[np.argsort(proj, kind="stable")]


def _deal_by_class(dataset: Dataset, order: np.ndarray, n: int, m_v: int) -> PartitionPlan:
    """Deal ``order``'s class pools, each in ``order``'s order, into n blocks.

    Node v prefers class ((v - 1) mod r) + 1 and tops up cyclically from
    the next non-empty pool.
    """
    r = dataset.schema.class_cardinality
    labels = dataset.y[order]
    pools = [order[labels == c] for c in range(1, r + 1)]
    blocks = np.empty((n, m_v), dtype=np.int64)
    for v in range(n):
        c, filled = v % r, 0
        while filled < m_v:  # take what is left of pool c, then move on to the next pool
            take, pools[c] = pools[c][: m_v - filled], pools[c][m_v - filled :]
            blocks[v, filled : filled + len(take)] = take
            filled += len(take)
            c = (c + 1) % r
    return PartitionPlan(blocks)


def split_drift_x(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> PartitionPlan:
    return PartitionPlan(_along_component(dataset, _draw(dataset, n, m_v, rng)).reshape(n, m_v))


def split_drift_y(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> PartitionPlan:
    return _deal_by_class(dataset, _draw(dataset, n, m_v, rng), n, m_v)


def split_drift_xy(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> PartitionPlan:
    return _deal_by_class(dataset, _along_component(dataset, _draw(dataset, n, m_v, rng)), n, m_v)


SPLITTERS = {
    "iid": split_iid,
    "drift_x": split_drift_x,
    "drift_y": split_drift_y,
    "drift_xy": split_drift_xy,
}
