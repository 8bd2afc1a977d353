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
    return _standardized_component(X)[1]


def _standardized_component(X) -> tuple[np.ndarray, np.ndarray]:
    """``_standardize(X)`` and ``first_principal_component(X)``, which is formed from it."""
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
    return Z, -v if v[j] < 0 else v


def _draw(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> np.ndarray:
    n, m_v = _count("n", n, 1), _count("m_v", m_v, 1)
    if n * m_v > _nodes("partition", dataset, False, error=DataError).m:
        raise ValueError(f"partition wants {n * m_v} instances, dataset has {dataset.m}")
    return rng.choice(dataset.m, size=n * m_v, replace=False)


def split_iid(dataset: Dataset, n: int, m_v: int, rng: np.random.Generator) -> PartitionPlan:
    return PartitionPlan(_draw(dataset, n, m_v, rng).reshape(n, m_v))


def _along_component(dataset: Dataset, take: np.ndarray) -> np.ndarray:
    """``take`` sorted along the first principal component of its rows; ties keep draw order."""
    Z, component = _standardized_component(dataset.X[take])
    return take[np.argsort(Z @ component, kind="stable")]


def _deal_by_class(dataset: Dataset, order: np.ndarray, n: int, m_v: int) -> PartitionPlan:
    """Deal ``order``'s class pools, each in ``order``'s order, into n blocks.

    Node v prefers class ((v - 1) mod r) + 1 and tops up cyclically from
    the next non-empty pool.  Pools are consumed front to back in node
    order, so until a pool runs short every node takes its whole block from
    the pool its preference routes to, and consecutive blocks of one pool
    are consecutive runs of it: a phase, dealt as arrays.  The first node
    whose pool cannot fill its block takes what is left and tops up, at
    most r steps, which ends the phase.  Each phase empties a pool, so
    there are at most r of them.
    """
    r = dataset.schema.class_cardinality
    labels = dataset.y[order].astype(np.min_scalar_type(r))  # labels of 8 or 16 bits sort by radix
    pooled = order[np.argsort(labels, kind="stable")]  # the pools one after another, each in order's order
    left = np.bincount(labels, minlength=r + 1)[1:].tolist()  # rows still in each pool
    start = np.cumsum([0, *left[:-1]]).tolist()  # each pool's next row, as a position in pooled
    first = np.zeros(n, dtype=np.int64)  # the position in pooled of each whole block's first row
    topped = []  # (node, positions in pooled) of each node that tops up
    v = 0
    while v < n:
        full = [c for c in range(r) if left[c]]
        # node v + d + k r draws its whole block from the first non-empty pool from its preference on
        offsets = {c: [] for c in full}  # the d that draw on each pool, in node order
        for d in range(r):
            offsets[next((c for c in full if c >= (v + d) % r), full[0])].append(d)
        end = n  # each pool fills left // m_v more blocks; the node after them ends the phase
        for c, ds in offsets.items():
            k, d = divmod(left[c] // m_v, len(ds))
            end = min(end, v + k * r + ds[d])
        for c, ds in offsets.items():  # pool c's next blocks go round its ds, one run of m_v rows each
            took = m_v * sum(len(range(v + d, end, r)) for d in ds)
            for rank, d in enumerate(ds):
                first[v + d : end : r] = np.arange(start[c] + m_v * rank, start[c] + took, m_v * len(ds))
            start[c], left[c] = start[c] + took, left[c] - took
        if end < n:  # take what is left of the pool, then move on to the next pools
            c, positions = end % r, []
            while len(positions) < m_v:
                take = min(left[c], m_v - len(positions))
                positions += range(start[c], start[c] + take)
                start[c], left[c] = start[c] + take, left[c] - take
                c = (c + 1) % r
            topped.append((end, positions))
        v = end + 1
    at = first[:, None] + np.arange(m_v)
    for node, positions in topped:
        at[node] = positions
    # gathered in place, each cell reading only its own position; the positions are in range, so no bounds buffer
    return PartitionPlan(np.take(pooled, at, out=at, mode="clip"))


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
