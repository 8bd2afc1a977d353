"""Node assignment splitters and the principal-component helper."""
from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import mixed_schema, random_dataset
from riskcal.data import Continuous, DataError, Dataset, FeatureSchema
from riskcal.partition import (
    PartitionPlan,
    SPLITTERS,
    _along_component,
    _deal_by_class,
    _draw,
    _standardize,
    first_principal_component,
    global_sample,
    local_datasets,
    split_drift_x,
    split_drift_xy,
    split_drift_y,
    split_iid,
)


def blob_dataset(m=400, r=2, seed=0):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema((Continuous(), Continuous(), Continuous()), r)
    y = np.arange(m) % r + 1
    rng.shuffle(y)
    X = rng.standard_normal((m, 3)) + 2.5 * (y[:, None] - (r + 1) / 2)
    return Dataset(schema, X, y)


@pytest.mark.parametrize("mode", list(SPLITTERS))
def test_splitters_common_contract(mode):
    ds = blob_dataset()
    n, m_v = 7, 30
    plan = SPLITTERS[mode](ds, n, m_v, np.random.default_rng(1))
    assert plan.n == n and plan.m_v == m_v
    flat = [g for block in plan.assignment for g in block]
    assert len(flat) == len(set(flat)) == n * m_v
    assert all(0 <= g < ds.m for g in flat)
    # deterministic under the same seed
    again = SPLITTERS[mode](ds, n, m_v, np.random.default_rng(1))
    assert np.array_equal(again.assignment, plan.assignment)
    # materialization
    locs = local_datasets(ds, plan)  # one stacked dataset, node v + 1's rows at index v
    assert locs.X.shape == (n, m_v, 3) and locs.y.shape == (n, m_v)
    for v, block in enumerate(plan.assignment):
        assert np.array_equal(locs.X[v], ds.X[block]) and np.array_equal(locs.y[v], ds.y[block])
    pooled = global_sample(ds, plan)
    assert pooled.m == n * m_v


def test_a_plan_for_another_dataset_is_refused():
    ds = blob_dataset()
    plan = split_iid(ds, 2, 10, np.random.default_rng(1))
    small = ds.subset(range(10))
    assert plan.assignment.max() >= small.m
    with pytest.raises(DataError, match=r"^index \d+ outside 0\.\.9$"):
        local_datasets(small, plan)
    with pytest.raises(DataError, match=r"^index \d+ outside 0\.\.9$"):
        global_sample(small, plan)


def test_split_requires_enough_instances():
    ds = blob_dataset(m=50)
    with pytest.raises(ValueError, match="wants"):
        split_iid(ds, 10, 6, np.random.default_rng(0))


def test_split_iid_uses_all_when_exact():
    ds = blob_dataset(m=60)
    plan = split_iid(ds, 6, 10, np.random.default_rng(2))
    flat = sorted(g for block in plan.assignment for g in block)
    assert flat == list(range(60))


def test_split_drift_x_blocks_ordered_along_component():
    ds = blob_dataset()
    n, m_v = 8, 40
    plan = split_drift_x(ds, n, m_v, np.random.default_rng(3))
    taken = np.array([g for block in plan.assignment for g in block])
    Z = _standardize(ds.X[taken])
    proj = Z @ first_principal_component(ds.X[taken])
    blocks = proj.reshape(n, m_v)
    for v in range(n - 1):
        assert blocks[v].max() <= blocks[v + 1].min() + 1e-12


def test_split_drift_y_single_class_nodes_when_balanced():
    ds = blob_dataset(m=400, r=2)
    # full draw: pools are exactly 200 per class, so every node fills cleanly
    plan = split_drift_y(ds, 4, 100, np.random.default_rng(4))
    labels_per_node = [set(int(ds.y[g]) for g in block) for block in plan.assignment]
    assert labels_per_node == [{1}, {2}, {1}, {2}]


def test_split_drift_y_tops_up_cyclically():
    # more nodes asking for class 1 than class 1 can fill
    rng = np.random.default_rng(5)
    schema = FeatureSchema((Continuous(),), 2)
    y = np.array([1] * 30 + [2] * 90)
    X = rng.standard_normal((120, 1)) + y[:, None]
    ds = Dataset(schema, X, y)
    plan = split_drift_y(ds, 3, 40, rng)
    counts = [np.bincount(ds.y[list(block)], minlength=3)[1:] for block in plan.assignment]
    # nodes 1 and 3 prefer class 1 but only 30 such instances exist in total
    total_class1 = sum(c[0] for c in counts)
    assert total_class1 == 30
    assert counts[1][1] == 40  # node 2 got pure class 2


def test_split_drift_xy_sorts_within_class():
    ds = blob_dataset(m=400, r=2)
    n, m_v = 4, 100  # full draw keeps class pools exactly balanced
    plan = split_drift_xy(ds, n, m_v, np.random.default_rng(6))
    taken = np.array([g for block in plan.assignment for g in block])
    Z = _standardize(ds.X[taken])
    v1 = first_principal_component(ds.X[taken])
    proj = {int(g): float(p) for g, p in zip(taken, Z @ v1)}
    # nodes 1 and 3 both draw class 1: node 1 must hold smaller projections
    assert set(int(ds.y[g]) for g in plan.assignment[0]) == {1}
    assert set(int(ds.y[g]) for g in plan.assignment[2]) == {1}
    max_first = max(proj[g] for g in plan.assignment[0])
    min_third = min(proj[g] for g in plan.assignment[2])
    assert max_first <= min_third + 1e-12


def _deal_node_by_node(dataset, order, n, m_v) -> np.ndarray:
    """Reference deal, one node at a time: node v + 1 takes from pool v mod r, then from the next pools cyclically."""
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
    return blocks


def _labelled(y, r, rng) -> Dataset:
    y = np.asarray(y)
    return Dataset(FeatureSchema((Continuous(), Continuous()), r), rng.standard_normal((len(y), 2)) + y[:, None], y)


def _assert_drift_splits_deal_node_by_node(ds, n, m_v, seed):
    order = _draw(ds, n, m_v, np.random.default_rng(seed))
    want = _deal_node_by_node(ds, order, n, m_v)
    np.testing.assert_array_equal(_deal_by_class(ds, order, n, m_v).assignment, want)
    np.testing.assert_array_equal(split_drift_y(ds, n, m_v, np.random.default_rng(seed)).assignment, want)
    if n * m_v >= 2:  # a principal component needs two instances
        want = _deal_node_by_node(ds, _along_component(ds, order), n, m_v)
        np.testing.assert_array_equal(split_drift_xy(ds, n, m_v, np.random.default_rng(seed)).assignment, want)


@pytest.mark.parametrize("labels", ["balanced", "skewed", "a class with no rows"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_the_deal_by_class_matches_the_node_by_node_deal(r, labels):
    for seed in range(25):
        rng = np.random.default_rng([r, seed])
        n, m_v = int(rng.integers(1, 61)), int(rng.integers(1, 13))
        m = n * m_v + int(rng.integers(0, 3 * m_v))
        if labels == "balanced":
            y = rng.permutation(np.arange(m) % r + 1)
        elif labels == "skewed":
            y = rng.choice(r, size=m, p=rng.dirichlet(np.full(r, 0.3))) + 1
        else:
            y = rng.choice(np.delete(np.arange(1, r + 1), rng.integers(r)), size=m)
        _assert_drift_splits_deal_node_by_node(_labelled(y, r, rng), n, m_v, seed)


def test_a_top_up_may_empty_two_pools():
    # Pools of 2, 1 and 12 rows, blocks of 5: node 1 takes both rows of class 1, the one of class 2 and two of
    # class 3; nodes 2 and 3 find their pools empty and fill from class 3.
    rng = np.random.default_rng(9)
    ds = _labelled([1, 1, 2] + [3] * 12, 3, rng)
    order = rng.permutation(15)
    blocks = _deal_by_class(ds, order, 3, 5).assignment
    np.testing.assert_array_equal(blocks, _deal_node_by_node(ds, order, 3, 5))
    assert [ds.y[b].tolist() for b in blocks] == [[1, 1, 2, 3, 3], [3] * 5, [3] * 5]
    _assert_drift_splits_deal_node_by_node(ds, 3, 5, 10)


def test_a_large_drift_y_deal_matches_the_node_by_node_deal():
    rng = np.random.default_rng(11)
    n, m_v = 10**5, 5
    ds = _labelled(rng.integers(1, 4, n * m_v + 1000), 3, rng)
    want = _deal_node_by_node(ds, _draw(ds, n, m_v, np.random.default_rng(12)), n, m_v)
    np.testing.assert_array_equal(split_drift_y(ds, n, m_v, np.random.default_rng(12)).assignment, want)


def _leading_right_singular_vector(X) -> np.ndarray:
    """Reference principal component: the top right singular vector of the standardized sample."""
    return np.linalg.svd(_standardize(np.asarray(X, float)), full_matrices=False)[2][0]


def test_first_principal_component_matches_eigendecomposition():
    rng = np.random.default_rng(7)
    for _ in range(25):
        X = rng.normal(size=(rng.integers(5, 40), rng.integers(2, 6)))
        v = first_principal_component(X)
        lead = _leading_right_singular_vector(X)
        angle = np.arccos(min(1.0, abs(float(v @ lead))))
        assert angle < 1e-6
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert v[int(np.argmax(np.abs(v)))] > 0  # sign convention


def test_first_principal_component_when_top_eigenvalues_nearly_tie():
    # Columns (a, a + 0.1 n1, b, b + 0.1001 n2) from centered orthonormal a, b, n1, n2:
    # the pairs give eigenvalues 1 + 1/sqrt(1.01) and 1 + 1/sqrt(1 + 0.1001^2), a ratio of 0.999995,
    # a gap that 10000 power-iteration steps from a random start miss by 22.5 degrees.
    m = 5000
    R = np.random.default_rng(20).standard_normal((m, 4))
    a, b, n1, n2 = (np.sqrt(m) * np.linalg.qr(R - R.mean(axis=0))[0]).T
    X = np.column_stack([a, a + 0.1 * n1, b, b + 0.1001 * n2])
    v = first_principal_component(X)
    angle = np.arccos(min(1.0, abs(float(v @ _leading_right_singular_vector(X)))))
    assert angle < 1e-6


def test_first_principal_component_degenerate_inputs():
    with pytest.raises(ValueError, match=r"^need at least two instances for a principal component$"):
        first_principal_component(np.ones((1, 3)))
    # Two distinct rows are enough: standardized, both columns are (-1, 1), so the component is their diagonal.
    np.testing.assert_allclose(first_principal_component([[0, 1], [2, 5]]), [np.sqrt(0.5)] * 2, rtol=1e-12)
    # Not a table of instances at all: named by its shape, not counted as too few instances.
    for X in (np.ones((3, 4, 2)), np.ones(3), np.float64(1.0)):
        message = f"a principal component takes a 2-d array of instances, got shape {np.shape(X)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            first_principal_component(X)
    with pytest.raises(ValueError, match="identical"):
        first_principal_component(np.ones((5, 3)))


def test_partition_plan_validation():
    with pytest.raises(ValueError, match="overlap"):
        PartitionPlan(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="overlap"):
        PartitionPlan(np.array([[5, 0, 9], [3, 9, 1]]))
    with pytest.raises(ValueError, match="negative index -1"):  # row 9 of 10 rows, twice
        PartitionPlan(((-1, 9),))
    # Indices follow Dataset.subset's rule: refused, not truncated to [[0, 1]].
    with pytest.raises(DataError, match="integer row indices, got float64"):
        PartitionPlan(np.array([[0.5, 1.7]]))
    with pytest.raises(DataError, match="not a boolean mask"):
        PartitionPlan(((False, True),))
    with pytest.raises(DataError, match="ragged row indices"):
        PartitionPlan(((0, 1), (2,)))
    with pytest.raises(ValueError, match=r"\(n, m_v\) array of blocks, got shape \(4,\)"):
        PartitionPlan(np.arange(4))
    plan = PartitionPlan(((4, 0, 2), (1, 3, 5)))
    assert plan.assignment.shape == (2, 3) and plan.assignment.dtype == np.int64
    assert (plan.n, plan.m_v) == (2, 3)
    assert plan.assignment.tolist() == [[4, 0, 2], [1, 3, 5]]
    assert not plan.assignment.flags.writeable
    for mode in SPLITTERS:
        split = SPLITTERS[mode](blob_dataset(m=100), 4, 5, np.random.default_rng(0))
        assert split.assignment.shape == (4, 5) and split.assignment.dtype == np.int64


def test_partition_plan_csv(tmp_path):
    plan = PartitionPlan(((4, 0, 2), (1, 3, 5)))
    p = tmp_path / "plan.csv"
    plan.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "node,global_index"
    assert lines[1] == "1,4"
    assert lines[-1] == "2,5"
    assert len(lines) == 7


def test_global_sample_sorted_union():
    ds = blob_dataset(m=60)
    plan = PartitionPlan(((9, 1, 5), (0, 7, 3)))
    pooled = global_sample(ds, plan)
    assert np.array_equal(pooled.X, ds.X[[0, 1, 3, 5, 7, 9]])


def test_drift_splits_work_on_mixed_schema():
    rng = np.random.default_rng(8)
    ds = random_dataset(mixed_schema(3), 200, rng)
    for mode in ("drift_x", "drift_xy"):
        plan = SPLITTERS[mode](ds, 5, 20, rng)
        assert len(plan.assignment) == 5
