"""Collaborative rounds: aggregation, equivalences, metrics."""
from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import max_rel_dev, mixed_schema, nb_params, random_dataset, rc_oracle
from riskcal.calibration import lrc
from riskcal.cli import ExperimentConfig, _load_dataset, _run_repetition, config_stem, run_experiment
from riskcal.data import Continuous, Dataset, FeatureSchema, write_csv, write_table
from riskcal.model import (
    COUNT_FLOOR,
    Scorer,
    StatsVector,
    _feature_map,
    param_map,
    uniform_init,
)
from riskcal.network import Graph, RewireSchedule, build_topology, chain, full_graph, neighbors, rewire
from riskcal.sim import METRICS_COLUMNS, _average, _Plan, evaluate_round, m0_heuristic, run_crc
from riskcal.synth import gaussian_blobs


def make_locals(schema, n, m_v, seed):
    rng = np.random.default_rng(seed)
    pool = random_dataset(schema, n * m_v, rng)
    return [pool.subset(range(v * m_v, (v + 1) * m_v)) for v in range(n)], pool


def scorer(train, test, baseline):
    """An on_round hook that appends each round's metrics to the returned list."""
    metrics, pooled = [], Scorer([train, test])

    def on_round(t, aggregate, result):
        metrics.append(evaluate_round(result.params, pooled, t, baseline[t - 1]))

    return metrics, on_round


def test_m0_heuristic_reference_values():
    assert m0_heuristic(2500, 0.05, 50) == 1000.0
    assert m0_heuristic(1000, 0.05, 50) == 400.0
    assert m0_heuristic(500, 0.2, 5) == 500.0
    with pytest.raises(ValueError):
        m0_heuristic(0, 0.05, 50)
    with pytest.raises(ValueError):
        m0_heuristic(100, 0.0, 5)
    for lr in (np.inf, np.nan):
        with pytest.raises(ValueError, match="lr must be > 0 and finite"):
            m0_heuristic(100, lr, 4)


def test_full_graph_matches_centralized_calibration():
    schema = mixed_schema(2)
    n, m_v, lr, t_max = 3, 60, 0.1, 10
    locals_, pool = make_locals(schema, n, m_v, seed=0)
    m = n * m_v
    m0 = m0_heuristic(m, lr, n)
    aggregates = []
    run_crc(
        locals_,
        RewireSchedule(full_graph(n)),
        m0=m0,
        t_max=t_max,
        neighborhood="closed",
        on_round=lambda t, aggregate, result: aggregates.append(aggregate),
    )
    oracle = rc_oracle(pool, lr, t_max, uniform_init(schema, float(m)))
    for t in range(1, t_max + 1):
        ref = param_map(oracle[t - 1])
        for v in range(n):
            got = param_map(aggregates[t - 1][v])
            assert max_rel_dev(got, ref) < 1e-9


def test_single_node_equals_centralized_with_matching_rate():
    schema = mixed_schema(2)
    rng = np.random.default_rng(1)
    ds = random_dataset(schema, 80, rng)
    m0 = 1600.0  # effective local rate 80/1600 = 0.05
    res = run_crc([ds], RewireSchedule(full_graph(1)), m0=m0, t_max=12)
    oracle = rc_oracle(ds, 80.0 / m0, 12, uniform_init(schema, float(ds.m)))
    assert max_rel_dev(res.params[0], param_map(oracle[-1])) < 1e-9


def test_ess_is_preserved_across_rounds():
    schema = mixed_schema(3)
    locals_, _ = make_locals(schema, 5, 30, seed=2)
    m0 = 600.0
    res = run_crc(
        locals_, RewireSchedule("tree"), m0=m0, t_max=6, rng=np.random.default_rng(3)
    )
    assert np.all(np.abs(res.stats.class_block.sum(axis=1) - m0) < 1e-9 * m0)


def test_worker_count_does_not_change_results():
    schema = mixed_schema(2)
    locals_, pool = make_locals(schema, 6, 25, seed=4)
    test = random_dataset(schema, 60, np.random.default_rng(5))
    kwargs = dict(m0=500.0, t_max=5, iterations=2, rng=None)
    metrics_a, hook_a = scorer(pool, test, [(0.1, 0.2)] * 5)
    metrics_b, hook_b = scorer(pool, test, [(0.1, 0.2)] * 5)
    a = run_crc(locals_, RewireSchedule(chain(6)), workers=1, on_round=hook_a, **kwargs)
    b = run_crc(locals_, RewireSchedule(chain(6)), workers=6, on_round=hook_b, **kwargs)
    assert np.array_equal(a.stats.values, b.stats.values)
    for ra, rb in zip(metrics_a, metrics_b):
        assert ra.as_row() == rb.as_row()


def test_on_round_hook_contract():
    schema = mixed_schema(2)
    locals_, _ = make_locals(schema, 6, 15, seed=15)
    kwargs = dict(m0=200.0, t_max=5, iterations=2, neighborhood="open")
    seen, kept, copies = [], [], []

    def on_round(t, aggregate, result):
        assert aggregate.values.shape == result.stats.values.shape == (6, 2, _feature_map(schema).width)
        seen.append(t)
        kept.append((aggregate, result))
        copies.append((aggregate.values.copy(), result.stats.values.copy(), result.params.theta.copy()))

    res = run_crc(locals_, RewireSchedule("tree", period=2), rng=np.random.default_rng(16),
                  on_round=on_round, **kwargs)
    assert seen == [1, 2, 3, 4, 5]
    assert res is kept[-1][1]  # the last round's result, not a second mapping of it
    for (aggregate, result), (agg_copy, stats_copy, theta_copy) in zip(kept, copies):  # fresh arrays each round
        assert np.array_equal(aggregate.values, agg_copy)
        assert np.array_equal(result.stats.values, stats_copy)
        assert np.array_equal(result.params.theta, theta_copy)
        assert max_rel_dev(result.params, param_map(result.stats)) == 0.0  # the round's own models
    plain = run_crc(locals_, RewireSchedule("tree", period=2), rng=np.random.default_rng(16), **kwargs)
    assert np.array_equal(plain.stats.values, res.stats.values)
    assert np.array_equal(plain.params.theta, res.params.theta)


def test_a_round_is_mapped_only_when_observed_or_last(monkeypatch):
    schema = mixed_schema(2)
    locals_, _ = make_locals(schema, 4, 10, seed=19)
    calls, seen = [], []

    def counted(stats):
        calls.append(stats)
        return param_map(stats)

    monkeypatch.setattr("riskcal.sim.param_map", counted)
    res = run_crc(locals_, RewireSchedule(chain(4)), m0=80.0, t_max=6,
                  on_round=lambda t, aggregate, result: seen.append(result))
    assert len(calls) == 6 and res is seen[-1]
    assert all(result.stats is stats for result, stats in zip(seen, calls))  # each round mapped once
    calls.clear()
    plain = run_crc(locals_, RewireSchedule(chain(4)), m0=80.0, t_max=6)
    assert len(calls) == 1 and plain.stats is calls[0]
    assert np.array_equal(plain.params.theta, res.params.theta)


def test_the_default_rng_is_seed_0():
    schema = mixed_schema(2)
    locals_, _ = make_locals(schema, 8, 10, seed=24)
    kwargs = dict(m0=150.0, t_max=3)
    default = run_crc(locals_, RewireSchedule("tree", period=1), rng=None, **kwargs).stats.values
    zero = run_crc(locals_, RewireSchedule("tree", period=1), rng=np.random.default_rng(0), **kwargs).stats.values
    one = run_crc(locals_, RewireSchedule("tree", period=1), rng=np.random.default_rng(1), **kwargs).stats.values
    assert np.array_equal(default, zero)
    assert not np.array_equal(default, one)  # the seed is visible in the statistics


def test_stacked_nodes_run_as_their_list():
    schema = mixed_schema(2)
    locals_, pool = make_locals(schema, 6, 15, seed=17)
    stacked = pool.subset(np.arange(6 * 15).reshape(6, 15))
    kwargs = dict(m0=200.0, t_max=4, iterations=2)
    a = run_crc(stacked, RewireSchedule("tree", period=2), rng=np.random.default_rng(18), **kwargs)
    b = run_crc(locals_, RewireSchedule("tree", period=2), rng=np.random.default_rng(18), **kwargs)
    assert a.stats.values.shape == a.params.theta.shape == (6, 2, _feature_map(schema).width)
    assert len(a.params) == 6
    assert np.array_equal(a.stats.values, b.stats.values)
    assert max_rel_dev(a.params, b.params) == 0.0
    assert max_rel_dev(a.params, param_map(a.stats)) == 0.0
    states = a.states  # one-node views into the stacks
    assert len(states) == 6
    for v, st in enumerate(states):
        assert np.shares_memory(st.stats.values, a.stats.values)
        assert np.array_equal(st.stats.values, a.stats.values[v])
        assert np.shares_memory(st.params.theta, a.params.theta)
        assert np.array_equal(st.params.theta, a.params.theta[v])


def scalar_average(S, graph, neighborhood, higher_first=False):
    """Neighborhood means one float add at a time: lower neighbors by increasing id, the node (closed), higher ones.

    ``higher_first`` swaps the lower and the higher neighbors.
    """
    out = np.empty_like(S)
    for v in range(1, graph.n + 1):
        near = sorted(neighbors(graph, v))
        lower, higher = [u for u in near if u < v], [u for u in near if u > v]
        if higher_first:
            lower, higher = higher, lower
        order = lower + [v] * (neighborhood == "closed") + higher
        for cell in np.ndindex(S.shape[1:]):
            total = 0.0
            for u in order:
                total += float(S[u - 1][cell])
            out[v - 1][cell] = total / len(order)
    return out


@pytest.mark.parametrize("topology", ["chain", "tree", "tree+6", "tree+40", "full"])
def test_average_sums_each_neighborhood_in_id_order(topology):
    # Values of both signs at 1e16 and 1: a float sum of them depends on its order, so the
    # average must add exactly as the scalar loop does, bit for bit, over r·w = 75 columns and
    # up to 14 terms.  Each sum starts at 0.0, as the loop's does: a cell of -0.0 averages to 0.0.
    rng = np.random.default_rng(31)
    n = 14
    graph = build_topology(topology, n, rng)
    S = rng.choice([1e16, -1e16, 1.0, -1.0, 3.0, -0.0], size=(n, 3, 25))
    S[:, 1, 7] = -0.0
    for neighborhood in ("open", "closed"):
        want = scalar_average(S, graph, neighborhood)
        if (topology, neighborhood) != ("chain", "open"):  # two terms add alike in either order
            assert not np.array_equal(want, scalar_average(S, graph, neighborhood, higher_first=True))
        assert _average(S, graph, neighborhood).tobytes() == want.tobytes()
    assert np.signbit(want[:, 1, 7]).sum() == 0
    if topology == "full":
        assert len(graph.pairs) == n * (n - 1) // 2  # every node sums 13 neighbors, 14 terms when closed
    lonely = Graph(4, [(1, 2), (2, 3)])
    assert np.array_equal(_average(S[:4], lonely, "closed")[3], S[3])
    with pytest.raises(ValueError, match="^node 4 has no neighbors; open aggregation is undefined$"):
        _average(S[:4], lonely, "open")


@pytest.mark.parametrize("period, plans", [(None, 1), (2, 4), (1, 6)])
def test_a_graph_is_planned_once(monkeypatch, period, plans):
    # A static graph is planned for its first round only; a rewired run plans every graph it draws.
    schema = mixed_schema(2)
    locals_, _ = make_locals(schema, 6, 10, seed=20)
    planned = []

    class Counted(_Plan):
        def __init__(self, graph, neighborhood):
            planned.append(graph)
            super().__init__(graph, neighborhood)

    monkeypatch.setattr("riskcal.sim._Plan", Counted)
    run_crc(locals_, RewireSchedule("tree", period=period), m0=80.0, t_max=6, rng=np.random.default_rng(21))
    assert len(planned) == plans and len(set(map(id, planned))) == plans


def test_rewiring_changes_the_run():
    schema = mixed_schema(2)
    locals_, _ = make_locals(schema, 8, 20, seed=6)
    static = run_crc(
        locals_, RewireSchedule("tree", period=None), m0=300.0, t_max=6,
        rng=np.random.default_rng(7),
    )
    dynamic = run_crc(
        locals_, RewireSchedule("tree", period=1), m0=300.0, t_max=6,
        rng=np.random.default_rng(7),
    )
    assert np.max(np.abs(static.stats.values - dynamic.stats.values)) > 0


@pytest.mark.parametrize("period", [1, 2])
def test_rounds_match_a_per_node_reference_loop(period):
    # Reference: every node averages its neighborhood and calibrates, one node at a time.
    # Period 1 redraws the graph before every round, round 1's included.
    schema = mixed_schema(3)
    rng = np.random.default_rng(13)
    locals_ = [random_dataset(schema, m, rng) for m in (12, 20, 12, 15, 20, 12, 9, 15)]
    n, m0, t_max, iterations = len(locals_), 150.0, 5, 2
    schedule = RewireSchedule("tree+3", period=period)
    for neighborhood in ("open", "closed"):
        aggregates = []
        res = run_crc(
            locals_, schedule, m0=m0, t_max=t_max, iterations=iterations,
            neighborhood=neighborhood, rng=np.random.default_rng(14),
            on_round=lambda t, aggregate, result: aggregates.append(aggregate),
        )
        graph_rng = np.random.default_rng(14)
        graph = schedule.initial(n, graph_rng)
        graphs = {graph.edges}
        stats = [uniform_init(schema, m0)] * n
        for t in range(1, t_max + 1):
            graph = rewire(schedule, t, graph, graph_rng)
            graphs.add(graph.edges)
            aggs = [
                np.mean([stats[u - 1].values for u in sorted(neighbors(graph, v, neighborhood))], axis=0)
                for v in range(1, n + 1)
            ]
            stats = [lrc(StatsVector(schema, a), ds, iterations) for a, ds in zip(aggs, locals_)]
            for got, want in zip(aggregates[t - 1], aggs):
                np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0)
        if period == 2:
            assert len(graphs) == 3  # rewired at rounds 2 and 4
        for v, want in enumerate(stats):
            assert res.stats[v].values.shape == want.values.shape and isinstance(res.stats[v].ess, float)
            np.testing.assert_allclose(res.stats[v].values, want.values, rtol=1e-12, atol=0)
            assert max_rel_dev(res.params[v], param_map(want)) < 1e-12


# Metamorphic checks: symmetries of the method must hold to rounding, node by node.
# m0 = 60 > m_v = 20 keeps every class mass above the floor, where the map is well conditioned.
# It is not floor-free: on the iid split a one-hot cell is floored at COUNT_FLOOR.  The floor
# commutes with relabelling nodes or classes, reordering rows and permuting features, not with scale.
META_N, META_MV, META_M0, META_ROUNDS = 30, 20, 60.0, 10


def meta_setup(split):
    schema = mixed_schema(3)
    rng = np.random.default_rng(20)
    pool = random_dataset(schema, META_N * META_MV, rng)
    if split == "classsorted":
        pool = pool.subset(np.argsort(pool.y, kind="stable"))
    locals_ = [pool.subset(range(v * META_MV, (v + 1) * META_MV)) for v in range(META_N)]
    return locals_, build_topology("tree+5", META_N, rng)


def meta_final(locals_, graph, m0=META_M0, on_round=None):
    res = run_crc(locals_, RewireSchedule(graph), m0=m0, t_max=META_ROUNDS, on_round=on_round)
    # No class mass was floored: the local steps conserved every node's mass.  A floored
    # one-hot cell leaves the mass as it is, so this says nothing about the cells.
    assert np.all(np.abs(res.stats.class_block.sum(axis=1) - m0) <= 1e-9)
    return res.stats.values


def assert_node_close(got, want, tol=1e-12):
    """Every node's (r, w) table within tol of want's, relative to its largest entry."""
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= tol * scale)


@pytest.mark.parametrize("split", ["iid", "classsorted"])
def test_relabelling_nodes_permutes_the_final_statistics(split):
    locals_, graph = meta_setup(split)
    want = meta_final(locals_, graph)
    perm = np.random.default_rng(21).permutation(META_N)  # new node i + 1 is old node perm[i] + 1
    new_id = np.empty(META_N, dtype=np.int64)
    new_id[perm] = np.arange(1, META_N + 1)
    relabelled = Graph(META_N, np.sort(new_id[graph.pairs - 1], axis=1))
    got = meta_final([locals_[v] for v in perm], relabelled)
    assert_node_close(got, want[perm])


@pytest.mark.parametrize("split", ["iid", "classsorted"])
def test_row_order_within_nodes_does_not_change_the_final_statistics(split):
    locals_, graph = meta_setup(split)
    want = meta_final(locals_, graph)
    rng = np.random.default_rng(22)
    shuffled = [ds.subset(rng.permutation(ds.m)) for ds in locals_]
    assert any(not np.array_equal(a.y, b.y) for a, b in zip(shuffled, locals_))
    assert_node_close(meta_final(shuffled, graph), want)


@pytest.mark.parametrize("split", ["iid", "classsorted"])
def test_relabelling_classes_permutes_the_final_statistics(split):
    locals_, graph = meta_setup(split)
    want = meta_final(locals_, graph)
    perm = np.array([2, 0, 1])  # old class y + 1 is new class perm[y] + 1
    relabelled = [Dataset(ds.schema, ds.X, perm[ds.y - 1] + 1) for ds in locals_]
    got = meta_final(relabelled, graph)  # one row per class
    assert_node_close(got[:, perm], want)


@pytest.mark.parametrize("split", ["iid", "classsorted"])
def test_permuting_feature_columns_permutes_the_final_statistics(split):
    locals_, graph = meta_setup(split)
    want = meta_final(locals_, graph)
    schema = locals_[0].schema
    perm = [3, 2, 0, 1]  # new feature j is old feature perm[j]; the discrete ones swap order too
    permuted = FeatureSchema(tuple(schema.features[i] for i in perm), schema.class_cardinality)
    got = meta_final([Dataset(permuted, ds.X[:, perm], ds.y) for ds in locals_], graph)
    old, new = _feature_map(schema), _feature_map(permuted)
    source = np.zeros(new.width, dtype=np.int64)  # the old column of each new column; the class mass stays
    for j, i in enumerate(perm):
        source[new.blocks[j]] = np.arange(old.blocks[i].start, old.blocks[i].stop)
    assert not np.array_equal(source, np.arange(new.width))
    assert_node_close(got, want[..., source])


# Homogeneity: models are homogeneous of degree 0 in the statistics, so doubling every
# node's rows and m0 doubles every round's statistics.  The count floor is absolute and
# breaks this where it fires (at META_M0 on the iid split, by 7e-12), so this m0 keeps
# every count of every round well above it.
HOMOGENEOUS_M0 = 120.0


@pytest.mark.parametrize("split", ["iid", "classsorted"])
def test_duplicating_rows_and_doubling_m0_doubles_the_final_statistics(split):
    locals_, graph = meta_setup(split)
    moments = _feature_map(locals_[0].schema).moments
    lowest = []

    def on_round(t, aggregate, result):
        # A floored count ends the round at COUNT_FLOOR: project is the local step's last act.
        lowest.append(result.stats.values[..., :moments].min())  # class masses and one-hot cells

    want = meta_final(locals_, graph, HOMOGENEOUS_M0, on_round)
    doubled = [Dataset(ds.schema, np.concatenate([ds.X, ds.X]), np.concatenate([ds.y, ds.y])) for ds in locals_]
    got = meta_final(doubled, graph, 2 * HOMOGENEOUS_M0, on_round)
    assert len(lowest) == 2 * META_ROUNDS and min(lowest) > COUNT_FLOOR  # the premise: no floor fired
    assert_node_close(got, 2 * want)


def test_evaluate_round_hand_example():
    schema = FeatureSchema((Continuous(),), 2)
    X = np.zeros((100, 1))
    X[:40, 0] = 5.0  # rows node 2 puts in class 2
    y = np.ones(100, dtype=np.int64)
    y[:10] = 2  # node 1 errs exactly on these; node 2 errs on rows 10..39
    ds = Dataset(schema, X, y)

    # node 1's model always predicts class 1, node 2's classifies by the feature
    params = nb_params(
        schema,
        np.array([[0.9, 0.1], [0.5, 0.5]]),
        (np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [5.0, 1.0]]]),),
    )
    rm = evaluate_round(params, Scorer([ds, ds]), 3, baseline=(0.05, 0.07))
    assert rm.node_train_errs == (0.1, 0.3)
    assert rm.train_err_mean == 0.2
    assert abs(rm.train_err_std - 0.1) < 1e-12
    assert rm.t == 3
    assert rm.rc_train_err == 0.05 and rm.rc_test_err == 0.07
    assert abs(rm.train_gap - 0.15) < 1e-15
    assert abs(rm.test_gap - 0.13) < 1e-15
    bare = evaluate_round(params, Scorer([ds, ds]), 3)  # no baseline: no gaps
    assert bare.node_train_errs == rm.node_train_errs and np.isnan(bare.train_gap) and np.isnan(bare.rc_test_err)


def test_metrics_csv_format(tmp_path):
    schema = mixed_schema(2)
    locals_, pool = make_locals(schema, 3, 20, seed=8)
    test = random_dataset(schema, 30, np.random.default_rng(9))
    metrics, on_round = scorer(pool, test, [(0.1, 0.2)] * 4)
    run_crc(locals_, RewireSchedule(full_graph(3)), m0=100.0, t_max=4, on_round=on_round)
    assert [rm.t for rm in metrics] == [1, 2, 3, 4]
    assert all(rm.rc_train_err == 0.1 for rm in metrics)

    def csv_bytes(metrics):  # the header, then per round t and repr-precision floats, CRLF line ends
        rows = [METRICS_COLUMNS] + [[str(rm.t), *map(repr, rm.as_row()[1:])] for rm in metrics]
        return "".join(",".join(row) + "\r\n" for row in rows).encode()

    # run writes a repetition's metrics with this call
    p = tmp_path / "metrics.csv"
    write_table(p, METRICS_COLUMNS, (rm.as_row() for rm in metrics))
    assert p.read_bytes() == csv_bytes(metrics)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[6]) == 0.1  # rc_train_err column
    # and the file run writes holds these bytes for the repetition's own metrics
    data = tmp_path / "blobs.csv"
    write_csv(gaussian_blobs(300, rng=np.random.default_rng(8)), data)
    cfg = ExperimentConfig(dataset=str(data), n=3, m_v=20, t_max=4, repetitions=1, test_size=100)
    run_experiment(cfg, tmp_path / "out")
    metrics, paths = _run_repetition(cfg, _load_dataset(cfg), 0, tmp_path)
    assert paths[0] == tmp_path / f"{config_stem(cfg)}_rep0_metrics.csv"
    assert (tmp_path / "out" / paths[0].name).read_bytes() == paths[0].read_bytes() == csv_bytes(metrics)


def test_run_crc_validation():
    schema = mixed_schema(2)
    locals_, _ = make_locals(schema, 2, 10, seed=10)
    sched = RewireSchedule(full_graph(2))
    with pytest.raises(ValueError, match="at least one node"):
        run_crc([], sched, m0=10.0, t_max=2)
    with pytest.raises(ValueError, match="t_max"):
        run_crc(locals_, sched, m0=10.0, t_max=0)
    with pytest.raises(ValueError, match="neighborhood"):
        run_crc(locals_, sched, m0=10.0, t_max=2, neighborhood="semi")
    other = random_dataset(FeatureSchema((Continuous(),), 2), 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="schema"):
        run_crc([locals_[0], other], sched, m0=10.0, t_max=2)
    lone = ("run_crc: expected stacked X (n, m, d), got a pooled dataset of shape (10, 4); "
            "one node's data goes in a list")
    with pytest.raises(ValueError, match=f"^{re.escape(lone)}$"):  # would read as 10 nodes of one row
        run_crc(locals_[0], sched, m0=10.0, t_max=2)
    stacked = Dataset(schema, np.stack([ds.X for ds in locals_]), np.stack([ds.y for ds in locals_]))
    with pytest.raises(ValueError, match="not in a list"):
        run_crc([stacked], sched, m0=10.0, t_max=2)
    with pytest.raises(ValueError, match="no neighbors"):
        run_crc([locals_[0]], RewireSchedule(full_graph(1)), m0=10.0, t_max=2,
                neighborhood="open")
    # The local step refuses empty local data: it has no statistics to calibrate against.
    for empty in (
        Dataset(schema, np.empty((3, 0, schema.d)), np.empty((3, 0), dtype=np.int64)),
        [locals_[0], Dataset(schema, np.empty((0, schema.d)), np.empty(0, dtype=np.int64)), locals_[1]],
    ):
        with pytest.raises(ValueError, match="empty dataset"):
            run_crc(empty, RewireSchedule(full_graph(3)), m0=10.0, t_max=2)
