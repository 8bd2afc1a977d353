"""Projection, the local calibration step, centralized calibration built on it, and the ML reference."""
from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import max_rel_dev, mixed_schema, random_dataset, rc_oracle
from riskcal.calibration import lrc, ml, project, rc
from riskcal.cli import ExperimentConfig, _prepare_repetition, _write_trace
from riskcal.data import Continuous, Dataset, Discrete, FeatureSchema
from riskcal.model import (
    COUNT_FLOOR,
    VAR_FLOOR,
    Scorer,
    StatsVector,
    _feature_map,
    evaluate_many,
    param_map,
    stat_map_dataset,
    uniform_init,
    zero_stats,
)
from riskcal.partition import global_sample, local_datasets, split_iid
from riskcal.synth import GENERATORS, gaussian_blobs


def run_m0_50_pooled_sample() -> Dataset:
    """The pooled sample of `riskcal run --m0 50` on 3500 blobs: 2500 rows, rc's initial mass lr * n * m0 = 125."""
    return _prepare_repetition(ExperimentConfig(m0=50.0), gaussian_blobs(3500, rng=np.random.default_rng(1)), 0)[3]


def bitwise_equal(a, b) -> bool:
    return np.array_equal(a.theta, b.theta)


def far_separated_dataset() -> Dataset:
    """Classes so far apart that posteriors are exactly one-hot in float."""
    schema = FeatureSchema((Continuous(), Discrete(2)), 2)
    X = np.array([[-100.0, 1], [-101.0, 1], [-99.5, 1], [100.0, 2], [101.0, 2], [99.5, 2]])
    y = np.array([1, 1, 1, 2, 2, 2])
    return Dataset(schema, X, y)


def test_project_floors_counts_exactly():
    schema = FeatureSchema((Discrete(2),), 2)
    s = zero_stats(schema)
    s.class_block[:] = [5.0, -1.0]
    s.feature_block(0)[:] = [[0.0, 5.0], [1e-12, 3.0]]
    out = project(s)
    assert out.class_block[1] == COUNT_FLOOR
    assert out.feature_block(0)[0, 0] == COUNT_FLOOR
    assert out.feature_block(0)[1, 0] == COUNT_FLOOR
    assert out.feature_block(0)[0, 1] == 5.0  # untouched
    assert s.class_block[1] == -1.0  # input not mutated


def test_project_raises_second_moment_to_variance_floor():
    schema = FeatureSchema((Continuous(),), 2)
    s = zero_stats(schema)
    s.class_block[:] = [4.0, 4.0]
    s.feature_block(0)[:] = [[8.0, 16.0], [0.0, 4.0]]  # row 0 variance 0
    out = project(s)
    p = param_map(out)
    assert p.feature_params[0][0, 1] >= VAR_FLOOR
    assert p.feature_params[0][0, 1] <= VAR_FLOOR * (1 + 1e-9)
    # row 1 already has variance 1 and must be untouched
    assert np.array_equal(out.feature_block(0)[1], [0.0, 4.0])


def test_project_idempotent_bitwise():
    rng = np.random.default_rng(0)
    s = zero_stats(mixed_schema(3))
    s.values[:] = rng.normal(size=s.values.shape)  # wild garbage, many violations
    once = project(s)
    twice = project(once)
    assert np.array_equal(once.values, twice.values)


def test_project_identity_on_real_data_stats():
    rng = np.random.default_rng(1)
    ds = random_dataset(mixed_schema(3), 60, rng)
    s = stat_map_dataset(ds)
    assert np.array_equal(project(s).values, s.values)


def test_rc_moves_toward_data():
    rng = np.random.default_rng(3)
    ds = random_dataset(mixed_schema(), 200, rng)
    models = rc(ds, 0.5, 1, uniform_init(ds.schema, float(ds.m)))
    # class probabilities move from uniform toward the observed class frequencies
    observed = stat_map_dataset(ds).class_block / ds.m
    before = np.abs(models[0].class_probs - observed)
    after = np.abs(models[1].class_probs - observed)
    assert np.all(after <= before + 1e-12)
    assert np.all(after < before)


def test_fixed_point_of_rc_and_lrc():
    ds = far_separated_dataset()
    stats = project(stat_map_dataset(ds))
    params = param_map(stats)
    _, (soft,) = evaluate_many([params], ds)
    assert soft < 1e-12  # premise: perfect soft fit
    models = rc(ds, 0.7, 2, stats)
    # rc starts from stats / 0.7, rounded; the variance s2 / s0 - mu^2 of rows 100 from 0
    # and 0.6 wide magnifies that rounding by mu^2 / var, about 3e4.
    for t in range(len(models)):
        assert max_rel_dev(models[t], params) < 1e-10
    lrc_stats = lrc(stats, ds, iterations=3)
    assert np.max(np.abs(lrc_stats.values - stats.values)) <= 1e-12


@pytest.mark.parametrize("lr", [0.05, 0.3])
@pytest.mark.parametrize("kind", ["blobs", "mixed", "categorical"])
def test_rc_replays_the_update_at_rate_lr(kind, lr):
    # Away from the floors, lrc from s / lr is lr times the step at rate lr from s.
    knobs = {"r": 3} if kind == "mixed" else {}
    ds = GENERATORS[kind](2500, rng=np.random.default_rng(21), **knobs)
    init = uniform_init(ds.schema, float(ds.m))
    models = rc(ds, lr, 64, init)
    oracle = rc_oracle(ds, lr, 64, init)
    assert len(models) == len(oracle) == 65
    counts = _feature_map(ds.schema).moments
    for t, stats in enumerate(oracle):
        want = param_map(stats)
        # premise: no floor fires
        assert stats.values[..., :counts].min() > COUNT_FLOOR
        assert all(block[..., 1].min() > 2 * VAR_FLOOR for block, spec in
                   zip(want.feature_params, ds.schema.features) if isinstance(spec, Continuous))
        assert max_rel_dev(models[t], want) < 1e-9


def test_rc_models_survive_the_count_floor():
    ds = run_m0_50_pooled_sample()
    init = uniform_init(ds.schema, 125.0)
    # premise: a class mass reaches the count floor at mass / lr, where lr times it is below the floor
    s, floored = project(init) * (1 / 0.05), False
    for _ in range(64):
        s = lrc(s, ds)
        floored |= s.class_block.min() == COUNT_FLOOR
    assert floored
    models = rc(ds, 0.05, 64, init)
    assert len(models) == 65
    assert np.isfinite(models.theta).all()


@pytest.mark.parametrize("case", ["lr0.05", "lr2", "floored", "lr2_floored_start", "lr0.05_floored_start"])
def test_rc_iterates_are_lrc_chained_from_the_scaled_projected_init(case):
    # rc projects project(init) / lr once and then only steps: lrc's projection of each iterate is a no-op.
    # Row 0 is the model of that projected start.  An init count of 0 is floored before the scaling, to
    # COUNT_FLOOR / lr: at lr 2 that is below the floor again, at lr 0.05 above it.
    if case == "floored":
        ds, lr, t_max, mass = run_m0_50_pooled_sample(), 0.05, 64, 125.0
    elif case.endswith("floored_start"):
        ds, t_max, mass = GENERATORS["categorical"](200, rng=np.random.default_rng(0)), 3, 10.0
        lr = 2.0 if case.startswith("lr2") else 0.05
    else:
        ds = GENERATORS["mixed"](400, rng=np.random.default_rng(31), r=3)
        lr, t_max, mass = (0.05, 20, float(ds.m)) if case == "lr0.05" else (2.0, 8, float(ds.m))
    init = uniform_init(ds.schema, mass)
    if case.endswith("floored_start"):
        init.values[0, 1] = 0.0
    chain = [project(StatsVector(ds.schema, project(init).values / lr))]
    for _ in range(t_max):
        chain.append(lrc(chain[-1], ds))
    if case == "floored":  # premise: a class mass reaches the count floor
        assert min(s.class_block.min() for s in chain) == COUNT_FLOOR
    want = param_map(StatsVector(ds.schema, np.stack([s.values for s in chain])))
    assert bitwise_equal(rc(ds, lr, t_max, init), want)


def test_rc_returns_the_initial_model_and_every_iterate():
    rng = np.random.default_rng(12)
    ds = random_dataset(mixed_schema(2), 60, rng)
    models = rc(ds, 0.1, 7, uniform_init(ds.schema, float(ds.m)))
    assert len(models) == 8  # the initialization and every iterate
    assert max_rel_dev(models[0], param_map(uniform_init(ds.schema, 1.0))) < 1e-15


def test_ml_matches_hand_computation():
    rng = np.random.default_rng(11)
    ds = random_dataset(mixed_schema(2), 50, rng)
    params = ml(ds, smoothing=1.0)
    assert bitwise_equal(params, param_map(project(stat_map_dataset(ds) + uniform_init(ds.schema, 1.0))))
    assert max_rel_dev(ml(ds, smoothing=0.0), params) > 0
    assert bitwise_equal(ml(ds), params)  # smoothing 1 by default
    with pytest.raises(ValueError, match=r"^smoothing must be >= 0 and finite, got -0.5$"):
        ml(ds, smoothing=-0.5)


def test_ml_takes_a_node_axis():
    pool = gaussian_blobs(200, rng=np.random.default_rng(13))
    plan = split_iid(pool, 4, 25, np.random.default_rng(14))
    stacked = ml(local_datasets(pool, plan), 0.5)
    assert len(stacked) == 4
    for v, rows in enumerate(plan.assignment):
        assert max_rel_dev(stacked[v], ml(pool.subset(rows), 0.5)) < 1e-12
    assert ml(global_sample(pool, plan)).class_probs.ndim == 1  # the pooled sample: one model


def test_rc_scores_its_history_as_per_iteration_evaluation():
    # rc's iterates, scored as one stack across chunk boundaries, equal each scored alone.
    rng = np.random.default_rng(14)
    ds = random_dataset(mixed_schema(3), 120, rng)
    models = rc(ds, 0.05, 40, uniform_init(ds.schema, float(ds.m)))
    (err01,), soft = Scorer([ds])(models)
    singles = np.array([np.concatenate(evaluate_many([models[t]], ds)) for t in range(len(models))])
    assert err01.tolist() == singles[:, 0].tolist()
    np.testing.assert_allclose(soft, singles[:, 1], rtol=1e-13, atol=0)
    # the uniform initialization's soft error is exactly 1 - 1/r
    assert abs(soft[0] - (1 - 1 / ds.schema.class_cardinality)) < 1e-12


def test_rc_improves_on_separable_data():
    rng = np.random.default_rng(5)
    schema = FeatureSchema((Continuous(), Continuous()), 2)
    y = np.tile([1, 2], 200)
    X = rng.standard_normal((400, 2)) + np.where(y[:, None] == 1, -2.0, 2.0)
    ds = Dataset(schema, X, y)
    models = rc(ds, 0.05, 30, uniform_init(schema, float(ds.m)))
    err01, soft = evaluate_many(models, ds)
    assert err01[-1] < 0.05
    assert soft[-1] < soft[0]


def test_rc_deterministic():
    rng = np.random.default_rng(6)
    ds = random_dataset(mixed_schema(), 80, rng)
    a = rc(ds, 0.1, 8, uniform_init(ds.schema, 50.0))
    b = rc(ds, 0.1, 8, uniform_init(ds.schema, 50.0))
    assert np.array_equal(a.theta, b.theta)


def test_rc_validates_arguments():
    rng = np.random.default_rng(7)
    ds = random_dataset(mixed_schema(), 20, rng)
    init = uniform_init(ds.schema, 10.0)
    with pytest.raises(ValueError):
        rc(ds, 0.05, 0, init)
    with pytest.raises(ValueError):
        rc(ds, 0.0, 5, init)
    for lr in (np.inf, np.nan):
        with pytest.raises(ValueError, match="lr must be > 0 and finite"):
            rc(ds, lr, 2, init)
    with pytest.raises(ValueError, match="schema"):
        rc(ds, 0.05, 3, uniform_init(FeatureSchema((Continuous(),), 2), 10.0))
    pool = gaussian_blobs(200, rng=rng)
    stacked = local_datasets(pool, split_iid(pool, 4, 25, rng))
    with pytest.raises(ValueError, match=r"stacked.*global_sample"):
        rc(stacked, 0.05, 3, uniform_init(pool.schema, 100.0))
    # Valid instances whose per-class sums of x^2 overflow.
    huge = Dataset(FeatureSchema((Continuous(),), 2), np.full((400, 1), 1e153), np.repeat([1, 2], 200))
    with pytest.raises(ValueError, match="not all finite"):
        rc(huge, 0.05, 3, uniform_init(huge.schema, 400.0))


def test_rc_refuses_stacked_statistics():
    # Stacked statistics would broadcast into a 4-d model stack that nothing can score or index.
    ds = gaussian_blobs(200, rng=np.random.default_rng(9))
    u = uniform_init(ds.schema, 10.0).values
    want = ("rc's init: expected one node's table (r, w), got stacked tables of shape (2, 2, 5); "
            "index one node first: S[v]")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        rc(ds, 0.1, 3, StatsVector(ds.schema, np.stack([u, 2 * u])))


def test_models_take_their_statistics_shape():
    # theta lies in the statistics' own (..., r, w) table: one node, a stack of nodes, rc's iterates.
    rng = np.random.default_rng(10)
    ds = random_dataset(mixed_schema(3), 40, rng)
    one = project(stat_map_dataset(ds))
    stack = StatsVector(ds.schema, np.stack([one.values, 2 * one.values, 3 * one.values]))
    for s in (one, stack):
        assert param_map(s).theta.shape == s.values.shape == (*s.values.shape[:-2], 3, _feature_map(ds.schema).width)
    init = uniform_init(ds.schema, 40.0)
    iterates = StatsVector(ds.schema, np.stack([s.values for s in rc_oracle(ds, 0.1, 4, init)]))
    assert rc(ds, 0.1, 4, init).theta.shape == param_map(iterates).theta.shape == iterates.values.shape


def test_rc_trace_csv(tmp_path):
    # The trace CSV is written from the call that scores rc's iterates on the pooled train and test sets.
    rng = np.random.default_rng(8)
    ds = random_dataset(mixed_schema(), 40, rng)
    test = random_dataset(mixed_schema(), 30, rng)
    models = rc(ds, 0.05, 3, uniform_init(ds.schema, 40.0))
    p = tmp_path / "trace.csv"
    (train01, test01), train_soft = Scorer([ds, test])(models)
    _write_trace(p, train_soft, train01)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,soft_err,err01"
    assert len(lines) == 5
    t, soft, err = lines[2].split(",")
    want01, want_soft = evaluate_many(models, ds)
    assert int(t) == 1
    assert float(err) == train01[1] == want01[1]
    assert float(soft) == pytest.approx(want_soft[1], rel=1e-13)
    assert test01.tolist() == evaluate_many(models, test)[0].tolist()


def test_lrc_conserves_mass_and_composes():
    rng = np.random.default_rng(9)
    schema = mixed_schema()
    ds = random_dataset(schema, 40, rng)
    agg = uniform_init(schema, 800.0) + 0.25 * stat_map_dataset(ds)
    s1 = lrc(agg, ds, iterations=1)
    assert abs(s1.ess - agg.ess) < 1e-9 * agg.ess
    # two iterations equal one iteration applied twice
    s2 = lrc(agg, ds, iterations=2)
    s2_by_composition = lrc(s1, ds, iterations=1)
    assert np.array_equal(s2.values, s2_by_composition.values)
    with pytest.raises(ValueError):
        lrc(agg, ds, iterations=0)


def test_lrc_inertia_shrinks_step():
    # larger aggregated mass means a smaller parameter move
    rng = np.random.default_rng(10)
    ds = random_dataset(mixed_schema(), 30, rng)
    moves = []
    for m0 in (100.0, 10000.0):
        init = uniform_init(ds.schema, m0)
        params = param_map(lrc(init, ds, iterations=1))
        base = param_map(project(init))
        moves.append(np.max(np.abs(params.class_probs - base.class_probs)))
    assert moves[1] < moves[0] * 0.1


def test_lrc_schema_mismatch():
    rng = np.random.default_rng(11)
    ds = random_dataset(mixed_schema(), 20, rng)
    with pytest.raises(ValueError, match="schema"):
        lrc(uniform_init(FeatureSchema((Continuous(),), 2), 10.0), ds)
