"""Projection, calibration updates, traces and the local variant."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import mixed_schema, random_dataset, scalar_posterior
from riskcal.calibration import lrc, project, rc, rc_update
from riskcal.data import Continuous, Dataset, Discrete, FeatureSchema
from riskcal.model import (
    COUNT_FLOOR,
    VAR_FLOOR,
    evaluate,
    param_map,
    stat_map_dataset,
    uniform_init,
    zero_stats,
)


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


def test_rc_update_zero_lr_is_projection_only():
    rng = np.random.default_rng(2)
    ds = random_dataset(mixed_schema(), 30, rng)
    s = stat_map_dataset(ds)
    params = param_map(s)
    out = rc_update(s, ds, 0.0, params)
    assert np.array_equal(out.values, s.values)
    with pytest.raises(ValueError, match="nonnegative"):
        rc_update(s, ds, -0.1, params)


def test_rc_update_moves_toward_data():
    rng = np.random.default_rng(3)
    ds = random_dataset(mixed_schema(), 200, rng)
    init = uniform_init(ds.schema, float(ds.m))
    params = param_map(init)
    out = rc_update(init, ds, 0.5, params)
    # class counts move from uniform toward the observed counts
    observed = stat_map_dataset(ds).class_block
    before = np.abs(init.class_block - observed)
    after = np.abs(out.class_block - observed)
    assert np.all(after <= before + 1e-12)
    assert abs(out.ess - init.ess) < 1e-9 * init.ess


def test_fixed_point_of_rc_update_and_lrc():
    ds = far_separated_dataset()
    stats = project(stat_map_dataset(ds))
    params = param_map(stats)
    _, soft = evaluate(params, ds)
    assert soft < 1e-12  # premise: perfect soft fit
    out = rc_update(stats, ds, 0.7, params)
    assert np.max(np.abs(out.values - stats.values)) <= 1e-12
    lrc_stats = lrc(stats, ds, iterations=3)
    assert np.max(np.abs(lrc_stats.values - stats.values)) <= 1e-12


def test_rc_trace_structure_and_errors():
    rng = np.random.default_rng(4)
    ds = random_dataset(mixed_schema(), 150, rng)
    trace = rc(ds, 0.05, 12, uniform_init(ds.schema, float(ds.m)))
    assert [rec.t for rec in trace.records] == list(range(13))
    assert trace.final is trace.records[-1]
    softs = [rec.soft_err for rec in trace.records]
    assert trace.best_index == int(np.argmin(softs))
    assert trace.best.soft_err == min(softs)
    # record 0 is the uniform initialization: soft error exactly 1 - 1/r
    r = ds.schema.class_cardinality
    assert abs(trace.records[0].soft_err - (1 - 1 / r)) < 1e-12
    # recorded errors match independent re-evaluation of the recorded params
    for rec in trace.records[::4]:
        wrong = 0
        soft_sum = 0.0
        for k in range(ds.m):
            post = scalar_posterior(rec.params, ds.X[k])
            pred = max(range(len(post)), key=lambda i: (post[i], -i)) + 1
            wrong += int(pred != ds.y[k])
            soft_sum += 1.0 - post[ds.y[k] - 1]
        assert rec.err01 == wrong / ds.m
        assert abs(rec.soft_err - soft_sum / ds.m) < 1e-10


def test_rc_scores_its_history_as_per_iteration_evaluation(tmp_path):
    # One evaluate_many call over all iterates, across chunk boundaries, equals scoring each alone.
    rng = np.random.default_rng(14)
    ds = random_dataset(mixed_schema(3), 120, rng)
    trace = rc(ds, 0.05, 40, uniform_init(ds.schema, float(ds.m)))
    singles = [evaluate(rec.params, ds) for rec in trace.records]
    assert [rec.err01 for rec in trace.records] == [e for e, _ in singles]
    np.testing.assert_allclose([rec.soft_err for rec in trace.records], [s for _, s in singles], rtol=1e-13, atol=0)
    assert trace.best_index == int(np.argmin([s for _, s in singles]))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(t) for t, _, _ in rows] == list(range(41))
    assert [float(e) for _, _, e in rows] == [e for e, _ in singles]
    np.testing.assert_allclose([float(s) for _, s, _ in rows], [s for _, s in singles], rtol=1e-13, atol=0)


def test_rc_improves_on_separable_data():
    rng = np.random.default_rng(5)
    schema = FeatureSchema((Continuous(), Continuous()), 2)
    y = np.tile([1, 2], 200)
    X = rng.standard_normal((400, 2)) + np.where(y[:, None] == 1, -2.0, 2.0)
    ds = Dataset(schema, X, y)
    trace = rc(ds, 0.05, 30, uniform_init(schema, float(ds.m)))
    assert trace.final.err01 < 0.05
    assert trace.final.soft_err < trace.records[0].soft_err


def test_rc_deterministic():
    rng = np.random.default_rng(6)
    ds = random_dataset(mixed_schema(), 80, rng)
    a = rc(ds, 0.1, 8, uniform_init(ds.schema, 50.0))
    b = rc(ds, 0.1, 8, uniform_init(ds.schema, 50.0))
    assert np.array_equal(a.final.stats.values, b.final.stats.values)


def test_rc_validates_arguments():
    rng = np.random.default_rng(7)
    ds = random_dataset(mixed_schema(), 20, rng)
    init = uniform_init(ds.schema, 10.0)
    with pytest.raises(ValueError):
        rc(ds, 0.05, 0, init)
    with pytest.raises(ValueError):
        rc(ds, 0.0, 5, init)
    # Valid instances whose per-class sums of x^2 overflow.
    huge = Dataset(FeatureSchema((Continuous(),), 2), np.full((400, 1), 1e153), np.repeat([1, 2], 200))
    with pytest.raises(ValueError, match="not all finite"):
        rc(huge, 0.05, 3, uniform_init(huge.schema, 400.0))


def test_rc_trace_csv(tmp_path):
    rng = np.random.default_rng(8)
    ds = random_dataset(mixed_schema(), 40, rng)
    trace = rc(ds, 0.05, 3, uniform_init(ds.schema, 40.0))
    p = tmp_path / "trace.csv"
    trace.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,soft_err,err01"
    assert len(lines) == 5
    t, soft, err = lines[2].split(",")
    assert int(t) == 1
    assert float(soft) == trace.records[1].soft_err
    assert float(err) == trace.records[1].err01


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
