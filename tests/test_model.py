"""Statistics maps, parameter mapping, posteriors and evaluation."""
from __future__ import annotations

import re
import tracemalloc
import warnings
from math import exp, inf, log, pi

import numpy as np
import pytest

from conftest import (
    brute_force_prob_stats,
    mixed_schema,
    nb_params,
    random_dataset,
    random_params,
    scalar_posterior,
)
from riskcal.calibration import project, rc
from riskcal.data import Continuous, DataError, Dataset, Discrete, FeatureSchema, train_test_split, write_csv
from riskcal import model
from riskcal.model import (
    COUNT_FLOOR,
    VAR_FLOOR,
    NBParams,
    Scorer,
    StatsVector,
    _feature_map,
    _weights,
    evaluate_many,
    param_map,
    posterior_matrix,
    predict_matrix,
    prob_stat_map,
    stat_map_dataset,
    uniform_init,
    zero_stats,
)
from riskcal.network import RewireSchedule, full_graph
from riskcal.partition import SPLITTERS, global_sample, local_datasets, split_iid
from riskcal.sim import run_crc
from riskcal.synth import gaussian_blobs

TINY_SCHEMA = FeatureSchema((Discrete(3), Continuous()), 2)

# Dump keys on mixed_schema(3), in the order the dump format fixes: class rows,
# each with the class mass, the discrete cells, then the continuous pairs.
STATS_KEYS = """
ess
class[1] feature[1].count[1][1] feature[1].count[1][2] feature[1].count[1][3]
feature[3].count[1][1] feature[3].count[1][2]
feature[0].moment[1][1] feature[0].moment[1][2] feature[2].moment[1][1] feature[2].moment[1][2]
class[2] feature[1].count[2][1] feature[1].count[2][2] feature[1].count[2][3]
feature[3].count[2][1] feature[3].count[2][2]
feature[0].moment[2][1] feature[0].moment[2][2] feature[2].moment[2][1] feature[2].moment[2][2]
class[3] feature[1].count[3][1] feature[1].count[3][2] feature[1].count[3][3]
feature[3].count[3][1] feature[3].count[3][2]
feature[0].moment[3][1] feature[0].moment[3][2] feature[2].moment[3][1] feature[2].moment[3][2]
""".split()
PARAM_KEYS = """
class_prob[1] class_prob[2] class_prob[3]
feature[0].mean[1] feature[0].var[1] feature[0].mean[2] feature[0].var[2]
feature[0].mean[3] feature[0].var[3]
feature[1].prob[1][1] feature[1].prob[1][2] feature[1].prob[1][3]
feature[1].prob[2][1] feature[1].prob[2][2] feature[1].prob[2][3]
feature[1].prob[3][1] feature[1].prob[3][2] feature[1].prob[3][3]
feature[2].mean[1] feature[2].var[1] feature[2].mean[2] feature[2].var[2]
feature[2].mean[3] feature[2].var[3]
feature[3].prob[1][1] feature[3].prob[1][2]
feature[3].prob[2][1] feature[3].prob[2][2]
feature[3].prob[3][1] feature[3].prob[3][2]
""".split()


def stack_params(models) -> NBParams:
    """Single models stacked on a leading node axis."""
    return NBParams(models[0].schema, np.stack([p.theta for p in models]))


def test_stats_layout_length():
    # two class rows of: class mass, 3 cells, sums of x and x^2
    assert zero_stats(TINY_SCHEMA).values.shape == (2, 1 + 3 + 2)


def test_stat_map_dataset_of_one_row_hand_values():
    s = stat_map_dataset(Dataset(TINY_SCHEMA, [[2, 0.5]], [2]))
    assert s.ess == 1.0
    assert list(s.class_block) == [0.0, 1.0]
    disc = s.feature_block(0)
    assert disc[1, 1] == 1.0 and disc.sum() == 1.0
    cont = s.feature_block(1)
    assert list(cont[1]) == [0.5, 0.25]
    assert list(cont[0]) == [0.0, 0.0]
    assert list(s.values[1]) == [1.0, 0.0, 1.0, 0.0, 0.5, 0.25]  # class 2's row is Phi(x)
    assert list(s.values[0]) == [0.0] * 6


def test_stat_map_dataset_of_one_row_validates():
    with pytest.raises(DataError, match=r"label outside 1\.\.2"):
        stat_map_dataset(Dataset(TINY_SCHEMA, [[2, 0.5]], [3]))
    with pytest.raises(DataError, match=r"feature 0: code outside 1\.\.3"):
        stat_map_dataset(Dataset(TINY_SCHEMA, [[4, 0.5]], [1]))


def test_stat_map_dataset_is_sum_of_instances():
    rng = np.random.default_rng(0)
    ds = random_dataset(mixed_schema(3), 40, rng)
    total = zero_stats(ds.schema)
    for k in range(ds.m):
        total = total + stat_map_dataset(ds.subset([k]))
    batched = stat_map_dataset(ds)
    assert np.allclose(batched.values, total.values, rtol=0, atol=1e-10)
    assert batched.ess == ds.m


def test_stat_map_dataset_additive_over_concatenation():
    rng = np.random.default_rng(1)
    a = random_dataset(mixed_schema(), 25, rng)
    b = Dataset(a.schema, a.X + 0.0, a.y)  # same schema, reuse rows
    both = Dataset(a.schema, np.vstack([a.X, b.X]), np.concatenate([a.y, b.y]))
    lhs = stat_map_dataset(both)
    rhs = stat_map_dataset(a) + stat_map_dataset(b)
    assert np.allclose(lhs.values, rhs.values, rtol=1e-12, atol=1e-12)


def test_stat_map_dataset_empty_rejected():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, np.empty((0, 1)), np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        stat_map_dataset(ds)


def test_stats_vector_arithmetic_and_views():
    rng = np.random.default_rng(2)
    s = StatsVector(TINY_SCHEMA, rng.uniform(1, 2, (2, 6)))
    t = StatsVector(TINY_SCHEMA, rng.uniform(1, 2, (2, 6)))
    assert np.array_equal((s + t).values, s.values + t.values)
    assert np.array_equal((s - t).values, s.values - t.values)
    assert np.array_equal((2.0 * s).values, 2.0 * s.values)
    s.feature_block(0)[0, 0] = 99.0  # views write through
    assert 99.0 in s.values
    other = StatsVector(FeatureSchema((Discrete(2),), 2), np.ones((2, 3)))
    with pytest.raises(ValueError, match="schema mismatch"):
        s + other


def test_a_product_that_overflows_is_refused_by_name():
    # A finite scalar whose product overflows: a named refusal, with no numpy warning and no inf statistics.
    one = uniform_init(TINY_SCHEMA, 4.0)
    stack = StatsVector(TINY_SCHEMA, np.stack([one.values, 2.0 * one.values]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for product in (lambda: one * 1e308, lambda: 1e308 * one, lambda: -1e308 * one,
                        lambda: np.float64(1e308) * one, lambda: stack * 1e308):
            with pytest.raises(ValueError, match="^statistics are not all finite; feature sums overflowed"):
                product()
        assert np.array_equal((stack * 1e300).values, stack.values * 1e300)


def test_param_map_hand_values():
    s = zero_stats(TINY_SCHEMA)
    s.class_block[:] = [8.0, 8.0]
    s.feature_block(0)[:] = [[2.0, 6.0, 8.0], [4.0, 4.0, 8.0]]
    s.feature_block(1)[:] = [[12.0, 26.0], [0.0, 8.0]]
    p = param_map(s)
    # theta takes the statistics' columns: class probability, 3 cells, mu = 12/8 and var = 26/8 - 1.5^2 = 1.0
    assert np.array_equal(p.theta, [[0.5, 0.125, 0.375, 0.5, 1.5, 1.0], [0.5, 0.25, 0.25, 0.5, 0.0, 1.0]])
    assert np.array_equal(p.class_probs, [0.5, 0.5]) and np.array_equal(p.feature_params[1], [[1.5, 1.0], [0.0, 1.0]])
    assert all(np.shares_memory(view, p.theta) for view in (p.class_probs, *p.feature_params))


def test_param_map_floors_variance():
    s = zero_stats(FeatureSchema((Continuous(),), 2))
    s.class_block[:] = [2.0, 2.0]
    s.feature_block(0)[:] = [[2.0, 2.0], [0.0, 2.0]]  # row 0: mu=1, var=0
    p = param_map(s)
    assert p.feature_params[0][0, 1] == VAR_FLOOR


def test_param_map_rejects_unprojected():
    s = zero_stats(TINY_SCHEMA)
    s.class_block[:] = [1.0, 0.0]  # below the count floor
    s.feature_block(0)[:] = 1.0
    with pytest.raises(ValueError, match="project"):
        param_map(s)


def test_param_map_rejects_non_finite_statistics():
    # Every value passes validation, but the per-class sums of x^2 overflow.
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, np.full((400, 1), 1e153), np.repeat([1, 2], 200))
    with pytest.raises(ValueError, match="not all finite"):
        param_map(project(stat_map_dataset(ds)))
    nan_count = uniform_init(TINY_SCHEMA, 10.0)
    nan_count.class_block[0] = np.nan  # nan < COUNT_FLOOR is False
    inf_square = uniform_init(TINY_SCHEMA, 10.0)
    inf_square.feature_block(1)[0, 1] = np.inf
    for s in (nan_count, inf_square):
        with pytest.raises(ValueError, match="not all finite"):
            param_map(s)


def test_param_map_scaling_invariance():
    rng = np.random.default_rng(3)
    ds = random_dataset(mixed_schema(3), 60, rng)
    s = stat_map_dataset(ds)
    base = param_map(s)
    for c in (2.0, 1.0 / 3.0, 1000.0):
        assert np.allclose(param_map(c * s).theta, base.theta, rtol=1e-12, atol=1e-15)


def test_uniform_init_values_and_homogeneity():
    schema = mixed_schema(3)
    s = uniform_init(schema, 900.0)
    assert abs(s.ess - 900.0) < 1e-9
    p = param_map(s)
    assert np.allclose(p.class_probs, 1.0 / 3.0, rtol=1e-15, atol=0)
    for spec, block in zip(schema.features, p.feature_params):
        if isinstance(spec, Discrete):
            assert np.allclose(block, 1.0 / spec.cardinality, rtol=1e-15, atol=0)
        else:
            assert np.allclose(block[:, 0], 0.0, atol=0)
            assert np.allclose(block[:, 1], 1.0, rtol=1e-15)
    double = uniform_init(schema, 1800.0)
    assert np.allclose(double.values, (2.0 * s).values, rtol=1e-15, atol=0)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="m0 must be > 0 and finite"):
            uniform_init(schema, bad)


def test_uniform_init_posterior_uniform():
    rng = np.random.default_rng(4)
    for r in (2, 3, 5):
        schema = mixed_schema(r)
        params = param_map(uniform_init(schema, 123.0))
        X = random_dataset(schema, 50, rng).X
        P = posterior_matrix(params, X)
        assert np.max(np.abs(P - 1.0 / r)) < 1e-12


def test_parameters_that_do_not_fit_their_schema_are_refused():
    # theta holds per class row the class probability, 3 cells and a (mean, variance) pair: (2, 6).
    # Statistics are the same table and are checked alike: a raveled vector or one class row is refused.
    schema = FeatureSchema((Continuous(), Discrete(3)), 2)
    assert NBParams(schema, np.full((4, 2, 6), 0.5)).theta.shape == (4, 2, 6)
    assert StatsVector(schema, np.full((4, 2, 6), 0.5)).values.shape == (4, 2, 6)
    # A table is one node (r, w) or one stack of nodes (n, r, w): a second node axis is refused too.
    for shape in [(2, 5), (2, 7), (3, 6), (6,), (12,), (4, 2, 5), (1, 6), (3, 12), (2, 4, 2, 6), (1, 1, 2, 6)]:
        for make, what in [(NBParams, "parameters"), (StatsVector, "statistics")]:
            want = f"expected {what} of shape (2, 6) or (n, 2, 6), got {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                make(schema, np.full(shape, 0.5))
    with pytest.raises(ValueError):  # one block for two features
        nb_params(schema, np.array([0.5, 0.5]), (np.array([[0.0, 1.0], [0.0, 1.0]]),))


def test_posterior_frozen_two_gaussians():
    # priors 1/2, mu = -1 and +1, var = 1, x = 1: p(class 2) = 1/(1+e^-2)
    schema = FeatureSchema((Continuous(),), 2)
    params = nb_params(schema, np.array([0.5, 0.5]), (np.array([[-1.0, 1.0], [1.0, 1.0]]),))
    p = posterior_matrix(params, [[1.0]])[0]
    expected = 1.0 / (1.0 + exp(-2.0))
    assert expected == 0.8807970779778823
    assert abs(p[1] - expected) < 1e-14
    assert abs(p.sum() - 1.0) < 1e-15


def test_posterior_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        schema = mixed_schema(int(rng.integers(2, 4)))
        params = random_params(schema, rng)
        x = random_dataset(schema, 8, rng).X[0]
        got = posterior_matrix(params, [x])[0]
        want = scalar_posterior(params, x)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_posterior_normalized_and_finite_in_far_tail():
    schema = FeatureSchema((Continuous(),), 2)
    params = nb_params(schema, np.array([0.5, 0.5]), (np.array([[-1.0, 1.0], [1.0, 1.0]]),))
    P = posterior_matrix(params, [[1e3], [-1e3], [0.0]])
    assert np.all(np.isfinite(P))
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert P[0, 1] == 1.0  # far tail saturates exactly
    assert P[1, 0] == 1.0


def test_posterior_exact_zero_probability():
    # a categorical zero must zero the posterior exactly, not approximately
    schema = FeatureSchema((Discrete(2),), 2)
    params = nb_params(schema, np.array([0.5, 0.5]), (np.array([[1.0, 0.0], [0.5, 0.5]]),))
    p = posterior_matrix(params, [[2]])[0]
    assert p[0] == 0.0 and p[1] == 1.0


def test_predict_tie_breaks_to_lowest_class():
    schema = FeatureSchema((Discrete(2),), 3)
    table = np.full((3, 2), 0.5)
    params = nb_params(schema, np.array([1 / 3, 1 / 3, 1 / 3]), (table,))
    assert predict_matrix(params, [[1]])[0] == 1
    assert list(predict_matrix(params, [[1], [2]])) == [1, 1]


def test_prob_stat_map_exact_rational_oracle():
    rng = np.random.default_rng(6)
    schema = FeatureSchema((Discrete(3), Discrete(2)), 3)
    params = random_params(schema, rng)
    X = np.column_stack([rng.integers(1, 4, 20), rng.integers(1, 3, 20)]).astype(float)
    got = prob_stat_map(X, params)
    want = brute_force_prob_stats(params, X, exact=True)
    assert np.max(np.abs(got.values.ravel() - want)) < 1e-12
    assert abs(got.ess - 20.0) < 1e-12


def assert_scalar_oracle(got, params, X):
    """One node's statistics table ``got`` against the scalar oracle's flat vector."""
    got, want = got.ravel(), brute_force_prob_stats(params, X, exact=False)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12


def test_prob_stat_map_mixed_scalar_oracle():
    # Training shifts each node's rows by their mean: far-off and wide features must train as near ones.
    schema = mixed_schema(2)
    for scale, shift in [(1.0, 0.0), (100.0, 0.0), (1.0, 1000.0), (1e4, 1e5)]:
        rng = np.random.default_rng(7)
        X = affine_dataset(schema, 30, rng, scale, shift).X
        for params in affine_models(schema, 3, rng, scale, shift):  # a zero class prior; zero cells; none
            assert_scalar_oracle(prob_stat_map(X, params).values, params, X)


def test_prob_stat_map_shifts_each_node_by_its_own_mean():
    # One shift for both nodes would leave node 2's rows 5e4 off it, and its log joint differences
    # to cancellation at 2.5e9; each node's own mean keeps both at unit scale.
    rng = np.random.default_rng(8)
    schema = mixed_schema(2)
    X = np.stack([affine_dataset(schema, 30, rng, 1.0, shift).X for shift in (0.0, 1e5)])
    models = [affine_models(schema, 2, rng, 1.0, shift)[1] for shift in (0.0, 1e5)]
    got = prob_stat_map(X, stack_params(models))
    for v, params in enumerate(models):
        assert_scalar_oracle(got.values[v], params, X[v])


def wide_class_model(schema, rng):
    """Random parameters whose class 2 gives feature 0 a standard deviation of 1e9."""
    params = random_params(schema, rng)
    blocks = list(params.feature_params)
    blocks[0] = np.array([blocks[0][0], [0.0, 1e18]])
    return nb_params(schema, params.class_probs, blocks)


@pytest.mark.parametrize("outlier", [1e6, 1e8, 1e9])
def test_rows_far_from_their_shift_train_and_score_as_near_ones(outlier):
    # One row at 1e9 among unit-scale rows puts their mean c near 1e8, so the other rows' terms
    # (x - c)^2 / var reach 1e16 and cancel to O(1); they are formed again, shifted by themselves.
    # The wide class keeps every density within the scalar oracle's range.
    rng = np.random.default_rng(9)
    schema = mixed_schema(2)
    models = [wide_class_model(schema, rng) for _ in range(2)]
    node, other = (random_dataset(schema, 10, rng) for _ in range(2))
    node.X[0, 0] = outlier
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prob_stat_map(np.stack([node.X, other.X]), stack_params(models))  # one node far, one near
        post = posterior_matrix(models[0], node.X)
        err01, soft = evaluate_many(models, node)
    for v, ds in enumerate((node, other)):
        assert_scalar_oracle(got.values[v], models[v], ds.X)
    np.testing.assert_allclose(post, [scalar_posterior(models[0], x) for x in node.X], rtol=0, atol=1e-14)
    want01, want_soft, _, _ = oracle_errors(models, node)
    assert np.array_equal(err01, want01)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-12, atol=0)


def test_rows_whose_terms_cancel_below_overflow_are_formed_again():
    # Nine rows near two unit-variance classes and one at 1e5 put c near 1e4: the near rows' terms reach
    # about 1e8 against a log joint of O(1), a ratio far above _CANCEL (2^10) that a GEMM would round to
    # about 1e-8, yet far below 2^40.  Formed again, shifted by themselves, they match the scalar oracle.
    schema = FeatureSchema((Continuous(),), 2)
    params = nb_params(schema, np.array([0.5, 0.5]), (np.array([[0.0, 1.0], [1.0, 1.0]]),))
    X = np.array([[-1.0], [-0.5], [0.0], [0.25], [0.5], [0.75], [1.0], [1.5], [2.0], [1e5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = posterior_matrix(params, X)
    want = np.array([scalar_posterior(params, x) for x in X[:-1]])
    np.testing.assert_allclose(post[:-1], want, rtol=1e-12, atol=0)
    assert post[-1].tolist() == [0.0, 1.0]


def test_rows_whose_terms_exceed_the_cancel_bound_less_than_twofold_are_formed_again():
    # Rows in [-0.5, 1.5] under unit-variance classes at 0 and 1, and one far row that puts their mean c at 42:
    # each row's terms sum to 1215 to 1352 times 1 + |L| under its looser class, above _CANCEL (2^10) but below
    # 2^11, and to less than 2^10 (2 + |L|) under both.  A GEMM leaves their posteriors about 2e-14 off; formed
    # again, shifted by themselves, they match the scalar oracle to 2e-15.
    schema = FeatureSchema((Continuous(),), 2)
    params = nb_params(schema, np.array([0.5, 0.5]), (np.array([[0.0, 1.0], [1.0, 1.0]]),))
    near = np.linspace(-0.5, 1.5, 201)
    X = np.r_[near, 42.0 * (len(near) + 1) - near.sum()][:, None]
    mu, x, c = np.array([[0.0], [1.0]]), near[None, :], X.mean()
    L = log(0.5) - 0.5 * (log(2 * pi) + (x - mu) ** 2)
    terms = abs(log(0.5) - 0.5 * (log(2 * pi) + (mu - c) ** 2)) + abs((mu - c) * (x - c)) + 0.5 * (x - c) ** 2
    ratio = (terms / (1.0 + abs(L))).max(axis=0)
    assert 2**10 < ratio.min() and ratio.max() <= 2**11 and (terms <= 2**10 * (2.0 + abs(L))).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = posterior_matrix(params, X)
    want = np.array([scalar_posterior(params, [v]) for v in near])
    np.testing.assert_allclose(post[:-1], want, rtol=0, atol=2e-15)


def test_rows_whose_shifted_square_overflows_are_formed_again():
    # Validation admits |x| <= sqrt(max).  One row at a = 0.9 sqrt(max) and nine at -a have the mean
    # c = -0.8 a, so (x - c)^2 overflows for the first row, though every (x - mu)^2 is finite.
    schema = FeatureSchema((Continuous(),), 2)
    params = nb_params(schema, np.array([0.4, 0.6]), (np.array([[0.0, 1e306], [0.0, 1.2e306]]),))
    a = 0.9 * np.sqrt(np.finfo(np.float64).max)
    ds = Dataset(schema, np.array([[a]] + [[-a]] * 9), np.array([1, 2] * 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = posterior_matrix(params, ds.X)
        pred = predict_matrix(params, ds.X)
        err01, soft = evaluate_many([params], ds)
    want = np.array([scalar_posterior(params, x) for x in ds.X])
    assert 1e-6 < want[0, 0] < 1e-5  # not a 0/1 posterior
    np.testing.assert_allclose(post, want, rtol=1e-12, atol=0)
    assert np.array_equal(pred, np.full(10, 2))
    assert err01[0] == 0.5
    np.testing.assert_allclose(soft, 1.0 - want[np.arange(10), ds.y - 1].mean(), rtol=1e-12, atol=0)


def test_prob_stat_map_point_mass_equals_labelled_stats():
    # when the model is certain, expected statistics equal labelled ones
    schema = FeatureSchema((Continuous(),), 2)
    params = nb_params(schema, np.array([0.5, 0.5]), (np.array([[-50.0, 1.0], [50.0, 1.0]]),))
    X = np.array([[-50.0], [50.0], [-49.0]])
    labels = predict_matrix(params, X)
    ds = Dataset(schema, X, labels)
    assert np.array_equal(prob_stat_map(X, params).values, stat_map_dataset(ds).values)


def test_evaluate_against_enumeration_oracle():
    rng = np.random.default_rng(8)
    schema = mixed_schema(3)
    params = random_params(schema, rng)
    ds = random_dataset(schema, 50, rng)
    (err01,), (soft,) = evaluate_many([params], ds)
    wrong = 0
    soft_sum = 0.0
    for k in range(ds.m):
        post = scalar_posterior(params, ds.X[k])
        pred = max(range(len(post)), key=lambda i: (post[i], -i)) + 1
        wrong += int(pred != ds.y[k])
        soft_sum += 1.0 - post[ds.y[k] - 1]
    assert err01 == wrong / ds.m
    assert abs(soft - soft_sum / ds.m) < 1e-12


def test_evaluate_many_matches_singles_across_chunks(monkeypatch):
    rng = np.random.default_rng(9)
    schema = mixed_schema(2)
    ds = random_dataset(schema, 40, rng)
    assert few_per_pass(monkeypatch, [ds], 64) == 64
    models = [random_params(schema, rng) for _ in range(130)]  # crosses two pass boundaries
    err01, soft = evaluate_many(models, ds)
    for k in (0, 63, 64, 100, 129):
        (e,), (s,) = evaluate_many([models[k]], ds)
        assert err01[k] == e
        # batch shape may change the summation order by an ulp
        assert abs(soft[k] - s) < 1e-13 * max(s, 1.0)
    # The same models stacked on a node axis: a sequence of views, scored bit for bit alike.
    stacked = stack_params(models)
    assert len(stacked) == 130 and len(stacked[60:70]) == 10
    for k in (0, 64, 129):
        view = stacked[k]
        assert np.shares_memory(view.theta, stacked.theta)
        assert np.array_equal(view.theta, models[k].theta)
    got01, got_soft = evaluate_many(stacked, ds)
    assert np.array_equal(got01, err01) and np.array_equal(got_soft, soft)
    with pytest.raises(TypeError):
        len(models[0])


def few_per_pass(monkeypatch, datasets, models=4):
    """Shrink the cell budget so that a Scorer of ``datasets`` holds ``models`` models per pass; its pass width."""
    r, rows = datasets[0].schema.class_cardinality, sum(ds.m for ds in datasets)
    monkeypatch.setattr(model, "_EVAL_CELLS", models * r * rows)
    return Scorer(datasets).pass_width


def test_evaluate_many_ties_and_zero_probabilities_against_oracle(monkeypatch):
    # Classes that share every parameter tie exactly; zero cells give -inf log joints.
    rng = np.random.default_rng(12)
    schema = FeatureSchema((Discrete(3), Continuous(), Discrete(2)), 3)
    ds = random_dataset(schema, 60, rng)

    def profile(with_zero):
        """One class's prior weight and feature blocks."""
        t1, t2 = rng.uniform(0.2, 1.0, 3), rng.uniform(0.2, 1.0, 2)
        if with_zero:
            t1[rng.integers(3)] = 0.0
        gauss = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)])
        return rng.uniform(0.5, 1.0), t1 / t1.sum(), gauss, t2 / t2.sum()

    models, width = [], few_per_pass(monkeypatch, [ds])
    for k in range(2 * width + 3):  # crosses two pass boundaries
        zeroed, positive = profile(True), profile(False)
        classes = [(zeroed, positive, zeroed), (positive, zeroed, zeroed),
                   (zeroed, zeroed, positive), (positive,) * 3][k % 4]
        w = np.array([c[0] for c in classes])
        models.append(nb_params(schema, w / w.sum(), tuple(np.array([c[i] for c in classes]) for i in (1, 2, 3))))
    wrong, soft_sum = np.zeros(len(models)), np.zeros(len(models))
    ties = zeros = 0
    for k, params in enumerate(models):
        for x, y in zip(ds.X, ds.y):
            post = scalar_posterior(params, x)
            pred = post.index(max(post)) + 1  # the lowest of tied classes, as np.argmax
            ties += post.count(max(post)) > 1
            zeros += 0.0 in post
            wrong[k] += pred != y
            soft_sum[k] += 1.0 - post[y - 1]
    assert ties and zeros
    err01, soft = evaluate_many(models, ds)
    assert np.array_equal(err01, wrong / ds.m)
    np.testing.assert_allclose(soft, soft_sum / ds.m, rtol=0, atol=1e-13)
    got01, got_soft = evaluate_many(stack_params(models), ds)
    assert np.array_equal(got01, err01) and np.array_equal(got_soft, soft)


def affine_models(schema, count, rng, scale, shift):
    """Models with exact class ties, zero cells and zero class priors, continuous features at scale * x + shift.

    Classes that share a profile tie exactly.  In every model one class,
    or all of them, has no zero cell, so no instance is impossible; every
    fifth model gives a class prior zero, never that class's alone.
    """
    r = schema.class_cardinality

    def profile(with_zero):
        blocks = []
        for spec in schema.features:
            if isinstance(spec, Discrete):
                t = rng.uniform(0.2, 1.0, spec.cardinality)
                if with_zero:
                    t[rng.integers(spec.cardinality)] = 0.0
                blocks.append(t / t.sum())
            else:
                blocks.append(np.array([scale * rng.uniform(-1.0, 1.0) + shift, scale**2 * rng.uniform(0.5, 2.0)]))
        return rng.uniform(0.5, 1.0), blocks

    models = []
    for k in range(count):
        zeroed, positive = profile(True), profile(False)
        classes = [positive if k % (r + 1) in (y, r) else zeroed for y in range(r)]
        w = np.array([c[0] for c in classes])
        if k % 5 == 0:
            w[(k + 1) % (r + 1) % r] = 0.0
        blocks = tuple(np.array([c[1][i] for c in classes]) for i in range(schema.d))
        models.append(nb_params(schema, w / w.sum(), blocks))
    return models


def affine_dataset(schema, m, rng, scale, shift):
    ds = random_dataset(schema, m, rng)
    X = ds.X.copy()
    cont = [i for i, spec in enumerate(schema.features) if not isinstance(spec, Discrete)]
    X[:, cont] = scale * X[:, cont] + shift
    return Dataset(schema, X, ds.y)


def oracle_errors(models, ds):
    """Per-model 0-1 and soft errors from scalar_posterior, ties to the lowest class.

    Also counts the rows whose top classes tie and those with a zero posterior.
    """
    err01, soft = np.zeros(len(models)), np.zeros(len(models))
    ties = zeros = 0
    for k, params in enumerate(models):
        for x, y in zip(ds.X, ds.y):
            post = scalar_posterior(params, x)
            err01[k] += post.index(max(post)) + 1 != y
            soft[k] += 1.0 - post[y - 1]
            ties += post.count(max(post)) > 1
            zeros += 0.0 in post
    return err01 / ds.m, soft / ds.m, ties, zeros


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1.0, 1000.0), (1e4, 1e5)])
@pytest.mark.parametrize("schema", [mixed_schema(3), FeatureSchema((Continuous(), Continuous()), 2),
                                    FeatureSchema((Discrete(3), Discrete(2)), 3)],
                         ids=["mixed_r3", "continuous", "discrete"])
def test_scoring_gemm_against_scalar_oracle(schema, scale, shift, monkeypatch):
    # The scoring log joint shifts the rows by their mean: far-off and wide features must score as near ones.
    # With no continuous feature the shift is empty and every weight is a log theta or log prior.
    rng = np.random.default_rng(21)
    ds = affine_dataset(schema, 60, rng, scale, shift)
    width = few_per_pass(monkeypatch, [ds])
    for count in (width, 2 * width + 1):  # a full pass; two pass boundaries
        models = affine_models(schema, count, rng, scale, shift)
        want01, want_soft, ties, zeros = oracle_errors(models, ds)
        assert ties and zeros
        err01, soft = evaluate_many(models, ds)
        assert np.array_equal(err01, want01)
        np.testing.assert_allclose(soft, want_soft, rtol=1e-12, atol=0)


def test_a_pass_holds_one_model_when_its_log_joint_exceeds_the_cell_budget(monkeypatch):
    # r * M > _EVAL_CELLS: each pass holds one whole model, and scores as a pass of many does.
    rng = np.random.default_rng(23)
    schema = mixed_schema(3)
    ds = affine_dataset(schema, 60, rng, 1.0, 0.0)
    models = affine_models(schema, 7, rng, 1.0, 0.0)
    want01, want_soft, ties, zeros = oracle_errors(models, ds)
    assert ties and zeros
    wide01, wide_soft = evaluate_many(models, ds)
    monkeypatch.setattr(model, "_EVAL_CELLS", 3 * ds.m - 1)
    assert Scorer([ds]).pass_width == 1
    err01, soft = evaluate_many(models, ds)
    assert np.array_equal(err01, want01) and np.array_equal(err01, wide01)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-12, atol=0)
    np.testing.assert_allclose(soft, wide_soft, rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1e4, 1e5)])
def test_pooled_scorer_matches_separate_calls(scale, shift, monkeypatch):
    # Passes of 4 pooled models, 5 on the train rows alone and 13 on the test rows: scores do not depend on them.
    rng = np.random.default_rng(22)
    schema = mixed_schema(3)
    train, test = (affine_dataset(schema, m, rng, scale, shift) for m in (70, 30))
    given = train.X.tobytes(), test.X.tobytes()
    width = few_per_pass(monkeypatch, [train, test])
    models = stack_params(affine_models(schema, 2 * width + 3, rng, scale, shift))
    (train01, test01), train_soft = Scorer([train, test])(models)
    want01, want_soft = evaluate_many(models, train)
    assert np.array_equal(train01, want01)
    assert np.array_equal(test01, evaluate_many(models, test)[0])
    np.testing.assert_allclose(train_soft, want_soft, rtol=1e-13, atol=0)
    # The scoring rows are shifted copies: the caller's rows keep every bit.
    assert (train.X.tobytes(), test.X.tobytes()) == given


def test_reused_scorer_keeps_no_state_between_calls(monkeypatch):
    # A round's scorer is called every round: each call must score as a fresh one-shot call,
    # and must not touch the arrays earlier calls returned, which RoundMetrics keep.
    rng = np.random.default_rng(24)
    schema = mixed_schema(3)
    train, test = (random_dataset(schema, m, rng) for m in (70, 30))
    width = few_per_pass(monkeypatch, [train, test])
    first = stack_params(affine_models(schema, 2 * width + 3, rng, 1.0, 0.0))
    stacks = [
        first,
        stack_params([random_params(schema, rng) for _ in range(5)]),
        stack_params(affine_models(schema, 5, rng, 1.0, 0.0)),  # a zero class prior, zero cells; same size
        first,
    ]
    assert (stacks[2].class_probs == 0).any() and (stacks[2].feature_params[1] == 0).any()
    pooled, alone = Scorer([train, test]), Scorer([train])
    returned, copies = [], []
    for models in stacks:
        ((train01, test01), train_soft), ((alone01,), alone_soft) = pooled(models), alone(models)
        (want01, want_test01), want_soft = Scorer([train, test])(models)  # a one-shot scorer
        assert np.array_equal(train01, want01) and np.array_equal(test01, want_test01)
        assert np.array_equal(train_soft, want_soft)
        want01, want_soft = evaluate_many(models, train)
        assert np.array_equal(alone01, want01) and np.array_equal(alone_soft, want_soft)
        returned.append((train01, test01, train_soft, alone01, alone_soft))
        copies.append([a.copy() for a in returned[-1]])
    for arrays, saved in zip(returned, copies):
        for a, b in zip(arrays, saved):
            assert np.array_equal(a, b)


def test_reused_scorer_allocates_less_than_one_log_joint():
    # The scorer's work buffers hold a pass's log joint: a call allocates little besides its results and weights.
    rng = np.random.default_rng(25)
    schema = mixed_schema(2)
    train, test = (random_dataset(schema, m, rng) for m in (2500, 1000))
    models = stack_params([random_params(schema, rng) for _ in range(50)])
    scorer = Scorer([train, test])
    one_log_joint = scorer.pass_width * schema.class_cardinality * (train.m + test.m) * 8
    tracemalloc.start()
    try:
        scorer(models)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        scorer(models)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < one_log_joint


def gemm_reference(models, datasets, width):
    """0-1 and soft errors read off the scoring GEMM's log joint L, ``width`` models per GEMM, in table order.

    Errors are the argmax and softmax of L.
    Ties go to the lowest class, as with np.argmax; soft errors are
    1 - exp(L_y - top) / sum_c exp(L_c - top) on the first dataset.  Also
    counts the rows whose top classes tie.  A GEMM may round bitwise equal
    weight rows apart, by kernel or thread count, so each class row takes
    the product of its model's lowest class row with the same bytes.
    """
    fm, (K, r) = _feature_map(models.schema), models.theta.shape[:2]
    X = np.concatenate([ds.X for ds in datasets])
    y0 = np.concatenate([ds.y for ds in datasets]) - 1
    c = X[:, fm.cont].mean(axis=0)
    phiT = np.ascontiguousarray(fm.phi(X, c).T)
    L = np.empty((K, r, len(X)))
    for lo in range(0, K, width):
        W, zero = _weights(models[lo : lo + width], c)
        W, zero = W.reshape(-1, W.shape[-1]), zero.reshape(-1, W.shape[-1])
        chunk = W @ phiT
        for j in range(len(W)):
            chunk[j] = chunk[next(i for i in range(j - j % r, j + 1) if W[i].tobytes() == W[j].tobytes())]
        chunk[zero.astype(np.float64) @ phiT > 0] = -np.inf
        L[lo : lo + width] = chunk.reshape(-1, r, len(X))
    top = L.max(axis=1, keepdims=True)
    wrong = L.argmax(axis=1) != y0
    bounds = np.cumsum([0] + [ds.m for ds in datasets])
    err01 = np.array([wrong[:, a:b].mean(axis=1) for a, b in zip(bounds, bounds[1:])])
    m = datasets[0].m
    z = np.exp(L[..., :m] - top[..., :m])
    soft = (1.0 - np.take_along_axis(z, y0[None, None, :m], axis=1)[:, 0] / z.sum(axis=1)).mean(axis=1)
    return err01, soft, int(((L == top).sum(axis=1) > 1).sum())


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("schema", [lambda r: FeatureSchema((Discrete(3), Discrete(2)), r),
                                    lambda r: FeatureSchema((Continuous(), Continuous()), r), mixed_schema],
                         ids=["discrete", "continuous", "mixed"])
def test_scorer_is_the_argmax_and_softmax_of_the_scoring_gemm(schema, r, monkeypatch):
    # Scoring from true-class differences must give the argmax's 0-1 errors bit for bit, exact ties
    # included: uniform_init's model ties every class, and classes sharing a profile tie, so the lowest
    # tied class wins whether or not it is the true one.
    rng = np.random.default_rng(26)
    schema = schema(r)
    train, test = (random_dataset(schema, m, rng) for m in (70, 30))
    width = few_per_pass(monkeypatch, [train, test])
    models = stack_params([param_map(uniform_init(schema, 10.0)),
                           *affine_models(schema, 2 * width, rng, 1.0, 0.0),
                           *(random_params(schema, rng) for _ in range(3))])
    want01, want_soft, ties = gemm_reference(models, [train, test], width)
    assert ties > train.m + test.m  # every row of the uniform model, and more
    err01, soft = Scorer([train, test])(models)
    assert np.array_equal(err01, want01)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-13, atol=0)


def test_scores_do_not_depend_on_row_order_within_a_dataset(monkeypatch):
    # Rows are grouped by class inside the scorer: a shuffled table must score alike.
    rng = np.random.default_rng(27)
    schema = mixed_schema(3)
    train, test = (random_dataset(schema, m, rng) for m in (70, 30))
    models = stack_params(affine_models(schema, 2 * few_per_pass(monkeypatch, [train, test]) + 3, rng, 1.0, 0.0))
    err01, soft = Scorer([train, test])(models)
    shuffled = [Dataset(schema, ds.X[p], ds.y[p]) for ds in (train, test) for p in [rng.permutation(ds.m)]]
    got01, got_soft = Scorer(shuffled)(models)
    assert np.array_equal(got01, err01)
    np.testing.assert_allclose(got_soft, soft, rtol=1e-13, atol=0)


def tied_models(schema, count, rng):
    """A stack of models with no zero weight, each class taking one of two rows: classes sharing a row tie exactly."""
    r = schema.class_cardinality
    patterns = [[(k >> y) & 1 for y in range(r)] for k in range(2**r)]  # every split of the classes in two
    return stack_params([NBParams(schema, random_params(schema, rng).theta[:2][patterns[k % 2**r]])
                         for k in range(count)])


@pytest.mark.parametrize("r", [2, 3])
def test_exact_ties_on_a_later_dataset_go_to_the_lower_class(r, monkeypatch):
    # With no -inf weight, a dataset after the first compares log joints that tie exactly: a true class tied
    # with a lower class is wrong, tied with a higher one right, as in the argmax of the scoring GEMM.
    rng = np.random.default_rng(28)
    schema = FeatureSchema((Discrete(3), Discrete(2), Continuous()), r)
    train, test = (random_dataset(schema, m, rng) for m in (40, 60))
    width = few_per_pass(monkeypatch, [train, test])
    models = tied_models(schema, 2 * width + 3, rng)  # two pass boundaries
    assert (models.theta[..., : _feature_map(schema).moments] > 0).all()  # no pass is masked
    want01, want_soft, _ = gemm_reference(models, [train, test], width)
    assert gemm_reference(models, [test], width)[2] > test.m  # the test rows tie often
    err01, soft = Scorer([train, test])(models)
    assert np.array_equal(err01, want01)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-13, atol=0)


def test_a_masked_pass_compares_the_log_joints_of_a_later_dataset(monkeypatch):
    # Zero cells and zero priors in the second of three passes give -inf log joints on both datasets, compared
    # as they are: a masked true class is wrong and a masked other class never wins, between passes that have
    # no mask.
    rng = np.random.default_rng(29)
    schema = mixed_schema(3)
    train, test = (random_dataset(schema, m, rng) for m in (40, 60))
    width = few_per_pass(monkeypatch, [train, test])
    positive, zeroed = [random_params(schema, rng) for _ in range(width + 3)], affine_models(schema, width, rng, 1.0, 0.0)
    post = posterior_matrix(stack_params(zeroed), test.X)
    assert (np.take_along_axis(post, test.y[None, :, None] - 1, axis=2) == 0).sum() > test.m  # masked true classes
    models = stack_params(positive[:width] + zeroed + positive[width:])
    want01, want_soft, _ = gemm_reference(models, [train, test], width)
    err01, soft = Scorer([train, test])(models)
    assert np.array_equal(err01, want01)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-13, atol=0)


def test_only_a_pass_holding_an_unsound_model_looks_for_cancelling_terms(monkeypatch):
    # Soundness is judged per pass, from that pass's models: one model whose terms may cancel (variance 1e-4,
    # so sum |W| phi_max > _CANCEL) sends its pass alone through _reform, and every pass scores as the oracle.
    rng = np.random.default_rng(30)
    schema = mixed_schema(2)
    train, test = (random_dataset(schema, m, rng) for m in (40, 60))
    width = few_per_pass(monkeypatch, [train, test])
    models = stack_params([random_params(schema, rng) for _ in range(2 * width + 3)])
    models.theta[width + 1, 1, _feature_map(schema).blocks[0].stop - 1] = 1e-4  # a variance of feature 0
    calls, reform = [], model._Rows._reform
    monkeypatch.setattr(model._Rows, "_reform", lambda self, pass_, *rest: calls.append(len(pass_)) or reform(
        self, pass_, *rest))
    err01, soft = Scorer([train, test])(models)
    assert calls == [width]
    models = [models[k] for k in range(len(models))]
    for got, ds in zip(err01, (train, test)):
        assert np.array_equal(got, oracle_errors(models, ds)[0])
    np.testing.assert_allclose(soft, oracle_errors(models, train)[1], rtol=1e-12, atol=0)


def test_a_scorer_of_three_datasets_is_the_scoring_gemm(monkeypatch):
    # Masked and unmasked passes over three datasets: each compares its log joints, -inf included, and the
    # second and third score as they do alone.
    rng = np.random.default_rng(31)
    schema = mixed_schema(3)
    datasets = [random_dataset(schema, m, rng) for m in (40, 25, 35)]
    width = few_per_pass(monkeypatch, datasets)
    models = stack_params([param_map(uniform_init(schema, 10.0)),
                           *affine_models(schema, width, rng, 1.0, 0.0),
                           *(random_params(schema, rng) for _ in range(width + 3))])
    want01, want_soft, ties = gemm_reference(models, datasets, width)
    assert ties > sum(ds.m for ds in datasets)
    err01, soft = Scorer(datasets)(models)
    assert err01.shape == (3, len(models)) and np.array_equal(err01, want01)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-13, atol=0)
    for got, ds in zip(err01[1:], datasets[1:]):
        assert np.array_equal(got, evaluate_many(models, ds)[0])


@pytest.mark.parametrize("r", [2, 3])
def test_a_true_class_far_below_another_scores_soft_error_one(r):
    # Means -5, 5 (and 0), variance 0.01: a row at another class's mean has a log joint at least
    # 1250 below it, so exp(L_c - L_y) overflows to inf: posterior 0, with no RuntimeWarning.
    schema = FeatureSchema((Continuous(),), r)
    params = nb_params(schema, np.full(r, 1.0 / r), (np.column_stack([[-5.0, 5.0, 0.0][:r], np.full(r, 0.01)]),))
    far = Dataset(schema, np.array([[5.0], [-5.0]]), np.array([1, 2]))  # each row at the other class's mean
    near = Dataset(schema, np.array([[-5.0], [5.0]]), np.array([1, 2]))
    mixed = Dataset(schema, np.array([[5.0], [5.0]]), np.array([1, 2]))  # one far row, one near row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (far01, near01), far_soft = Scorer([far, near])([params])
        (near01_first, far01_test), near_soft = Scorer([near, far])([params])
        (mixed01,), mixed_soft = Scorer([mixed])([params])
    assert far01[0] == far01_test[0] == 1.0 and near01[0] == near01_first[0] == 0.0
    assert far_soft[0] == 1.0 and near_soft[0] == 0.0
    assert mixed01[0] == 0.5 and mixed_soft[0] == 0.5  # the far row's soft error is exactly 1


def test_a_log_joint_overflowing_in_the_gemm_scores_as_a_zero_probability():
    # Rows at +-1e153 (so c stays near 0): (x - c)^2 / (2 var) overflows to -inf under classes 1 and 2
    # (variance 1e-6) with no zero weight, and is finite under class 3.  Such a class loses, and a row
    # where every class overflows is refused.
    schema = FeatureSchema((Continuous(),), 3)
    params = nb_params(schema, np.full(3, 1.0 / 3), (np.array([[0.0, 1e-6], [0.0, 1e-6], [0.0, 1.0]]),))
    train = Dataset(schema, np.array([[-1.0], [1e153], [0.5]]), np.array([2, 1, 3]))
    test = Dataset(schema, np.array([[-1e153], [1.0], [-1.0]]), np.array([3, 3, 2]))
    with warnings.catch_warnings(), np.errstate(over="ignore"):  # the GEMM's overflow warns
        warnings.simplefilter("error")
        want01, want_soft, _ = gemm_reference(stack_params([params]), [train, test], 1)
        err01, soft = Scorer([train, test])([params])
        narrow = nb_params(schema, params.class_probs, (np.array([[0.0, 1e-6]] * 3),))
        with pytest.raises(ValueError, match="row 1 has probability zero under every class of model 1;"):
            Scorer([train, test])([params, narrow])
    assert np.array_equal(err01, want01) and np.array_equal(err01, [[2 / 3], [1 / 3]])
    np.testing.assert_allclose(soft, want_soft, rtol=1e-13, atol=0)


def test_bare_log_joint_calls_keep_their_own_error_state():
    # The rows of the test above, overflowing the weights' bound and the GEMM: weigh and log_joint, called
    # with no error state of the caller's, warn of neither, and refuse an impossible row by the caller's numbering.
    schema = FeatureSchema((Continuous(),), 3)
    params = nb_params(schema, np.full(3, 1.0 / 3), (np.array([[0.0, 1e-6], [0.0, 1e-6], [0.0, 1.0]]),))
    narrow = nb_params(schema, params.class_probs, (np.array([[0.0, 1e-6]] * 3),))
    rows = model._Rows(schema, np.array([[-1.0], [1e153], [0.5], [-1e153], [1.0], [-1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = rows.weigh(params)[2]
        logj, mask = rows.log_joint(params)
        with pytest.raises(ValueError, match="row 1 has probability zero under every class;"):
            rows.log_joint(narrow)
        with pytest.raises(ValueError, match="row 1 has probability zero under every class of model 6;"):
            rows.log_joint(stack_params([params, narrow]), first=5)
    assert bound == inf
    assert np.array_equal(mask, [[False, True, False, True, False, False]] * 2 + [[False] * 6])
    assert np.isfinite(logj[~mask]).all() and np.array_equal(logj[mask], [-inf] * 4)
    np.testing.assert_allclose(logj[2, [1, 3]], -5e305, rtol=1e-15, atol=0)  # class 3 formed again


def test_a_class_constant_that_overflows_is_a_silent_zero_probability():
    # The row [1e154, 1e154] passes validation.  Alone it is its own shift c, so class 1's constant
    # holds 1/2 sum (mu - x)^2 / var > float max: a -inf weight, with no RuntimeWarning, and class 2 wins.
    pool = gaussian_blobs(200, rng=np.random.default_rng(0))
    params = param_map(project(stat_map_dataset(pool)))
    X = np.array([[1e154, 1e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err01, soft = evaluate_many([params], Dataset(pool.schema, X, np.array([2])))
        assert err01.tolist() == soft.tolist() == [0.0]
        assert np.array_equal(posterior_matrix(params, X), [[0.0, 1.0]])
        assert np.array_equal(prob_stat_map(X, params).class_block, [0.0, 1.0])


def test_no_rows_give_empty_posteriors_and_zero_statistics():
    params = param_map(uniform_init(TINY_SCHEMA, 4.0))
    X = np.zeros((0, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # each node's shift is the mean of no rows
        assert posterior_matrix(params, X).shape == (0, 2) and predict_matrix(params, X).shape == (0,)
        assert not prob_stat_map(X, params).values.any()


def test_refusal_names_the_lowest_impossible_table_row_after_grouping():
    # Cell 2 has probability zero in both classes.  Impossible rows 1 (class 2) and 2 (class 1):
    # grouped by class, row 2's column comes first, but row 1 is named.
    schema = FeatureSchema((Discrete(2), Continuous()), 2)
    params = nb_params(schema, np.array([0.5, 0.5]),
                      (np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]])))
    ok = nb_params(schema, params.class_probs, (np.full((2, 2), 0.5), params.feature_params[1]))
    X, y = np.array([[1.0, 0.3], [2.0, 0.1], [2.0, 0.0], [1.0, -0.2]]), np.array([1, 2, 1, 2])
    ds, train = Dataset(schema, X, y), Dataset(schema, X[[0, 3]], y[[0, 3]])
    with pytest.raises(ValueError, match="row 1 has probability zero under every class of model 0;"):
        evaluate_many([params], ds)
    # Impossible rows 0 (class 2) and 3 (class 1) take columns 3 and 2 of the grouping [1, 2, 3, 0]. Row 0 is
    # named: not the lowest impossible column, 2, nor its row, 3, nor row 1, which the grouping read backwards names.
    with pytest.raises(ValueError, match="row 0 has probability zero under every class of model 0;"):
        evaluate_many([params], Dataset(schema, X[[1, 0, 3, 2]], np.array([2, 1, 1, 1])))
    with pytest.raises(ValueError, match=f"row {train.m + 1} has probability zero under every class of model 0;"):
        Scorer([train, ds])([params])
    pooled = Scorer([train, ds])
    pooled([ok])
    with pytest.raises(ValueError, match=f"row {train.m + 1} has probability zero under every class of model 1;"):
        pooled([ok, params])


def test_instance_impossible_under_every_class_is_refused(monkeypatch):
    # Cell 2 of the discrete feature has probability zero in both classes.
    schema = FeatureSchema((Discrete(2), Continuous()), 2)
    params = nb_params(schema, np.array([0.5, 0.5]),
                      (np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]])))
    X = np.array([[1.0, 0.3], [1.0, -0.2], [2.0, 0.1], [2.0, 0.0]])
    ds = Dataset(schema, X, np.array([1, 2, 1, 2]))
    with pytest.raises(ValueError, match="row 2 has probability zero under every class of model 0"):
        evaluate_many([params], ds)
    # Models are numbered in the whole stack, not within their pass: the impossible model starts pass 3.
    ok = nb_params(schema, params.class_probs, (np.full((2, 2), 0.5), params.feature_params[1]))
    width = few_per_pass(monkeypatch, [ds], 3)
    with pytest.raises(ValueError, match=f"row 2 has probability zero under every class of model {2 * width};"):
        evaluate_many([ok] * (2 * width) + [params], ds)
    # Test rows are numbered after the train rows, by a one-shot and by a reused scorer.
    train = Dataset(schema, X[:2], ds.y[:2])
    pooled = Scorer([train, ds])
    pooled([ok])
    for k in (0, 1):  # the impossible row is row k of the test set
        rows = [0, 0]
        rows[k] = 2
        test = Dataset(schema, X[rows], ds.y[rows])
        with pytest.raises(ValueError, match=f"row {train.m + k} has probability zero under every class of model 0;"):
            Scorer([train, test])([params])
    with pytest.raises(ValueError, match=f"row {train.m + 2} has probability zero under every class of model 1;"):
        pooled([ok, params])
    # A refused call leaves the scorer usable.
    (train01, test01), soft = pooled([ok])
    assert np.array_equal(train01, evaluate_many([ok], train)[0]) and np.array_equal(test01, evaluate_many([ok], ds)[0])
    with pytest.raises(ValueError, match="row 2 has probability zero under every class"):
        posterior_matrix(params, X)
    # Outside a Scorer, the impossible model is numbered within its stack too.
    with pytest.raises(ValueError, match="row 2 has probability zero under every class of model 1;"):
        posterior_matrix(stack_params([ok, params]), X)
    with pytest.raises(ValueError, match="row 2 has probability zero under every class"):
        predict_matrix(params, X)
    assert np.array_equal(predict_matrix(params, X[:2]), [1, 1])


def test_evaluate_many_takes_an_empty_list_and_refuses_a_single_model():
    rng = np.random.default_rng(23)
    schema = mixed_schema(3)
    ds = random_dataset(schema, 20, rng)
    params = random_params(schema, rng)
    empty = stack_params([params])[:0]
    for models in ([], empty):
        err01, soft = evaluate_many(models, ds)
        assert err01.shape == soft.shape == (0,)
    other = random_dataset(mixed_schema(2), 20, rng)  # another class count
    for score, message in (
        (lambda: Scorer([]), "need at least one dataset to score"),
        (lambda: Scorer([ds, other]), "schema mismatch between the datasets to score"),
        (lambda: Scorer([ds, ds.subset([])]), "cannot evaluate on an empty dataset"),
        (lambda: evaluate_many(stack_params([params]), other), "schema mismatch between model and dataset"),
        (lambda: evaluate_many([params], other), "schema mismatch between model and dataset"),
    ):
        with pytest.raises(ValueError, match=message):
            score()
    r, w = params.theta.shape
    want = (f"Scorer: expected stacked tables (n, r, w), got one node's table of shape {(r, w)}; "
            "pass [params] or stacked parameters")
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        evaluate_many(params, ds)
    want = f"Scorer: expected one node's table (r, w), got stacked tables of shape {(2, r, w)}; pass a stack by itself"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        evaluate_many([params, stack_params([params, params])], ds)  # not three models


def test_a_stacked_dataset_is_refused_by_every_pooled_only_call(tmp_path):
    # A stacked dataset's rows are nodes: split, partitioned, written or scored as instances, it would give
    # subsets of nodes, a plan of node indices or CSV cells holding whole rows.  Each call names itself and
    # the shape; the calls that take the pooled sample say how to get it.
    pool = gaussian_blobs(200, rng=np.random.default_rng(24))
    plan = split_iid(pool, 4, 25, np.random.default_rng(25))
    stacked = local_datasets(pool, plan)  # X (4, 25, 2)
    models = param_map(stat_map_dataset(stacked))  # one model per node
    sample = global_sample(pool, plan)
    rng = np.random.default_rng(26)
    hint, in_a_list = "; pass global_sample(dataset, plan)", "; pass a stacked Dataset by itself, not in a list"
    calls = [
        ("Dataset.subset", "", lambda: stacked.subset([0, 1])),
        ("train_test_split", "", lambda: train_test_split(stacked, 2, 2, rng)),
        *(("partition", "", lambda split=split: split(stacked, 2, 2, rng)) for split in SPLITTERS.values()),
        ("Dataset.subset", "", lambda: global_sample(stacked, split_iid(pool, 2, 2, rng))),
        ("Dataset.subset", "", lambda: local_datasets(stacked, split_iid(pool, 2, 2, rng))),
        ("write_csv", "", lambda: write_csv(stacked, tmp_path / "stacked.csv")),
        ("Scorer", "; score its pooled rows, global_sample(dataset, plan)", lambda: Scorer([pool, stacked])),
        ("Scorer", "; score its pooled rows, global_sample(dataset, plan)", lambda: evaluate_many(models, stacked)),
        ("Scorer", "; score its pooled rows, global_sample(dataset, plan)",
         lambda: evaluate_many([models[0]], stacked)),
        ("rc", hint, lambda: rc(stacked, 0.05, 3, uniform_init(pool.schema, 100.0))),
        ("a list of local datasets", in_a_list,
         lambda: run_crc([stacked], RewireSchedule(full_graph(4)), m0=10.0, t_max=1)),
    ]
    assert len(calls) == 14
    for what, tail, call in calls:
        want = f"{what}: expected pooled X (m, d), got a stacked dataset of shape (4, 25, 2){tail}"
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            call()
    assert not (tmp_path / "stacked.csv").exists()  # refused before the file is opened
    # Each call takes the pooled sample itself.
    err01, _ = evaluate_many(models, sample)
    assert err01.shape == (4,)
    assert len(rc(sample, 0.05, 3, uniform_init(pool.schema, 100.0))) == 4
    assert [part.m for part in train_test_split(sample, 60, 40, rng)] == [60, 40]
    assert all(split(sample, 4, 25, rng).assignment.shape == (4, 25) for split in SPLITTERS.values())
    write_csv(sample, tmp_path / "pooled.csv")


def test_posterior_and_predict_matrix_take_a_leading_node_axis():
    rng = np.random.default_rng(13)
    schema = mixed_schema(3)
    X = np.stack([random_dataset(schema, 25, rng).X for _ in range(4)])  # (n, m, d)
    models = [random_params(schema, rng) for _ in range(4)]
    post = posterior_matrix(stack_params(models), X)
    labels = predict_matrix(stack_params(models), X)
    assert post.shape == (4, 25, 3) and labels.shape == (4, 25)
    for v, params in enumerate(models):
        assert np.array_equal(post[v], posterior_matrix(params, X[v]))
        assert np.array_equal(labels[v], predict_matrix(params, X[v]))


def test_leading_node_axis_matches_per_node_calls():
    # n same-size datasets stacked on a leading axis run through the same functions.
    rng = np.random.default_rng(11)
    schema = mixed_schema(3)
    parts = [random_dataset(schema, 25, rng) for _ in range(4)]
    stacked = Dataset(schema, np.stack([d.X for d in parts]), np.stack([d.y for d in parts]))
    assert stacked.m == 25
    labelled = stat_map_dataset(stacked)
    stats = StatsVector(schema, labelled.values + uniform_init(schema, 5.0).values)
    params = param_map(stats)
    expected = prob_stat_map(stacked.X, params)
    for v, ds in enumerate(parts):
        single = StatsVector(schema, stats.values[v])
        assert np.array_equal(stats.feature_block(1)[v], single.feature_block(1))
        np.testing.assert_allclose(labelled.values[v], stat_map_dataset(ds).values, rtol=1e-13)
        p = param_map(single)
        np.testing.assert_allclose(params.theta[v], p.theta, rtol=1e-13)
        np.testing.assert_allclose(expected.values[v], prob_stat_map(ds.X, p).values, rtol=1e-13)


def test_to_text_full_precision():
    rng = np.random.default_rng(10)
    ds = random_dataset(mixed_schema(), 30, rng)
    s = stat_map_dataset(ds)
    text = s.to_text()
    assert text.startswith("ess = 30.0\n")
    line = [ln for ln in text.splitlines() if ln.startswith("feature[0].moment[1][1]")][0]
    value = float(line.split(" = ")[1])
    assert value == s.feature_block(0)[0, 0]
    ptext = param_map(s).to_text()
    assert "class_prob[1] = " in ptext and "feature[1].count" not in ptext


def test_to_text_line_order_on_mixed_schema():
    rng = np.random.default_rng(12)
    s = stat_map_dataset(random_dataset(mixed_schema(3), 30, rng))
    p = param_map(s)
    pairs = [ln.split(" = ") for ln in s.to_text().splitlines()]
    assert [k for k, _ in pairs] == STATS_KEYS
    assert [float(v) for _, v in pairs[1:]] == list(s.values.ravel())  # storage order
    stats = {k: float(v) for k, v in pairs}
    assert stats["class[2]"] == s.class_block[1]
    assert stats["feature[2].moment[2][1]"] == s.feature_block(2)[1, 0]
    assert stats["feature[3].count[3][2]"] == s.feature_block(3)[2, 1]
    pairs = [ln.split(" = ") for ln in p.to_text().splitlines()]
    assert [k for k, _ in pairs] == PARAM_KEYS
    params = {k: float(v) for k, v in pairs}
    assert params["class_prob[3]"] == p.class_probs[2]
    assert params["feature[0].var[2]"] == p.feature_params[0][1, 1]
    assert params["feature[1].prob[2][3]"] == p.feature_params[1][1, 2]
    assert params["feature[2].mean[3]"] == p.feature_params[2][2, 0]


def test_to_text_refuses_stacked_objects():
    rng = np.random.default_rng(13)
    schema = mixed_schema(2)
    nodes = [project(stat_map_dataset(random_dataset(schema, 10, rng))) for _ in range(3)]
    S = StatsVector(schema, np.stack([s.values for s in nodes]))
    P = param_map(S)
    shape = S.values.shape
    for call, what, hint in ((S.to_text, "StatsVector.to_text", "index one node first: S[v]"),
                             (P.to_text, "NBParams.to_text", "index one node first: P[v]")):
        want = f"{what}: expected one node's table (r, w), got stacked tables of shape {shape}; {hint}"
        with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
            call()
    # One node has no node axis: its statistics and its model are neither indexed nor counted.
    for call, what in ((lambda: S[0][0], "S[v]"), (lambda: P[0][0], "P[v]"), (lambda: len(P[0]), "len(P)")):
        want = (f"{what}: expected stacked tables (n, r, w), got one node's table of shape {shape[1:]}; "
                "one node has no node axis")
        with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
            call()
    assert S[1].to_text() == nodes[1].to_text()
    assert P[1].to_text() == param_map(nodes[1]).to_text()


def _same_bits(a, b, zero_sign=True) -> bool:
    """Equal shape, dtype and bits; a nan matches any nan, and a zero any zero unless ``zero_sign``."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype == bool:
        return np.array_equal(a, b)
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    if not zero_sign:
        a, b = a + 0.0, b + 0.0  # -0.0 + 0.0 is 0.0
    return np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


@pytest.mark.parametrize("ufunc", [np.add, np.maximum, np.minimum, np.logical_and, np.logical_or])
def test_a_short_axis_reduces_to_numpys_bits(ufunc):
    # Terms at 1e16 and 1 of both signs round by their order, and signed zeros, infinities and nan
    # propagate by it.  Every layout numpy reduces differently: along a contiguous or strided last axis,
    # and along an axis in the middle or in front.  Lengths past the chain's reach take ufunc.reduce.
    rng = np.random.default_rng(41)
    values = np.array([1e16, -1e16, 1.0, -1.0, 3.0, 0.0, -0.0, inf, -inf, np.nan])
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in numpy
        _short_axes(ufunc, rng, values)
    assert _same_bits(model._reduce(np.maximum, np.empty((3, 0)), -1, initial=0.0), np.zeros(3))


def _short_axes(ufunc, rng, values):
    for length in range(1, 13):
        terms = rng.choice(values, size=(300, length, 2))
        if ufunc in (np.logical_and, np.logical_or):
            terms = terms > 0
        layouts = [(terms[:, :, 0].copy(), -1), (terms[:, :, 0], -1), (terms, -2), (np.moveaxis(terms, 1, 0), 0)]
        for i, (A, axis) in enumerate(layouts):
            # numpy's SIMD maximum or minimum along a contiguous last axis may sign a zero otherwise
            zero_sign = i > 0 or ufunc not in (np.maximum, np.minimum)
            want = ufunc.reduce(A, axis=axis)
            assert _same_bits(model._reduce(ufunc, A, axis), want, zero_sign), (length, i)
            got = model._reduce(ufunc, A, axis, keepdims=True)
            assert _same_bits(got, ufunc.reduce(A, axis=axis, keepdims=True), zero_sign), (length, i)
            if ufunc is np.maximum:
                got = model._reduce(ufunc, A, axis, initial=0.0)
                assert _same_bits(got, ufunc.reduce(A, axis=axis, initial=0.0), zero_sign), (length, i)
            assert not np.shares_memory(got, A)


def test_sums_of_eight_or_more_terms_are_numpys_pairwise_sums():
    # numpy sums 8 or more contiguous terms pairwise, so chaining them in order would round otherwise.
    rng = np.random.default_rng(42)
    for length in (8, 12):
        A = rng.choice([1e16, -1e16, 1.0, -1.0, 3.0], size=(300, length))
        chained = 0.0 + A[:, 0]
        for column in A.T[1:]:
            chained = chained + column
        want = np.add.reduce(A, axis=-1)
        assert not np.array_equal(chained, want)
        assert _same_bits(model._reduce(np.add, A, -1), want)
