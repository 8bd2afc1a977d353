"""Synthetic dataset generators."""
from __future__ import annotations

import numpy as np
import pytest

from riskcal.data import Continuous, Discrete
from riskcal.synth import categorical_mixture, gaussian_blobs, mixed_dataset


def test_gaussian_blobs_shape_and_balance():
    ds = gaussian_blobs(300, d=3, r=3, rng=np.random.default_rng(0))
    assert ds.m == 300 and ds.schema.d == 3
    assert ds.schema.features == (Continuous(),) * 3
    counts = np.bincount(ds.y, minlength=4)[1:]
    assert counts.tolist() == [100, 100, 100]
    # classes are centered symmetrically about the origin
    assert abs(ds.X.mean()) < 0.2


def test_gaussian_blobs_separation_controls_error():
    rng = np.random.default_rng(1)
    near = gaussian_blobs(2000, separation=0.5, rng=rng)
    far = gaussian_blobs(2000, separation=6.0, rng=np.random.default_rng(1))
    def overlap(ds):
        a = ds.X[ds.y == 1].mean(axis=0)
        b = ds.X[ds.y == 2].mean(axis=0)
        return float(np.linalg.norm(a - b))
    assert overlap(far) > overlap(near) * 5


def test_categorical_mixture_schema_and_support():
    ds = categorical_mixture(200, d=4, r=3, cardinality=5, rng=np.random.default_rng(2))
    assert ds.schema.features == (Discrete(5),) * 4
    assert ds.X.min() >= 1 and ds.X.max() <= 5
    assert np.array_equal(ds.X, np.floor(ds.X))


def test_mixed_dataset_schema_order():
    ds = mixed_dataset(120, d_continuous=2, d_discrete=3, r=2, rng=np.random.default_rng(3))
    assert ds.schema.features[:2] == (Continuous(), Continuous())
    assert ds.schema.features[2:] == (Discrete(4),) * 3


def test_generators_deterministic():
    a = mixed_dataset(100, rng=np.random.default_rng(4))
    b = mixed_dataset(100, rng=np.random.default_rng(4))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_generator_validation():
    with pytest.raises(ValueError):
        gaussian_blobs(1, r=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        categorical_mixture(10, skew=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        categorical_mixture(10, cardinality=1, rng=np.random.default_rng(0))
    # mixed_dataset and categorical_mixture share the checks of their columns and labels
    with pytest.raises(ValueError, match="skew"):
        mixed_dataset(10, skew=1.5, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="cardinality"):
        mixed_dataset(10, cardinality=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least 2 instances"):
        categorical_mixture(1, rng=np.random.default_rng(0))
