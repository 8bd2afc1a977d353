"""Synthetic classification datasets used by the CLI and the test suite."""
from __future__ import annotations

import numpy as np

from .data import DISCRETE_LIMIT, Continuous, Dataset, Discrete, FeatureSchema, _count, _real


def _balanced_labels(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    # Near-equal class counts, shuffled so row order is exchangeable.
    m, r = _count("m", m, 1), _count("r", r, 2)
    if m < r:
        raise ValueError(f"need at least {r} instances for {r} classes")
    y = np.arange(m) % r + 1
    rng.shuffle(y)
    return y.astype(np.int64)


def _blob_columns(y: np.ndarray, d: int, r: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance Gaussian columns, class centers ``separation`` apart.

    Class centers sit along the diagonal direction, symmetric about the
    origin, so the columns are roughly centered and unit scale.
    """
    separation = _real("separation", separation, 0, closed=True)
    direction = np.ones(d) / np.sqrt(d)
    offsets = np.arange(r) - (r - 1) / 2.0
    centers = separation * offsets[:, None] * direction[None, :]  # (r, d)
    return rng.standard_normal((len(y), d)) + centers[y - 1]


def _categorical_columns(
    y: np.ndarray, d: int, r: int, cardinality: int, skew: float, rng: np.random.Generator
) -> np.ndarray:
    """Categorical columns whose preferred value rotates with the class.

    For class y and column i the value ((y - 1 + i) mod cardinality) + 1
    receives probability skew + (1 - skew)/cardinality; the rest share
    the remainder uniformly.
    """
    skew = _real("skew", skew, 0, 1, closed=True)
    # More codes would reload from a CSV as a continuous column.
    if _count("cardinality", cardinality, 2) > DISCRETE_LIMIT:
        raise ValueError(f"cardinality must be in 2..{DISCRETE_LIMIT}, got {cardinality}")
    X = np.empty((len(y), d), dtype=np.float64)
    base = (1.0 - skew) / cardinality
    for c in range(1, r + 1):
        mask = y == c
        for i in range(d):
            probs = np.full(cardinality, base)
            probs[(c - 1 + i) % cardinality] += skew
            X[mask, i] = rng.choice(cardinality, size=int(mask.sum()), p=probs) + 1
    return X


def gaussian_blobs(
    m: int,
    *,
    d: int = 2,
    r: int = 2,
    separation: float = 4.0,
    rng: np.random.Generator,
) -> Dataset:
    """Unit-variance Gaussian classes spaced ``separation`` apart."""
    d = _count("d", d, 1)
    y = _balanced_labels(m, r, rng)
    X = _blob_columns(y, d, r, separation, rng)
    return Dataset(FeatureSchema((Continuous(),) * d, r), X, y)


def categorical_mixture(
    m: int,
    *,
    d: int = 3,
    r: int = 2,
    cardinality: int = 4,
    skew: float = 0.7,
    rng: np.random.Generator,
) -> Dataset:
    """Categorical features whose preferred value rotates with the class."""
    d = _count("d", d, 1)
    y = _balanced_labels(m, r, rng)
    X = _categorical_columns(y, d, r, cardinality, skew, rng)
    return Dataset(FeatureSchema((Discrete(cardinality),) * d, r), X, y)


def mixed_dataset(
    m: int,
    *,
    d_continuous: int = 2,
    d_discrete: int = 2,
    r: int = 2,
    cardinality: int = 4,
    separation: float = 3.0,
    skew: float = 0.6,
    rng: np.random.Generator,
) -> Dataset:
    """Continuous blob features followed by skewed categorical features."""
    d_continuous, d_discrete = _count("d_continuous", d_continuous, 1), _count("d_discrete", d_discrete, 1)
    y = _balanced_labels(m, r, rng)
    Xc = _blob_columns(y, d_continuous, r, separation, rng)
    Xd = _categorical_columns(y, d_discrete, r, cardinality, skew, rng)
    schema = FeatureSchema((Continuous(),) * d_continuous + (Discrete(cardinality),) * d_discrete, r)
    return Dataset(schema, np.column_stack([Xc, Xd]), y)


GENERATORS = {
    "blobs": gaussian_blobs,
    "categorical": categorical_mixture,
    "mixed": mixed_dataset,
}
