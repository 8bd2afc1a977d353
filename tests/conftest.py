"""Shared test helpers: independent oracles and small builders.

The oracles deliberately avoid the library's vectorized log-space code
paths: posteriors are computed with scalar math (or exact rational
arithmetic for discrete schemas) so they can arbitrate the library's
numerics.
"""
from __future__ import annotations

from fractions import Fraction
from math import exp, pi, sqrt

import numpy as np

from riskcal.calibration import project
from riskcal.data import Continuous, Dataset, Discrete, FeatureSchema
from riskcal.model import NBParams, StatsVector, _feature_map, param_map, prob_stat_map, stat_map_dataset, zero_stats


def scalar_posterior(params: NBParams, x) -> list[float]:
    """Posterior via plain Python floats in linear space, no numpy."""
    r = params.schema.class_cardinality
    joint = []
    for yi in range(r):
        p = float(params.class_probs[yi])
        for i, spec in enumerate(params.schema.features):
            block = params.feature_params[i]
            if isinstance(spec, Discrete):
                p *= float(block[yi, int(x[i]) - 1])
            else:
                mu = float(block[yi, 0])
                var = float(block[yi, 1])
                p *= exp(-((float(x[i]) - mu) ** 2) / (2.0 * var)) / sqrt(2.0 * pi * var)
        joint.append(p)
    total = sum(joint)
    return [p / total for p in joint]


def fraction_posterior(params: NBParams, x) -> list[Fraction]:
    """Exact posterior for discrete-only schemas (floats taken exactly)."""
    r = params.schema.class_cardinality
    joint = []
    for yi in range(r):
        p = Fraction(float(params.class_probs[yi]))
        for i, spec in enumerate(params.schema.features):
            assert isinstance(spec, Discrete)
            p *= Fraction(float(params.feature_params[i][yi, int(x[i]) - 1]))
        joint.append(p)
    total = sum(joint)
    return [p / total for p in joint]


def brute_force_prob_stats(params: NBParams, X, exact: bool) -> np.ndarray:
    """Double sum over (instance, class) of posterior-weighted statistics.

    Accumulates into the library's row-major (class, column) layout, with
    its own column offsets (class mass, then every discrete feature's
    cells, then every continuous feature's (x, x^2) pair), but computes
    every weight independently: exact Fractions for discrete-only schemas,
    scalar floats otherwise.  Returns the flat vector as float64, to
    compare with the statistics' ``values.ravel()``.
    """
    schema = params.schema
    r = schema.class_cardinality
    size = zero_stats(schema).values.size

    if exact:
        acc: list = [Fraction(0)] * size
    else:
        acc = [0.0] * size
    starts = {}
    w = 1  # column 0 is the class mass
    for discrete in (True, False):
        for i, spec in enumerate(schema.features):
            if isinstance(spec, Discrete) == discrete:
                starts[i] = w
                w += spec.cardinality if discrete else 2
    assert r * w == size
    for row in np.asarray(X, dtype=np.float64):
        post = fraction_posterior(params, row) if exact else scalar_posterior(params, row)
        for yi in range(r):
            wt = post[yi]
            acc[yi * w] += wt
            for i, spec in enumerate(schema.features):
                base = yi * w + starts[i]
                if isinstance(spec, Discrete):
                    acc[base + int(row[i]) - 1] += wt
                else:
                    xi = Fraction(float(row[i])) if exact else float(row[i])
                    acc[base + 0] += wt * xi
                    acc[base + 1] += wt * xi * xi
    return np.array([float(v) for v in acc])


def rc_oracle(dataset: Dataset, lr: float, t_max: int, init: StatsVector) -> list[StatsVector]:
    """Centralized calibration by its defining formula: the projected statistics of every iterate, init's first.

    Iteration t + 1 is project(s + lr * (stat_map_dataset - prob_stat_map(X, param_map(s)))),
    the step at learning rate lr written out on its own, with no ``lrc`` and no rescaling.
    """
    data = stat_map_dataset(dataset)
    stats = [project(init)]
    for _ in range(t_max):
        s = stats[-1]
        stats.append(project(s + lr * (data - prob_stat_map(dataset.X, param_map(s)))))
    return stats


def nb_params(schema: FeatureSchema, class_probs, blocks) -> NBParams:
    """A model written by hand, class probabilities (..., r) and one block per feature in schema order, as theta."""
    fm = _feature_map(schema)
    theta = np.empty(np.shape(class_probs) + (fm.width,))
    theta[..., 0] = class_probs
    for sl, block in zip(fm.blocks, blocks, strict=True):
        theta[..., sl] = block
    return NBParams(schema, theta)


def max_rel_dev(a: NBParams, b: NBParams) -> float:
    """Largest elementwise |a - b| / |b| over all parameters (|a - b| where b is 0)."""
    return float(np.max(np.abs(a.theta - b.theta) / np.where(np.abs(b.theta) > 0, np.abs(b.theta), 1.0)))


def bfs_connected(n: int, edges) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def mixed_schema(r: int = 2) -> FeatureSchema:
    return FeatureSchema((Continuous(), Discrete(3), Continuous(), Discrete(2)), r)


def random_dataset(schema: FeatureSchema, m: int, rng: np.random.Generator) -> Dataset:
    """Random dataset valid under a schema, labels guaranteed to cover all classes."""
    r = schema.class_cardinality
    assert m >= r, "need at least one instance per class"
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, size=m - r)])
    rng.shuffle(y)
    cols = []
    for spec in schema.features:
        if isinstance(spec, Discrete):
            cols.append(rng.integers(1, spec.cardinality + 1, size=m).astype(np.float64))
        else:
            cols.append(rng.normal(0.0, 1.5, size=m) + 0.3 * y)
    return Dataset(schema, np.column_stack(cols), y.astype(np.int64))


def random_params(schema: FeatureSchema, rng: np.random.Generator) -> NBParams:
    """Random well-formed parameters, built directly (not via statistics)."""
    r = schema.class_cardinality
    probs = rng.uniform(0.2, 1.0, size=r)
    probs /= probs.sum()
    blocks = []
    for spec in schema.features:
        if isinstance(spec, Discrete):
            t = rng.uniform(0.05, 1.0, size=(r, spec.cardinality))
            t /= t.sum(axis=1, keepdims=True)
            blocks.append(t)
        else:
            mu = rng.uniform(-2.0, 2.0, size=r)
            var = rng.uniform(0.4, 3.0, size=r)
            blocks.append(np.column_stack([mu, var]))
    return nb_params(schema, probs, blocks)
