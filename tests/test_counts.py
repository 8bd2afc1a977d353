"""One rule per argument kind, at every public call that takes one.

A count is a Python or numpy integer, not a bool, of at least a least
value; a real is any Python or numpy real number, not a bool, inside its
bounds, which nan never is and an int beyond the float range, read as
+-inf, never is either.  A neighborhood is one of
``network.NEIGHBORHOODS``.  Each refusal names the argument.
"""
from __future__ import annotations

import re
from math import inf, nan

import numpy as np
import pytest

from riskcal.calibration import lrc, ml, rc
from riskcal.cli import ConfigError, ExperimentConfig
from riskcal.data import Continuous, Discrete, FeatureSchema, train_test_split
from riskcal.model import uniform_init
from riskcal.network import (
    NEIGHBORHOODS,
    Graph,
    RewireSchedule,
    add_random_edges,
    chain,
    full_graph,
    neighbors,
    random_tree,
    rewire,
)
from riskcal.partition import local_datasets, split_iid
from riskcal.sim import m0_heuristic, run_crc
from riskcal.synth import categorical_mixture, gaussian_blobs, mixed_dataset


def rng():
    return np.random.default_rng(0)


DS = gaussian_blobs(40, rng=rng())
LOCALS = local_datasets(DS, split_iid(DS, 4, 5, rng()))
FULL4 = RewireSchedule(full_graph(4))


def rows(ds):
    return ds.X, ds.y


# (call, argument, least, a valid value, the call with that argument) for every public count argument
CASES = [
    ("Discrete", "cardinality", 2, 3, lambda k: Discrete(k)),
    ("FeatureSchema", "class_cardinality", 2, 3, lambda k: FeatureSchema((Continuous(),), k)),
    ("train_test_split", "train_size", 1, 5, lambda k: [rows(ds) for ds in train_test_split(DS, k, 3, rng())]),
    ("train_test_split", "test_size", 1, 5, lambda k: [rows(ds) for ds in train_test_split(DS, 3, k, rng())]),
    ("lrc", "iterations", 1, 2, lambda k: lrc(uniform_init(DS.schema, 50.0), DS, k).values),
    ("rc", "t_max", 1, 2, lambda k: rc(DS, 0.1, k, uniform_init(DS.schema, 50.0)).theta),
    ("m0_heuristic", "n", 1, 4, lambda k: m0_heuristic(100, 0.1, k)),
    ("run_crc", "t_max", 1, 2, lambda k: run_crc(LOCALS, FULL4, m0=10.0, t_max=k).stats.values),
    ("run_crc", "workers", 1, 2, lambda k: run_crc(LOCALS, FULL4, m0=10.0, t_max=1, workers=k).stats.values),
    ("Graph", "n", 1, 3, lambda k: Graph(k, [[1, 2]]).pairs),
    ("full_graph", "n", 1, 3, lambda k: full_graph(k).pairs),
    ("random_tree", "n", 2, 5, lambda k: random_tree(k, rng()).pairs),
    ("chain", "n", 2, 4, lambda k: chain(k).pairs),
    ("add_random_edges", "k", 0, 2, lambda k: add_random_edges(chain(5), k, rng()).pairs),
    ("neighbors", "v", 1, 2, lambda k: neighbors(chain(4), k, "closed")),
    ("RewireSchedule", "period", 1, 2, lambda k: RewireSchedule("tree", k)),
    ("rewire", "t", 1, 2, lambda k: rewire(RewireSchedule("tree", 2), k, chain(5), rng()).pairs),
    ("split_iid", "n", 1, 2, lambda k: split_iid(DS, k, 5, rng()).assignment),
    ("split_iid", "m_v", 1, 5, lambda k: split_iid(DS, 2, k, rng()).assignment),
    ("gaussian_blobs", "m", 1, 40, lambda k: rows(gaussian_blobs(k, rng=rng()))),
    ("gaussian_blobs", "d", 1, 2, lambda k: rows(gaussian_blobs(30, d=k, rng=rng()))),
    ("gaussian_blobs", "r", 2, 3, lambda k: rows(gaussian_blobs(30, r=k, rng=rng()))),
    ("categorical_mixture", "d", 1, 2, lambda k: rows(categorical_mixture(30, d=k, rng=rng()))),
    ("categorical_mixture", "cardinality", 2, 3, lambda k: rows(categorical_mixture(30, cardinality=k, rng=rng()))),
    ("mixed_dataset", "m", 1, 30, lambda k: rows(mixed_dataset(k, rng=rng()))),
    ("mixed_dataset", "d_continuous", 1, 2, lambda k: rows(mixed_dataset(30, d_continuous=k, rng=rng()))),
    ("mixed_dataset", "d_discrete", 1, 2, lambda k: rows(mixed_dataset(30, d_discrete=k, rng=rng()))),
]


@pytest.mark.parametrize("where, name, least, good, call", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_a_count_is_an_integer_of_at_least_its_least(where, name, least, good, call):
    for bad, problem in ((True, "of type int, got True"), (2.5, "of type int, got 2.5"),
                         (least - 1, f">= {least}, got {least - 1}")):
        with pytest.raises(ValueError, match=f"^{name} must be {problem}$"):
            call(bad)
    np.testing.assert_equal(call(np.int64(good)), call(good))


# The largest float below 0: a real bounded by ">= 0" refuses it and takes 0 itself.
BELOW_0 = np.nextafter(0.0, -1.0)

# An int beyond the float range, either sign: outside every real's bounds, refused as +-inf.
HUGE = [10**400, -10**400]
S = uniform_init(DS.schema, 4.0)

# (call, argument, its bounds, the values just outside them, a valid whole value, the call with that argument)
REAL_CASES = [
    ("uniform_init", "m0", "> 0 and finite", [0.0, *HUGE], 50, lambda x: uniform_init(DS.schema, x).values),
    ("rc", "lr", "> 0 and finite", [0.0, *HUGE], 2, lambda x: rc(DS, x, 2, uniform_init(DS.schema, 50.0)).theta),
    ("ml", "smoothing", ">= 0 and finite", [BELOW_0, *HUGE], 2, lambda x: ml(DS, x).theta),
    ("m0_heuristic", "m", "> 0 and finite", [0.0, *HUGE], 100, lambda x: m0_heuristic(x, 0.1, 4)),
    ("m0_heuristic", "lr", "> 0 and finite", [0.0, *HUGE], 2, lambda x: m0_heuristic(100, x, 4)),
    ("run_crc", "m0", "> 0 and finite", [0.0, *HUGE], 10, lambda x: run_crc(LOCALS, FULL4, m0=x, t_max=1).stats.values),
    ("categorical_mixture", "skew", ">= 0 and < 1", [BELOW_0, 1.0, *HUGE], 0,
     lambda x: rows(categorical_mixture(30, skew=x, rng=rng()))),
    ("mixed_dataset", "skew", ">= 0 and < 1", [BELOW_0, 1.0, *HUGE], 0,
     lambda x: rows(mixed_dataset(30, skew=x, rng=rng()))),
    ("gaussian_blobs", "separation", ">= 0 and finite", [BELOW_0, *HUGE], 2,
     lambda x: rows(gaussian_blobs(30, separation=x, rng=rng()))),
    ("mixed_dataset", "separation", ">= 0 and finite", [BELOW_0, *HUGE], 2,
     lambda x: rows(mixed_dataset(30, separation=x, rng=rng()))),
    ("StatsVector.__mul__", "scalar", "finite", HUGE, 2, lambda x: (S * x).values),
    ("StatsVector.__rmul__", "scalar", "finite", HUGE, 2, lambda x: (x * S).values),
    ("ExperimentConfig", "lr", "> 0 and finite", [0.0, *HUGE], 2, lambda x: ExperimentConfig(lr=x).lr),
    ("ExperimentConfig", "m0", "> 0 and finite", [0.0, *HUGE], 50, lambda x: ExperimentConfig(m0=x).m0),
    ("ExperimentConfig", "ml_smoothing", ">= 0 and finite", [BELOW_0, *HUGE], 2,
     lambda x: ExperimentConfig(ml_smoothing=x).ml_smoothing),
]


@pytest.mark.parametrize("where, name, bounds, outside, good, call", REAL_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in REAL_CASES])
def test_a_real_is_a_number_within_its_bounds(where, name, bounds, outside, good, call):
    error = ConfigError if where == "ExperimentConfig" else ValueError
    # A config's field types are checked before its values: a bool is refused as not of the field's type.
    for bad in (True, np.True_, "1"):
        kind = "(a real number|of type [a-z |]+)"
        with pytest.raises(error, match=rf"^{name} must be {kind}, got {re.escape(repr(bad))}$"):
            call(bad)
    for bad in (nan, inf, -inf, *outside):
        shown = (inf if bad > 0 else -inf) if isinstance(bad, int) else float(bad)  # HUGE is shown as +-inf
        with pytest.raises(error, match=rf"^{name} must be {re.escape(bounds)}, got {re.escape(str(shown))}$"):
            call(bad)
    if bounds.startswith(">="):
        call(0)  # a closed bound is inside
    want = call(good)
    for same in (float(good), np.float32(good), np.int64(good)):
        np.testing.assert_equal(call(same), want)


NEIGHBORHOOD_CASES = {
    "neighbors": lambda mode: neighbors(chain(4), 2, mode),
    "run_crc": lambda mode: run_crc(LOCALS, FULL4, m0=10.0, t_max=1, neighborhood=mode),
    "ExperimentConfig": lambda mode: ExperimentConfig(neighborhood=mode),
}


@pytest.mark.parametrize("where", NEIGHBORHOOD_CASES)
def test_a_neighborhood_is_one_of_the_network_neighborhoods(where):
    call = NEIGHBORHOOD_CASES[where]
    assert NEIGHBORHOODS == ("open", "closed")
    for mode in NEIGHBORHOODS:
        call(mode)
    for bad in ("semi", "Open", "closed "):
        with pytest.raises(ValueError, match=rf"^neighborhood must be 'open' or 'closed', got {re.escape(repr(bad))}$"):
            call(bad)
