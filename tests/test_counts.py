"""One count rule at every public call that takes a count: a Python or numpy integer, not a bool, of a least value."""
from __future__ import annotations

import numpy as np
import pytest

from riskcal.calibration import lrc, rc
from riskcal.data import Continuous, Discrete, FeatureSchema, train_test_split
from riskcal.model import uniform_init
from riskcal.network import (
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
