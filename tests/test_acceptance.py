"""Acceptance checks, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
line of every criterion as it completes.  Criteria with a runtime
budget fail when the budget is exceeded even if the quality bound
holds.
"""
from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from functools import lru_cache

import numpy as np

from conftest import (
    bfs_connected,
    brute_force_prob_stats,
    max_rel_dev,
    mixed_schema,
    random_dataset,
    random_params,
    rc_oracle,
)
from riskcal.calibration import lrc, project, rc
from riskcal.cli import ExperimentConfig, main, run_experiment
from riskcal.data import Continuous, Dataset, Discrete, FeatureSchema, write_csv
from riskcal.model import (
    evaluate_many,
    param_map,
    posterior_matrix,
    prob_stat_map,
    stat_map_dataset,
    uniform_init,
)
from riskcal.network import RewireSchedule, add_random_edges, full_graph, random_tree
from riskcal.partition import _standardize, first_principal_component
from riskcal.sim import METRICS_COLUMNS, run_crc
from riskcal.synth import gaussian_blobs, mixed_dataset

TEST_GAP = METRICS_COLUMNS.index("test_gap")
TEST_STD = METRICS_COLUMNS.index("test_err_std")


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {detail}"
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def _calibration_pool(m: int = 500) -> Dataset:
    """Mixed 3-class pool, centered and unit-scale.

    Matches the scale the uniform initialization assumes, so no
    projection floor fires anywhere in the runs below and the
    round-by-round identities hold without interference.
    """
    rng = np.random.default_rng(20260816)
    schema = mixed_schema(3)
    r = 3
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, size=m - r)])
    rng.shuffle(y)
    y = y.astype(np.int64)
    mean_a = np.array([-0.8, 0.1, 0.8])
    mean_b = np.array([0.8, -0.1, -0.8])
    tbl3 = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    tbl2 = np.array([[0.65, 0.35], [0.35, 0.65], [0.5, 0.5]])

    def draw(table):
        return np.array([rng.choice(len(row), p=row) + 1 for row in table[y - 1]], dtype=np.float64)

    X = np.column_stack([
        rng.normal(0.0, 0.7, size=m) + mean_a[y - 1],
        draw(tbl3),
        rng.normal(0.0, 0.7, size=m) + mean_b[y - 1],
        draw(tbl2),
    ])
    return Dataset(schema, X, y)


def _partition_orders(y: np.ndarray, n: int, rng: np.random.Generator):
    """Two adversarial layouts of one pool: uneven random, label-sorted."""
    m = len(y)
    weights = np.arange(1, n + 1, dtype=np.float64)
    sizes = np.floor(weights / weights.sum() * m).astype(int)
    sizes[sizes < 1] = 1
    sizes[-1] = m - sizes[:-1].sum()
    uneven = (rng.permutation(m), tuple(sizes))

    base = m // n
    even_sizes = [base + (1 if v < m % n else 0) for v in range(n)]
    sorted_by_class = (np.argsort(y, kind="stable"), tuple(even_sizes))
    return {"uneven": uneven, "classsorted": sorted_by_class}


@lru_cache(maxsize=1)
def theorem_runs():
    """Collaborative runs on a full graph next to their centralized twin.

    Returns (elapsed_seconds, cases); each case carries the per-round
    neighborhood averages, the centralized iterates' statistics from
    ``rc_oracle`` (the update's own formula, not ``rc``, which replays
    ``lrc``), and the masses needed to relate them.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(18)
    pool = _calibration_pool(500)
    schema = pool.schema
    t_max = 20
    cases = []
    for n in (2, 5, 10):
        for lr in (0.05, 0.2):
            for style, (order, sizes) in _partition_orders(pool.y, n, rng).items():
                arranged = pool.subset(order)
                locals_, at = [], 0
                for size in sizes:
                    locals_.append(arranged.subset(range(at, at + size)))
                    at += size
                m = arranged.m
                m0 = m / (lr * n)
                aggregates = []
                run_crc(
                    locals_,
                    RewireSchedule(full_graph(n)),
                    m0=m0,
                    t_max=t_max,
                    iterations=1,
                    neighborhood="closed",
                    on_round=lambda t, aggregate, result: aggregates.append(aggregate),
                )
                oracle = rc_oracle(arranged, lr, t_max, uniform_init(schema, lr * n * m0))
                cases.append((f"n={n} lr={lr} {style}", aggregates, oracle, m, m0, n))
    return time.perf_counter() - start, cases


def test_criterion_01_full_graph_rounds_replay_centralized_calibration():
    elapsed, cases = theorem_runs()
    worst = 0.0
    t_compare = time.perf_counter()
    for _, aggregates, oracle, _, _, n in cases:
        for t in range(1, len(aggregates) + 1):
            ref = param_map(oracle[t - 1])
            for v in range(n):
                worst = max(worst, max_rel_dev(param_map(aggregates[t - 1][v]), ref))
    elapsed += time.perf_counter() - t_compare
    ok = worst < 1e-9 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"full-graph node params match the centralized run one round behind; "
        f"max rel deviation {worst:.3e} (< 1e-9) over 12 setups x 20 rounds, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_aggregate_scaling_identity():
    _, cases = theorem_runs()
    worst = 0.0
    for _, aggregates, oracle, m, m0, n in cases:
        scale = m / m0
        for t in range(len(aggregates)):
            ref = oracle[t].values
            den = float(np.max(np.abs(ref)))
            for v in range(n):
                num = float(np.max(np.abs(scale * aggregates[t][v].values - ref)))
                worst = max(worst, num / den)
    ok = worst < 1e-9
    verdict(
        2,
        ok,
        f"(m/m0) x neighborhood average equals centralized statistics every round; "
        f"max scaled sup deviation {worst:.3e} (< 1e-9)",
    )


def _blob_experiment(tmp_path, **overrides) -> list[float]:
    ds = gaussian_blobs(3500, rng=np.random.default_rng(0))
    path = tmp_path / "blobs.csv"
    write_csv(ds, path)
    cfg = ExperimentConfig(dataset=str(path), **overrides)
    result = run_experiment(cfg, tmp_path / "out")
    return result.aggregate[-1]


def test_criterion_03_iid_tree_reaches_the_centralized_model(tmp_path):
    start = time.perf_counter()
    final = _blob_experiment(tmp_path)
    elapsed = time.perf_counter() - start
    gap, std = final[TEST_GAP], final[TEST_STD]
    ok = gap < 0.01 and std < 0.01 and elapsed < 60.0
    verdict(
        3,
        ok,
        f"random tree, iid blobs, 5 seeds at defaults: test gap {gap:.5f} (< 0.01), "
        f"cross-node std {std:.5f} (< 0.01), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_single_class_nodes_on_a_denser_graph(tmp_path):
    start = time.perf_counter()
    final = _blob_experiment(tmp_path, partition="drift_y", topology="tree+80")
    elapsed = time.perf_counter() - start
    gap = final[TEST_GAP]
    ok = gap < 0.05 and elapsed < 60.0
    verdict(
        4,
        ok,
        f"single-class nodes, tree plus 80 random edges, 5 seeds: "
        f"test gap {gap:.5f} (< 0.05), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_updates_conserve_equivalent_sample_size():
    rng = np.random.default_rng(50)
    schemas = [
        mixed_schema(2),
        mixed_schema(3),
        FeatureSchema((Discrete(4), Continuous()), 2),
    ]
    worst = 0.0
    checked = {"calibration step": 0, "local rounds": 0, "averaging": 0}
    attempts = 0

    def floor_free(raw) -> bool:
        return bool(np.array_equal(project(raw).values, raw.values))

    while checked["calibration step"] < 400 and attempts < 2000:
        attempts += 1
        schema = schemas[attempts % len(schemas)]
        ds = random_dataset(schema, int(rng.integers(10, 31)), rng)
        lr = float(rng.uniform(0.01, 0.1))
        # rc's step at learning rate lr is lrc's full step at mass ess / lr
        stats = project(uniform_init(schema, float(rng.uniform(50, 200))) + stat_map_dataset(ds)) * (1.0 / lr)
        raw = stats + stat_map_dataset(ds) - prob_stat_map(ds.X, param_map(stats))
        if not floor_free(raw):
            continue
        out = lrc(stats, ds)
        worst = max(worst, abs(out.ess - stats.ess) / stats.ess)
        checked["calibration step"] += 1

    while checked["local rounds"] < 400 and attempts < 4000:
        attempts += 1
        schema = schemas[attempts % len(schemas)]
        ds = random_dataset(schema, int(rng.integers(10, 31)), rng)
        agg = project(uniform_init(schema, float(rng.uniform(600, 1200))) + stat_map_dataset(ds))
        iters = int(rng.integers(1, 4))
        local = stat_map_dataset(ds)
        s, clean = agg, True
        for _ in range(iters):
            raw = s + local - prob_stat_map(ds.X, param_map(s))
            if not floor_free(raw):
                clean = False
                break
            s = project(raw)
        if not clean:
            continue
        out_stats = lrc(agg, ds, iters)
        worst = max(worst, abs(out_stats.ess - agg.ess) / agg.ess)
        checked["local rounds"] += 1

    while checked["averaging"] < 200 and attempts < 6000:
        attempts += 1
        schema = schemas[attempts % len(schemas)]
        m0 = float(rng.uniform(100, 1000))
        members = []
        for _ in range(int(rng.integers(2, 7))):
            ds = random_dataset(schema, int(rng.integers(10, 21)), rng)
            perturbed = (
                uniform_init(schema, m0)
                + stat_map_dataset(ds)
                - prob_stat_map(ds.X, random_params(schema, rng))
            )
            if not floor_free(perturbed):
                break
            members.append(project(perturbed).values)
        else:
            mean = type(uniform_init(schema, m0))(schema, np.mean(members, axis=0))
            worst = max(worst, abs(mean.ess - m0) / m0)
            checked["averaging"] += 1

    total = sum(checked.values())
    ok = total == 1000 and worst < 1e-9
    verdict(
        5,
        ok,
        f"{total} floor-free update/averaging calls: "
        f"max relative mass drift {worst:.3e} (< 1e-9)",
    )


def _separated_variants() -> list[Dataset]:
    out = []
    schema = FeatureSchema((Continuous(), Discrete(2)), 2)
    X = np.array([[-100.0, 1], [-101.0, 1], [-99.5, 1], [100.0, 2], [101.0, 2], [99.5, 2]])
    y = np.array([1, 1, 1, 2, 2, 2])
    out.append(Dataset(schema, X, y))

    # quarter-integer values keep every statistic a short dyadic, so
    # sums are exact in any order and the fixed point is bitwise
    rng = np.random.default_rng(6)
    schema3 = FeatureSchema((Continuous(), Continuous()), 3)
    centers = np.array([-80.0, 0.0, 80.0])
    y3 = np.repeat(np.arange(1, 4), 15)
    X3 = rng.normal(0.0, 0.5, size=(45, 2)) + centers[y3 - 1][:, None]
    X3 = np.round(X3 * 4.0) / 4.0
    out.append(Dataset(schema3, X3, y3.astype(np.int64)))
    return out


def test_criterion_06_perfectly_fitted_statistics_are_a_fixed_point():
    worst_soft = 0.0
    worst_move = 0.0
    for ds in _separated_variants():
        stats = project(stat_map_dataset(ds))
        params = param_map(stats)
        _, (soft,) = evaluate_many([params], ds)
        worst_soft = max(worst_soft, soft)
        for lr in (0.05, 0.5, 1.0):
            worst_move = max(worst_move, float(np.max(np.abs(rc(ds, lr, 3, stats).theta - params.theta))))
        for iters in (1, 3):
            out_stats = lrc(stats, ds, iters)
            worst_move = max(worst_move, float(np.max(np.abs(out_stats.values - stats.values))))
    ok = worst_soft < 1e-12 and worst_move < 1e-12
    verdict(
        6,
        ok,
        f"soft error {worst_soft:.1e} (< 1e-12) models: every update moves statistics, "
        f"and rc's models, at most {worst_move:.1e} (< 1e-12)",
    )


def test_criterion_07_posterior_and_mapping_correctness():
    rng = np.random.default_rng(7)
    schemas = [
        mixed_schema(2),
        mixed_schema(3),
        FeatureSchema((Discrete(4), Continuous(), Continuous()), 4),
        FeatureSchema((Continuous(),), 5),
    ]

    def probe(schema, m):
        cols = []
        for spec in schema.features:
            if isinstance(spec, Discrete):
                cols.append(rng.integers(1, spec.cardinality + 1, size=m).astype(np.float64))
            else:
                cols.append(rng.normal(0.0, 3.0, size=m))
        return np.column_stack(cols)

    worst_norm = 0.0
    for k in range(100):
        schema = schemas[k % len(schemas)]
        P = posterior_matrix(random_params(schema, rng), probe(schema, 100))
        worst_norm = max(worst_norm, float(np.max(np.abs(P.sum(axis=1) - 1.0))))

    worst_scale = 0.0
    for k in range(50):
        schema = schemas[k % len(schemas)]
        ds = random_dataset(schema, int(rng.integers(8, 40)), rng)
        stats = project(uniform_init(schema, float(rng.uniform(1, 20))) + stat_map_dataset(ds))
        ref = param_map(stats)
        for c in (1e-3, 0.5, 2.0, 37.5, 1e3):
            worst_scale = max(worst_scale, float(np.max(np.abs(param_map(c * stats).theta - ref.theta))))

    worst_brute = 0.0
    for k in range(20):
        r = 2 + k % 2
        n_feat = 1 + k % 3
        features = tuple(Discrete(int(rng.integers(2, 5))) for _ in range(n_feat))
        schema = FeatureSchema(features, r)
        params = random_params(schema, rng)
        X = probe(schema, int(rng.integers(5, 21)))
        expect = brute_force_prob_stats(params, X, exact=True)
        got = prob_stat_map(X, params).values.ravel()
        worst_brute = max(worst_brute, float(np.max(np.abs(got - expect))))

    ok = worst_norm < 1e-12 and worst_scale < 1e-12 and worst_brute < 1e-12
    verdict(
        7,
        ok,
        f"posterior rows sum to 1 within {worst_norm:.1e}, parameters scale-invariant "
        f"within {worst_scale:.1e}, expected statistics match the exact double sum "
        f"within {worst_brute:.1e} (all < 1e-12)",
    )


def test_criterion_08_leading_component_matches_eigendecomposition():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(10, 201))
        X = rng.normal(0.0, 1.0, size=(m, d))
        X *= rng.uniform(0.5, 4.0, size=d)
        X += rng.uniform(-3.0, 3.0, size=d)
        got = first_principal_component(X)
        # independent reference: the leading right singular vector of the standardized sample
        ref = np.linalg.svd(_standardize(np.asarray(X, dtype=np.float64)), full_matrices=False)[2][0]
        cosine = abs(float(got @ ref)) / (np.linalg.norm(got) * np.linalg.norm(ref))
        worst = max(worst, float(np.arccos(min(1.0, cosine))))
    ok = worst < 1e-6
    verdict(
        8,
        ok,
        f"principal component vs singular value decomposition on 100 matrices: "
        f"max angle {worst:.2e} rad (< 1e-6)",
    )


def test_criterion_09_random_trees_are_connected_and_sparse():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        g = random_tree(n, rng)
        assert len(g.edges) == n - 1
        assert bfs_connected(n, g.edges)
        assert g.sparseness() == (n - 1) / (n * (n - 1) / 2)
        possible = n * (n - 1) // 2
        k = min(possible - (n - 1), int(rng.integers(0, 6)))
        if k:
            aug = add_random_edges(g, k, rng)
            assert len(aug.edges) == n - 1 + k
            assert g.edges <= aug.edges
        checked += 1
    verdict(
        9,
        checked == 1000,
        f"{checked} seeded trees: n-1 edges, connected, edge fraction exactly "
        f"(n-1)/(n(n-1)/2), augmentation never duplicates",
    )


def test_criterion_10_reruns_are_byte_identical_under_parallelism(tmp_path):
    ds = mixed_dataset(800, rng=np.random.default_rng(1))
    data = tmp_path / "mixed.csv"
    write_csv(ds, data)

    def run(out) -> None:
        argv = [
            "run", "--dataset", str(data), "--n", "8", "--m_v", "40",
            "--t_max", "8", "--repetitions", "2", "--workers", "8",
            "--topology", "tree+3", "--partition", "drift_xy", "--delta", "4",
            "--train_size", "320", "--test_size", "400", "--seed", "7",
            "--outdir", str(out),
        ]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    csvs = [name for name in names_a if name.endswith(".csv")]
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in csvs
    )
    verdict(
        10,
        identical and len(csvs) >= 3,
        f"two runs with 8 workers over 8 nodes: {len(csvs)} CSV files byte-identical",
    )


def test_criterion_11_uniform_initialization_gives_uniform_posteriors():
    rng = np.random.default_rng(11)
    schemas = [
        mixed_schema(2),
        mixed_schema(3),
        FeatureSchema((Discrete(2), Continuous(), Discrete(5), Continuous()), 5),
        FeatureSchema((Continuous(), Discrete(3)), 4),
    ]
    worst = 0.0
    probes = 0
    for schema in schemas:
        r = schema.class_cardinality
        params = param_map(project(uniform_init(schema, float(rng.uniform(0.5, 2000.0)))))
        for _ in range(25):
            cols = []
            for spec in schema.features:
                if isinstance(spec, Discrete):
                    cols.append(float(rng.integers(1, spec.cardinality + 1)))
                else:
                    cols.append(float(rng.normal(0.0, 5.0)))
            P = posterior_matrix(params, np.array([cols]))
            worst = max(worst, float(np.max(np.abs(P - 1.0 / r))))
            probes += 1
    ok = probes == 100 and worst < 1e-12
    verdict(
        11,
        ok,
        f"{probes} probes over 4 mixed schemas: posterior deviates from uniform "
        f"by at most {worst:.1e} (< 1e-12)",
    )
