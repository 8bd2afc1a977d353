"""Collaborative calibration over a sparse graph, next to its baselines.

Each round every node averages the statistics of its neighborhood and
calibrates the average against its own data.  Metrics compare the mean
local model to the calibrated model trained on the pooled data (the
gold standard) and to plain maximum likelihood.
"""
import numpy as np

from riskcal import (
    RewireSchedule,
    Scorer,
    evaluate_many,
    evaluate_round,
    gaussian_blobs,
    local_datasets,
    m0_heuristic,
    ml,
    rc,
    run_crc,
    split_iid,
    train_test_split,
    uniform_init,
)

rng = np.random.default_rng(3)
n, m_v, t_max, lr = 8, 50, 16, 0.05
pool = gaussian_blobs(1400, separation=2.8, rng=rng)
train, test = train_test_split(pool, train_size=n * m_v, test_size=800, rng=rng)

plan = split_iid(train, n, m_v, rng)
parts = local_datasets(train, plan)

m0 = m0_heuristic(train.m, lr, n)
print(f"{n} nodes x {m_v} instances, aggregate mass m0 = {m0:.0f}")

# One Scorer keeps the pooled sets' scoring rows and work buffers: it scores the
# baselines once, then every round.
pooled = Scorer([train, test])
rc_models = rc(train, lr, t_max, uniform_init(train.schema, float(train.m)))
(rc_train, rc_test), _ = pooled(rc_models[1:])  # the centralized model after each iteration
baseline = list(zip(rc_train.tolist(), rc_test.tolist()))

(_, (ml_test,)), _ = pooled([ml(train)])
print(f"maximum likelihood test error: {ml_test:.4f}")

# The round loop only simulates; metrics observe it through the on_round hook.
metrics = []


def score(t, aggregate, result):  # result: round t's statistics and their models
    metrics.append(evaluate_round(result.params, pooled, t, baseline[t - 1]))


result = run_crc(
    parts,
    RewireSchedule("tree"),
    m0=m0,
    t_max=t_max,
    rng=np.random.default_rng(9),
    on_round=score,
)

print(f"{'t':>3} {'test_mean':>10} {'test_std':>9} {'rc_test':>8} {'test_gap':>9}")
for rm in (metrics[0], metrics[3], metrics[7], metrics[-1]):
    print(f"{rm.t:3d} {rm.test_err_mean:10.4f} {rm.test_err_std:9.4f} {rm.rc_test_err:8.4f} {rm.test_gap:9.4f}")

per_node, _ = evaluate_many(result.params, test)
print("final per-node test errors:", np.round(per_node, 4))
