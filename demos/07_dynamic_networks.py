"""Rewiring the graph between rounds changes what information spreads.

A static tree fixes who ever talks to whom; redrawing the tree every
few rounds lets statistics reach nodes that were far apart before.
Under label skew this matters: with a static sparse graph some nodes
see certain classes only through long paths.
"""
import numpy as np

from riskcal import (
    RewireSchedule,
    evaluate_many,
    gaussian_blobs,
    local_datasets,
    m0_heuristic,
    run_crc,
    split_drift_y,
    train_test_split,
)

rng = np.random.default_rng(12)
n, m_v, t_max, lr = 12, 40, 24, 0.05
pool = gaussian_blobs(1500, separation=2.5, rng=rng)
train, test = train_test_split(pool, train_size=n * m_v, test_size=900, rng=rng)
parts = local_datasets(train, split_drift_y(train, n, m_v, rng))
m0 = m0_heuristic(train.m, lr, n)

for period in (None, 8, 2):
    res = run_crc(
        parts,
        RewireSchedule("tree", period=period),
        m0=m0,
        t_max=t_max,
        rng=np.random.default_rng(1),
    )
    label = "static" if period is None else f"every {period} rounds"
    errs, _ = evaluate_many(res.params, test)  # the last round's models only
    print(
        f"tree rewired {label:15}: mean test {errs.mean():.4f}  "
        f"std {errs.std():.4f}  spread {errs.max() - errs.min():.4f}"
    )
