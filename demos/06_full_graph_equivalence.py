"""On a full graph the collaborative run replays the centralized one.

With closed neighborhoods, one local iteration, and aggregate mass
m0 = m / (lr * n), the parameters every node maps from its round-t
average equal the centralized calibration's parameters from round t-1,
whatever the partition looks like.  The demo measures the deviation
round by round on a deliberately unbalanced, label-sorted split.
"""
import numpy as np

from riskcal import (
    RewireSchedule,
    full_graph,
    m0_heuristic,
    mixed_dataset,
    param_map,
    rc,
    run_crc,
    uniform_init,
)

rng = np.random.default_rng(5)
pool = mixed_dataset(300, r=2, separation=2.0, rng=rng)
n, lr, t_max = 5, 0.1, 12

# adversarial partition: sorted by label, uneven sizes
order = np.argsort(pool.y, kind="stable")
arranged = pool.subset(order)
sizes = [30, 45, 60, 75, 90]
parts, at = [], 0
for size in sizes:
    parts.append(arranged.subset(range(at, at + size)))
    at += size
print("per-node class counts:", [tuple(np.bincount(p.y, minlength=3)[1:]) for p in parts])

m0 = m0_heuristic(pool.m, lr, n)
aggregates = []  # round t's stacked neighborhood averages at index t - 1
run_crc(
    parts,
    RewireSchedule(full_graph(n)),
    m0=m0,
    t_max=t_max,
    on_round=lambda t, aggregate, result: aggregates.append(aggregate),
)
models = rc(arranged, lr, t_max, uniform_init(pool.schema, float(pool.m)))  # row t: after iteration t

print(f"\n{'round':>5}  max relative parameter deviation across nodes")
for t in range(1, t_max + 1):
    got, ref = param_map(aggregates[t - 1]).theta, models[t - 1].theta  # every node's average; rc's model
    worst = np.max(np.abs(got - ref) / np.where(np.abs(ref) > 0, np.abs(ref), 1.0))
    print(f"{t:5d}  {worst:.3e}")
