"""Spreading one sample across nodes: iid and three drift schemes.

All four partitions draw from the same pool, so the union stays iid;
only the per-node composition changes.  drift_x sorts by the first
principal component (feature skew), drift_y assigns nodes a single
dominant class (label skew), drift_xy does both.
"""
import numpy as np

from riskcal import SPLITTERS, first_principal_component, local_datasets, mixed_dataset

rng = np.random.default_rng(4)
pool = mixed_dataset(900, r=3, rng=rng)
n, m_v = 6, 80

for mode, split in SPLITTERS.items():
    plan = split(pool, n, m_v, np.random.default_rng(11))
    parts = local_datasets(pool, plan)
    lines = []
    for y in parts.y:  # node by node
        counts = np.bincount(y, minlength=4)[1:]
        lines.append("/".join(str(c) for c in counts))
    print(f"{mode:9}  class mix per node: {'  '.join(lines)}")

# drift_x sorts the drawn sample by its standardized projection onto
# the leading component; node blocks are contiguous in that order
plan = SPLITTERS["drift_x"](pool, n, m_v, np.random.default_rng(11))
take = np.concatenate([np.asarray(block) for block in plan.assignment])
S = pool.X[take]
Z = (S - S.mean(axis=0)) / S.std(axis=0)
pc = first_principal_component(S)
print("\nfirst principal component direction:", np.round(pc, 3))
proj = Z @ pc
blocks = np.split(proj, n)
print("mean projection per node (monotone):", np.round([b.mean() for b in blocks], 2))
