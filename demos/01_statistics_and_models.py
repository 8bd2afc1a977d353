"""Statistics vectors and the classifiers they define.

A labeled dataset is reduced to one vector of sufficient statistics,
one row per class: the class count, the cell counts of each discrete
feature, then the (sum, sum of squares) pair of each continuous one.
Parameters are a closed-form function of that vector, and the posterior
is computed from the parameters in log space.
"""
import numpy as np

from riskcal import (
    Continuous,
    Dataset,
    Discrete,
    FeatureSchema,
    evaluate_many,
    param_map,
    posterior_matrix,
    project,
    stat_map_dataset,
    uniform_init,
)

schema = FeatureSchema((Continuous(), Discrete(3)), class_cardinality=2)
X = np.array([
    [-1.2, 1],
    [-0.7, 1],
    [-1.0, 2],
    [0.9, 3],
    [1.3, 3],
    [1.1, 2],
])
y = np.array([1, 1, 1, 2, 2, 2])
data = Dataset(schema, X, y)

stats = stat_map_dataset(data)
print("statistics of six labeled instances")
print(stats.to_text())

print("equivalent sample size:", stats.ess)

params = param_map(project(stats))
print("\nparameters (maximum likelihood for these counts)")
print(params.to_text())

probe = np.array([[0.0, 2], [-1.1, 1], [1.2, 3]])
post = posterior_matrix(params, probe)
print("\nposteriors at three probe points (rows sum to 1)")
for row_x, row_p in zip(probe, post):
    print(f"  x = ({row_x[0]:+.1f}, {int(row_x[1])})  ->  {np.round(row_p, 4)}")

(err01,), (soft,) = evaluate_many([params], data)
print(f"\ntraining error {err01:.3f}, soft error {soft:.3f}")

# a uniform-mass vector maps to the maximally uninformative classifier
flat = param_map(project(uniform_init(schema, 12.0)))
print("\nuniform initialization posterior at the same probes")
print(np.round(posterior_matrix(flat, probe), 4))
