"""Centralized risk calibration against the maximum likelihood fit.

Starting from uniform statistics, each iteration nudges the statistics
by lr times (statistics of the labeled data minus statistics the model
expects on the same instances).  The soft error decreases until the
model settles.  ``rc`` returns the model after every iteration,
stacked, so one ``evaluate_many`` call scores them all and the best
iteration can be picked afterwards.
"""
import numpy as np

from riskcal import evaluate_many, gaussian_blobs, ml, rc, train_test_split, uniform_init

rng = np.random.default_rng(2)
pool = gaussian_blobs(1600, d=2, r=2, separation=2.4, rng=rng)
train, test = train_test_split(pool, train_size=1000, test_size=600, rng=rng)

ml_params = ml(train)  # one unit of uniform mass smooths the counts
(ml_train,), _ = evaluate_many([ml_params], train)
(ml_test,), _ = evaluate_many([ml_params], test)
print(f"maximum likelihood: train {ml_train:.4f}  test {ml_test:.4f}")

models = rc(train, lr=0.05, t_max=40, init=uniform_init(train.schema, float(train.m)))
err01, soft = evaluate_many(models, train)
for t in range(0, len(models), 8):
    print(f"  t={t:2d}  soft={soft[t]:.4f}  err01={err01[t]:.4f}")

best = int(np.argmin(soft))  # the lowest soft training error, earliest on ties
final = len(models) - 1
print(f"best iteration {best} (soft {soft[best]:.4f}), final iteration {final}")
(final_test,), _ = evaluate_many([models[final]], test)
print(f"calibrated:        train {err01[final]:.4f}  test {final_test:.4f}")
