"""The evaluation protocol: stratified folds, cross-validation, grid search.

Folds are stratified and deterministic under a seed.  Each fold trains on the
rest, scores accuracy on the held-out part, and records the capacity value h
and (for kernel runs) the support count; aggregates are mean +/- population
standard deviation.  Grid search scans C (and gamma for rbf) and picks the
most accurate cell, breaking ties toward sparser, then smaller-C models.
"""

import numpy as np

from mcm import Dataset, TrainConfig, KernelSpec, cross_validate, grid_search, make_folds

rng = np.random.default_rng(11)
half = 40
X = np.vstack([rng.normal(size=(half, 2)),
               rng.normal(size=(half, 2)) + 2.4])
labels = ["a"] * half + ["b"] * half
for i in (3, 17, 44, 61):  # sprinkle label noise
    labels[i] = "b" if labels[i] == "a" else "a"
dataset = Dataset(X, labels)

plan = make_folds(dataset.labels, k=5, seed=42)
print("fold sizes:", np.bincount(plan.assignments).tolist())

report = cross_validate(dataset, TrainConfig("soft-linear", C=4.0), plan)
print("\nsoft-linear C=4, 5-fold cross-validation:")
print(report.to_table())

# near-linear noisy data wants a smooth surface: small gamma, gentle penalty
kernel_report = cross_validate(
    dataset, TrainConfig("kernel", C=0.25, kernel=KernelSpec("rbf", gamma=2.0 ** -7)),
    plan)
print("rbf kernel, same folds (sv_count now meaningful):")
print(kernel_report.to_table())

# a grid is a list of configs, one cell each, scanned in order: C-major here
grid = [TrainConfig("kernel", C=C, kernel=KernelSpec("rbf", gamma=gamma))
        for C in (0.25, 1.0, 4.0) for gamma in (2.0 ** -7, 2.0 ** -5, 2.0 ** -3)]
result = grid_search(dataset, grid, plan)
print("grid search over 3 x 3 (C, gamma) cells picks the smooth corner:")
print(result.to_table())
