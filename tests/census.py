"""Bit census of the simplex over seeded random training fits.

    PYTHONPATH=src python tests/census.py [N]

Builds N training programs (default 70) with ``formulations.build_problem``
and solves each with ``lp.solve``.  Fit i draws from ``default_rng([7, i])``:
6 to 140 rows of 1 to 5 features, 2 or 3 Gaussian blobs (centres N(0, 4I),
unit noise), class 0 against the rest, and every feature scaled by one
factor 10^U(-2, 2).  The configs cycle through hard- and soft-linear, rbf
with gamma 0.125, 0.5 and 2, poly-2 and the linear kernel.

It prints the count of each status per config, one line per fit that did
not end optimal (its index, config, rows x features, status and
``phase_iterations``; ``fit_data(i)`` rebuilds its samples), and one SHA-256
over every solve's status, ``phase_iterations`` and vertex bytes.  A change
meant to keep every pivot and bit must print the same digest before and
after.
pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import numpy as np

from mcm import formulations, lp
from mcm.kernels import KernelSpec

CONFIGS = [
    ("hard-linear", formulations.TrainConfig("hard-linear")),
    ("soft-linear C=1", formulations.TrainConfig("soft-linear", C=1.0)),
    ("rbf 0.125 C=1", formulations.TrainConfig("kernel", C=1.0,
                                               kernel=KernelSpec("rbf", gamma=0.125))),
    ("rbf 0.5 C=1", formulations.TrainConfig("kernel", C=1.0,
                                             kernel=KernelSpec("rbf", gamma=0.5))),
    ("rbf 2 C=16", formulations.TrainConfig("kernel", C=16.0,
                                            kernel=KernelSpec("rbf", gamma=2.0))),
    ("poly-2 C=1", formulations.TrainConfig("kernel", C=1.0,
                                            kernel=KernelSpec("poly", degree=2, coef0=1.0))),
    ("linear kernel C=2", formulations.TrainConfig("kernel", C=2.0,
                                                   kernel=KernelSpec("linear"))),
]


def fit_data(i: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples and +-1 labels of fit i."""
    rng = np.random.default_rng([7, i])
    m, d, k = int(rng.integers(6, 141)), int(rng.integers(1, 6)), int(rng.integers(2, 4))
    centres = rng.normal(scale=2.0, size=(k, d))
    blob = rng.permutation(np.arange(m) % k)  # every blob has a row
    X = (centres[blob] + rng.normal(size=(m, d))) * 10.0 ** rng.uniform(-2.0, 2.0)
    return X, np.where(blob == 0, 1.0, -1.0)


def main(n_fits: int) -> None:
    digest = hashlib.sha256()
    counts = {name: Counter() for name, _ in CONFIGS}
    not_optimal = []
    for i in range(n_fits):
        name, config = CONFIGS[i % len(CONFIGS)]
        X, y = fit_data(i)
        problem, _ = formulations.build_problem(X, y, config)
        solution = lp.solve(problem)
        counts[name][solution.status.value] += 1
        if solution.status is not lp.LpStatus.OPTIMAL:
            not_optimal.append(f"fit {i}  {name}  {X.shape[0]} x {X.shape[1]}  "
                          f"{solution.status.value}  {solution.phase_iterations}")
        digest.update(f"{solution.status.value} {solution.phase_iterations}\n".encode())
        if solution.primal_values is not None:
            digest.update(solution.primal_values.tobytes())
    statuses = [status.value for status in lp.LpStatus]
    width = max(len(name) for name, _ in CONFIGS)
    print(f"{'config':<{width}}  " + "  ".join(statuses))
    for name, _ in CONFIGS:
        print(f"{name:<{width}}  " + "  ".join(f"{counts[name][s]:>{len(s)}}" for s in statuses))
    print("\n".join(not_optimal) if not_optimal else "every fit optimal")
    print(f"fits: {n_fits}  sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 70)
