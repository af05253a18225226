"""Bit census of the simplex over seeded random training fits.

    PYTHONPATH=src python tests/census.py [N]

Builds N training programs (default 70) with ``formulations.build_problem``
and solves each with ``lp.solve``.  Fit i draws from ``default_rng([7, i])``:
6 to 140 rows of 1 to 5 features, 2 or 3 Gaussian blobs (centres N(0, 4I),
unit noise), class 0 against the rest, and every feature scaled by one
factor 10^U(-2, 2).  The configs cycle through hard- and soft-linear, rbf
with gamma 0.125, 0.5 and 2, poly-2 and the linear kernel.

Each optimal solve is classified on the paper's program
(``oracles.paper_problem``), at the paper's point and objective that
``McmLpLayout.restore`` maps it to; soft-linear is trained in an equivalent
form with h = 1 + t, every other variant in the paper's.  A fit is "row
broken" when that point breaks a row (``A``, ``senses``, ``rhs``) by more than
1e-8 * (1 + max |rhs|), "below 1" when the objective is below
1 - ``lp._FEAS_TOL`` (every feasible point has h >= 1), and "ok" when
neither holds; a fit can count as both.

It prints the count of each status and class per config, one line per fit
that did not end optimal (its index, config, rows x features, status and
``phase_iterations``; ``fit_data(i)`` rebuilds its samples), one line per
optimal fit that is not ok (index, config, rows x features, classes, worst
relative row violation and objective), and one SHA-256 over every solve's
status, ``phase_iterations`` and the bytes of the vertex ``lp.solve``
returns.  A change meant to keep every
pivot and bit must print the same digest before and after.
pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import numpy as np

from mcm import formulations, lp
from mcm.kernels import KernelSpec

import oracles

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
CLASSES = ["ok", "row broken", "below 1"]
ROW_TOL = 1e-8  # relative to 1 + max |rhs|


def fit_data(i: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples and +-1 labels of fit i."""
    rng = np.random.default_rng([7, i])
    m, d, k = int(rng.integers(6, 141)), int(rng.integers(1, 6)), int(rng.integers(2, 4))
    centres = rng.normal(scale=2.0, size=(k, d))
    blob = rng.permutation(np.arange(m) % k)  # every blob has a row
    X = (centres[blob] + rng.normal(size=(m, d))) * 10.0 ** rng.uniform(-2.0, 2.0)
    return X, np.where(blob == 0, 1.0, -1.0)


def worst_violation(problem: lp.LpProblem, x: np.ndarray) -> float:
    """The most x breaks a row of problem by, over 1 + max |rhs|."""
    residual = problem.A @ x - problem.rhs
    broken = np.select([problem.senses == lp.LESS_EQUAL, problem.senses == lp.GREATER_EQUAL],
                       [residual, -residual], np.abs(residual))
    return float(broken.max(initial=0.0)) / (1.0 + float(np.abs(problem.rhs).max()))


def classify(paper: lp.LpProblem, x: np.ndarray, objective: float) -> tuple[list[str], float]:
    """The classes of the paper's point x and objective (empty when ok),
    and its worst row of the paper's program."""
    worst = worst_violation(paper, x)
    classes = []
    if worst > ROW_TOL:
        classes.append("row broken")
    if objective < 1.0 - lp._FEAS_TOL:
        classes.append("below 1")
    return classes, worst


def main(n_fits: int) -> None:
    digest = hashlib.sha256()
    counts = {name: Counter() for name, _ in CONFIGS}
    not_optimal, not_ok = [], []
    for i in range(n_fits):
        name, config = CONFIGS[i % len(CONFIGS)]
        X, y = fit_data(i)
        problem, layout = formulations.build_problem(X, y, config)
        solution = lp.solve(problem)
        counts[name][solution.status.value] += 1
        fit = f"fit {i}  {name}  {X.shape[0]} x {X.shape[1]}"
        if solution.status is not lp.LpStatus.OPTIMAL:
            not_optimal.append(f"{fit}  {solution.status.value}  {solution.phase_iterations}")
        else:
            x, objective = layout.restore(solution)
            paper = oracles.paper_problem(layout.scores, y, config.C)
            classes, worst = classify(paper, x, objective)
            counts[name].update(classes or ["ok"])
            if classes:
                not_ok.append(f"{fit}  {', '.join(classes)}  worst row {worst:.2g}  "
                              f"objective {objective:.6g}")
        digest.update(f"{solution.status.value} {solution.phase_iterations}\n".encode())
        if solution.primal_values is not None:
            digest.update(solution.primal_values.tobytes())
    columns = [status.value for status in lp.LpStatus] + CLASSES
    width = max(len(name) for name, _ in CONFIGS)
    print(f"{'config':<{width}}  " + "  ".join(columns))
    for name, _ in CONFIGS:
        print(f"{name:<{width}}  " + "  ".join(f"{counts[name][s]:>{len(s)}}" for s in columns))
    print("\n".join(not_optimal) if not_optimal else "every fit optimal")
    print("\n".join(not_ok) if not_ok else "every optimal fit ok")
    print(f"fits: {n_fits}  sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 70)
