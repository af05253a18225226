"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Criterion 8 needs a user-supplied heart-statlog CSV (270 rows, 13 numeric
features, label last) pointed to by the MCM_HEART_STATLOG environment
variable; it is skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from mcm import data as data_mod
from mcm import formulations, lp
from mcm.capacity import compute_h, radius_margin_ratio
from mcm.cli import main
from mcm.kernels import KernelSpec, gram
from mcm.model import decision_many, predict_many

import oracles


def _random_separable_2d(count=20, seed=2024):
    """Deterministic separable datasets with n = 2, M <= 8, margin >= 0.3."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        M = int(rng.integers(4, 9))
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        offset = float(rng.normal() * 0.5)
        X = rng.normal(size=(M, 2)) * 2.0
        margins = X @ direction + offset
        if np.abs(margins).min() < 0.3:
            continue
        y = np.sign(margins)
        if len(set(y.tolist())) < 2:
            continue
        out.append((X, y))
    return out


@pytest.fixture(scope="module")
def hard_margin_runs():
    runs = []
    for X, y in _random_separable_2d():
        result = formulations.train(X, y, formulations.TrainConfig("hard-linear"))
        runs.append((X, y, result.model))
    return runs


def test_criterion_1_lp_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 9))          # within the <= 10 variable bound
        m = int(rng.integers(1, 11))         # plus box/equality rows stays <= 15
        problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=n, n_ineq=m)
        assert problem.n_vars <= 10 and problem.n_constraints <= 15
        solution = lp.solve(problem)
        assert solution.status is lp.LpStatus.OPTIMAL
        oracle_obj, _ = oracles.vertex_minimum(problem)
        assert oracle_obj is not None
        assert solution.objective_value == pytest.approx(oracle_obj, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: 50 random LPs match vertex enumeration (1e-6) "
          f"in {elapsed:.1f}s")


def test_criterion_2_fractional_program_equivalence(hard_margin_runs):
    start = time.perf_counter()
    for X, y, model in hard_margin_runs:
        oracle = oracles.min_margin_ratio_2d(X, y, n_directions=16384)
        assert model.h == pytest.approx(oracle, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: 20 hard-margin optima match the brute-force "
          f"margin-ratio search (1e-3) in {elapsed:.1f}s")


def test_criterion_3_capacity_bound_invariants(hard_margin_runs):
    for X, y, model in hard_margin_runs:
        h = compute_h(X, y, model.w, model.b)
        assert h is not None
        assert h >= 1.0 - 1e-8
        assert h <= radius_margin_ratio(X, model.w, model.b) + 1e-6
        raw = np.abs(X @ model.w + model.b)
        unsigned = raw.max() / raw.min()
        assert h == pytest.approx(unsigned, abs=1e-12)
    print("\nPASS criterion 3: h >= 1, h <= R/d, signed/unsigned forms agree "
          "on every hard-margin solve")


def test_criterion_4_margin_tightness(hard_margin_runs):
    for X, y, model in hard_margin_runs:
        margins = y * decision_many(model, X)
        assert margins.min() >= 1.0 - 1e-8
        assert margins.min() <= 1.0 + 1e-4
        assert model.h == pytest.approx(margins.max(), abs=1e-8)
    print("\nPASS criterion 4: smallest margin pinned to 1 and h equals the "
          "largest margin at every hard-margin optimum")


def test_criterion_5_kernel_correctness():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    xor = formulations.train(
        X, y, formulations.TrainConfig("kernel", C=1e4,
                                       kernel=KernelSpec("rbf", gamma=1.0)))
    assert np.array_equal(predict_many(xor.model, X), y)

    rng = np.random.default_rng(103)
    X2 = rng.normal(size=(12, 2)) * 2.0
    y2 = np.sign(X2 @ np.array([1.0, -0.5]) + 0.3)
    y2[y2 == 0] = 1.0
    linear = formulations.train(X2, y2, formulations.TrainConfig("soft-linear", C=10.0))
    kernelized = formulations.train(
        X2, y2, formulations.TrainConfig("kernel", C=10.0, kernel=KernelSpec("linear")))
    assert kernelized.model.h == pytest.approx(linear.model.h, abs=1e-6)
    print("\nPASS criterion 5: rbf kernel separates XOR exactly; linear-kernel "
          "optimum h matches the linear variant (1e-6)")


def test_criterion_6_support_vector_sparsity():
    X, y = oracles.two_blobs_200()
    config = formulations.TrainConfig("kernel", C=1.0,
                                      kernel=KernelSpec("rbf", gamma=0.125))
    problem, layout = formulations.build_problem(X, y, config)
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    model = formulations.extract_kernel(solution, layout, config, X)
    M = X.shape[0]
    assert model.sv_count < M  # strictly sparser than the sample count

    lam_full = solution.primal_values[layout.weight_cols]
    b = solution.primal_values[layout.b_col]
    full = gram(config.kernel, X) @ lam_full + b
    pruned = decision_many(model, X)
    assert np.array_equal(full >= 0.0, pruned >= 0.0)  # sign-exact agreement

    from mcm.capacity import capacity_report

    report = capacity_report(model, X, y)
    assert report.expected_error_bound == pytest.approx(model.sv_count / M)
    print(f"\nPASS criterion 6: {model.sv_count}/{M} support vectors, pruned "
          f"predictions sign-identical, error bound = sv/M reported")


def test_criterion_6_well_posed_sparsity_is_the_gram_rank():
    # a poly-2 Gram matrix on 2-D data has rank 6 (the monomials of degree
    # <= 2), and a basic optimum keeps at most that many support vectors
    X, y = oracles.two_blobs_200()
    config = formulations.TrainConfig("kernel", C=1.0,
                                      kernel=KernelSpec("poly", degree=2, coef0=1.0))
    problem, layout = formulations.build_problem(X, y, config)
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.objective_value == pytest.approx(18.234166281721, rel=1e-10)
    model = formulations.extract_kernel(solution, layout, config, X)
    assert model.sv_count == np.linalg.matrix_rank(gram(config.kernel, X)) == 6

    residual = problem.A @ solution.primal_values - problem.rhs
    le, ge = problem.senses == lp.LESS_EQUAL, problem.senses == lp.GREATER_EQUAL
    violation = max(residual[le].max(), (-residual[ge]).max())
    assert violation <= 1e-12
    print(f"\nPASS criterion 6 (well-posed): poly-2 keeps {model.sv_count}/{len(y)} "
          f"support vectors = rank(K), max row violation {violation:.1e}")


def test_criterion_7_protocol_determinism(tmp_path, capsys):
    rng = np.random.default_rng(104)
    half = 15
    X = np.vstack([rng.normal(size=(half, 2)),
                   rng.normal(size=(half, 2)) + 4.0])
    labels = ["-1"] * half + ["1"] * half
    lines = [f"{float(a)!r},{float(b)!r},{lab}" for (a, b), lab in zip(X, labels)]
    data = tmp_path / "blobs.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cv_args = ["cv", "--data", str(data), "--variant", "soft-linear", "--C", "4",
               "--folds", "5", "--seed", "42", "--json"]
    outs = []
    for _ in range(2):
        assert main(cv_args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    grid_args = ["grid", "--data", str(data), "--variant", "soft-linear",
                 "--grid-c", "0.5,4", "--folds", "3", "--seed", "42", "--json"]
    outs = []
    for _ in range(2):
        assert main(grid_args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    rng = np.random.default_rng(105)
    for _ in range(20):
        n_classes = int(rng.integers(2, 5))
        M = int(rng.integers(10, 60))
        labels = [f"c{rng.integers(n_classes)}" for _ in range(M)]
        k = int(rng.integers(2, min(6, M + 1)))
        plan = data_mod.make_folds(labels, k=k, seed=int(rng.integers(1 << 31)))
        sizes = np.bincount(plan.assignments, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        for cls in set(labels):
            counts = np.bincount(
                plan.assignments[[i for i, lab in enumerate(labels) if lab == cls]],
                minlength=k)
            assert counts.max() - counts.min() <= 1
    print("\nPASS criterion 7: cv/grid JSON byte-identical across reruns; "
          "stratified fold invariants hold on 20 random label vectors")


HEART_PATH = os.environ.get("MCM_HEART_STATLOG", "")


@pytest.mark.skipif(not (HEART_PATH and os.path.exists(HEART_PATH)),
                    reason="set MCM_HEART_STATLOG to a heart-statlog CSV "
                           "(270 rows, 13 numeric features, label last)")
def test_criterion_8_heart_statlog_accuracy():
    dataset = data_mod.load_csv(HEART_PATH, label_column=-1)
    assert dataset.samples.shape == (270, 13)
    plan = data_mod.make_folds(dataset.labels, k=5, seed=42)
    configs = [formulations.TrainConfig("soft-linear", C=C) for C in data_mod.DEFAULT_C_GRID]
    result = data_mod.grid_search(dataset, configs, plan, scale=True)
    accuracy = result.best_cell.report.aggregates()["accuracy_mean"] * 100.0
    assert abs(accuracy - 84.81) <= 5.0
    print(f"\nPASS criterion 8: heart-statlog grid-searched soft-linear CV "
          f"accuracy {accuracy:.2f}% within 5 points of 84.81%")
