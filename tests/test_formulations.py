import numpy as np
import pytest

from mcm import formulations, lp
from mcm.errors import (
    DimensionMismatch,
    HardMarginInfeasible,
    McmError,
    NotOptimal,
    SingleClass,
    SolverFailure,
)
from mcm.kernels import KernelSpec, gram
from mcm.model import decision_many, predict_many

import oracles

PAIR_X = np.array([[1.0], [-1.0]])
PAIR_Y = np.array([1.0, -1.0])

SIX_POINTS = np.array([
    [0.0, 0.0], [1.0, 0.4], [0.3, 1.1],
    [2.5, 2.0], [3.2, 1.4], [2.8, 3.0],
])
SIX_LABELS = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])

HARD = formulations.TrainConfig("hard-linear")


def soft(C):
    return formulations.TrainConfig("soft-linear", C=C)


def separable_blobs(rng, m=40, gap=4.0):
    half = m // 2
    X = np.vstack([rng.normal(size=(half, 2)) * 0.5,
                   rng.normal(size=(m - half, 2)) * 0.5 + gap])
    y = np.concatenate([-np.ones(half), np.ones(m - half)])
    return X, y


def test_layout_covers_columns():
    problem, layout = formulations.build_problem(SIX_POINTS, SIX_LABELS, soft(1.0))
    cols = np.concatenate([layout.weight_cols, [layout.b_col, layout.h_col],
                           layout.q_cols])
    assert sorted(cols.tolist()) == list(range(problem.n_vars))
    assert layout.n_columns == problem.n_vars
    # weights, b, h free; slacks nonnegative
    assert problem.free[layout.weight_cols].all()
    assert problem.free[[layout.b_col, layout.h_col]].all()
    assert not problem.free[layout.q_cols].any()


@pytest.mark.parametrize("config", [
    HARD, soft(0.3), formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("rbf", gamma=0.5)),
], ids=lambda config: config.variant)
def test_build_problem_matches_per_sample_reference(config):
    rng = np.random.default_rng(26)
    X = rng.normal(size=(9, 3))
    y = rng.permutation([-1.0] * 4 + [1.0] * 5)
    scores = X if config.kernel is None else gram(config.kernel, X).entries
    objective, A, senses, rhs, free = oracles.mcm_program(scores, y, config.C)
    problem, _ = formulations.build_problem(X, y, config)
    assert problem.objective.tobytes() == objective.tobytes()
    assert problem.A.shape == A.shape and problem.A.tobytes() == A.tobytes()
    assert problem.senses.tolist() == senses.tolist()
    assert problem.rhs.tobytes() == rhs.tobytes()
    assert problem.free.tolist() == free.tolist()


def test_hard_linear_symmetric_pair():
    problem, layout = formulations.build_problem(PAIR_X, PAIR_Y, HARD)
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    model = formulations.extract_linear(solution, layout,
                                        formulations.TrainConfig("hard-linear"))
    assert model.h == pytest.approx(1.0, abs=1e-9)
    assert model.w == pytest.approx([1.0], abs=1e-8)
    assert model.b == pytest.approx(0.0, abs=1e-8)


def test_hard_linear_matches_fractional_oracle():
    problem, layout = formulations.build_problem(SIX_POINTS, SIX_LABELS, HARD)
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    oracle = oracles.min_margin_ratio_2d(SIX_POINTS, SIX_LABELS)
    assert solution.objective_value == pytest.approx(oracle, abs=1e-3)


def test_hard_linear_identical_points_infeasible():
    X = np.array([[0.0], [0.0]])
    y = np.array([1.0, -1.0])
    problem, _ = formulations.build_problem(X, y, HARD)
    assert lp.solve(problem).status is lp.LpStatus.INFEASIBLE
    with pytest.raises(HardMarginInfeasible):
        formulations.train(X, y, formulations.TrainConfig("hard-linear"))


def test_iteration_limit_on_separable_data_is_solver_failure():
    # phase 1 runs out of iterations before it finds the (existing) feasible
    # point; that certifies nothing about separability
    options = lp.SolverOptions(max_iterations=2)
    problem, _ = formulations.build_problem(SIX_POINTS, SIX_LABELS, HARD)
    solution = lp.solve(problem, options)
    assert solution.status is lp.LpStatus.ITERATION_LIMIT and solution.limit_exceeded
    assert solution.primal_values is None
    with pytest.raises(SolverFailure, match="iteration_limit"):
        formulations.train(SIX_POINTS, SIX_LABELS,
                           formulations.TrainConfig("hard-linear"), options)


def test_single_class_rejected():
    with pytest.raises(SingleClass):
        formulations.build_problem(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]), HARD)
    with pytest.raises(SingleClass):
        formulations.build_problem(
            np.array([[1.0]]), np.array([1.0]),
            formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("linear")))


def test_soft_linear_large_c_recovers_hard_margin():
    hard = formulations.train(SIX_POINTS, SIX_LABELS,
                              formulations.TrainConfig("hard-linear"))
    problem, layout = formulations.build_problem(SIX_POINTS, SIX_LABELS, soft(1e6))
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    slacks = layout.slacks(solution)
    assert np.all(slacks <= 1e-6)
    assert layout.ratio_bound(solution) == pytest.approx(hard.model.h, abs=1e-4)


def test_soft_linear_always_feasible():
    X = np.array([[0.0], [0.0]])
    y = np.array([1.0, -1.0])
    for C in (0.01, 1.0, 100.0):
        problem, layout = formulations.build_problem(X, y, soft(C))
        solution = lp.solve(problem)
        assert solution.status is lp.LpStatus.OPTIMAL
        w = layout.weights(solution)
        b = layout.offset(solution)
        q = layout.slacks(solution)
        assert np.all(y * (X @ w + b) + q >= 1.0 - 1e-8)


def test_soft_linear_slack_lands_on_mislabeled_point():
    rng = np.random.default_rng(21)
    half = 10
    X = np.vstack([rng.normal(size=(half, 2)) * 0.2,
                   rng.normal(size=(half, 2)) * 0.2 + 8.0])
    y = np.concatenate([-np.ones(half), np.ones(half)])
    flipped = y.copy()
    flipped[3] = -flipped[3]
    with pytest.raises(HardMarginInfeasible):
        formulations.train(X, flipped, formulations.TrainConfig("hard-linear"))
    problem, layout = formulations.build_problem(X, flipped, soft(1.0))
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    q = layout.slacks(solution)
    assert q[3] > 1.0 - 1e-6  # the flipped point needs slack to cross the margin
    # at small C a whiff of slack may leak onto minimum-margin points (the
    # slack also appears in the h constraint); it stays two orders smaller
    assert np.delete(q, 3).max() <= 0.1
    # a larger penalty isolates the slack exactly
    problem10, layout10 = formulations.build_problem(X, flipped, soft(10.0))
    solution10 = lp.solve(problem10)
    q10 = layout10.slacks(solution10)
    assert q10[3] > 1.0 - 1e-6
    assert np.all(np.delete(q10, 3) <= 1e-6)
    # cross-check the optimum by solving the standardized form
    std = lp.standardize(problem)
    assert lp.solve(std.problem).objective_value == pytest.approx(
        solution.objective_value, abs=1e-9)


def test_soft_kernel_xor():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    config = formulations.TrainConfig("kernel", C=1e4,
                                      kernel=KernelSpec("rbf", gamma=1.0))
    result = formulations.train(X, y, config)
    margins = y * decision_many(result.model, X)
    assert np.all(margins >= 1.0 - 1e-6)
    assert np.array_equal(predict_many(result.model, X), y)


def test_linear_kernel_matches_linear_variant():
    # samples span the plane, so the two parameterizations agree
    config_lin = formulations.TrainConfig("soft-linear", C=10.0)
    config_ker = formulations.TrainConfig("kernel", C=10.0, kernel=KernelSpec("linear"))
    lin = formulations.train(SIX_POINTS, SIX_LABELS, config_lin)
    ker = formulations.train(SIX_POINTS, SIX_LABELS, config_ker)
    assert ker.model.h == pytest.approx(lin.model.h, abs=1e-6)


def test_kernel_pruning_preserves_training_decisions():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    config = formulations.TrainConfig("kernel", C=1e4,
                                      kernel=KernelSpec("rbf", gamma=1.0))
    problem, layout = formulations.build_problem(X, y, config)
    solution = lp.solve(problem)
    model = formulations.extract_kernel(solution, layout, config, X)
    lam_full = layout.weights(solution)
    b = layout.offset(solution)
    K = gram(KernelSpec("rbf", gamma=1.0), X).entries
    full = K @ lam_full + b
    pruned = decision_many(model, X)
    assert np.abs(full - pruned).max() <= 1e-9
    assert model.sv_count <= X.shape[0]


def test_extract_kernel_all_zero_coefficients():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([1.0, -1.0])
    config = formulations.TrainConfig("kernel", C=1.0,
                                      kernel=KernelSpec("rbf", gamma=1.0))
    problem, layout = formulations.build_problem(X, y, config)
    # fabricate an optimal-vertex-shaped solution whose coefficients are all zero
    values = np.zeros(problem.n_vars)
    values[layout.b_col] = 5.0
    values[layout.h_col] = 6.0
    values[layout.q_cols] = [0.0, 6.0]
    fake = lp.LpSolution(lp.LpStatus.OPTIMAL, values, 0.0, (0, 0))
    model = formulations.extract_kernel(fake, layout, config, X)
    assert model.sv_count == 0
    assert decision_many(model, np.array([[9.0, -3.0], [0.0, 0.0]])) == pytest.approx([5.0, 5.0])


def test_extract_requires_optimal():
    problem, layout = formulations.build_problem(PAIR_X, PAIR_Y, HARD)
    bad = lp.LpSolution(lp.LpStatus.INFEASIBLE, None, None, (0, 0))
    with pytest.raises(NotOptimal):
        formulations.extract_linear(bad, layout, formulations.TrainConfig("hard-linear"))
    with pytest.raises(NotOptimal):
        formulations.extract_kernel(
            bad, layout, formulations.TrainConfig(
                "kernel", C=1.0, kernel=KernelSpec("linear")), PAIR_X)


@pytest.mark.parametrize("config", [
    HARD, soft(1.0), formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("linear")),
], ids=lambda config: config.variant)
def test_label_count_mismatch(config):
    # too few labels used to index past the end, too many trained on a prefix
    X = SIX_POINTS[1:5]
    for y in (np.array([-1.0, -1.0, 1.0]), np.array([-1.0, -1.0, 1.0, 1.0, 1.0])):
        with pytest.raises(DimensionMismatch):
            formulations.build_problem(X, y, config)
        with pytest.raises(DimensionMismatch):
            formulations.train(X, y, config)


def test_config_validation():
    with pytest.raises(McmError):
        formulations.TrainConfig("soft-linear")  # C missing
    with pytest.raises(McmError):
        formulations.TrainConfig("kernel", C=1.0)  # kernel missing
    with pytest.raises(McmError):
        formulations.TrainConfig("banana")
    with pytest.raises(McmError):
        soft(-2.0)


def test_bad_labels_rejected():
    with pytest.raises(McmError):
        formulations.build_problem(PAIR_X, np.array([1.0, 0.0]), HARD)


def test_hard_margin_is_tight():
    rng = np.random.default_rng(22)
    for _ in range(10):
        X, y = separable_blobs(rng, m=16, gap=3.5)
        result = formulations.train(X, y, formulations.TrainConfig("hard-linear"))
        margins = y * decision_many(result.model, X)
        assert margins.min() >= 1.0 - 1e-8
        assert margins.min() <= 1.0 + 1e-4
        assert result.model.h == pytest.approx(margins.max(), abs=1e-8)
        assert result.model.h >= 1.0 - 1e-8


def test_scaling_invariance_of_predictions():
    rng = np.random.default_rng(23)
    X, y = separable_blobs(rng, m=24, gap=3.0)
    X_test = rng.normal(size=(30, 2)) * 2.0 + 1.5
    for config in (formulations.TrainConfig("hard-linear"),
                   formulations.TrainConfig("soft-linear", C=5.0)):
        base = formulations.train(X, y, config)
        for s in (0.5, 3.0, 100.0):
            scaled = formulations.train(s * X, y, config)
            assert np.array_equal(predict_many(scaled.model, s * X_test),
                                  predict_many(base.model, X_test))


def test_total_slack_nonincreasing_in_c():
    rng = np.random.default_rng(24)
    X, y = separable_blobs(rng, m=20, gap=2.0)
    noisy = y.copy()
    noisy[[1, 12]] = -noisy[[1, 12]]
    totals = []
    for C in (0.01, 0.1, 1.0, 10.0, 100.0):
        problem, layout = formulations.build_problem(X, noisy, soft(C))
        solution = lp.solve(problem)
        assert solution.status is lp.LpStatus.OPTIMAL
        totals.append(float(layout.slacks(solution).sum()))
    for earlier, later in zip(totals, totals[1:]):
        assert later <= earlier + 1e-9


def test_charnes_cooper_equivalence_small_random():
    rng = np.random.default_rng(25)
    done = 0
    while done < 5:
        M = int(rng.integers(4, 9))
        w_true = rng.normal(size=2)
        w_true /= np.linalg.norm(w_true)
        b_true = rng.normal() * 0.5
        X = rng.normal(size=(M, 2)) * 2.0
        margins = X @ w_true + b_true
        if np.abs(margins).min() < 0.3 or len(set(np.sign(margins))) < 2:
            continue
        y = np.sign(margins)
        problem, _ = formulations.build_problem(X, y, HARD)
        solution = lp.solve(problem)
        assert solution.status is lp.LpStatus.OPTIMAL
        oracle = oracles.min_margin_ratio_2d(X, y, n_directions=4096)
        assert solution.objective_value == pytest.approx(oracle, abs=1e-3)
        done += 1
