import dataclasses
import sys

import numpy as np
import pytest

from mcm import formulations, kernels, lp
from mcm.errors import HardMarginInfeasible, McmError, SolverFailure
from mcm.kernels import KernelSpec, gram
from mcm.model import decision_many, model_to_json, predict_many

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
    # weights and b free; the h column holds t = h - 1 >= 0; slacks nonnegative
    assert problem.free[layout.weight_cols].all()
    assert problem.free[layout.b_col] and not problem.free[layout.h_col]
    assert layout.h_shift == 1.0
    assert not problem.free[layout.q_cols].any()


@pytest.mark.parametrize("config", [
    HARD, soft(0.3),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("rbf", gamma=0.5)),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("poly", degree=2)),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("linear")),
], ids=["hard-linear", "soft-linear", "rbf", "poly", "linear-kernel"])
def test_build_problem_checks_the_budget_lp_solve_checks(monkeypatch, config):
    # build_problem checks the budget of the senses, rhs and columns that
    # lp.solve checks, a zero feature included
    rng = np.random.default_rng(27)
    X = rng.normal(size=(9, 3))
    X[:, 1] = 0.0
    y = rng.permutation([-1.0] * 4 + [1.0] * 5)
    real_check = lp.check_budget
    calls = []

    def recording(senses, rhs, n_vars):
        calls.append((list(senses), list(rhs), n_vars))
        real_check(senses, rhs, n_vars)

    monkeypatch.setattr(lp, "check_budget", recording)
    problem, _ = formulations.build_problem(X, y, config)
    lp.solve(problem)  # checked before phase 1, feasible or not
    assert len(calls) == 2 and calls[0] == calls[1]


def _nine_samples():
    # a zero feature column, and samples 3 and 4 the same point with one label
    rng = np.random.default_rng(28)
    X = rng.normal(size=(9, 3))
    X[:, 1] = 0.0
    X[4] = X[3]
    return X, np.array([-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0])


@pytest.mark.parametrize("config", [
    HARD, soft(0.3),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("rbf", gamma=0.125)),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("rbf", gamma=1e5)),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("poly", degree=2)),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("linear")),
], ids=["hard-linear", "soft-linear", "rbf", "rbf-underflow", "poly", "linear-kernel"])
@pytest.mark.parametrize("samples", [lambda: (PAIR_X, PAIR_Y), _nine_samples],
                         ids=["M=2", "M=9"])
def test_training_lp_starts_on_cap_slacks_and_floor_artificials(monkeypatch, config, samples):
    # each cap row starts on its slack.  Soft-linear's q_i is a column with
    # one nonzero entry, +1 in its floor row, which starts there: no
    # artificial column is built and phase 1 never runs.  No other training
    # LP has a one-nonzero column, so each other floor row starts on an
    # artificial, and build_problem's budget count is the one solve makes
    # (an upper bound for soft-linear)
    X, y = samples()
    M = y.size
    problem, layout = formulations.build_problem(X, y, config)
    if config.kernel is not None and config.kernel.gamma == 1e5:
        off_diagonal = layout.scores[~np.eye(M, dtype=bool)]
        assert np.count_nonzero(off_diagonal) == (2 if M == 9 else 0)  # the duplicates
    budgets, starts = oracles.phase1_starts(monkeypatch)
    phase_1_runs = []
    run = lp._run_simplex

    def spy(tab, costs, budget, artificial_start=None):
        phase_1_runs.append(artificial_start is not None)
        return run(tab, costs, budget, artificial_start)

    monkeypatch.setattr(lp, "_run_simplex", spy)
    solution = lp.solve(problem)
    (basis, signs, columns), = starts
    n = problem.n_vars + 2 * M  # structural columns and one slack per row
    assert budgets == [(2 * M, problem.n_vars + 3 * M)]
    assert basis[0::2] == list(range(problem.n_vars, n, 2))
    assert signs == [1.0] * (2 * M)
    singles = (np.count_nonzero(problem.A, axis=0) == 1).nonzero()[0]
    if config.variant == "soft-linear":
        assert singles.tolist() == basis[1::2] == layout.q_cols.tolist()
        assert columns == n
        assert phase_1_runs == [False] and solution.phase_iterations[0] == 0
    else:
        assert not singles.size
        assert basis[1::2] == list(range(n, n + M))
        assert columns == problem.n_vars + 3 * M
        assert phase_1_runs[0]


def test_over_budget_fit_is_refused_before_its_gram_matrix(monkeypatch):
    X, y = oracles.blobs(0, 30, 2, 1.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.5))
    problem, _ = formulations.build_problem(X, y, config)
    monkeypatch.setattr(lp, "_MAX_TABLEAU_BYTES", 1)
    with pytest.raises(McmError, match="^an LP of 60 rows and ") as solved:
        lp.solve(problem)
    monkeypatch.setattr(formulations, "gram", None)  # no kernel may be evaluated
    with pytest.raises(McmError) as trained:
        formulations.train(X, y, config)
    assert str(trained.value) == str(solved.value)


@pytest.mark.parametrize("config", [
    HARD, soft(0.3), formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("rbf", gamma=0.5)),
], ids=lambda config: config.variant)
def test_build_problem_matches_per_sample_reference(config):
    rng = np.random.default_rng(26)
    X = rng.normal(size=(9, 3))
    y = rng.permutation([-1.0] * 4 + [1.0] * 5)
    scores = X if config.kernel is None else gram(config.kernel, X)
    objective, A, senses, rhs, free = oracles.mcm_program(scores, y, config.C)
    if config.variant == "soft-linear":
        # trained with h = 1 + t: the cap rows drop q_i and read <= 1, t >= 0
        q_cols = np.arange(X.shape[1] + 2, A.shape[1])
        A[0::2, q_cols], rhs[0::2], free[X.shape[1] + 1] = 0.0, 1.0, False
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


def test_iteration_limit_on_separable_data_is_solver_failure(monkeypatch):
    # phase 1 runs out of iterations before it finds the (existing) feasible
    # point; that certifies nothing about separability
    problem, _ = formulations.build_problem(SIX_POINTS, SIX_LABELS, HARD)
    solution = lp.solve(problem, max_iterations=2)
    assert solution.status is lp.LpStatus.ITERATION_LIMIT and solution.limit_exceeded
    assert solution.primal_values is None
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: solve(problem, max_iterations=2))
    with pytest.raises(SolverFailure, match="iteration_limit"):
        formulations.train(SIX_POINTS, SIX_LABELS, formulations.TrainConfig("hard-linear"))


def test_single_class_rejected():
    with pytest.raises(McmError, match="^training data contains a single class$"):
        formulations.build_problem(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]), HARD)
    with pytest.raises(McmError, match="^training data contains a single class$"):
        formulations.build_problem(
            np.array([[1.0]]), np.array([1.0]),
            formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("linear")))


def test_soft_linear_large_c_recovers_hard_margin():
    hard = formulations.train(SIX_POINTS, SIX_LABELS,
                              formulations.TrainConfig("hard-linear"))
    problem, layout = formulations.build_problem(SIX_POINTS, SIX_LABELS, soft(1e6))
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    slacks = solution.primal_values[layout.q_cols]
    assert np.all(slacks <= 1e-6)
    model = formulations.extract_linear(solution, layout, soft(1e6))
    assert model.h == pytest.approx(hard.model.h, abs=1e-4)


@pytest.mark.parametrize("fit", [1, 8, 22, 36])  # census draws of 123, 127, 62 and 27 rows
def test_soft_linear_trains_the_paper_program(fit):
    # the q-free program trained here and the paper's, with q_i in both rows
    # of its sample, have the same optimum; the trained point, with h
    # restored, meets the paper's rows
    import census

    X, y = census.fit_data(fit)
    for C in (0.01, 1.0, 100.0):
        paper = oracles.paper_problem(X, y, C)
        reference = lp.solve(paper)
        assert reference.status is lp.LpStatus.OPTIMAL and reference.phase_iterations[0] > 0
        result = formulations.train(X, y, soft(C))
        assert result.objective_value == pytest.approx(reference.objective_value, rel=1e-9)
        problem, layout = formulations.build_problem(X, y, soft(C))
        solution = lp.solve(problem)
        assert solution.phase_iterations[0] == 0
        x, objective = layout.restore(solution)
        assert objective == result.objective_value
        assert x[layout.h_col] == result.model.h == 1.0 + solution.primal_values[layout.h_col]
        assert census.worst_violation(paper, x) <= 1e-8  # relative to 1 + max |rhs|


def test_soft_linear_always_feasible():
    X = np.array([[0.0], [0.0]])
    y = np.array([1.0, -1.0])
    for C in (0.01, 1.0, 100.0):
        problem, layout = formulations.build_problem(X, y, soft(C))
        solution = lp.solve(problem)
        assert solution.status is lp.LpStatus.OPTIMAL
        w = solution.primal_values[layout.weight_cols]
        b = solution.primal_values[layout.b_col]
        q = solution.primal_values[layout.q_cols]
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
    q = solution.primal_values[layout.q_cols]
    assert q[3] > 1.0 - 1e-6  # the flipped point needs slack to cross the margin
    # at small C a whiff of slack may leak onto minimum-margin points (the
    # slack also appears in the h constraint); it stays two orders smaller
    assert np.delete(q, 3).max() <= 0.1
    # a larger penalty isolates the slack exactly
    problem10, layout10 = formulations.build_problem(X, flipped, soft(10.0))
    solution10 = lp.solve(problem10)
    q10 = solution10.primal_values[layout10.q_cols]
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
    lam_full = solution.primal_values[layout.weight_cols]
    b = solution.primal_values[layout.b_col]
    K = gram(KernelSpec("rbf", gamma=1.0), X)
    full = K @ lam_full + b
    pruned = decision_many(model, X)
    assert np.abs(full - pruned).max() <= 1e-9
    assert model.sv_count <= X.shape[0]


def test_kernel_fit_evaluates_training_gram_once(monkeypatch):
    # build_problem's Gram matrix also serves the pruning check, so one rbf
    # fit evaluates the kernel on (X, X) once
    X, y = oracles.blobs(0, 30, 2, 1.0)
    original = kernels.cross_gram
    calls = []

    def counting(kernel, A, B):
        calls.append((len(A), len(B)))
        return original(kernel, A, B)

    for name, module in list(sys.modules.items()):
        if name.startswith("mcm") and getattr(module, "cross_gram", None) is original:
            monkeypatch.setattr(module, "cross_gram", counting)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.5))
    formulations.train(X, y, config)
    assert calls == [(30, 30)]


@pytest.mark.parametrize("kernel", [
    KernelSpec("linear"), KernelSpec("poly", degree=2), KernelSpec("rbf", gamma=0.125),
    KernelSpec("rbf", gamma=2.0)], ids=["linear", "poly", "rbf-gamma-0.125", "rbf-gamma-2"])
def test_pruning_on_build_gram_matches_cross_gram_reference(kernel):
    # the reference checks drift on a fresh cross_gram(X, X); the Gram matrix
    # build_problem made has the same bits, so the pruned models are too
    config = formulations.TrainConfig("kernel", C=1.0, kernel=kernel)
    rng = np.random.default_rng(5)
    for seed in range(3):
        X, y = oracles.blobs(seed, 40, 3, 1.5)
        problem, layout = formulations.build_problem(X, y, config)
        solution = lp.solve(problem)
        fresh = dataclasses.replace(layout, scores=kernels.cross_gram(kernel, X, X))
        model = formulations.train(X, y, config).model
        reference = formulations.extract_kernel(solution, fresh, config, X)
        assert model_to_json(model) == model_to_json(reference)
        # coefficients spread over many magnitudes make the cutoff back off
        values = solution.primal_values.copy()
        values[layout.weight_cols] = rng.normal(size=40) * 10.0 ** -rng.integers(0, 14, size=40)
        spread = lp.LpSolution(lp.LpStatus.OPTIMAL, values, 0.0, (0, 0))
        assert model_to_json(formulations.extract_kernel(spread, layout, config, X)) == \
            model_to_json(formulations.extract_kernel(spread, fresh, config, X))


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
    with pytest.raises(McmError, match="^solution status is infeasible$"):
        formulations.extract_linear(bad, layout, formulations.TrainConfig("hard-linear"))
    with pytest.raises(McmError, match="^solution status is infeasible$"):
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
        with pytest.raises(McmError, match=f"^{y.size} labels for 4 samples$"):
            formulations.build_problem(X, y, config)
        with pytest.raises(McmError, match=f"^{y.size} labels for 4 samples$"):
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
    with pytest.raises(McmError, match="^variant 'hard-linear' takes no C$"):
        formulations.TrainConfig("hard-linear", C=1.0)


@pytest.mark.parametrize("variant, C", [("hard-linear", None), ("soft-linear", 1.0)])
def test_linear_variants_take_no_kernel(variant, C):
    with pytest.raises(McmError, match=f"^variant '{variant}' takes no kernel$"):
        formulations.TrainConfig(variant, C=C, kernel=KernelSpec("rbf", gamma=1.0))


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
        totals.append(float(solution.primal_values[layout.q_cols].sum()))
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


@pytest.mark.xfail(strict=True, reason="poly-3 Gram matrix of far-apart 2-D blobs "
                   "(condition number near 1e22): the simplex keeps 14 support vectors "
                   "against rank 10, or ends in a numerical failure on a singular basis; "
                   "HiGHS finds 1.51 for the second draw")
@pytest.mark.parametrize("seed, m", [(21943938, 38), (2, 34)])
def test_ill_conditioned_poly3_program_keeps_the_rank_bound(seed, m):
    # every feasible point has h >= 1, so the program is bounded below by 1
    X, y = oracles.blobs(seed, m, 2, 8.0)
    config = formulations.TrainConfig("kernel", C=1.0,
                                      kernel=KernelSpec("poly", degree=3, coef0=1.0))
    problem, layout = formulations.build_problem(X, y, config)
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.objective_value >= 1.0 - 1e-9
    model = formulations.extract_kernel(solution, layout, config, X)
    assert model.sv_count <= np.linalg.matrix_rank(gram(config.kernel, X))


def test_singular_basis_does_not_certify_unboundedness(monkeypatch):
    # the second draw above: every feasible point has h >= 1 (HiGHS: 1.5125),
    # but the simplex meets an entering column with no positive entry where
    # the basis matrix is singular, so the tableau cannot be rebuilt to check
    # it; that is a numerical failure, not a proof of unboundedness
    X, y = oracles.blobs(2, 34, 2, 8.0)
    config = formulations.TrainConfig("kernel", C=1.0,
                                      kernel=KernelSpec("poly", degree=3, coef0=1.0))
    problem, _ = formulations.build_problem(X, y, config)
    rebuilt = []
    refactor = lp._Tableau.refactor

    def recording(tab):
        rebuilt.append(refactor(tab))
        return rebuilt[-1]

    with monkeypatch.context() as patch:
        patch.setattr(lp._Tableau, "refactor", recording)
        solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.NUMERICAL_FAILURE
    assert rebuilt[-1] is None  # the last refactorization met a singular basis
    with pytest.raises(SolverFailure, match="numerical_failure"):
        formulations.train(X, y, config)


@pytest.mark.parametrize("k", [11, 20, 100])
def test_large_features_keep_their_small_weights(k):
    # the weights of these fits are about 10^-k, below every solver
    # tolerance; the vertex keeps them, so the hyperplane separates
    y = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
    for config in (HARD, formulations.TrainConfig("soft-linear", C=1.0)):
        for seed in range(6):
            X = (np.random.default_rng(seed).normal(size=(30, 3)) + 3.0 * y[:, None]) * 10.0 ** k
            model = formulations.train(X, y, config).model
            assert np.any(model.w != 0.0)
            assert np.array_equal(np.sign(decision_many(model, X)), y)


def test_rounding_size_weights_are_the_vertex():
    X, y = oracles.labelled_rows("1e300,0,a\n1e300,1,a\n-1e300,2,b\n-1e300,3,b\n")
    for config in (HARD, formulations.TrainConfig("soft-linear", C=1.0)):
        model = formulations.train(X, y, config).model
        assert model.w.tolist() == [1e-300, 0.0] and model.b == 0.0


def test_unbounded_phase_1_is_a_numerical_failure():
    # phase 1 is bounded below by 0, so a column with no positive entry there,
    # even on a rebuilt tableau, is drift and certifies nothing
    X, y = oracles.labelled_rows(oracles.TINY4_CSV)
    problem, _ = formulations.build_problem(X, y, HARD)
    solution = lp.solve(problem)
    assert solution.status is lp.LpStatus.NUMERICAL_FAILURE
    assert solution.phase_iterations[1] == 0 and solution.primal_values is None
    with pytest.raises(SolverFailure, match="^solver returned numerical_failure$"):
        formulations.train(X, y, HARD)
