"""The simplex against an independent solver, scipy's HiGHS, at sizes that
vertex enumeration cannot reach.  Skipped when scipy is not installed."""

import numpy as np
import pytest

from mcm import formulations, lp
from mcm.kernels import KernelSpec

import census
import oracles

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: lp.LpStatus.OPTIMAL, 2: lp.LpStatus.INFEASIBLE, 3: lp.LpStatus.UNBOUNDED}


def highs(problem: lp.LpProblem):
    """(status, objective) of the same LP solved by HiGHS."""
    le = problem.senses == lp.LESS_EQUAL
    ge = problem.senses == lp.GREATER_EQUAL
    eq = problem.senses == lp.EQUAL
    upper = le | ge
    sign = np.where(ge, -1.0, 1.0)[upper]
    res = linprog(problem.objective,
                  A_ub=problem.A[upper] * sign[:, None] if upper.any() else None,
                  b_ub=problem.rhs[upper] * sign if upper.any() else None,
                  A_eq=problem.A[eq] if eq.any() else None,
                  b_eq=problem.rhs[eq] if eq.any() else None,
                  bounds=[(None, None) if f else (0, None) for f in problem.free],
                  method="highs", options={"time_limit": 60.0})
    if res.status == 1:
        pytest.fail(f"HiGHS stopped early: {res.message}")
    return HIGHS_STATUS[res.status], (res.fun if res.status == 0 else None)


def assert_agrees(problem):
    """Same status as HiGHS; when optimal, the same objective, at a point of
    ours that meets every row within ``census.ROW_TOL``.  HiGHS's own points
    are not gated: they meet the rows only to its tolerance, about 1e-7."""
    ours = lp.solve(problem)
    status, objective = highs(problem)
    assert ours.status is status
    if status is lp.LpStatus.OPTIMAL:
        assert ours.objective_value == pytest.approx(objective, rel=1e-7, abs=1e-7)
        assert census.worst_violation(problem, ours.primal_values) <= census.ROW_TOL


CONFIGS = {
    "hard-linear": formulations.TrainConfig("hard-linear"),
    "soft-linear": formulations.TrainConfig("soft-linear", C=0.5),
    "rbf-gamma-2": formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=2.0)),
}


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("gap", [1.0, 6.0])  # overlapping: hard-linear is infeasible
def test_mcm_programs_match_highs(name, gap):
    for seed in range(3):
        X, y = oracles.blobs(seed, 60, 3, gap)
        problem, _ = formulations.build_problem(X, y, CONFIGS[name])
        assert_agrees(problem)


@pytest.mark.parametrize("name, gap", [("soft-linear", 1.0), ("hard-linear", 6.0)])
def test_300_sample_linear_programs_match_highs(name, gap):
    for seed in range(3):
        X, y = oracles.blobs(seed, 300, 3, gap)
        problem, _ = formulations.build_problem(X, y, CONFIGS[name])
        assert_agrees(problem)


def test_unbounded_program_matches_highs():
    # minimize -x1 subject to x1 - x2 <= 1: x1 = x2 + 1 grows without limit
    assert_agrees(oracles.make_problem([-1.0, 0.0], [([1.0, -1.0], "<=", 1.0)],
                                       ["nonneg", "nonneg"]))


def test_random_lps_match_highs():
    rng = np.random.default_rng(41)
    for _ in range(20):
        problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=int(rng.integers(5, 30)),
                                                        n_ineq=int(rng.integers(5, 40)))
        assert_agrees(problem)


def test_fifteen_row_random_lp_matches_highs():
    # 10 variables, 13 inequalities and an equality: 3.3M candidate bases,
    # too many for vertex enumeration in the fast tier
    rng = np.random.default_rng(7)
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=10, n_ineq=13,
                                                    add_equality=True)
    assert problem.n_constraints == 15
    assert_agrees(problem)
    x = lp.solve(problem).primal_values
    assert np.all(x >= 0.0)
    values = problem.A @ x
    le, ge = problem.senses == lp.LESS_EQUAL, problem.senses == lp.GREATER_EQUAL
    eq = problem.senses == lp.EQUAL
    assert np.all(values[le] <= problem.rhs[le] + 1e-9)
    assert np.all(values[ge] >= problem.rhs[ge] - 1e-9)
    assert np.allclose(values[eq], problem.rhs[eq], rtol=0.0, atol=1e-9)


def test_poly2_sparsity_program_matches_highs():
    # acceptance criterion 6's data under poly-2: 6 support vectors, a
    # well-posed program (HiGHS: 18.234166281722)
    X, y = oracles.two_blobs_200()
    config = formulations.TrainConfig("kernel", C=1.0,
                                      kernel=KernelSpec("poly", degree=2, coef0=1.0))
    problem, _ = formulations.build_problem(X, y, config)
    assert_agrees(problem)


@pytest.mark.xfail(strict=True, reason="rank-deficient Gram matrix (condition number "
                   "near 1e18): the simplex returns objective 1.0 at a point violating "
                   "a row by about 1e7, HiGHS finds 2.31")
def test_rank_deficient_kernel_program_matches_highs():
    # the kernel_grid benchmark's gamma = 0.125 regime: 24 2-D unit blobs, centres 3 apart
    rng = np.random.default_rng([1, 3])
    labels = np.arange(24) % 2
    rng.shuffle(labels)
    X = np.array([[0.0, 0.0], [3.0, 0.0]])[labels] + rng.standard_normal((24, 2))
    y = np.where(labels == 0, 1.0, -1.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.125))
    problem, _ = formulations.build_problem(X, y, config)
    assert_agrees(problem)
