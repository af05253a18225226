"""Native free variables against the split form they replace.

The solver keeps one column per free variable and lets it enter in either
direction.  ``oracles.split_free`` writes the same LP with every free
variable as two nonnegative columns, the way the solver used to store it, so
solving that LP replays the split-form solver.  Both runs must make the same
pivots in the same order and end on the same bytes.
"""

import numpy as np
import pytest

from mcm import formulations, lp
from mcm.kernels import KernelSpec

import oracles


def _solve_recording(problem, monkeypatch):
    """Solve, recording each pivot as (row, entering direction), with the
    direction indexed in the split form's column order."""
    pivots = []
    pivot = lp._Tableau.pivot

    def spy(tab, row, col, sign=1.0):
        if sign < 0:
            direction = tab.n_orig + int(np.searchsorted(tab.free_cols, col))
        else:
            direction = col if col < tab.n_orig else col + tab.free_cols.size
        pivots.append((int(row), int(direction)))
        return pivot(tab, row, col, sign)

    with monkeypatch.context() as patch:
        patch.setattr(lp._Tableau, "pivot", spy)
        return lp.solve(problem), pivots


def assert_replays_split_form(problem, monkeypatch):
    native, native_pivots = _solve_recording(problem, monkeypatch)
    split, split_pivots = _solve_recording(oracles.split_free(problem), monkeypatch)
    assert native.status is split.status
    assert native.phase_iterations == split.phase_iterations
    assert native_pivots == split_pivots
    if native.status is lp.LpStatus.OPTIMAL:
        x = oracles.merge_split(problem, split.primal_values)
        assert native.primal_values.tobytes() == x.tobytes()
        assert np.float64(native.objective_value).tobytes() == \
            np.float64(problem.objective @ x).tobytes()
    return native


CONFIGS = {
    "hard-linear": (formulations.TrainConfig("hard-linear"), 6.0),
    "hard-linear-overlapping": (formulations.TrainConfig("hard-linear"), 1.0),
    "soft-linear": (formulations.TrainConfig("soft-linear", C=0.5), 1.0),
    "rbf-gamma-0.125": (formulations.TrainConfig(
        "kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.125)), 3.0),
    "rbf-gamma-2": (formulations.TrainConfig(
        "kernel", C=1.0, kernel=KernelSpec("rbf", gamma=2.0)), 1.0),
}
STEEPEST_EDGE_STALL = lp._STALL_ITERATIONS  # the solver's own patience


# a stall patience of 1 hands most pivots of these degenerate programs to
# Bland's rule, whose entering and leaving choices follow the split order
@pytest.mark.parametrize("stall", [STEEPEST_EDGE_STALL, 1], ids=["steepest-edge", "bland"])
@pytest.mark.parametrize("name", CONFIGS)
def test_training_programs_replay_split_form(name, stall, monkeypatch):
    config, gap = CONFIGS[name]
    monkeypatch.setattr(lp, "_STALL_ITERATIONS", stall)
    for seed in range(2):
        X, y = oracles.blobs(seed, 40, 3, gap)
        problem, _ = formulations.build_problem(X, y, config)
        solution = assert_replays_split_form(problem, monkeypatch)
        expected = lp.LpStatus.INFEASIBLE if name.endswith("overlapping") else lp.LpStatus.OPTIMAL
        assert solution.status is expected


def _random_lp_with_free(rng):
    """A random bounded LP where some variables are free, each held above
    -5 by an explicit row so the region stays bounded."""
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=int(rng.integers(3, 9)),
                                                    n_ineq=int(rng.integers(3, 12)))
    n = problem.n_vars
    free = rng.random(n) < 0.5
    free[int(rng.integers(n))] = True
    floors = np.eye(n)[free]
    return lp.LpProblem(problem.objective, np.vstack([problem.A, floors]),
                        np.concatenate([problem.senses, np.full(floors.shape[0], ">=")]),
                        np.concatenate([problem.rhs, np.full(floors.shape[0], -5.0)]),
                        free)


def test_random_lps_with_free_variables_replay_split_form(monkeypatch):
    rng = np.random.default_rng(43)
    negative = 0
    for _ in range(40):
        problem = _random_lp_with_free(rng)
        solution = assert_replays_split_form(problem, monkeypatch)
        assert solution.status is lp.LpStatus.OPTIMAL
        negative += bool(np.any(solution.primal_values[problem.free] < 0.0))
    assert negative >= 5  # the negative directions were taken


def test_small_integer_lps_replay_split_form(monkeypatch):
    # small integer data ties often, and mixes optimal, infeasible and
    # unbounded outcomes, zero-valued free variables and Bland's rule
    rng = np.random.default_rng(7)
    statuses = set()
    for _ in range(200):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        rhs = rng.integers(-2, 4, size=m).astype(float)
        c = rng.integers(-2, 3, size=n).astype(float)
        senses = rng.choice([lp.LESS_EQUAL, lp.GREATER_EQUAL, lp.EQUAL], size=m,
                            p=[0.5, 0.3, 0.2])
        problem = lp.LpProblem(c, A, senses, rhs, rng.random(n) < 0.5)
        for stall in (STEEPEST_EDGE_STALL, 1):
            monkeypatch.setattr(lp, "_STALL_ITERATIONS", stall)
            statuses.add(assert_replays_split_form(problem, monkeypatch).status)
    assert statuses == {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE, lp.LpStatus.UNBOUNDED}


@pytest.mark.parametrize("seed", [0, 3])
def test_refactorized_solve_replays_split_form(seed, monkeypatch):
    # after a refactorization a basic column is a unit vector only to
    # rounding, so the two directions of a free variable that was basic
    # carry reduced costs that are not exact negations of each other
    refactors = []
    refactor = lp._Tableau.refactor

    def counting(tab):
        refactors.append(tab.T.shape)
        return refactor(tab)

    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 25)
    monkeypatch.setattr(lp._Tableau, "refactor", counting)
    X, y = oracles.blobs(seed, 30, 2, 1.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.125))
    problem, _ = formulations.build_problem(X, y, config)
    solution = assert_replays_split_form(problem, monkeypatch)
    assert solution.status is lp.LpStatus.OPTIMAL
    native_width = problem.n_vars + problem.n_constraints + 1
    assert any(shape[1] == native_width for shape in refactors)  # the native phase 2
    assert len(refactors) >= 6


def test_unbounded_free_direction_replays_split_form(monkeypatch):
    # minimize x + y with x free: x falls without limit along x + y <= 1
    problem = oracles.make_problem(
        [1.0, 1.0], [([1.0, 1.0], "<=", 1.0), ([0.0, 1.0], "<=", 2.0)], ["free", "nonneg"])
    solution = assert_replays_split_form(problem, monkeypatch)
    assert solution.status is lp.LpStatus.UNBOUNDED


def test_free_variable_enters_its_row_in_the_negative_direction(monkeypatch):
    # row 0 is an equality, so it starts on an artificial, and phase 1's one
    # pivot brings x in there in its negative direction (split index 2), as
    # it brings in the split form's x-
    problem = oracles.make_problem(
        [1.0, 2.0], [([-1.0, 0.5], "=", 2.0), ([1.0, 1.0], "<=", 4.0)], ["free", "nonneg"])
    solution = assert_replays_split_form(problem, monkeypatch)
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.primal_values.tolist() == [-2.0, 0.0]
    assert _solve_recording(problem, monkeypatch)[1] == [(0, 2)]
    # where x appears in row 0 only, with coefficient -1, its negative
    # direction is a unit column there: row 0 starts on it, as on the split
    # form's x-, and the start is optimal
    problem = oracles.make_problem(
        [1.0, 2.0], [([-1.0, 1.0], "=", 2.0), ([0.0, 1.0], "<=", 4.0)], ["free", "nonneg"])
    _, starts = oracles.phase1_starts(monkeypatch)
    solution = assert_replays_split_form(problem, monkeypatch)
    assert solution.primal_values.tolist() == [-2.0, 0.0]
    assert solution.phase_iterations == (0, 0)
    assert starts == [([0, 2], [-1.0, 1.0], 3), ([2, 3], [1.0, 1.0], 4)]  # native, split


def test_driving_out_artificials_prices_both_directions():
    # x is free and basic in its negative direction in row 0; rounding has
    # left 1e-9 in its column at row 1, where an artificial is basic.  The
    # split form zeroes only the basic x- there, so x+ is still the largest
    # entry of that row and enters; so must x, in its positive direction.
    def tableau(A, basis, sign, free_cols, n_orig):
        A, b = np.array(A), np.zeros(2)
        return lp._Tableau(np.hstack([A, b[:, None]]), (A, b), np.array(basis),
                           np.array(sign), np.array(free_cols, dtype=int), n_orig)

    native = tableau([[-1.0, 0.0, 0.0], [1e-9, 5e-10, 1.0]], [0, 2], [-1.0, 1.0], [0], 2)
    split = tableau([[-1.0, 0.0, 1.0, 0.0], [1e-9, 5e-10, -1e-9, 1.0]], [2, 3], [1.0, 1.0],
                    [], 3)
    lp._drive_out_artificials(native, 2)
    lp._drive_out_artificials(split, 3)
    assert native.split_index().tolist() == split.basis.tolist() == [2, 0]
    expanded = np.hstack([native.T[:, :2], -native.T[:, :1], native.T[:, 2:]])
    assert (expanded + 0.0).tobytes() == (split.T + 0.0).tobytes()
