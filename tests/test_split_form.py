"""Native free variables against the split form they replace.

The solver keeps one column per free variable and lets it enter in either
direction.  ``oracles.split_free`` writes the same LP with every free
variable as two nonnegative columns, the way the solver used to store it, so
solving that LP replays the split-form solver.  Pricing and Bland's leaving
ties still read the directions in the split form's order, so where both runs
start alike and drive no artificial out, they must make the same pivots in
the same order and end on the same bytes.  The start and the drive-out take
only positive directions in column order: the split form's x- can start a
row or be driven in where the native solve uses an artificial or another
column, and there the two agree on status and objective only.
"""

import numpy as np
import pytest

from mcm import formulations, lp
from mcm.kernels import KernelSpec

import census
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
    _assert_replayed(problem, native, native_pivots, split, split_pivots)
    return native


def _assert_replayed(problem, native, native_pivots, split, split_pivots):
    assert native.status is split.status
    assert native.phase_iterations == split.phase_iterations
    assert native_pivots == split_pivots
    if native.status is lp.LpStatus.OPTIMAL:
        x = oracles.merge_split(problem, split.primal_values)
        assert native.primal_values.tobytes() == x.tobytes()
        assert np.float64(native.objective_value).tobytes() == \
            np.float64(problem.objective @ x).tobytes()


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


def _split_start(problem, basis) -> list:
    """A native start basis in the split form's indices: the negative parts
    of the free columns sit between the originals and the slacks."""
    shift = int(problem.free.sum())
    return [j if j < problem.n_vars else j + shift for j in basis]


def _assert_feasible(problem, x):
    assert np.all(x[~problem.free] >= 0.0)
    assert census.worst_violation(problem, x) <= census.ROW_TOL


def test_small_integer_lps_replay_split_form(monkeypatch):
    # small integer data ties often, and mixes optimal, infeasible and
    # unbounded outcomes, zero-valued free variables and Bland's rule.  An
    # LP whose split form starts a row on x- (the native start puts an
    # artificial there), or whose either solve drives an artificial out
    # (the drive-out pivots, which phase_iterations does not count, read
    # column order), is only compared, not replayed
    rng = np.random.default_rng(7)
    _, starts = oracles.phase1_starts(monkeypatch)
    statuses = set()
    counts = {"replayed": 0, "compared": 0}
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
            native, native_pivots = _solve_recording(problem, monkeypatch)
            split, split_pivots = _solve_recording(oracles.split_free(problem), monkeypatch)
            (native_basis, _, _), (split_basis, _, _) = starts[-2:]
            if (_split_start(problem, native_basis) == split_basis
                    and len(native_pivots) == native.iterations
                    and len(split_pivots) == split.iterations):
                counts["replayed"] += 1
                _assert_replayed(problem, native, native_pivots, split, split_pivots)
            else:
                counts["compared"] += 1
                assert native.status is split.status
                if native.status is lp.LpStatus.OPTIMAL:
                    assert native.objective_value == pytest.approx(
                        split.objective_value, rel=1e-9, abs=1e-9)
                    _assert_feasible(problem, native.primal_values)
                    _assert_feasible(problem, oracles.merge_split(problem, split.primal_values))
            statuses.add(native.status)
    assert statuses == {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE, lp.LpStatus.UNBOUNDED}
    # of the 400 runs (200 LPs, two patiences), 18 start apart and 2 drive an artificial out
    assert counts == {"replayed": 380, "compared": 20}


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
    # each form's tableau has no artificial column, in either phase
    native_width = problem.n_vars + problem.n_constraints + 1
    split_width = native_width + int(problem.free.sum())
    assert {shape[1] for shape in refactors} == {native_width, split_width}
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
    # where x appears in row 0 only, with coefficient -1, the split form's
    # x- is a unit column there and starts row 0; the native start takes no
    # negative direction, so an artificial starts row 0 and phase 1 brings
    # x in, to the same optimum
    problem = oracles.make_problem(
        [1.0, 2.0], [([-1.0, 1.0], "=", 2.0), ([0.0, 1.0], "<=", 4.0)], ["free", "nonneg"])
    _, starts = oracles.phase1_starts(monkeypatch)
    solution = lp.solve(problem)
    split = lp.solve(oracles.split_free(problem))
    assert starts == [([3, 2], [1.0, 1.0], 3), ([2, 3], [1.0, 1.0], 4)]  # native, split
    assert solution.primal_values.tolist() == [-2.0, 0.0]
    assert solution.phase_iterations == (1, 0)
    assert split.phase_iterations == (0, 0)
    assert solution.objective_value == split.objective_value == -2.0


def test_driving_out_artificials_leaves_a_nonsingular_basis():
    # x is free and basic in its negative direction in row 0; rounding has
    # left 1e-9 in its column at row 1, where an artificial is basic.  The
    # split form would zero only the basic x- there, so x+ would be the
    # largest entry of that row and enter, basic in two rows.  Every basic
    # column is passed over instead, so the next largest entry enters.
    tab = lp._Tableau((np.array([[-1.0, 0.0], [1e-9, 5e-10]]), np.zeros(2)),
                      np.array([0, 2]), np.array([-1.0, 1.0]), np.array([0]), 2, np.array([1]))
    lp._drive_out_artificials(tab)
    assert tab.basis.tolist() == [0, 1]
    assert tab.sign.tolist() == [-1.0, 1.0]
    assert np.linalg.matrix_rank(tab._basis_matrix()) == 2
