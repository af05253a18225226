import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from mcm import lp
from mcm.errors import McmError
from mcm.kernels import KernelSpec

import oracles


def test_two_variable_vertex():
    problem = oracles.make_problem([-1.0, -2.0], [([1.0, 1.0], "<=", 1.0)], ["nonneg"] * 2)
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert np.allclose(sol.primal_values, [0.0, 1.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    problem = oracles.make_problem(
        [1.0], [([1.0], ">=", 1.0), ([1.0], "<=", 0.0)], ["nonneg"])
    assert lp.solve(problem).status is lp.LpStatus.INFEASIBLE


def test_unbounded_certified():
    problem = oracles.make_problem([-1.0], [([1.0], ">=", 1.0)], ["nonneg"])
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.UNBOUNDED
    assert sol.primal_values is None and sol.objective_value is None


def test_memory_budget_is_checked_before_allocating(monkeypatch):
    # 2 rows of 2 variables, a slack, a surplus and one artificial: the
    # phase-1 tableau takes 8 * 2 * 6 = 96 bytes, counted twice
    problem = oracles.make_problem(
        [-1.0, -2.0], [([1.0, 1.0], "<=", 1.0), ([1.0, 0.0], ">=", 0.5)], ["nonneg"] * 2)
    monkeypatch.setattr(lp, "_MAX_TABLEAU_BYTES", 191)
    with pytest.raises(McmError, match=r"^an LP of 2 rows and 5 columns needs 96 bytes for "
                                       r"its phase-1 tableau; twice that is over the budget "
                                       r"of 191 bytes$"):
        lp.solve(problem)
    monkeypatch.setattr(lp, "_MAX_TABLEAU_BYTES", 192)
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.5, abs=1e-9)


@pytest.mark.parametrize("sense", ["<=", ">=", "="])
@pytest.mark.parametrize("rhs", [2.0, 0.0, -0.0, -2.0])
def test_a_row_starts_on_its_slack_only_where_that_slack_is_plus_one(monkeypatch, sense, rhs):
    # x (column 0) has one nonzero entry, 1 in row 0, and would be a unit
    # column there once the row is flipped to a nonnegative rhs; it takes no
    # row.  Row 1, y <= 5, always starts on its slack.
    problem = oracles.make_problem(
        [1.0, 1.0], [([1.0, 1.0], sense, rhs), ([0.0, 1.0], "<=", 5.0)], ["nonneg"] * 2)
    budgets, starts = oracles.phase1_starts(monkeypatch)
    lp.solve(problem)
    on_slack = (sense, rhs < 0) in (("<=", False), (">=", True))
    n = 2 + (sense != "=") + 1  # x, y, row 0's slack if any, row 1's slack
    assert budgets == [(2, n + (not on_slack))]
    row0 = 2 if on_slack else n  # row 0's slack, or the first artificial
    assert starts == [([row0, n - 1], [1.0, 1.0], n + (not on_slack))]


def test_dimension_mismatch_rejected():
    problem = oracles.make_problem([1.0, 2.0], [([1.0], "<=", 1.0)], ["nonneg"] * 2)
    with pytest.raises(McmError, match=r"^constraint matrix \(1, 1\) and 1 senses "
                                       r"for 1 rows of 2 variables$"):
        lp.solve(problem)
    with pytest.raises(McmError, match="^a problem needs at least one variable$"):
        lp.solve(oracles.make_problem([], [], []))
    with pytest.raises(McmError, match="^unknown relation '!!'$"):
        lp.solve(lp.LpProblem([1.0], [[1.0]], ["!!"], [1.0], [False]))


@pytest.mark.parametrize("problem, message", [
    (lp.LpProblem([np.inf, 1.0], [[1.0, 1.0]], ["<="], [1.0], [False, False]),
     "objective must be a finite 1-d vector"),
    (lp.LpProblem([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], [False]), "1 bounds for 2 variables"),
    (lp.LpProblem([1.0, 1.0], [[1.0, np.nan]], ["<="], [1.0], [False, False]),
     "constraints have non-finite entries"),
    (lp.LpProblem([1.0, 1.0], [[1.0, 1.0]], ["<="], [-np.inf], [False, False]),
     "constraints have non-finite entries"),
], ids=["objective", "free-mask", "matrix", "rhs"])
def test_malformed_problem_rejected(problem, message):
    with pytest.raises(McmError, match=f"^{message}$"):
        lp.solve(problem)


def test_random_lp_matches_vertex_enumeration():
    # 8 variables, 11 constraints (76k candidate bases): an exact oracle that
    # needs no scipy; the HiGHS oracle covers a 15-constraint instance
    rng = np.random.default_rng(7)
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=8, n_ineq=9,
                                                    add_equality=True)
    assert problem.n_constraints == 11
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    oracle_obj, _ = oracles.vertex_minimum(problem)
    assert oracle_obj is not None
    assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-6)


def test_optimal_solutions_are_feasible():
    rng = np.random.default_rng(11)
    for _ in range(25):
        problem, _ = oracles.random_feasible_bounded_lp(rng)
        sol = lp.solve(problem)
        assert sol.status is lp.LpStatus.OPTIMAL
        x = sol.primal_values
        assert np.all(x >= -1e-8)
        for coeffs, relation, rhs in zip(problem.A, problem.senses, problem.rhs):
            value = float(coeffs @ x)
            if relation == "<=":
                assert value <= rhs + 1e-8
            elif relation == ">=":
                assert value >= rhs - 1e-8
            else:
                assert value == pytest.approx(rhs, abs=1e-8)


def test_weak_duality_spot_check():
    rng = np.random.default_rng(13)
    for _ in range(10):
        problem, interior = oracles.random_feasible_bounded_lp(rng)
        sol = lp.solve(problem)
        assert sol.status is lp.LpStatus.OPTIMAL
        c = problem.objective
        for t in rng.uniform(0.0, 1.0, 20):
            feasible_point = t * interior + (1.0 - t) * sol.primal_values
            assert c @ feasible_point >= sol.objective_value - 1e-7


def test_determinism_bitwise():
    rng = np.random.default_rng(17)
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=6, n_ineq=8)
    first = lp.solve(problem)
    second = lp.solve(problem)
    assert first.primal_values.tobytes() == second.primal_values.tobytes()
    assert first.objective_value == second.objective_value
    assert first.iterations == second.iterations


def test_beale_cycling_instance_terminates():
    # Beale's classic degenerate LP; greedy pivoting is known to cycle on it
    problem = oracles.make_problem(
        [-0.75, 150.0, -0.02, 6.0],
        [([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
         ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
         ([0.0, 0.0, 1.0, 0.0], "<=", 1.0)],
        ["nonneg"] * 4,
    )
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert not sol.limit_exceeded
    oracle_obj, _ = oracles.vertex_minimum(problem)
    assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def test_marshall_suurballe_cycling_instance_terminates():
    # degenerate at the origin (all rhs zero); the ray (0, 1, 1/7, 0) has
    # negative cost, so the certified answer is unboundedness
    problem = oracles.make_problem(
        [-2.3, -2.15, 13.55, 0.4],
        [([0.4, 0.2, -1.4, -0.2], "<=", 0.0),
         ([-7.8, -1.4, 7.8, 0.4], "<=", 0.0)],
        ["nonneg"] * 4,
    )
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.UNBOUNDED
    assert not sol.limit_exceeded


def test_redundant_equalities_handled():
    problem = oracles.make_problem(
        [1.0, 1.0],
        [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0)],
        ["nonneg"] * 2,
    )
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_iteration_limit_flag():
    rng = np.random.default_rng(19)
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=6, n_ineq=8)
    sol = lp.solve(problem, max_iterations=1)
    assert sol.status is lp.LpStatus.ITERATION_LIMIT and sol.limit_exceeded
    assert sol.primal_values is None and sol.objective_value is None


def test_iteration_limit_in_phase_2_is_not_optimal(monkeypatch):
    # phase 1 finishes within the budget and phase 2 runs out: the point
    # reached so far is feasible but not optimal, so none is returned
    from mcm import formulations

    rng = np.random.default_rng(37)
    X, y = _two_blobs(rng, 40, 1, 1.0)  # 43 phase-1 and 11 phase-2 pivots
    problem, _ = formulations.build_problem(
        X, y, formulations.TrainConfig("soft-linear", C=1.0))
    full = lp.solve(problem)
    assert full.status is lp.LpStatus.OPTIMAL and full.iterations > 48
    phases = []
    run = lp._run_simplex

    def spy(*args, **kwargs):
        phases.append(kwargs.get("artificial_start"))
        return run(*args, **kwargs)

    monkeypatch.setattr(lp, "_run_simplex", spy)
    sol = lp.solve(problem, max_iterations=48)
    assert len(phases) == 2 and phases[1] is None  # phase 2 was entered
    assert sol.status is lp.LpStatus.ITERATION_LIMIT and sol.limit_exceeded
    assert sol.primal_values is None and sol.objective_value is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lp_without_rows(n):
    # with no constraint rows nothing pivots: the minimum is the origin
    # unless some direction lowers the cost without end
    bounds_of = {"nonneg": False, "free": True}
    for objective in itertools.product([-1.0, 0.0, 1.0, 1e-11, -1e-11], repeat=n):
        for bounds in itertools.product(bounds_of, repeat=n):
            sol = lp.solve(oracles.make_problem(objective, [], bounds))
            c = np.array(objective)
            free = np.array([bounds_of[kind] for kind in bounds])
            assert sol.phase_iterations == (0, 0)
            if np.any(c < -1e-10) or np.any(c[free] > 1e-10):
                assert sol.status is lp.LpStatus.UNBOUNDED
                assert sol.primal_values is None and sol.objective_value is None
            else:
                assert sol.status is lp.LpStatus.OPTIMAL
                assert sol.primal_values.tobytes() == np.zeros(n).tobytes()  # all +0.0
                assert sol.objective_value == 0.0


def test_unbounded_only_off_a_rebuilt_tableau(monkeypatch):
    # minimize -x subject to x - y <= 1: x grows without limit along x = y
    problem = oracles.make_problem([-1.0, 0.0], [([1.0, -1.0], "<=", 1.0)],
                                   ["nonneg", "nonneg"])
    assert lp.solve(problem).status is lp.LpStatus.UNBOUNDED
    # a singular basis matrix leaves the iterated tableau in place, and that
    # certifies nothing
    monkeypatch.setattr(lp._Tableau, "refactor", lambda tab: None)
    assert lp.solve(problem).status is lp.LpStatus.NUMERICAL_FAILURE


def test_non_finite_tableau_ends_in_numerical_failure():
    # the failing LP of the ill-scaled grid in tests/test_cli.py: class "c"
    # against the rest on the training rows of fold 2, rbf gamma = 2, C = 1
    from mcm import data as data_mod
    from mcm import formulations
    from mcm.kernels import KernelSpec

    X, labels = oracles.ill_scaled_blobs()
    train = data_mod.make_folds(labels, 3, seed=1).assignments != 2
    y = np.where(np.array(labels)[train] == "c", 1.0, -1.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=2.0))
    problem, _ = formulations.build_problem(X[train], y, config)
    assert problem.A.shape == (60, 62)
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.NUMERICAL_FAILURE and not sol.limit_exceeded
    assert sol.primal_values is None and sol.objective_value is None
    assert min(sol.phase_iterations) > 0  # it broke down in phase 2


def test_standardize_free_split_round_trip():
    problem = oracles.make_problem([1.0], [([1.0], ">=", -3.0)], ["free"])
    std = lp.standardize(problem)
    # the free column is kept once, followed by one surplus column
    assert std.problem.n_vars == 2
    assert std.problem.free.tolist() == [True, False]
    assert np.all(std.problem.senses == lp.EQUAL)
    assert np.array_equal(std.problem.A, [[1.0, -1.0]])
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert sol.primal_values == pytest.approx([-3.0])
    # written as x+ - x-, the same LP gives the same point
    split = oracles.split_free(problem)
    assert split.n_vars == 2 and not split.free.any()
    assert np.array_equal(split.A, [[1.0, -1.0]])
    merged = oracles.merge_split(problem, lp.solve(split).primal_values)
    assert merged.tobytes() == sol.primal_values.tobytes()


def test_standardize_idempotent_on_standard_form():
    problem = oracles.make_problem(
        [1.0, 2.0], [([1.0, 1.0], "=", 1.0)], ["nonneg"] * 2)
    std = lp.standardize(problem)
    assert std.problem.n_vars == 2
    assert np.array_equal(std.problem.objective, problem.objective)
    assert np.array_equal(std.problem.A, problem.A)


def test_standardize_preserves_training_lp_optimum():
    from mcm import formulations

    X = np.array([[0.0, 0.0], [1.0, 0.2], [3.0, 1.0], [4.0, 0.6]])
    y = np.array([-1, -1, 1, 1])
    problem, _ = formulations.build_problem(X, y, formulations.TrainConfig("hard-linear"))
    original = lp.solve(problem)
    std = lp.standardize(problem)
    standardized = lp.solve(std.problem)
    assert original.status is lp.LpStatus.OPTIMAL
    assert standardized.status is lp.LpStatus.OPTIMAL
    assert original.objective_value == pytest.approx(
        standardized.objective_value, abs=1e-9)


def test_lp_text_round_trip():
    rng = np.random.default_rng(23)
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=4, n_ineq=5)
    text = lp.write_lp_text(problem)
    reparsed = oracles.parse_lp_text(text)
    a = lp.solve(problem)
    b = lp.solve(reparsed)
    assert b.objective_value == pytest.approx(a.objective_value, abs=1e-6)


def test_lp_text_names_and_zero_objective():
    problem = lp.LpProblem([0.0, 0.0], [[1.0, -2.0]], [">="], [1.0], [False, True])
    with pytest.raises(McmError, match="^1 names for 2 variables$"):
        lp.write_lp_text(problem, ["a"])
    assert lp.write_lp_text(problem, ["a", "b"]) == (
        "Minimize\n obj: 0.000000000000 a\nSubject To\n"
        " c1: 1.000000000000 a - 2.000000000000 b >= 1.000000000000\n"
        "Bounds\n b free\nEnd\n")


def _dense_pivot(tab, row, col, sign=1.0):
    """Reference rank-one update over the whole tableau, col entering in
    direction sign."""
    T = tab.T
    T[row] /= sign * T[row, col]
    factors = sign * T[:, col]
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = sign
    rhs = T[:, -1]
    rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
    tab.basis[row] = col
    tab.sign[row] = sign


def _same_bits(a, b):
    # adding 0.0 turns -0.0 into +0.0: the dense update may flip the sign of
    # a zero in a column the sparse update leaves alone, and the solver only
    # compares, adds and multiplies such zeros, so no pivot can depend on it
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


def _full_norms(tab):
    return np.einsum("ij,ij->j", tab.T[:, :-1], tab.T[:, :-1])


@pytest.mark.parametrize("order", ["C", "F"])
def test_sparse_pivot_matches_dense_update_bitwise(order):
    rng = np.random.default_rng(29)
    m, n = 14, 40
    S = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.2)
    S[0] = 0.0
    S[0, 3] = 2.5  # pivoting on (0, 3) touches column 3 and row 0's slack only
    b = rng.uniform(0.5, 2.0, m) * (rng.random(m) < 0.5)
    b[0] = 0.0
    b[1] = 1.5     # a pivot row whose rhs entry is nonzero
    S[1, 7] = -0.75
    A = np.hstack([S, np.eye(m)])
    sparse, dense = [lp._Tableau(np.hstack([A, b[:, None]]).copy(order=order), (A, b),
                                 np.arange(n, n + m), np.ones(m), np.array([3, 7]), n)
                     for _ in range(2)]

    def step(row, col, sign=1.0):
        cached = sparse.norms
        sparse.pivot(row, col, sign)
        _dense_pivot(dense, row, col, sign)
        assert sparse.norms is cached  # updated in place, not recomputed
        assert np.array_equal(sparse.basis, dense.basis)
        assert np.array_equal(sparse.sign, dense.sign)
        assert _same_bits(sparse.T, dense.T)
        assert sparse.norms.tobytes() == _full_norms(sparse).tobytes()
        assert sparse.norms[col] == 1.0

    step(0, 3)
    assert np.count_nonzero(sparse.T[0, :-1]) == 2
    step(1, 7, -1.0)  # a free column entering in its negative direction
    assert sparse.T[1, -1] != 0.0
    assert sparse.T[1, 7] == -1.0
    for k in range(24):
        if k == 10:
            sparse.refactor()
            dense.refactor()
            assert _same_bits(sparse.T, dense.T)
        nonbasic = np.setdiff1d(np.arange(n + m), sparse.basis)
        col = int(rng.choice(nonbasic))
        row = int(np.argmax(np.abs(sparse.T[:, col])))
        if abs(sparse.T[row, col]) < 1e-3:
            continue
        step(row, col)


def _solve_with_dense_pivots(problem, monkeypatch):
    def pivot(tab, row, col, sign=1.0):
        _dense_pivot(tab, row, col, sign)
        tab._norms = None  # no cache: every read recomputes the full einsum

    with monkeypatch.context() as patch:
        patch.setattr(lp._Tableau, "pivot", pivot)
        return lp.solve(problem)


def _two_blobs(rng, m, d, gap):
    half = m // 2
    X = np.vstack([rng.normal(size=(half, d)), rng.normal(size=(m - half, d)) + gap])
    y = np.concatenate([-np.ones(half), np.ones(m - half)])
    return X, y


@pytest.mark.parametrize("variant", ["soft-linear", "kernel"])
def test_sparse_pivot_solve_matches_dense_solve(variant, monkeypatch):
    from mcm import formulations
    from mcm.kernels import KernelSpec

    rng = np.random.default_rng(31)
    if variant == "soft-linear":
        X, y = _two_blobs(rng, 120, 5, 1.0)
        config = formulations.TrainConfig("soft-linear", C=1.0)
    else:
        X, y = _two_blobs(rng, 40, 3, 1.5)
        config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.5))
    problem, _ = formulations.build_problem(X, y, config)
    sparse = lp.solve(problem)
    dense = _solve_with_dense_pivots(problem, monkeypatch)
    assert sparse.status is dense.status is lp.LpStatus.OPTIMAL
    assert sparse.iterations > 100
    assert sparse.iterations == dense.iterations
    assert sparse.objective_value == dense.objective_value
    assert sparse.primal_values.tobytes() == dense.primal_values.tobytes()


def _three_class_blobs(rng, m, d, gap):
    labels = np.arange(m) % 3
    X = rng.normal(size=(m, d)) + gap * np.eye(3, d)[labels]
    return X, np.where(labels == 0, 1.0, -1.0)  # the first class against the rest


@pytest.mark.parametrize("variant", ["rbf-gamma-0.125", "soft-linear-3-class"])
def test_positive_row_ratio_test_solve_matches_full_length(variant, monkeypatch):
    from mcm import formulations
    from mcm.kernels import KernelSpec

    rng = np.random.default_rng(43)
    if variant == "rbf-gamma-0.125":
        X, y = _two_blobs(rng, 60, 2, 3.0)
        config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.125))
    else:
        X, y = _three_class_blobs(rng, 120, 5, 2.0)
        config = formulations.TrainConfig("soft-linear", C=1.0)
    problem, _ = formulations.build_problem(X, y, config)
    fast = lp.solve(problem)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_ratio_test", oracles.ratio_test_full_length)
        full = lp.solve(problem)
    assert fast.status is full.status is lp.LpStatus.OPTIMAL
    assert fast.iterations > 100
    assert fast.phase_iterations == full.phase_iterations
    assert fast.primal_values.tobytes() == full.primal_values.tobytes()


def _phase_2_tableau(problem, monkeypatch):
    """The tableau phase 2 starts from, copied, and the solution it led to."""
    start = {}
    run = lp._run_simplex

    def capture(tab, *args, **kwargs):
        if kwargs.get("artificial_start") is None and not start:
            start["T"], start["basis"] = tab.T.copy(order="K"), tab.basis.copy()
            start["sign"] = tab.sign.copy()
        return run(tab, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_run_simplex", capture)
        solution = lp.solve(problem)
    return start["T"], start["basis"], start["sign"], solution


def test_sparse_pivot_matches_dense_update_bitwise_at_kernel_scale(monkeypatch):
    from mcm import formulations
    from mcm.kernels import KernelSpec

    X, y = _two_blobs(np.random.default_rng(41), 100, 2, 3.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.125))
    problem, _ = formulations.build_problem(X, y, config)
    T0, basis, sign, solution = _phase_2_tableau(problem, monkeypatch)
    assert solution.status is lp.LpStatus.OPTIMAL
    m, width = T0.shape
    assert m >= 200 and width >= 400  # 202 weight, b, h and q columns, 200 slacks
    tabs = []
    for _ in range(2):
        tab = lp._Tableau.__new__(lp._Tableau)
        tab.T, tab.basis, tab.sign = np.array(T0, order="F"), basis.copy(), sign.copy()
        tab._norms = None
        tabs.append(tab)
    sparse, dense = tabs

    rows = np.argsort(-np.count_nonzero(T0[:, :-1], axis=1), kind="stable")[:12]
    for row in rows:
        entries = np.abs(sparse.T[row, :-1])
        entries[sparse.basis] = 0.0
        col = int(np.argmax(entries))
        assert entries[col] > 1e-3 and np.count_nonzero(entries) >= 100  # a dense row
        cached = sparse.norms
        sparse.pivot(int(row), col)
        _dense_pivot(dense, int(row), col)
        assert sparse.norms is cached
        assert sparse.T.flags.f_contiguous
        assert np.array_equal(sparse.basis, dense.basis)
        assert _same_bits(sparse.T, dense.T)
        assert sparse.norms.tobytes() == _full_norms(sparse).tobytes()


def test_phase_iterations_split_the_pivot_count(monkeypatch):
    from mcm import formulations

    X, y = _two_blobs(np.random.default_rng(37), 40, 1, 1.0)
    problem, _ = formulations.build_problem(
        X, y, formulations.TrainConfig("soft-linear", C=1.0))
    used = []
    run = lp._run_simplex

    def spy(*args, **kwargs):
        status, pivots = run(*args, **kwargs)
        used.append(pivots)
        return status, pivots

    monkeypatch.setattr(lp, "_run_simplex", spy)
    full = lp.solve(problem)
    assert full.phase_iterations == (used[0], used[1]) == (43, 11)
    assert full.iterations == 54
    limited = lp.solve(problem, max_iterations=48)
    assert limited.status is lp.LpStatus.ITERATION_LIMIT
    assert limited.phase_iterations == (used[2], used[3]) == (43, 5)  # 48 pivots made

    infeasible = lp.solve(oracles.make_problem(
        [1.0], [([1.0], "<=", 1.0), ([1.0], ">=", 2.0)], ["nonneg"]))
    assert infeasible.status is lp.LpStatus.INFEASIBLE
    assert infeasible.phase_iterations[1] == 0
    assert infeasible.iterations == infeasible.phase_iterations[0]


def test_solve_leaves_its_problem_unchanged():
    from mcm import formulations

    X, y = _two_blobs(np.random.default_rng(41), 30, 2, 1.0)
    soft, _ = formulations.build_problem(X, y, formulations.TrainConfig("soft-linear", C=1.0))
    # negative right-hand sides: solve flips these rows in its own copy
    flipped = oracles.make_problem(
        [1.0, -1.0],
        [([1.0, 2.0], ">=", -1.0), ([-1.0, 1.0], "<=", -0.5), ([1.0, 1.0], "=", 2.0)],
        ["free", "nonneg"])
    problems = [soft, flipped]
    for problem in problems:
        before = [problem.A.tobytes(), problem.rhs.tobytes(), problem.objective.tobytes()]
        assert lp.solve(problem).status is lp.LpStatus.OPTIMAL
        assert [problem.A.tobytes(), problem.rhs.tobytes(), problem.objective.tobytes()] == before


def _flipped_originals(problem):
    """The flipped standardized [A | artificials] and b of problem, built in
    full: the originals the tableau rebuilds its artificial columns of.  A
    row has an artificial unless it starts on its slack: a <= row with a
    nonnegative rhs, or a >= row with a negative one."""
    std = lp.standardize(problem).problem
    m, n = std.A.shape
    flip = np.where(std.rhs < 0, -1.0, 1.0)
    on_slack = np.where(flip > 0, problem.senses == "<=", problem.senses == ">=")
    rows = (~on_slack).nonzero()[0]
    full = np.zeros((m, n + rows.size))
    full[:, :n] = std.A * flip[:, None]
    full[rows, n + np.arange(rows.size)] = 1.0
    return full, std.rhs * flip, n


def _compare_to_flipped_originals(problem, monkeypatch) -> list[tuple]:
    """Solve problem, checking at every refactor and row drop that the basis
    matrix and the rebuilt tableau have the bits of the full flipped
    originals' (rows dropped, the tableau's columns kept); return (event,
    tableau width, an artificial is basic) of each check."""
    full, b0, n = _flipped_originals(problem)
    kept = [np.arange(full.shape[0])]
    checks = []
    refactor, keep_rows = lp._Tableau.refactor, lp._Tableau.keep_rows

    def check(tab, event):
        A = full[kept[0]][:, :tab.T.shape[1] - 1]
        B = A[:, tab.basis] * tab.sign
        T = np.linalg.solve(B, np.hstack([A, b0[kept[0], None]]))
        T[(T[:, -1] < 0.0) & (T[:, -1] > -1e-11), -1] = 0.0
        assert tab._basis_matrix().tobytes() == B.tobytes()
        probe = copy.copy(tab)
        assert refactor(probe) is True
        assert probe.T.tobytes() == T.tobytes()
        checks.append((event, tab.T.shape[1], bool((tab.basis >= n).any())))

    def checked_refactor(tab):
        check(tab, "refactor")
        return refactor(tab)

    def checked_keep_rows(tab, keep):
        keep_rows(tab, keep)
        kept[0] = kept[0][keep]
        check(tab, "drop")

    monkeypatch.setattr(lp._Tableau, "refactor", checked_refactor)
    monkeypatch.setattr(lp._Tableau, "keep_rows", checked_keep_rows)
    assert lp.solve(problem).status is lp.LpStatus.OPTIMAL
    return checks


def test_refactors_match_the_flipped_originals(monkeypatch):
    from mcm import formulations

    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 10)
    X, y = _two_blobs(np.random.default_rng(37), 40, 1, 1.0)
    problem, _ = formulations.build_problem(
        X, y, formulations.TrainConfig("soft-linear", C=1.0))
    n = lp.standardize(problem).problem.A.shape[1]
    checks = _compare_to_flipped_originals(problem, monkeypatch)
    # phase 1 (43 pivots) with artificials still basic, then phase 2 (11)
    assert ("refactor", n + 40 + 1, True) in checks
    assert ("refactor", n + 1, False) in checks


def test_dropped_rows_match_the_flipped_originals(monkeypatch):
    # the second row repeats the first, so one of their artificials stays
    # basic on a row with no structural entry, and that row is dropped; the
    # third row's artificial moves up a row, the dropped one's has none
    problem = oracles.make_problem(
        [1.0, 2.0],
        [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0), ([1.0, -1.0], "=", 0.0),
         ([1.0, 0.0], "<=", 5.0)],
        ["nonneg"] * 2)
    drops = []
    keep_rows = lp._Tableau.keep_rows

    def recording(tab, keep):
        keep_rows(tab, keep)
        drops.append(tab.art_rows.tolist())

    monkeypatch.setattr(lp._Tableau, "keep_rows", recording)
    checks = _compare_to_flipped_originals(problem, monkeypatch)
    assert checks == [("drop", 2 + 1 + 3 + 1, False)]
    assert len(drops) == 1 and -1 in drops[0] and sorted(drops[0])[1:] == [0, 1]


def _refused_peak(monkeypatch, call) -> tuple[int, int]:
    """The traced peak of call on an over-budget 200-sample rbf program,
    which must refuse it, and the bytes of that program's matrix."""
    from mcm import formulations

    X, y = oracles.blobs(5, 200, 2, 1.0)
    problem, _ = formulations.build_problem(
        X, y, formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.5)))
    monkeypatch.setattr(lp, "_MAX_TABLEAU_BYTES", 1)
    tracemalloc.start()
    try:
        with pytest.raises(McmError, match="^an LP of 400 rows and 1002 columns needs "):
            call(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, problem.A.nbytes


def test_refused_solve_allocates_less_than_its_program(monkeypatch):
    # the budget is checked before standardize copies the program
    peak, nbytes = _refused_peak(monkeypatch, lp.solve)
    assert peak < nbytes


def test_refused_standardize_allocates_less_than_its_program(monkeypatch):
    peak, nbytes = _refused_peak(monkeypatch, lp.standardize)
    assert peak < nbytes


def test_solve_validates_its_problem_once(monkeypatch):
    validated = []
    validate = lp.LpProblem.validate

    def recording(problem):
        validated.append(problem)
        validate(problem)

    monkeypatch.setattr(lp.LpProblem, "validate", recording)
    problem = oracles.make_problem(
        [-1.0, -2.0], [([1.0, 1.0], "<=", 1.0), ([1.0, 0.0], ">=", 0.5)], ["nonneg"] * 2)
    assert lp.solve(problem).status is lp.LpStatus.OPTIMAL
    assert len(validated) == 1 and validated[0] is problem


def test_solve_holds_one_copy_of_the_program():
    # one linear_cv fold's shape: 192 samples of 5 features, soft-linear
    from mcm import formulations

    X, y = oracles.blobs(3, 192, 5, 2.0)
    problem, _ = formulations.build_problem(
        X, y, formulations.TrainConfig("soft-linear", C=1.0))
    full, _, n = _flipped_originals(problem)
    m, n_art = full.shape[0], full.shape[1] - n
    del full
    tracemalloc.start()
    try:
        solution = lp.solve(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.status is lp.LpStatus.OPTIMAL
    # the phase-1 tableau, the flipped standardized matrix and the phase-2
    # copy, plus two m x m arrays for the final basis solve
    assert peak <= 8 * m * ((n + n_art + 1) + n + (n + 1)) + 16 * m * m
