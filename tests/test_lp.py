import numpy as np
import pytest

from mcm import lp
from mcm.errors import MalformedProblem

import oracles


def test_two_variable_vertex():
    problem = lp.make_problem([-1.0, -2.0], [([1.0, 1.0], "<=", 1.0)], ["nonneg"] * 2)
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert np.allclose(sol.primal_values, [0.0, 1.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    problem = lp.make_problem([1.0], [([1.0], ">=", 1.0), ([1.0], "<=", 0.0)], ["nonneg"])
    assert lp.solve(problem).status is lp.LpStatus.INFEASIBLE


def test_unbounded_certified():
    problem = lp.make_problem([-1.0], [([1.0], ">=", 1.0)], ["nonneg"])
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.UNBOUNDED
    assert sol.primal_values is None and sol.objective_value is None


def test_dimension_mismatch_rejected():
    problem = lp.make_problem([1.0, 2.0], [([1.0], "<=", 1.0)], ["nonneg"] * 2)
    with pytest.raises(MalformedProblem):
        lp.solve(problem)
    with pytest.raises(MalformedProblem):
        lp.make_problem([1.0], [([1.0], "!!", 1.0)], ["nonneg"])
    with pytest.raises(MalformedProblem):
        lp.make_problem([1.0], [([1.0], "<=", 1.0)], ["positive"])
    with pytest.raises(MalformedProblem):
        lp.make_problem([1.0, 2.0], [([1.0, 1.0], "<=", 1.0), ([1.0], "<=", 1.0)],
                        ["nonneg"] * 2)


def test_random_lp_matches_vertex_enumeration():
    # a mid-sized instance: 10 variables, 15 constraints (3.3M candidate bases)
    rng = np.random.default_rng(7)
    problem, _ = oracles.random_feasible_bounded_lp(rng, n_vars=10, n_ineq=13,
                                                    add_equality=True)
    assert problem.n_constraints == 15
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
    problem = lp.make_problem(
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
    problem = lp.make_problem(
        [-2.3, -2.15, 13.55, 0.4],
        [([0.4, 0.2, -1.4, -0.2], "<=", 0.0),
         ([-7.8, -1.4, 7.8, 0.4], "<=", 0.0)],
        ["nonneg"] * 4,
    )
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.UNBOUNDED
    assert not sol.limit_exceeded


def test_redundant_equalities_handled():
    problem = lp.make_problem(
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
    sol = lp.solve(problem, lp.SolverOptions(max_iterations=1))
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
    sol = lp.solve(problem, lp.SolverOptions(max_iterations=48))
    assert len(phases) == 2 and phases[1] is None  # phase 2 was entered
    assert sol.status is lp.LpStatus.ITERATION_LIMIT and sol.limit_exceeded
    assert sol.primal_values is None and sol.objective_value is None


def test_standardize_free_split_round_trip():
    problem = lp.make_problem([1.0], [([1.0], ">=", -3.0)], ["free"])
    std = lp.standardize(problem)
    # one positive part, one negative part, one surplus column
    assert std.problem.n_vars == 3
    assert not std.problem.free.any()
    assert np.all(std.problem.senses == lp.EQUAL)
    x_std = np.array([0.0, 3.0, 0.0])  # x = 0 - 3 = -3, surplus 0
    assert std.recover(x_std) == pytest.approx([-3.0])
    sol = lp.solve(problem)
    assert sol.status is lp.LpStatus.OPTIMAL
    assert sol.primal_values == pytest.approx([-3.0])


def test_standardize_idempotent_on_standard_form():
    problem = lp.make_problem(
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


def _dense_pivot(tab, row, col):
    """Reference rank-one update over the whole tableau."""
    T = tab.T
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    rhs = T[:, -1]
    rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
    tab.basis[row] = col


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
    tabs = [lp._Tableau(A, b, np.arange(n, n + m), 1e-10) for _ in range(2)]
    for tab in tabs:
        tab.T = np.asarray(tab.T, order=order)
    sparse, dense = tabs

    def step(row, col):
        cached = sparse.norms
        sparse.pivot(row, col)
        _dense_pivot(dense, row, col)
        assert sparse.norms is cached  # updated in place, not recomputed
        assert np.array_equal(sparse.basis, dense.basis)
        assert _same_bits(sparse.T, dense.T)
        assert sparse.norms.tobytes() == _full_norms(sparse).tobytes()
        assert sparse.norms[col] == 1.0

    step(0, 3)
    assert np.count_nonzero(sparse.T[0, :-1]) == 2
    step(1, 7)
    assert sparse.T[1, -1] != 0.0
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
    def pivot(tab, row, col):
        _dense_pivot(tab, row, col)
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


def _phase_2_tableau(problem, monkeypatch):
    """The tableau phase 2 starts from, copied, and the solution it led to."""
    start = {}
    run = lp._run_simplex

    def capture(tab, *args, **kwargs):
        if kwargs.get("artificial_start") is None and not start:
            start["T"], start["basis"] = tab.T.copy(order="K"), tab.basis.copy()
        return run(tab, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_run_simplex", capture)
        solution = lp.solve(problem)
    return start["T"], start["basis"], solution


def test_sparse_pivot_matches_dense_update_bitwise_at_kernel_scale(monkeypatch):
    from mcm import formulations
    from mcm.kernels import KernelSpec

    X, y = _two_blobs(np.random.default_rng(41), 100, 2, 3.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.125))
    problem, _ = formulations.build_problem(X, y, config)
    T0, basis, solution = _phase_2_tableau(problem, monkeypatch)
    assert solution.status is lp.LpStatus.OPTIMAL
    m, width = T0.shape
    assert m >= 200 and width >= 500
    tabs = []
    for _ in range(2):
        tab = lp._Tableau.__new__(lp._Tableau)
        tab.T, tab.basis, tab._norms = np.array(T0, order="F"), basis.copy(), None
        tabs.append(tab)
    sparse, dense = tabs

    rows = np.argsort(-np.count_nonzero(T0[:, :-1], axis=1), kind="stable")[:12]
    for row in rows:
        entries = np.abs(sparse.T[row, :-1])
        entries[sparse.basis] = 0.0
        col = int(np.argmax(entries))
        assert entries[col] > 1e-3 and np.count_nonzero(entries) >= 150  # a dense row
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

    def spy(tab, costs, options, budget, **kwargs):
        before = budget.used
        try:
            return run(tab, costs, options, budget, **kwargs)
        finally:
            used.append(budget.used - before)

    monkeypatch.setattr(lp, "_run_simplex", spy)
    full = lp.solve(problem)
    assert full.phase_iterations == (used[0], used[1]) == (43, 11)
    assert full.iterations == 54
    limited = lp.solve(problem, lp.SolverOptions(max_iterations=48))
    assert limited.status is lp.LpStatus.ITERATION_LIMIT
    assert limited.phase_iterations == (used[2], used[3]) == (43, 5)  # 48 pivots made

    infeasible = lp.solve(lp.make_problem(
        [1.0], [([1.0], "<=", 1.0), ([1.0], ">=", 2.0)], ["nonneg"]))
    assert infeasible.status is lp.LpStatus.INFEASIBLE
    assert infeasible.phase_iterations[1] == 0
    assert infeasible.iterations == infeasible.phase_iterations[0]
