"""Dense two-phase primal simplex solver for small and medium linear programs.

Problems are stated as ``minimize c.x`` over constraints ``a.x {<=,>=,=} rhs``
with each variable either nonnegative or free.  ``solve`` standardizes the
problem (free variables split, inequalities slacked), runs phase 1 with
artificial variables where no slack can seed the basis, then phase 2 on the
original costs.  Pivoting prices by steepest edge and evicts on the largest
pivot element among near-tied ratios; Bland's rule takes over whenever the
objective stalls, so the solver terminates on degenerate (cycling-prone)
instances.  Each pivot updates only the tableau columns where the pivot row
is nonzero, and refreshes the cached edge norms of just those columns.
Optimal bases are re-solved against the original data, giving exact vertex
coordinates with true zeros in the degenerate positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MalformedProblem

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)

NONNEGATIVE = "nonneg"
FREE = "free"
_BOUNDS = (NONNEGATIVE, FREE)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: np.ndarray
    relation: str
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.relation not in _RELATIONS:
            raise MalformedProblem(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LpProblem:
    """minimize objective.x subject to the listed constraints and sign bounds."""

    objective: np.ndarray
    constraints: tuple[Constraint, ...]
    variable_bounds: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "variable_bounds", tuple(self.variable_bounds))

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def validate(self) -> None:
        n = self.n_vars
        if self.objective.ndim != 1 or not np.all(np.isfinite(self.objective)):
            raise MalformedProblem("objective must be a finite 1-d vector")
        if len(self.variable_bounds) != n:
            raise MalformedProblem(
                f"{len(self.variable_bounds)} bounds for {n} variables"
            )
        for kind in self.variable_bounds:
            if kind not in _BOUNDS:
                raise MalformedProblem(f"unknown variable bound {kind!r}")
        for i, con in enumerate(self.constraints):
            if con.coeffs.shape != (n,):
                raise MalformedProblem(
                    f"constraint {i} has {con.coeffs.shape[0]} coefficients, expected {n}"
                )
            if not np.all(np.isfinite(con.coeffs)) or not np.isfinite(con.rhs):
                raise MalformedProblem(f"constraint {i} has non-finite entries")


def make_problem(objective, rows, bounds) -> LpProblem:
    """Convenience constructor: rows are (coeffs, relation, rhs) triples."""
    constraints = tuple(Constraint(c, rel, rhs) for c, rel, rhs in rows)
    return LpProblem(np.asarray(objective, dtype=float), constraints, tuple(bounds))


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-8
    obj_tol: float = 1e-7
    pivot_tol: float = 1e-10
    max_iterations: int | None = None  # None: 50 * (rows + columns)
    stall_iterations: int = 50


@dataclass
class LpSolution:
    status: LpStatus
    primal_values: np.ndarray | None
    objective_value: float | None
    iterations: int
    limit_exceeded: bool = False  # set when the iteration cap fired; status is then uncertified


@dataclass
class StandardForm:
    """Equality-form equivalent with nonnegative variables, plus the recovery map.

    Column order: one column per original variable (positive parts), then the
    negative parts of free variables, then one slack/surplus column per
    inequality row.
    """

    problem: LpProblem
    pos_col: np.ndarray  # original var -> column of its positive part
    neg_col: np.ndarray  # original var -> column of its negative part, -1 if none
    n_original: int

    def recover(self, x_std: np.ndarray) -> np.ndarray:
        x = x_std[self.pos_col].copy()
        has_neg = self.neg_col >= 0
        x[has_neg] -= x_std[self.neg_col[has_neg]]
        return x


def standardize(problem: LpProblem) -> StandardForm:
    """Rewrite as min c.x, A x = b, x >= 0, recording how to map back."""
    problem.validate()
    n = problem.n_vars
    free = np.array([kind == FREE for kind in problem.variable_bounds])
    ineq_rows = [i for i, con in enumerate(problem.constraints) if con.relation != EQUAL]

    pos_col = np.arange(n)
    neg_col = np.full(n, -1)
    neg_col[free] = n + np.arange(int(free.sum()))
    n_struct = n + int(free.sum())
    n_total = n_struct + len(ineq_rows)

    m = problem.n_constraints
    A = np.zeros((m, n_total))
    b = np.empty(m)
    slack_of_row = {row: n_struct + k for k, row in enumerate(ineq_rows)}
    for i, con in enumerate(problem.constraints):
        A[i, pos_col] = con.coeffs
        A[i, neg_col[free]] = -con.coeffs[free]
        if con.relation == LESS_EQUAL:
            A[i, slack_of_row[i]] = 1.0
        elif con.relation == GREATER_EQUAL:
            A[i, slack_of_row[i]] = -1.0
        b[i] = con.rhs

    c = np.zeros(n_total)
    c[pos_col] = problem.objective
    c[neg_col[free]] = -problem.objective[free]

    std = LpProblem(
        c,
        tuple(Constraint(A[i], EQUAL, b[i]) for i in range(m)),
        (NONNEGATIVE,) * n_total,
    )
    return StandardForm(std, pos_col, neg_col, n)


class _Tableau:
    """Simplex state: rows are B^-1 [A | b].

    The original (A, b) are kept so the tableau can be refactorized from
    scratch, shedding the float drift that accumulates over many pivots.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: np.ndarray, pivot_tol: float,
                 originals: tuple[np.ndarray, np.ndarray] | None = None):
        self.A0, self.b0 = originals if originals is not None else (A.copy(), b.copy())
        self.T = np.hstack([A, b[:, None]])
        self.basis = basis
        self.pivot_tol = pivot_tol
        self._norms = None  # squared column norms of T[:, :-1]; None until read

    @property
    def rhs(self) -> np.ndarray:
        return self.T[:, -1]

    @property
    def norms(self) -> np.ndarray:
        """Squared steepest-edge norms of every column except the rhs.

        Computed in full on first read and kept current by ``pivot``; callers
        must not modify the returned array.
        """
        if self._norms is None:
            body = self.T[:, :-1]
            self._norms = np.einsum("ij,ij->j", body, body)
        return self._norms

    def pivot(self, row: int, col: int) -> None:
        """Rank-one update restricted to the support of the pivot row.

        A column whose pivot-row entry is zero keeps its values, so only the
        other columns are gathered, updated as ``T[i, j] - f_i * p_j`` and
        scattered back.  The gather keeps T's memory order (phase 2 starts
        from a column selection, which numpy returns Fortran-ordered), so
        einsum sums each touched column in the same order as over the whole
        tableau and the refreshed norms are bit-identical to a full
        recomputation.
        """
        T = self.T
        T[row] /= T[row, col]
        cols = np.flatnonzero(T[row])
        factors = T[:, col].copy()
        factors[row] = 0.0
        block = T[:, cols] if T.flags.f_contiguous else T.take(cols, axis=1)
        block -= np.multiply.outer(factors, block[row])
        entering = np.searchsorted(cols, col)
        block[:, entering] = 0.0
        block[row, entering] = 1.0
        T[:, cols] = block
        # keep the rhs from drifting into tiny negatives after degenerate pivots
        rhs = T[:, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
        self.basis[row] = col
        if self._norms is not None:
            structural = cols.size - int(cols[-1] == T.shape[1] - 1)
            body = block[:, :structural]
            self._norms[cols[:structural]] = np.einsum("ij,ij->j", body, body)
            self._norms[col] = 1.0

    def refactor(self) -> None:
        stacked = np.hstack([self.A0, self.b0[:, None]])
        try:
            self.T = np.linalg.solve(self.A0[:, self.basis], stacked)
        except np.linalg.LinAlgError:
            return  # keep the iterated tableau; the basis matrix went singular
        self._norms = None
        rhs = self.T[:, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop every row not listed in keep (redundant constraints)."""
        self.T = self.T[keep]
        self.basis = self.basis[keep]
        self.A0 = self.A0[keep]
        self.b0 = self.b0[keep]
        self._norms = None

    def basic_values(self) -> np.ndarray:
        """Solve B x_B = b fresh off the original data for an exact vertex."""
        try:
            values = np.linalg.solve(self.A0[:, self.basis], self.b0)
        except np.linalg.LinAlgError:
            values = self.rhs.copy()
        values[np.abs(values) < 1e-11] = 0.0
        return np.maximum(values, 0.0)


class _Limit(Exception):
    pass


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _Limit


_REFRESH_EVERY = 256     # recompute the carried cost row to shed float drift
_REFACTOR_EVERY = 1000   # rebuild the whole tableau from the original data


def _run_simplex(tab: _Tableau, costs: np.ndarray, options: SolverOptions,
                 budget: _Budget, artificial_start: int | None = None) -> str:
    """Iterate to optimality or unboundedness. Returns 'optimal' or 'unbounded'.

    Pricing is steepest-edge (most negative reduced cost per unit edge length;
    the tableau caches the edge norms and refreshes those of the columns each
    pivot touches).  The ratio test accepts a tiny Harris-style window of
    near-tied rows and evicts on the largest pivot element, which keeps the
    basis well conditioned; when artificial_start is given, artificial columns
    win those ties so phase 1 sheds them quickly.
    The reduced-cost row is carried through the pivots and refreshed
    periodically, and the tableau itself is refactorized from the original
    data at intervals; unboundedness is certified only on a fresh tableau.

    Degenerate stretches switch pivoting to Bland's rule; a strict objective
    improvement switches back, with the patience doubling on every switch so a
    genuine cycle eventually stays under Bland's rule long enough for its
    finite-termination guarantee to bite.
    """
    tol = options.pivot_tol
    ncols = tab.T.shape[1] - 1

    def refresh():
        red = costs[:ncols] - costs[tab.basis] @ tab.T[:, :ncols]
        red[tab.basis] = 0.0
        return red, float(costs[tab.basis] @ tab.rhs)

    reduced, obj = refresh()
    bland = False
    stall = 0
    patience = options.stall_iterations
    since_refresh = 0
    since_refactor = 0
    certifying = False
    while True:
        if since_refactor >= _REFACTOR_EVERY:
            tab.refactor()
            since_refactor = 0
            reduced, obj = refresh()
            since_refresh = 0
        elif since_refresh >= _REFRESH_EVERY:
            reduced, obj = refresh()
            since_refresh = 0

        if bland:
            negative = np.nonzero(reduced < -tol)[0]
            entering = int(negative[0]) if negative.size else -1
        else:
            score = np.where(reduced < -tol, reduced / np.sqrt(1.0 + tab.norms), 0.0)
            entering = int(np.argmin(score))
            if score[entering] >= 0.0:
                entering = -1
        if entering < 0:
            reduced, obj = refresh()  # confirm against an exact cost row
            since_refresh = 0
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tol:
                return "optimal"

        col = tab.T[:, entering]
        positive = col > tol
        if not positive.any():
            if not certifying:  # claim unboundedness only off a fresh tableau
                tab.refactor()
                since_refactor = 0
                reduced, obj = refresh()
                since_refresh = 0
                certifying = True
                continue
            if reduced[entering] >= -tol:
                continue
            return "unbounded"
        certifying = False

        rhs = np.maximum(tab.rhs, 0.0)
        ratios = np.full(col.shape, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        if bland:
            tied = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
            leaving = int(tied[np.argmin(tab.basis[tied])])
        else:
            window = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
            if artificial_start is not None:
                evictable = window[tab.basis[window] >= artificial_start]
                if evictable.size:
                    window = evictable
            leaving = int(window[np.argmax(np.abs(col[window]))])

        budget.tick()
        tab.pivot(leaving, entering)
        since_refresh += 1
        since_refactor += 1

        step = float(reduced[entering]) * float(tab.rhs[leaving])
        obj += step
        reduced = reduced - float(reduced[entering]) * tab.T[leaving, :ncols]
        reduced[tab.basis[leaving]] = 0.0

        if step < -1e-12 * (1.0 + abs(obj)):
            stall = 0
            if bland:
                bland = False
        else:
            stall += 1
            if stall >= patience:
                bland = True
                patience *= 2
                stall = 0


def solve(problem: LpProblem, options: SolverOptions | None = None) -> LpSolution:
    """Solve to a basic optimal solution, or certify infeasibility/unboundedness."""
    options = options or SolverOptions()
    std = standardize(problem)
    A = np.vstack([con.coeffs for con in std.problem.constraints]) \
        if std.problem.constraints else np.zeros((0, std.problem.n_vars))
    b = np.array([con.rhs for con in std.problem.constraints])
    c = std.problem.objective
    m, n = A.shape

    limit = options.max_iterations
    if limit is None:
        limit = 50 * (m + n)
    budget = _Budget(limit)

    if m == 0:
        if np.any(c < -options.pivot_tol):
            return LpSolution(LpStatus.UNBOUNDED, None, None, 0)
        x = np.zeros(n)
        return _finish(problem, std, x, 0)

    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b = b.copy()
    b[flip] *= -1.0

    # phase 1: reuse unit columns (slacks) as the starting basis where they
    # exist, add artificial variables only for the remaining rows
    basis = np.full(m, -1)
    nonzero_counts = np.count_nonzero(A, axis=0)
    for j in np.nonzero(nonzero_counts == 1)[0]:
        row = int(np.nonzero(A[:, j])[0][0])
        if basis[row] < 0 and A[row, j] == 1.0:
            basis[row] = j
    needs_artificial = np.nonzero(basis < 0)[0]
    n_art = needs_artificial.shape[0]
    art_cols = np.zeros((m, n_art))
    for k, row in enumerate(needs_artificial):
        art_cols[row, k] = 1.0
        basis[row] = n + k
    tab = _Tableau(np.hstack([A, art_cols]), b, basis, options.pivot_tol)
    phase1_costs = np.concatenate([np.zeros(n), np.ones(n_art)])
    try:
        outcome = _run_simplex(tab, phase1_costs, options, budget,
                               artificial_start=n)
    except _Limit:
        return LpSolution(LpStatus.INFEASIBLE, None, None, budget.used, limit_exceeded=True)
    assert outcome == "optimal"  # phase 1 is bounded below by 0

    infeasibility = float(phase1_costs[tab.basis] @ tab.rhs)
    if infeasibility > options.feas_tol * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LpSolution(LpStatus.INFEASIBLE, None, None, budget.used)

    _drive_out_artificials(tab, n, options.pivot_tol)

    # phase 2 on structural columns only
    keep = np.concatenate([np.arange(n), [tab.T.shape[1] - 1]])
    tab2 = _Tableau(tab.T[:, keep][:, :-1], tab.T[:, -1], tab.basis, options.pivot_tol,
                    originals=(tab.A0[:, :n], tab.b0))
    try:
        outcome = _run_simplex(tab2, c, options, budget)
    except _Limit:
        x = np.zeros(n)
        x[tab2.basis] = np.maximum(tab2.rhs, 0.0)
        sol = _finish(problem, std, x, budget.used)
        sol.limit_exceeded = True
        return sol
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, budget.used)

    x = np.zeros(n)
    x[tab2.basis] = tab2.basic_values()  # exact vertex off the original data
    return _finish(problem, std, x, budget.used)


def _drive_out_artificials(tab: _Tableau, n_struct: int, tol: float) -> None:
    """Pivot basic artificials onto structural columns; drop redundant rows."""
    drop = []
    for row in range(tab.T.shape[0]):
        if tab.basis[row] < n_struct:
            continue
        structural = np.abs(tab.T[row, :n_struct])
        structural_basic = np.isin(np.arange(n_struct), tab.basis)
        structural[structural_basic] = 0.0
        col = int(np.argmax(structural))
        if structural[col] > tol:
            tab.pivot(row, col)
        else:
            drop.append(row)
    if drop:
        tab.keep_rows(np.setdiff1d(np.arange(tab.T.shape[0]), drop))


def _finish(problem: LpProblem, std: StandardForm, x_std: np.ndarray,
            iterations: int) -> LpSolution:
    x = std.recover(x_std)
    objective = float(problem.objective @ x)
    return LpSolution(LpStatus.OPTIMAL, x, objective, iterations)


def write_lp_text(problem: LpProblem, names: list[str] | None = None) -> str:
    """Render in fixed-decimal CPLEX-LP text (used by the CLI's --dump-lp)."""
    n = problem.n_vars
    if names is None:
        names = [f"x{j + 1}" for j in range(n)]
    if len(names) != n:
        raise MalformedProblem(f"{len(names)} names for {n} variables")

    def term(coef: float, name: str, lead: bool) -> str:
        sign = "-" if coef < 0 else ("" if lead else "+")
        return f"{sign} {abs(coef):.12f} {name}" if not lead else f"{sign}{abs(coef):.12f} {name}"

    def linear(coeffs: np.ndarray) -> str:
        parts = []
        for j in range(n):
            if coeffs[j] == 0.0:
                continue
            parts.append(term(coeffs[j], names[j], lead=not parts))
        return " ".join(parts) if parts else f"0.000000000000 {names[0]}"

    rel_text = {LESS_EQUAL: "<=", GREATER_EQUAL: ">=", EQUAL: "="}
    lines = ["Minimize", f" obj: {linear(problem.objective)}", "Subject To"]
    for i, con in enumerate(problem.constraints):
        lines.append(f" c{i + 1}: {linear(con.coeffs)} {rel_text[con.relation]} {con.rhs:.12f}")
    free_names = [names[j] for j, kind in enumerate(problem.variable_bounds) if kind == FREE]
    if free_names:
        lines.append("Bounds")
        lines.extend(f" {name} free" for name in free_names)
    lines.append("End")
    return "\n".join(lines) + "\n"
