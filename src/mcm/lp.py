"""Dense two-phase primal simplex solver for small and medium linear programs.

An ``LpProblem`` is held in array form: ``minimize c.x`` subject to
``A x {<=,>=,=} rhs`` row by row (one sense per row), with each variable
either nonnegative or free (a boolean mask).  ``solve`` standardizes the
problem in one vectorized fill (free variables split, inequalities slacked),
runs phase 1 with artificial variables where no slack can seed the basis,
then phase 2 on the original costs.  Pivoting prices by steepest edge and
evicts on the largest pivot element among near-tied ratios; Bland's rule
takes over whenever the objective stalls, so the solver terminates on
degenerate (cycling-prone) instances.  A run that exhausts its iteration
budget in either phase ends in ``ITERATION_LIMIT`` with no point.  Each
pivot updates only the tableau columns where the pivot row is nonzero, and
refreshes the cached edge norms of just those columns.
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
    ITERATION_LIMIT = "iteration_limit"  # budget ran out first; nothing is certified


@dataclass(frozen=True)
class LpProblem:
    """minimize objective.x subject to A x (senses) rhs, row by row, with
    x_j >= 0 unless free[j]."""

    objective: np.ndarray  # (n,)
    A: np.ndarray          # (m, n)
    senses: np.ndarray     # (m,) of LESS_EQUAL, GREATER_EQUAL, EQUAL
    rhs: np.ndarray        # (m,)
    free: np.ndarray       # (n,) bool

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "senses", np.asarray(self.senses))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        object.__setattr__(self, "free", np.asarray(self.free, dtype=bool))

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.rhs.shape[0]

    def validate(self) -> None:
        n, m = self.n_vars, self.n_constraints
        if self.objective.ndim != 1 or not np.all(np.isfinite(self.objective)):
            raise MalformedProblem("objective must be a finite 1-d vector")
        if self.free.shape != (n,):
            raise MalformedProblem(f"{self.free.size} bounds for {n} variables")
        if self.A.shape != (m, n) or self.senses.shape != (m,):
            raise MalformedProblem(
                f"constraint matrix {self.A.shape} and {self.senses.size} senses "
                f"for {m} rows of {n} variables")
        unknown = ~np.isin(self.senses, _RELATIONS)
        if unknown.any():
            raise MalformedProblem(f"unknown relation {str(self.senses[unknown][0])!r}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.rhs))):
            raise MalformedProblem("constraints have non-finite entries")


def make_problem(objective, rows, bounds) -> LpProblem:
    """Convenience constructor: rows are (coeffs, relation, rhs) triples and
    bounds name NONNEGATIVE or FREE per variable."""
    objective = np.asarray(objective, dtype=float)
    coeffs = [np.asarray(c, dtype=float) for c, _, _ in rows]
    if len({c.shape for c in coeffs}) > 1:
        raise MalformedProblem("constraint rows differ in length")
    senses = [rel for _, rel, _ in rows]
    for rel in senses:
        if rel not in _RELATIONS:
            raise MalformedProblem(f"unknown relation {rel!r}")
    for kind in bounds:
        if kind not in _BOUNDS:
            raise MalformedProblem(f"unknown variable bound {kind!r}")
    A = np.vstack(coeffs) if coeffs else np.zeros((0, objective.shape[0]))
    return LpProblem(objective, A, np.array(senses, dtype=str),
                     np.array([rhs for _, _, rhs in rows], dtype=float),
                     np.array([kind == FREE for kind in bounds], dtype=bool))


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

    @property
    def limit_exceeded(self) -> bool:
        return self.status is LpStatus.ITERATION_LIMIT


@dataclass
class StandardForm:
    """Equality-form equivalent with nonnegative variables, plus the recovery map.

    Column order: one column per original variable (positive parts), then the
    negative parts of the free variables, then one slack/surplus column per
    inequality row.
    """

    problem: LpProblem
    free: np.ndarray  # original free mask; its negative parts follow the originals

    def recover(self, x_std: np.ndarray) -> np.ndarray:
        n = self.free.shape[0]
        x = x_std[:n].copy()
        x[self.free] -= x_std[n:n + int(self.free.sum())]
        return x


def standardize(problem: LpProblem) -> StandardForm:
    """Rewrite as min c.x, A x = b, x >= 0, recording how to map back."""
    problem.validate()
    A0, free = problem.A, problem.free
    m, n = A0.shape
    n_struct = n + int(free.sum())
    ineq = np.flatnonzero(problem.senses != EQUAL)

    A = np.zeros((m, n_struct + ineq.size))
    A[:, :n] = A0
    A[:, n:n_struct] = -A0[:, free]
    A[ineq, n_struct + np.arange(ineq.size)] = np.where(
        problem.senses[ineq] == LESS_EQUAL, 1.0, -1.0)

    c = np.zeros(A.shape[1])
    c[:n] = problem.objective
    c[n:n_struct] = -problem.objective[free]

    std = LpProblem(c, A, np.full(m, EQUAL), problem.rhs, np.zeros(A.shape[1], dtype=bool))
    return StandardForm(std, free)


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
    A, b, c = std.problem.A, std.problem.rhs, std.problem.objective
    m, n = A.shape

    limit = options.max_iterations
    if limit is None:
        limit = 50 * (m + n)
    budget = _Budget(limit)

    if m == 0:
        if np.any(c < -options.pivot_tol):
            return LpSolution(LpStatus.UNBOUNDED, None, None, 0)
        return _finish(problem, std, np.zeros(n), 0)

    sign = np.where(b < 0, -1.0, 1.0)  # flip rows to a nonnegative rhs
    A, b = A * sign[:, None], b * sign

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
        return LpSolution(LpStatus.ITERATION_LIMIT, None, None, budget.used)
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
        return LpSolution(LpStatus.ITERATION_LIMIT, None, None, budget.used)
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

    lines = ["Minimize", f" obj: {linear(problem.objective)}", "Subject To"]
    for i, (coeffs, sense, rhs) in enumerate(zip(problem.A, problem.senses, problem.rhs)):
        lines.append(f" c{i + 1}: {linear(coeffs)} {sense} {rhs:.12f}")
    free_names = [names[j] for j in np.flatnonzero(problem.free)]
    if free_names:
        lines.append("Bounds")
        lines.extend(f" {name} free" for name in free_names)
    lines.append("End")
    return "\n".join(lines) + "\n"
