"""Dense two-phase primal simplex solver for small and medium linear programs.

An ``LpProblem`` is held in array form: ``minimize c.x`` subject to
``A x {<=,>=,=} rhs`` row by row, with each variable nonnegative or free (a
boolean mask).  ``solve`` starts from an identity basis: once each row is
flipped to a nonnegative rhs, a row is basic on its slack where that
slack's entry is +1; elsewhere on the first direction, in the split form's
order (below), whose column has a single nonzero entry, +1 in that row
(soft-linear's q_i); and on an artificial variable where neither exists.
``check_budget`` counts an artificial for every row off its slack, off the
senses and the rhs alone, so that a builder can check before it fills its
matrix and ``standardize`` (inequalities slacked) before it allocates.  A
start with artificials runs phase 1 and then phase 2 on the original costs;
a start without any is feasible and goes straight to phase 2, on the stacked
tableau as it stands.  Each phase's tableau is one Fortran-ordered
allocation; phase 2's, a column selection of phase 1's, releases it.  Beside
it a solve holds one copy of the program, standardize's matrix flipped in
place; artificial columns are built on the fly.
A free variable keeps one tableau column and may enter in either direction:
each basic variable carries a sign, and the tableau holds the basis matrix
with its columns scaled by those signs.  This makes the same pivots, bit for
bit, as splitting every free variable into two nonnegative parts; pricing
and every tie-break read the columns in that split form's order (originals,
the negative directions of the free ones, then slacks and artificials).

Pricing is steepest edge; the ratio test reads only the rows where the
entering column is positive and evicts on the largest pivot element among
near-tied ratios; Bland's rule takes over whenever the objective stalls, so
degenerate (cycling-prone) instances terminate.  Each pivot updates only the
columns where the pivot row is nonzero, a cache-sized block at a time, and
refreshes the cached edge norms of just those.  ``solve`` stops at the first
phase not ending ``OPTIMAL`` (``LpSolution.phase_iterations`` counts each
phase's pivots): ``ITERATION_LIMIT`` when the budget runs out,
``NUMERICAL_FAILURE`` when the tableau or the cost row turns non-finite or a
singular basis cannot be rebuilt, and ``UNBOUNDED`` only off a tableau
rebuilt from the original data, and never in phase 1, which is bounded below
by 0 (there it ends ``NUMERICAL_FAILURE``).  An optimal basis is re-solved
against the original data for its vertex, clamped at 0 but never rounded
(features near 1e12 train weights near 1e-13).  The tolerances and the memory
budget are module constants; ``solve`` takes only the pivot budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import McmError

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"  # budget ran out first; nothing is certified
    NUMERICAL_FAILURE = "numerical_failure"  # non-finite tableau or costs; nothing is certified


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
            raise McmError("objective must be a finite 1-d vector")
        if n == 0:
            raise McmError("a problem needs at least one variable")
        if self.free.shape != (n,):
            raise McmError(f"{self.free.size} bounds for {n} variables")
        if self.A.shape != (m, n) or self.senses.shape != (m,):
            raise McmError(
                f"constraint matrix {self.A.shape} and {self.senses.size} senses "
                f"for {m} rows of {n} variables")
        unknown = ~np.isin(self.senses, _RELATIONS)
        if unknown.any():
            raise McmError(f"unknown relation {str(self.senses[unknown][0])!r}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.rhs))):
            raise McmError("constraints have non-finite entries")


@dataclass
class LpSolution:
    status: LpStatus
    primal_values: np.ndarray | None
    objective_value: float | None
    phase_iterations: tuple[int, int]  # pivots in phase 1 (0 if skipped), then in phase 2

    @property
    def iterations(self) -> int:
        return sum(self.phase_iterations)

    @property
    def limit_exceeded(self) -> bool:
        return self.status is LpStatus.ITERATION_LIMIT


@dataclass
class StandardForm:
    """Equality-form equivalent: min c.x subject to A x = b, with x_j >= 0
    unless free[j].

    Column order: one column per original variable, free ones included, then
    one slack/surplus column per inequality row.  The first ``n_vars`` values
    of a standardized point are therefore the original variables.
    """

    problem: LpProblem


def standardize(problem: LpProblem) -> StandardForm:
    """Rewrite every row as an equality by adding a slack or surplus column,
    after validating the problem and checking it against ``check_budget``."""
    problem.validate()
    check_budget(problem.senses, problem.rhs, problem.n_vars)
    A0 = problem.A
    m, n = A0.shape
    ineq = np.flatnonzero(problem.senses != EQUAL)

    A = np.zeros((m, n + ineq.size))
    A[:, :n] = A0
    A[ineq, n + np.arange(ineq.size)] = np.where(
        problem.senses[ineq] == LESS_EQUAL, 1.0, -1.0)

    c = np.zeros(A.shape[1])
    c[:n] = problem.objective
    free = np.zeros(A.shape[1], dtype=bool)
    free[:n] = problem.free
    return StandardForm(LpProblem(c, A, np.full(m, EQUAL), problem.rhs, free))


class _Tableau:
    """Simplex state: T holds the rows of B^-1 [A | artificials | b], where
    column i of B is the original column of basis[i] times sign[i].  Column
    A.shape[1] + k, an artificial, is the unit vector on row art_rows[k] (zero
    once that row is dropped), built where needed, never stored.  ``refactor``
    rebuilds T from the originals (A, b), as __init__ does when T is None.
    T is stored Fortran-ordered; ``sum_order`` records how its norms, cost
    row and objective sum: "F" as over a Fortran-ordered T for a T passed so
    (phase 2's) or a start that skips phase 1, else "C", row after row as
    over a C-ordered one.

    A free variable has one column and may be basic with either sign; every
    other basic variable has sign +1.  So a stored column always holds the
    positive direction of its variable, and the negative direction of a free
    one is its negation.  ``free_cols`` and ``n_orig`` place each direction
    in the split form's column order (``directions``, ``split_index``).
    """

    def __init__(self, T: np.ndarray, originals: tuple[np.ndarray, np.ndarray],
                 basis: np.ndarray, sign: np.ndarray, free_cols: np.ndarray, n_orig: int,
                 art_rows: np.ndarray = np.empty(0, dtype=int)):
        self.A0, self.b0 = originals
        self.art_rows = art_rows  # each artificial's unit row; -1 once dropped
        self.sum_order = "F" if T is not None and T.flags.f_contiguous else "C"
        self.T = self._stacked() if T is None else np.asfortranarray(T)  # pivot updates it
        self.basis = basis
        self.sign = sign
        self.free_cols = free_cols  # ascending; all below n_orig
        self.n_orig = n_orig
        self._norms = None  # squared column norms of T[:, :-1]; None until read

    @property
    def rhs(self) -> np.ndarray:
        return self.T[:, -1]

    def for_sums(self, columns: np.ndarray) -> np.ndarray:
        """columns (of T) laid out for ``sum_order``: for "C", a C-ordered copy
        without its spare column, so einsum, matmul and dot sum each column
        row after row, even a lone one (a contiguous one sums pairwise)."""
        if self.sum_order == "F":
            return columns
        copy = np.empty((columns.shape[0], columns.shape[1] + 1))
        copy[:, :-1] = columns
        return copy[:, :-1]

    @property
    def norms(self) -> np.ndarray:
        """Squared steepest-edge norms of every column but the rhs (a negative
        direction has its column's); computed in full on first read, then
        kept current by ``pivot``.  Callers must not modify them."""
        if self._norms is None:
            body = self.for_sums(self.T[:, :-1])
            self._norms = np.einsum("ij,ij->j", body, body)
        return self._norms

    def directions(self, ncols: int) -> tuple[np.ndarray, slice]:
        """The column of every direction among the first ncols columns, in
        the split form's order (originals, the negative directions of the
        free columns, then the rest), and the slice of negative ones."""
        columns = np.concatenate([np.arange(self.n_orig), self.free_cols,
                                  np.arange(self.n_orig, ncols)])
        return columns, slice(self.n_orig, self.n_orig + self.free_cols.size)

    def split_index(self, rows=slice(None)) -> np.ndarray:
        """Index of each row's basic direction in the split form's order."""
        cols = self.basis[rows]
        return np.where(self.sign[rows] < 0,
                        self.n_orig + self.free_cols.searchsorted(cols),
                        np.where(cols < self.n_orig, cols, cols + self.free_cols.size))

    def pivot(self, row: int, col: int, sign: float = 1.0) -> None:
        """Rank-one update restricted to the support of the pivot row; col
        enters in direction sign.

        Only the columns where the pivot row is nonzero change.  In blocks
        of at most ``_BLOCK_BYTES``, each in cache meanwhile, they are
        gathered as rows of ``T.T``, updated as ``T[i, j] - f_i * p_j`` (the
        product from ``einsum("i,j->ij")``), scattered back and their norms
        refreshed, summed as over the whole T in ``sum_order``: bit-identical
        to a full recomputation, whatever the block width.  The entering
        column is written last.  Negation is exact, so a free column entering
        with sign -1 writes the split form's negative bits.
        """
        T = self.T
        T[row] /= sign * T[row, col]
        cols = T[row].nonzero()[0]
        factors = sign * T[:, col]
        factors[row] = 0.0
        width = max(1, _BLOCK_BYTES // T[:, 0].nbytes)
        for start in range(0, cols.size, width):
            part = cols[start:start + width]
            block = T.T.take(part, axis=0)
            block -= np.einsum("i,j->ij", block[:, row], factors)
            T.T[part] = block
            if self._norms is not None:
                structural = part.size - int(part[-1] == T.shape[1] - 1)
                body = self.for_sums(block[:structural].T)
                self._norms[part[:structural]] = np.einsum("ij,ij->j", body, body)
        T[:, col] = 0.0
        T[row, col] = sign
        # keep the rhs from drifting into tiny negatives after degenerate pivots
        rhs = T[:, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
        self.basis[row] = col
        self.sign[row] = sign
        if self._norms is not None:
            self._norms[col] = 1.0

    def _stacked(self) -> np.ndarray:
        """A fresh Fortran-ordered [A | artificials | b]: the originals as T's columns."""
        n = self.A0.shape[1]
        stacked = np.zeros((self.A0.shape[0], n + self.art_rows.size + 1), order="F")
        stacked[:, :n], stacked[:, -1] = self.A0, self.b0
        stacked[:, n:-1] = np.arange(stacked.shape[0])[:, None] == self.art_rows
        return stacked

    def _basis_matrix(self) -> np.ndarray:
        n = self.A0.shape[1]
        B = self.A0.take(self.basis, axis=1, mode="clip")  # artificials: overwritten below
        art = (self.basis >= n).nonzero()[0]
        B[:, art] = np.arange(B.shape[0])[:, None] == self.art_rows[self.basis[art] - n]
        B *= self.sign
        return B

    def refactor(self) -> bool | None:
        """Rebuild T from the original data: True once rebuilt, None if the
        basis matrix is singular (T is kept), False if the rebuilt T is
        non-finite (a drifted basis, not one to resume); rebuilt, T sums in "C"."""
        try:
            T = np.linalg.solve(self._basis_matrix(), self._stacked())
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(T)):
            return False
        self.T = T = np.asfortranarray(T)
        T[(T[:, -1] < 0.0) & (T[:, -1] > -1e-11), -1] = 0.0
        self._norms, self.sum_order = None, "C"
        return True

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop every row not listed in keep (redundant constraints)."""
        dropped = ~np.isin(self.art_rows, keep)  # row -1: a zero column from now on
        self.art_rows = np.where(dropped, -1, keep.searchsorted(self.art_rows))
        self.T = np.asfortranarray(self.T[keep])
        self.basis = self.basis[keep]
        self.sign = self.sign[keep]
        self.A0, self.b0 = self.A0[keep], self.b0[keep]
        self._norms = None

    def basic_values(self) -> np.ndarray:
        """Solve B x_B = b fresh off the original data for the vertex, clamped at 0."""
        try:
            values = np.linalg.solve(self._basis_matrix(), self.b0)
        except np.linalg.LinAlgError:
            values = self.rhs.copy()
        return np.maximum(values, 0.0)


_FEAS_TOL = 1e-8         # phase-1 optimum above this (scaled by 1 + |b|) is infeasible
_PIVOT_TOL = 1e-10       # reduced costs and pivot entries within this count as zero
_STALL_ITERATIONS = 50   # non-improving pivots before Bland's rule takes over
_REFRESH_EVERY = 256     # recompute the carried cost row to shed float drift
_REFACTOR_EVERY = 1000   # rebuild the whole tableau from the original data
_MAX_TABLEAU_BYTES = 2**30  # phase-1 tableau x 2 (check_budget): 2591 kernel samples
_BLOCK_BYTES = 2**18     # the columns a pivot updates at a time, about an L2 share


def _run_simplex(tab: _Tableau, costs: np.ndarray, budget: int,
                 artificial_start: int | None = None) -> tuple[LpStatus, int]:
    """Run one phase; return the status it ended in and the pivots it made.

    A phase ends OPTIMAL; ITERATION_LIMIT once ``budget`` pivots are spent
    and another is due; UNBOUNDED only if the entering column has no
    positive entry on a tableau just rebuilt from the original data; or
    NUMERICAL_FAILURE when a refactorization, a cost-row refresh (which
    precedes every OPTIMAL) or the ratio test meets non-finite values, or a
    singular basis leaves that tableau unrebuilt.  Pricing is steepest-edge
    (most negative reduced cost per unit edge length).  The reduced-cost row
    is carried through the pivots and refreshed periodically, and the
    tableau is refactorized at intervals.

    Prices are kept per direction, in the split form's column order: every
    column's positive direction, with the negative directions of the free
    columns between the originals and the rest.  A refresh prices a negative
    direction at minus its column's reduced cost and zeroes only basic
    directions.  After a refactorization a basic column is a unit vector only
    to rounding, so the other direction of a basic free variable keeps a
    rounding-sized price, and its two prices drift apart exactly as the split
    form's two columns did.

    Degenerate stretches switch pivoting to Bland's rule; a strict objective
    improvement switches back, with the patience doubling on every switch so a
    genuine cycle eventually stays under Bland's rule long enough for its
    finite-termination guarantee to bite.
    """
    tol = _PIVOT_TOL
    ncols = tab.T.shape[1] - 1
    columns, negative = tab.directions(ncols)

    def per_direction(values: np.ndarray) -> np.ndarray:
        out = values[columns]
        out[negative] *= -1.0
        return out

    def refresh():
        """The exact cost row and objective, or None if either overflowed."""
        cost_basis = costs[tab.basis] * tab.sign
        T = tab.for_sums(tab.T)
        with np.errstate(over="ignore", invalid="ignore"):  # reported as None
            red = per_direction(costs[:ncols] - cost_basis @ T[:, :ncols])
            obj = float(cost_basis @ T[:, -1])
        red[tab.split_index()] = 0.0
        return (red, obj) if math.isfinite(obj) and np.isfinite(red).all() else None

    bland, stall, patience = False, 0, _STALL_ITERATIONS
    since_refactor = pivots = 0
    since_refresh = _REFRESH_EVERY  # the first pass prices off a fresh cost row
    certifying = False  # a column with no positive entry awaits a rebuilt tableau
    while True:
        if since_refactor >= _REFACTOR_EVERY:
            rebuilt = tab.refactor()
            if rebuilt is False:
                return LpStatus.NUMERICAL_FAILURE, pivots
            since_refactor, since_refresh = 0, _REFRESH_EVERY
        if since_refresh >= _REFRESH_EVERY:
            fresh = refresh()
            if fresh is None:
                return LpStatus.NUMERICAL_FAILURE, pivots
            (reduced, obj), since_refresh = fresh, 0

        if bland:
            falling = (reduced < -tol).nonzero()[0]
            direction = int(falling[0]) if falling.size else -1
        else:
            score = np.where(reduced < -tol, reduced / np.sqrt(1.0 + tab.norms[columns]), 0.0)
            direction = int(score.argmin())
            if score[direction] >= 0.0:
                direction = -1
        if direction < 0:
            fresh = refresh()  # confirm against an exact cost row
            if fresh is None:
                return LpStatus.NUMERICAL_FAILURE, pivots
            (reduced, obj), since_refresh = fresh, 0
            direction = int(reduced.argmin())
            if reduced[direction] >= -tol:
                return LpStatus.OPTIMAL, pivots
        entering = int(columns[direction])
        sign = -1.0 if negative.start <= direction < negative.stop else 1.0

        col = tab.T[:, entering] if sign > 0 else -tab.T[:, entering]
        leaving = _ratio_test(tab, col, bland, artificial_start)
        if leaving is LpStatus.UNBOUNDED:
            if not certifying:  # refactor at the top of the loop, then look again
                certifying, since_refactor = True, _REFACTOR_EVERY
                continue
            return LpStatus.UNBOUNDED if rebuilt else LpStatus.NUMERICAL_FAILURE, pivots
        if leaving is LpStatus.NUMERICAL_FAILURE:
            return leaving, pivots
        certifying = False

        if pivots >= budget:
            return LpStatus.ITERATION_LIMIT, pivots
        pivots += 1
        rate = float(reduced[direction])
        tab.pivot(leaving, entering, sign)
        since_refresh += 1
        since_refactor += 1

        step = rate * float(tab.rhs[leaving])
        obj += step
        reduced -= rate * per_direction(tab.T[leaving, :ncols])
        reduced[direction] = 0.0

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


def _ratio_test(tab: _Tableau, col: np.ndarray, bland: bool,
                artificial_start: int | None) -> int | LpStatus:
    """The row that leaves as the direction with tableau column col enters,
    read off the rows where col exceeds ``_PIVOT_TOL`` (UNBOUNDED if none
    does, NUMERICAL_FAILURE if the smallest ratio is not finite).

    Bland's rule takes the lowest split-form index among near-exact ties.
    Otherwise the largest pivot element within a Harris window of the
    smallest ratio wins, among basic artificials first when artificial_start
    is given, so phase 1 sheds them quickly.
    """
    rows = (col > _PIVOT_TOL).nonzero()[0]
    if not rows.size:
        return LpStatus.UNBOUNDED
    pivots = col[rows]
    with np.errstate(over="ignore"):  # an overflowed ratio is never the minimum
        ratios = np.maximum(tab.rhs[rows], 0.0) / pivots
    best = float(ratios.min())
    if not math.isfinite(best):
        return LpStatus.NUMERICAL_FAILURE
    if bland:
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        return int(tied[tab.split_index(tied).argmin()])
    near = ratios <= best + 1e-9 * (1.0 + abs(best))
    window, pivots = rows[near], pivots[near]
    if artificial_start is not None:
        evictable = tab.basis[window] >= artificial_start
        if evictable.any():
            window, pivots = window[evictable], pivots[evictable]
    return int(window[pivots.argmax()])


def _slack_start(senses: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start's first step: each row is flipped to a nonnegative rhs (the
    +-1 flips) and starts on its slack where that slack's entry is then +1
    (the mask); ``check_budget`` counts an artificial for every other row."""
    flip = np.where(rhs < 0, -1.0, 1.0)
    return flip, np.where(flip > 0, senses == LESS_EQUAL, senses == GREATER_EQUAL)


def check_budget(senses: np.ndarray, rhs: np.ndarray, n_vars: int) -> None:
    """Raise McmError when the phase-1 tableau of a program with these
    senses and rhs over ``n_vars`` variables (a slack per inequality and an
    artificial per row not started on its slack), counted twice, would take
    more than _MAX_TABLEAU_BYTES.  A row that starts on a +1 column instead
    needs no artificial, so for such programs the count is an upper bound;
    it reads no matrix, so a builder may call it before it fills one.  The
    doubling stands for what a solve holds
    beside the tableau: the flipped originals, the phase-2 copy at the
    switch, the C-ordered copy phase 1's sums read, the caller's LP and a
    kernel fit's Gram matrix; counting them would refuse fits that run today."""
    on_slack = _slack_start(senses, rhs)[1]
    rows = senses.size
    columns = n_vars + int((senses != EQUAL).sum()) + int((~on_slack).sum())
    nbytes = 8 * rows * (columns + 1)
    if 2 * nbytes > _MAX_TABLEAU_BYTES:
        raise McmError(f"an LP of {rows} rows and {columns} columns needs {nbytes} bytes "
                       f"for its phase-1 tableau; twice that is over the budget of "
                       f"{_MAX_TABLEAU_BYTES} bytes")


def solve(problem: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Solve to a basic optimal solution, or certify infeasibility/unboundedness.

    max_iterations caps the pivots of both phases together (None: 50 times
    the standardized rows plus columns); running out gives ITERATION_LIMIT.
    ``standardize`` validates the problem and checks the budget before it
    allocates.
    """
    std = standardize(problem).problem
    A, b, c, free = std.A, std.rhs, std.objective, std.free
    senses, m, n_orig = problem.senses, problem.n_constraints, problem.n_vars
    flip, on_slack = _slack_start(senses, problem.rhs)
    ineq = senses != EQUAL
    n = n_orig + int(ineq.sum())
    budget = 50 * (m + n) if max_iterations is None else max_iterations
    np.multiply(A, flip[:, None], out=A)  # standardize's own copy: now the originals
    # a row starts on its slack where that slack's entry is +1, else on a
    # one-nonzero column's +1 direction (soft-linear's q_i), else on an artificial
    basis = np.where(on_slack, n_orig + np.cumsum(ineq) - 1, -1)
    sign = np.ones(m)
    rows, cols, negative = _unit_directions(A[:, :n_orig], free[:n_orig], ~on_slack)
    basis[rows], sign[rows[negative]] = cols, -1.0
    needs_artificial = (basis < 0).nonzero()[0]
    n_art = needs_artificial.size
    basis[needs_artificial] = n + np.arange(n_art)
    tab = _Tableau(None, (A, b * flip), basis, sign, free.nonzero()[0], n_orig,
                   needs_artificial)
    phase1 = 0
    if n_art:
        phase1_costs = np.concatenate([np.zeros(n), np.ones(n_art)])
        status, phase1 = _run_simplex(tab, phase1_costs, budget, artificial_start=n)
        if status is not LpStatus.OPTIMAL:  # phase 1 is bounded below by 0: UNBOUNDED is drift
            status = LpStatus.NUMERICAL_FAILURE if status is LpStatus.UNBOUNDED else status
            return LpSolution(status, None, None, (phase1, 0))

        infeasibility = float(phase1_costs[tab.basis] @ tab.for_sums(tab.T[:, -1:])[:, 0])
        if infeasibility > _FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            return LpSolution(LpStatus.INFEASIBLE, None, None, (phase1, 0))

        _drive_out_artificials(tab, n)
        # phase 2 on the structural columns and the rhs, a Fortran-ordered
        # copy; rebinding tab releases the phase-1 tableau
        keep = np.append(np.arange(n), tab.T.shape[1] - 1)
        tab = _Tableau(tab.T[:, keep], (tab.A0, tab.b0), tab.basis, tab.sign, tab.free_cols,
                       n_orig)
    else:  # a feasible start: phase 2 pivots the stacked tableau as it stands
        tab.sum_order = "F"
    status, phase2 = _run_simplex(tab, c, budget - phase1)
    phases = (phase1, phase2)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status, None, None, phases)

    x = np.zeros(n)
    values = tab.basic_values()  # exact vertex off the original data
    # 0.0 - v, not -v: a zero value stays +0.0
    x[tab.basis] = np.where(tab.sign < 0, 0.0 - values, values)
    x = x[:n_orig].copy()  # owned: a view would keep all n values alive
    return LpSolution(LpStatus.OPTIMAL, x, float(problem.objective @ x), phases)


def _unit_directions(A: np.ndarray, free: np.ndarray,
                     off_slack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a row off its slack can start instead of on an artificial: a
    direction whose column of the flipped originals A has one nonzero entry,
    +1 in that row (-1 for the negative direction of a free column).  Each
    such row takes the first one in the split form's order; returns the
    rows, their columns and the mask of negative directions among them."""
    single = (np.count_nonzero(A, axis=0) == 1).nonzero()[0]
    rows, at = A[:, single].nonzero()  # one entry per column, row by row
    cols = single[at]
    entry = A[rows, cols]
    negative = (entry == -1.0) & free[cols]
    usable = ((entry == 1.0) | negative) & off_slack[rows]
    rows, cols, negative = rows[usable], cols[usable], negative[usable]
    # split-form index: originals first, then the free columns' negative directions
    order = np.lexsort((cols + negative * A.shape[1], rows))
    first = order[np.unique(rows[order], return_index=True)[1]]
    return rows[first], cols[first], negative[first]


def _drive_out_artificials(tab: _Tableau, n_struct: int) -> None:
    """Pivot basic artificials onto structural directions, taking the
    largest entry first in the split form's order; drop redundant rows."""
    columns, negative = tab.directions(n_struct)
    drop = []
    for row in range(tab.T.shape[0]):
        if tab.basis[row] < n_struct:
            continue
        entries = np.abs(tab.T[row, columns])
        entries[tab.split_index((tab.basis < n_struct).nonzero()[0])] = 0.0
        direction = int(entries.argmax())
        if entries[direction] > _PIVOT_TOL:
            sign = -1.0 if negative.start <= direction < negative.stop else 1.0
            tab.pivot(row, int(columns[direction]), sign)
        else:
            drop.append(row)
    if drop:
        tab.keep_rows(np.setdiff1d(np.arange(tab.T.shape[0]), drop))


def write_lp_text(problem: LpProblem, names: list[str] | None = None) -> str:
    """Render in fixed-decimal CPLEX-LP text (used by the CLI's --dump-lp)."""
    n = problem.n_vars
    if names is None:
        names = [f"x{j + 1}" for j in range(n)]
    if len(names) != n:
        raise McmError(f"{len(names)} names for {n} variables")

    def linear(coeffs: np.ndarray) -> str:
        terms = [f"{'-' if coeffs[j] < 0 else '+'} {abs(coeffs[j]):.12f} {names[j]}"
                 for j in np.flatnonzero(coeffs)]
        if not terms:
            return f"0.000000000000 {names[0]}"
        lead = terms[0][2:] if terms[0][0] == "+" else "-" + terms[0][2:]
        return " ".join([lead] + terms[1:])

    lines = ["Minimize", f" obj: {linear(problem.objective)}", "Subject To"]
    for i, (coeffs, sense, rhs) in enumerate(zip(problem.A, problem.senses, problem.rhs)):
        lines.append(f" c{i + 1}: {linear(coeffs)} {sense} {rhs:.12f}")
    free_names = [names[j] for j in np.flatnonzero(problem.free)]
    if free_names:
        lines.append("Bounds")
        lines.extend(f" {name} free" for name in free_names)
    lines.append("End")
    return "\n".join(lines) + "\n"
