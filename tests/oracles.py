"""Independent brute-force references used by the tests.

Nothing here shares code paths with the solver or the trainers: optima are
recomputed from first principles (vertex enumeration, dense direction search)
so the tests cross-check the production implementations against a second
route to the same answer.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from mcm import lp
from mcm.errors import McmError
from mcm.kernels import LINEAR, RBF, KernelSpec


NONNEGATIVE = "nonneg"
FREE = "free"
_BOUNDS = (NONNEGATIVE, FREE)


def make_problem(objective, rows, bounds) -> lp.LpProblem:
    """An ``LpProblem`` from (coeffs, relation, rhs) row triples, with bounds
    naming NONNEGATIVE or FREE per variable."""
    objective = np.asarray(objective, dtype=float)
    unknown = [kind for kind in bounds if kind not in _BOUNDS]
    if unknown:
        raise ValueError(f"unknown variable bound {unknown[0]!r}")
    A = (np.vstack([np.asarray(c, dtype=float) for c, _, _ in rows]) if rows
         else np.zeros((0, objective.shape[0])))
    return lp.LpProblem(objective, A, np.array([rel for _, rel, _ in rows], dtype=str),
                        np.array([rhs for _, _, rhs in rows], dtype=float),
                        np.array([kind == FREE for kind in bounds], dtype=bool))


def csv_row_loop(path, label_column: int | None = -1, has_header: bool = False):
    """(samples, labels) of a well-formed CSV file, parsed one row at a time
    with a per-row float() of each feature cell."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if has_header:
        lines.pop(0)
    width = len(lines[0].split(","))
    label_index = None if label_column is None else label_column % width
    samples, labels = [], None if label_index is None else []
    for line in lines:
        cells = line.split(",")
        if labels is not None:
            labels.append(cells.pop(label_index).strip())
        samples.append([float(cell) for cell in cells])
    return np.asarray(samples, dtype=float), labels


def random_feasible_bounded_lp(rng: np.random.Generator, n_vars: int | None = None,
                               n_ineq: int | None = None,
                               add_equality: bool | None = None):
    """Random LP that is feasible and bounded by construction.

    An interior point x0 >= 0 is drawn first and every row is built to hold at
    x0 with slack; a simplex row sum(x) <= U keeps the region bounded.  Roughly
    a third of the inequality rows are stated as >= (negated), and optionally
    one equality through x0 is appended.  Returns (problem, x0).
    """
    n = int(rng.integers(2, 9)) if n_vars is None else n_vars
    m = int(rng.integers(1, 11)) if n_ineq is None else n_ineq
    x0 = rng.uniform(0.0, 2.0, n)
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(0.1, 1.5, m)
    rows = []
    for i in range(m):
        if rng.random() < 0.3:
            rows.append((-A[i], lp.GREATER_EQUAL, -float(b[i])))
        else:
            rows.append((A[i], lp.LESS_EQUAL, float(b[i])))
    rows.append((np.ones(n), lp.LESS_EQUAL, float(x0.sum() + 2.0 * n + 1.0)))
    if add_equality is None:
        add_equality = rng.random() < 0.3
    if add_equality:
        a = rng.normal(size=n)
        rows.append((a, lp.EQUAL, float(a @ x0)))
    c = rng.normal(size=n)
    return make_problem(c, rows, [NONNEGATIVE] * n), x0


def vertex_minimum(problem: lp.LpProblem, feas_tol: float = 1e-7,
                   chunk: int = 20000):
    """Minimum objective over all basic feasible points, by exhaustive enumeration.

    Enumerates every n-subset of {constraint rows} | {x_j >= 0 bound rows},
    solves the active-set system, keeps feasible solutions, and returns
    (best objective, best point) or (None, None) when no feasible vertex exists.
    Only meaningful for pointed feasible regions (all variables bounded below
    or boxed by explicit rows) and bounded objectives.
    """
    n = problem.n_vars
    bounded = np.flatnonzero(~problem.free)  # x_j >= 0 rows
    G = np.vstack([problem.A, np.eye(n)[bounded]])
    h = np.concatenate([problem.rhs, np.zeros(bounded.size)])
    rels = np.concatenate([problem.senses, np.full(bounded.size, lp.GREATER_EQUAL)])
    le = rels == lp.LESS_EQUAL
    ge = rels == lp.GREATER_EQUAL
    eq = rels == lp.EQUAL
    c = problem.objective

    best_obj = None
    best_x = None
    flat = itertools.chain.from_iterable(itertools.combinations(range(G.shape[0]), n))
    while True:
        arr = np.fromiter(itertools.islice(flat, chunk * n), dtype=np.int64)
        if arr.size == 0:
            break
        batch = arr.reshape(-1, n)
        mats = G[batch]
        dets = np.linalg.det(mats)
        ok = np.abs(dets) > 1e-9
        if not ok.any():
            continue
        X = np.linalg.solve(mats[ok], h[batch[ok]][:, :, None])[:, :, 0]
        vals = X @ G.T
        feasible = (
            np.all(vals[:, le] <= h[le] + feas_tol, axis=1)
            & np.all(vals[:, ge] >= h[ge] - feas_tol, axis=1)
            & np.all(np.abs(vals[:, eq] - h[eq]) <= feas_tol, axis=1)
        )
        if not feasible.any():
            continue
        objs = X[feasible] @ c
        i = int(np.argmin(objs))
        if best_obj is None or objs[i] < best_obj:
            best_obj = float(objs[i])
            best_x = X[feasible][i]
    return best_obj, best_x


def blobs(seed, m: int, d: int, gap: float):
    """m points in d dimensions with labels -1/+1 in shuffled halves, the +1
    class shifted by gap along the diagonal."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(m) % 2) * 2.0 - 1.0
    X = rng.normal(size=(m, d)) + np.outer((y + 1.0) / 2.0, np.full(d, gap / np.sqrt(d)))
    return X, y


def two_blobs_200():
    """Acceptance criterion 6's data: 100 standard-normal 2-D points labelled
    -1, then 100 shifted by (3, 3) labelled +1."""
    rng = np.random.default_rng(7041)
    half = 100
    X = np.vstack([rng.normal(size=(half, 2)),
                   rng.normal(size=(half, 2)) + 3.0])
    return X, np.concatenate([-np.ones(half), np.ones(half)])


def ill_scaled_blobs():
    """45 rows of three 3-D unit blobs with centres 2.5 apart, features then
    scaled by (1, 10, 0.1), and their labels "a", "b", "c".  The rbf kernel
    programs of some folds are so ill-conditioned that the simplex tableau
    overflows to non-finite values."""
    rng = np.random.default_rng([3, 1])
    centres = np.zeros((3, 3))
    centres[np.arange(3), np.arange(3)] = 2.5 / np.sqrt(2.0)
    labels = np.arange(45) % 3
    rng.shuffle(labels)
    X = (centres[labels] + rng.standard_normal((45, 3))) * np.array([1.0, 10.0, 0.1])
    return X, ["abc"[j] for j in labels]


def split_free(problem: lp.LpProblem) -> lp.LpProblem:
    """The same LP with every free variable written as x+ - x-, two
    nonnegative columns: the originals (positive parts) first, then the
    negative parts in order.  This is how the solver used to store free
    variables, so solving the result replays that split-form solver."""
    free = problem.free
    return lp.LpProblem(
        np.concatenate([problem.objective, -problem.objective[free]]),
        np.hstack([problem.A, -problem.A[:, free]]),
        problem.senses, problem.rhs,
        np.zeros(problem.n_vars + int(free.sum()), dtype=bool))


def merge_split(problem: lp.LpProblem, x_split: np.ndarray) -> np.ndarray:
    """A point of split_free(problem) mapped back as x+ - x-, in the split
    solver's own arithmetic."""
    n = problem.n_vars
    x = x_split[:n].copy()
    x[problem.free] -= x_split[n:]
    return x


def ratio_test_full_length(tab, col: np.ndarray, bland: bool, artificial_start):
    """The simplex ratio test written over every row, as lp.solve once ran
    it: a row whose entry of col is not above the pivot tolerance gets an
    infinite ratio.  Returns the leaving row, LpStatus.UNBOUNDED when no row
    limits the step, or LpStatus.NUMERICAL_FAILURE when the smallest ratio is
    not finite.  Reads tab.rhs, tab.basis, tab.sign, tab.free_cols and
    tab.n_orig."""
    positive = col > lp._PIVOT_TOL
    if not positive.any():
        return lp.LpStatus.UNBOUNDED
    rhs = np.maximum(tab.rhs, 0.0)
    ratios = np.full(col.shape, np.inf)
    ratios[positive] = rhs[positive] / col[positive]
    best = ratios.min()
    if not np.isfinite(best):
        return lp.LpStatus.NUMERICAL_FAILURE
    if bland:
        tied = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        # lowest index in the split form: originals, negative parts of the
        # free columns, then the rest
        free = list(tab.free_cols)
        index = [tab.n_orig + free.index(j) if s < 0 else (j if j < tab.n_orig else j + len(free))
                 for j, s in zip(tab.basis[tied], tab.sign[tied])]
        return int(tied[int(np.argmin(index))])
    window = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
    if artificial_start is not None:
        evictable = window[tab.basis[window] >= artificial_start]
        if evictable.size:
            window = evictable
    return int(window[np.argmax(np.abs(col[window]))])


def phase1_starts(monkeypatch) -> tuple[list, list]:
    """Spy on lp.solve from here on: lists filled with the (rows, columns)
    each check_budget call counts, read off the message it gives over a
    budget of -1 bytes, and each phase-1 start (basis, signs, tableau columns
    without the rhs), as solve hands them over."""
    budgets, starts = [], []
    check_budget, run_simplex = lp.check_budget, lp._run_simplex

    def recording_budget(senses, rhs, n_vars):
        limit, lp._MAX_TABLEAU_BYTES = lp._MAX_TABLEAU_BYTES, -1
        try:
            check_budget(senses, rhs, n_vars)
        except McmError as exc:
            counted = re.match(r"an LP of (\d+) rows and (\d+) columns", str(exc))
            budgets.append((int(counted[1]), int(counted[2])))
        finally:
            lp._MAX_TABLEAU_BYTES = limit
        check_budget(senses, rhs, n_vars)

    def recording_run(tab, costs, budget, artificial_start=None):
        if artificial_start is not None:
            starts.append((tab.basis.tolist(), tab.sign.tolist(), tab.T.shape[1] - 1))
        return run_simplex(tab, costs, budget, artificial_start)

    monkeypatch.setattr(lp, "check_budget", recording_budget)
    monkeypatch.setattr(lp, "_run_simplex", recording_run)
    return budgets, starts


def mcm_program(scores: np.ndarray, y: np.ndarray, C: float | None = None):
    """The MCM training LP written out sample by sample, as the arrays
    (objective, A, senses, rhs, free).

    scores[i] holds the coefficients of f(x_i) in the weights: x_i for the
    linear programs, the Gram row of x_i for the kernel one.  Columns are the
    weights, b, h, then one slack q_i per sample when C is given.  Per
    sample, the paper's two constraints, bound first:

        h >= y_i f(x_i) [+ q_i]    i.e.  y_i (s_i.w + b) - h [+ q_i] <= 0
        y_i f(x_i) [+ q_i] >= 1
    """
    M, n = scores.shape
    soft = C is not None
    n_cols = n + 2 + (M if soft else 0)
    objective = np.zeros(n_cols)
    objective[n + 1] = 1.0
    free = np.zeros(n_cols, dtype=bool)
    free[:n + 2] = True
    A, senses, rhs = [], [], []
    for i in range(M):
        for bound in (True, False):
            row = np.zeros(n_cols)
            for j in range(n):
                row[j] = y[i] * scores[i, j]
            row[n] = y[i]
            if bound:
                row[n + 1] = -1.0
            if soft:
                row[n + 2 + i] = 1.0
                objective[n + 2 + i] = C
            A.append(row)
            senses.append(lp.LESS_EQUAL if bound else lp.GREATER_EQUAL)
            rhs.append(0.0 if bound else 1.0)
    return objective, np.array(A), np.array(senses), np.array(rhs), free


def _ratio_over_offsets(S: np.ndarray, y: np.ndarray, iters: int = 100):
    """For each direction (column of S = X @ U.T): minimize the margin ratio over
    the offset by ternary search on the interval where all samples sit on the
    correct side. Returns (ratio, offset), inf where no offset separates."""
    pos = y > 0
    neg = ~pos
    lo = (-S[pos]).max(axis=0)
    hi = (-S[neg]).min(axis=0)
    feasible = lo < hi - 1e-15

    span = np.where(feasible, hi - lo, 1.0)
    a = lo + 1e-12 * span
    b = hi - 1e-12 * span

    def ratio(v):
        margins = y[:, None] * (S + v[None, :])
        mn = margins.min(axis=0)
        mn = np.where(mn <= 0, np.nan, mn)
        return margins.max(axis=0) / mn

    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1 = ratio(m1)
        f2 = ratio(m2)
        go_left = f1 <= f2
        b = np.where(go_left, m2, b)
        a = np.where(go_left, a, m1)
    v = 0.5 * (a + b)
    r = ratio(v)
    r = np.where(feasible & np.isfinite(r), r, np.inf)
    return r, v


def min_margin_ratio_2d(X: np.ndarray, y: np.ndarray, n_directions: int = 16384):
    """Brute-force minimum of max-margin/min-margin over separating hyperplanes.

    Scans n_directions unit normals over the full circle, solves the offset
    exactly for each, then polishes the best direction with a golden-section
    pass. Returns the smallest ratio found (np.inf if nothing separates).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
    U = np.column_stack([np.cos(thetas), np.sin(thetas)])
    ratios, _ = _ratio_over_offsets(X @ U.T, y)
    k = int(np.argmin(ratios))
    best = float(ratios[k])
    if not np.isfinite(best):
        return np.inf

    def at(theta: float) -> float:
        u = np.array([[np.cos(theta), np.sin(theta)]])
        r, _ = _ratio_over_offsets(X @ u.T, y)
        return float(r[0])

    # golden-section polish around the best grid direction
    step = 2.0 * np.pi / n_directions
    a, b = thetas[k] - 2 * step, thetas[k] + 2 * step
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = at(x1), at(x2)
    for _ in range(120):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = at(x2)
    return min(best, f1, f2)


def parse_lp_text(text: str) -> lp.LpProblem:
    """Parse the fixed-decimal CPLEX-LP subset emitted by lp.write_lp_text."""
    section = None
    objective_tokens: list[str] = []
    constraint_lines: list[str] = []
    free_names: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered == "minimize":
            section = "obj"
            continue
        if lowered == "subject to":
            section = "cons"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        if section == "obj":
            objective_tokens.extend(line.split(":", 1)[1].split())
        elif section == "cons":
            constraint_lines.append(line.split(":", 1)[1])
        elif section == "bounds":
            name, kind = line.split()
            assert kind == "free"
            free_names.append(name)

    def parse_linear(tokens):
        terms: dict[str, float] = {}
        sign, coef = 1.0, None
        for tok in tokens:
            if tok in ("+", "-"):
                sign = 1.0 if tok == "+" else -1.0
                continue
            try:
                value = float(tok)
            except ValueError:  # variable name closes the pending term
                terms[tok] = terms.get(tok, 0.0) + (coef if coef is not None else sign)
                sign, coef = 1.0, None
            else:
                coef = sign * value
                sign = 1.0
        return terms

    obj_terms = parse_linear(objective_tokens)
    rows = []
    names_seen = dict.fromkeys(obj_terms)
    for line in constraint_lines:
        for rel in (lp.LESS_EQUAL, lp.GREATER_EQUAL, lp.EQUAL):
            if f" {rel} " in line:
                left, right = line.split(f" {rel} ")
                terms = parse_linear(left.split())
                rows.append((terms, rel, float(right)))
                names_seen.update(dict.fromkeys(terms))
                break
        else:
            raise AssertionError(f"no relation in {line!r}")
    order = list(names_seen)
    index = {name: j for j, name in enumerate(order)}
    c = np.zeros(len(order))
    for name, value in obj_terms.items():
        c[index[name]] = value
    constraints = []
    for terms, rel, rhs in rows:
        coeffs = np.zeros(len(order))
        for name, value in terms.items():
            coeffs[index[name]] = value
        constraints.append((coeffs, rel, rhs))
    bounds = [FREE if name in free_names else NONNEGATIVE for name in order]
    return make_problem(c, constraints, bounds)


def rbf_broadcast(gamma: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The rbf cross-Gram matrix in one broadcast: an |X| x |Y| x n
    difference temporary, squared and summed over the feature axis."""
    sq = (X[:, None, :] - Y[None, :, :]) ** 2
    return np.exp(-gamma * sq.sum(axis=2))


def kernel_eval(kernel: KernelSpec, p, q) -> float:
    """K(p, q) for one pair of points, straight from the kernel's formula."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise McmError(f"kernel arguments of length {p.shape} vs {q.shape}")
    if kernel.kind == LINEAR:
        return float(np.dot(p, q))
    if kernel.kind == RBF:
        d = p - q
        return float(np.exp(-kernel.gamma * np.dot(d, d)))
    return float((np.dot(p, q) + kernel.coef0) ** kernel.degree)
