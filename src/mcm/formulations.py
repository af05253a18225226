"""Assembly of the margin-ratio training programs and model extraction.

Every variant minimizes the margin-ratio bound h (plus a slack penalty for the
soft variants) over free hyperplane parameters, subject to two constraint
blocks per sample i with label y_i in {-1, +1} and decision value f(x_i):

    hard linear:   min h            s.t.  h >= y_i f(x_i),            y_i f(x_i) >= 1
    soft linear:   min h + C sum q  s.t.  h >= y_i f(x_i) + q_i,      y_i f(x_i) + q_i >= 1,  q_i >= 0
    soft kernel:   same as soft linear with f(x) = sum_j lambda_j K(x, x_j) + b

The slack q_i appears in both constraint blocks of the soft variants; that is
the formulation trained here, not the conventional hinge relaxation.
``build_problem`` fills both blocks for every variant at once, straight into
the array-form ``lp.LpProblem`` the solver reads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import HardMarginInfeasible, McmError, SolverFailure
from .kernels import KernelSpec, gram
from .model import KernelModel, LinearModel

HARD_LINEAR = "hard-linear"
SOFT_LINEAR = "soft-linear"
SOFT_KERNEL = "kernel"
VARIANTS = (HARD_LINEAR, SOFT_LINEAR, SOFT_KERNEL)

SV_RELATIVE_TOL = 1e-6   # support coefficients below this fraction of max |lambda|
SV_ABSOLUTE_TOL = 1e-10  # ... or below this absolutely, are treated as zero
PRUNE_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    variant: str
    C: float | None = None
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise McmError(f"unknown variant {self.variant!r}")
        if self.variant in (SOFT_LINEAR, SOFT_KERNEL):
            if self.C is None or self.C <= 0:
                raise McmError(f"variant {self.variant!r} requires C > 0")
            if not math.isfinite(self.C):
                raise McmError(f"variant {self.variant!r} requires a finite C")
        if self.variant == SOFT_KERNEL and self.kernel is None:
            raise McmError("kernel variant requires a KernelSpec")
        if self.variant != SOFT_KERNEL and self.kernel is not None:
            raise McmError(f"variant {self.variant!r} takes no kernel")


@dataclass(frozen=True)
class McmLpLayout:
    """Column map of a training LP: weights (w or lambda), offset b, bound h,
    and slacks q for the soft variants; ``scores`` holds the rows s_i the
    weights multiply (the samples, or the training Gram matrix)."""

    scores: np.ndarray
    weight_cols: np.ndarray
    b_col: int
    h_col: int
    q_cols: np.ndarray | None


def lp_names(layout: McmLpLayout, config: TrainConfig) -> list[str]:
    """The LP's column names in the layout's order: w1... (lam1... for the
    kernel variant), b, h, then q1... for the soft variants."""
    prefix = "lam" if config.variant == SOFT_KERNEL else "w"
    names = [f"{prefix}{j + 1}" for j in range(layout.weight_cols.size)] + ["b", "h"]
    if layout.q_cols is not None:
        names += [f"q{i + 1}" for i in range(layout.q_cols.size)]
    return names


def _check_labels(labels) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    values = set(np.unique(y))
    if not values <= {-1.0, 1.0}:
        raise McmError(f"labels must be -1/+1, got {sorted(values)}")
    if len(values) < 2:
        raise McmError("training data contains a single class")
    return y


def build_problem(samples, labels, config: TrainConfig) -> tuple[lp.LpProblem, McmLpLayout]:
    """Assemble the training LP of any variant from raw samples.

    s_i holds the coefficients of f(x_i) in the weight variables: the raw
    sample for the linear variants, the Gram row for the kernel one.  Each
    sample contributes two rows, in this order:

        cap:    y_i s_i.w + y_i b - h [+ q_i] <= 0
        floor:  y_i s_i.w + y_i b     [+ q_i] >= 1

    Column order: weights, b, h[, q].
    """
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    y = _check_labels(labels)
    if y.shape != (X.shape[0],):
        raise McmError(f"{y.size} labels for {X.shape[0]} samples")
    M = X.shape[0]
    n_weights = M if config.variant == SOFT_KERNEL else X.shape[1]
    with_slack = config.variant != HARD_LINEAR
    n_cols = n_weights + 2 + (M if with_slack else 0)
    senses = np.tile([lp.LESS_EQUAL, lp.GREATER_EQUAL], M)
    rhs = np.tile([0.0, 1.0], M)
    lp.check_budget(senses, rhs, n_cols)
    scores = gram(config.kernel, X) if config.variant == SOFT_KERNEL else X

    objective = np.zeros(n_cols)
    objective[n_weights + 1] = 1.0
    rows = np.zeros((M, 2, n_cols))
    rows[:, :, :n_weights] = (y[:, None] * scores)[:, None, :]
    rows[:, :, n_weights] = y[:, None]  # b
    rows[:, 0, n_weights + 1] = -1.0    # h, cap row only
    if with_slack:
        objective[n_weights + 2:] = config.C
        rows[np.arange(M), :, n_weights + 2 + np.arange(M)] = 1.0
    problem = lp.LpProblem(
        objective,
        rows.reshape(2 * M, n_cols),
        senses,
        rhs,
        np.arange(n_cols) < n_weights + 2,  # weights, b and h are free
    )
    layout = McmLpLayout(
        scores=scores,
        weight_cols=np.arange(n_weights),
        b_col=n_weights,
        h_col=n_weights + 1,
        q_cols=np.arange(n_weights + 2, n_cols) if with_slack else None,
    )
    return problem, layout


def extract_linear(solution: lp.LpSolution, layout: McmLpLayout,
                   config: TrainConfig) -> LinearModel:
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise McmError(f"solution status is {solution.status.value}")
    x = solution.primal_values
    return LinearModel(
        w=x[layout.weight_cols],
        b=float(x[layout.b_col]),
        h=float(x[layout.h_col]),
        C=None if config.variant == HARD_LINEAR else config.C,
    )


def extract_kernel(solution: lp.LpSolution, layout: McmLpLayout,
                   config: TrainConfig, samples) -> KernelModel:
    """Keep only the samples whose coefficients are non-negligible.

    The simplex solver returns vertex solutions whose non-basic coefficients
    are exact zeros, so the default threshold mostly strips float noise.
    Dropping columns must not move any training decision value by more than
    PRUNE_CHECK_TOL; degenerate vertices can carry legitimately tiny basic
    coefficients below the default cutoff, so the cutoff backs off until the
    verified drift passes.  The drift is measured on the training Gram
    matrix the LP was built from (``layout.scores``).
    """
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise McmError(f"solution status is {solution.status.value}")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    x = solution.primal_values
    lam_full = x[layout.weight_cols]
    cutoff = max(SV_RELATIVE_TOL * float(np.abs(lam_full).max(initial=0.0)),
                 SV_ABSOLUTE_TOL)
    while True:
        keep = np.abs(lam_full) > cutoff
        dropped = lam_full.copy()
        dropped[keep] = 0.0
        drift = float(np.abs(layout.scores @ dropped).max(initial=0.0))
        if drift <= PRUNE_CHECK_TOL or not (~keep).any():
            break
        cutoff /= 16.0
    return KernelModel(
        lam=lam_full[keep],
        support_vectors=X[keep],
        b=float(x[layout.b_col]),
        h=float(x[layout.h_col]),
        kernel=config.kernel,
        n=X.shape[1],
        C=config.C,
    )


@dataclass
class TrainResult:
    model: object
    objective_value: float
    seconds: float
    lp_iterations: int


def train(samples, labels, config: TrainConfig, on_problem=None) -> TrainResult:
    """Build the LP for the requested variant, solve it, extract the model.
    ``on_problem``, if given, is called with the assembled (problem, layout)
    before the solve.

    Every feasible point has h >= y_i f(x_i) [+ q_i] >= 1, so an optimal
    objective below 1 - ``lp._FEAS_TOL`` is a solver failure."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    problem, layout = build_problem(X, labels, config)
    if on_problem is not None:
        on_problem(problem, layout)
    start = time.perf_counter()
    solution = lp.solve(problem)
    seconds = time.perf_counter() - start
    if solution.status is lp.LpStatus.INFEASIBLE:
        if config.variant == HARD_LINEAR:
            raise HardMarginInfeasible(
                "hard-margin program is infeasible; the data is not separable")
        raise SolverFailure("soft-margin program reported infeasible")
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise SolverFailure(f"solver returned {solution.status.value}")
    if solution.objective_value < 1.0 - lp._FEAS_TOL:
        raise SolverFailure(f"solver returned objective {solution.objective_value!r}, "
                            f"below 1, the least of any feasible point")
    if config.variant == SOFT_KERNEL:
        model = extract_kernel(solution, layout, config, X)
    else:
        model = extract_linear(solution, layout, config)
    return TrainResult(model, solution.objective_value, seconds, solution.iterations)
