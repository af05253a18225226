"""Assembly of the margin-ratio training programs and model extraction.

Every variant minimizes the margin-ratio bound h (plus a slack penalty for the
soft variants) over free hyperplane parameters, subject to two constraint
blocks per sample i with label y_i in {-1, +1} and decision value f(x_i):

    hard linear:   min h            s.t.  h >= y_i f(x_i),            y_i f(x_i) >= 1
    soft linear:   min h + C sum q  s.t.  h >= y_i f(x_i) + q_i,      y_i f(x_i) + q_i >= 1,  q_i >= 0
    soft kernel:   same as soft linear with f(x) = sum_j lambda_j K(x, x_j) + b

The slack q_i appears in both constraint blocks of the soft variants; that is
the formulation trained here, not the conventional hinge relaxation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (
    GramShapeMismatch,
    HardMarginInfeasible,
    McmError,
    NotOptimal,
    SingleClass,
    SolverFailure,
)
from .kernels import GramMatrix, KernelSpec, cross_gram, gram
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
        if self.variant == SOFT_KERNEL and self.kernel is None:
            raise McmError("kernel variant requires a KernelSpec")


@dataclass(frozen=True)
class McmLpLayout:
    """Column map of a training LP: weights (w or lambda), offset b, bound h,
    and slacks q for the soft variants."""

    variant: str
    weight_cols: np.ndarray
    b_col: int
    h_col: int
    q_cols: np.ndarray | None
    n_columns: int

    def weights(self, solution: lp.LpSolution) -> np.ndarray:
        return solution.primal_values[self.weight_cols]

    def offset(self, solution: lp.LpSolution) -> float:
        return float(solution.primal_values[self.b_col])

    def ratio_bound(self, solution: lp.LpSolution) -> float:
        return float(solution.primal_values[self.h_col])

    def slacks(self, solution: lp.LpSolution) -> np.ndarray | None:
        if self.q_cols is None:
            return None
        return solution.primal_values[self.q_cols]


def _check_labels(labels) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    values = set(np.unique(y))
    if not values <= {-1.0, 1.0}:
        raise McmError(f"labels must be -1/+1, got {sorted(values)}")
    if len(values) < 2:
        raise SingleClass("training data contains a single class")
    return y


def _margin_rows(scores: np.ndarray, y: np.ndarray, n_weights: int, with_slack: bool):
    """Constraint rows shared by all variants.

    scores[i] are the per-sample coefficient vectors of f(x_i) in the weight
    variables (the raw sample for the linear variants, the Gram row for the
    kernel one).  Column order: weights, b, h[, q].
    """
    M = scores.shape[0]
    n_cols = n_weights + 2 + (M if with_slack else 0)
    rows = []
    for i in range(M):
        cap = np.zeros(n_cols)
        cap[:n_weights] = y[i] * scores[i]
        cap[n_weights] = y[i]          # b
        cap[n_weights + 1] = -1.0      # h
        floor = cap.copy()
        floor[n_weights + 1] = 0.0
        if with_slack:
            cap[n_weights + 2 + i] = 1.0
            floor[n_weights + 2 + i] = 1.0
        rows.append((cap, lp.LESS_EQUAL, 0.0))      # y_i f(x_i) [+ q_i] <= h
        rows.append((floor, lp.GREATER_EQUAL, 1.0))  # y_i f(x_i) [+ q_i] >= 1
    return rows, n_cols


def _assemble(scores: np.ndarray, y: np.ndarray, variant: str, C: float | None):
    with_slack = variant != HARD_LINEAR
    M, n_weights = scores.shape
    rows, n_cols = _margin_rows(scores, y, n_weights, with_slack)
    objective = np.zeros(n_cols)
    objective[n_weights + 1] = 1.0
    bounds = [lp.FREE] * (n_weights + 2)
    if with_slack:
        objective[n_weights + 2:] = C
        bounds += [lp.NONNEGATIVE] * M
    layout = McmLpLayout(
        variant=variant,
        weight_cols=np.arange(n_weights),
        b_col=n_weights,
        h_col=n_weights + 1,
        q_cols=np.arange(n_weights + 2, n_cols) if with_slack else None,
        n_columns=n_cols,
    )
    return lp.make_problem(objective, rows, bounds), layout


def build_hard_linear(samples, labels) -> tuple[lp.LpProblem, McmLpLayout]:
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    y = _check_labels(labels)
    return _assemble(X, y, HARD_LINEAR, None)


def build_soft_linear(samples, labels, C: float) -> tuple[lp.LpProblem, McmLpLayout]:
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    y = _check_labels(labels)
    if C <= 0:
        raise McmError("C must be positive")
    return _assemble(X, y, SOFT_LINEAR, float(C))


def build_soft_kernel(gram_matrix: GramMatrix, labels, C: float) -> tuple[lp.LpProblem, McmLpLayout]:
    K = np.asarray(gram_matrix.entries, dtype=float)
    y = _check_labels(labels)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise GramShapeMismatch(f"Gram matrix has shape {K.shape}")
    if K.shape[0] != y.shape[0]:
        raise GramShapeMismatch(
            f"Gram matrix is {K.shape[0]}x{K.shape[0]} for {y.shape[0]} labels")
    if C <= 0:
        raise McmError("C must be positive")
    return _assemble(K, y, SOFT_KERNEL, float(C))


def build_problem(samples, labels, config: TrainConfig) -> tuple[lp.LpProblem, McmLpLayout]:
    """Assemble the training LP for any variant from raw samples."""
    if config.variant == HARD_LINEAR:
        return build_hard_linear(samples, labels)
    if config.variant == SOFT_LINEAR:
        return build_soft_linear(samples, labels, config.C)
    K = gram(config.kernel, samples)
    return build_soft_kernel(K, labels, config.C)


def extract_linear(solution: lp.LpSolution, layout: McmLpLayout,
                   config: TrainConfig) -> LinearModel:
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise NotOptimal(f"solution status is {solution.status.value}")
    return LinearModel(
        w=layout.weights(solution).copy(),
        b=layout.offset(solution),
        h=layout.ratio_bound(solution),
        variant=config.variant,
        C=config.C,
    )


def extract_kernel(solution: lp.LpSolution, layout: McmLpLayout,
                   config: TrainConfig, samples) -> KernelModel:
    """Keep only the samples whose coefficients are non-negligible.

    The simplex solver returns vertex solutions whose non-basic coefficients
    are exact zeros, so the default threshold mostly strips float noise.
    Dropping columns must not move any training decision value by more than
    PRUNE_CHECK_TOL; degenerate vertices can carry legitimately tiny basic
    coefficients below the default cutoff, so the cutoff backs off until the
    verified drift passes.
    """
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise NotOptimal(f"solution status is {solution.status.value}")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    lam_full = layout.weights(solution)
    b = layout.offset(solution)
    K = cross_gram(config.kernel, X, X)
    cutoff = max(SV_RELATIVE_TOL * float(np.abs(lam_full).max(initial=0.0)),
                 SV_ABSOLUTE_TOL)
    while True:
        keep = np.abs(lam_full) > cutoff
        dropped = lam_full.copy()
        dropped[keep] = 0.0
        drift = float(np.abs(K @ dropped).max(initial=0.0))
        if drift <= PRUNE_CHECK_TOL or not (~keep).any():
            break
        cutoff /= 16.0
    return KernelModel(
        lam=lam_full[keep].copy(),
        support_vectors=X[keep].copy(),
        b=b,
        h=layout.ratio_bound(solution),
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


def train(samples, labels, config: TrainConfig,
          options: lp.SolverOptions | None = None) -> TrainResult:
    """Build the LP for the requested variant, solve it, extract the model."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    problem, layout = build_problem(X, labels, config)
    start = time.perf_counter()
    solution = lp.solve(problem, options)
    seconds = time.perf_counter() - start
    # an exhausted iteration budget certifies nothing, whatever the status says
    if solution.limit_exceeded:
        raise SolverFailure(f"solver returned {solution.status.value} (iteration limit)")
    if solution.status is lp.LpStatus.INFEASIBLE:
        if config.variant == HARD_LINEAR:
            raise HardMarginInfeasible(
                "hard-margin program is infeasible; the data is not separable")
        raise SolverFailure("soft-margin program reported infeasible")
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise SolverFailure(f"solver returned {solution.status.value}")
    if config.variant == SOFT_KERNEL:
        model = extract_kernel(solution, layout, config, X)
    else:
        model = extract_linear(solution, layout, config)
    return TrainResult(model, solution.objective_value, seconds, solution.iterations)
