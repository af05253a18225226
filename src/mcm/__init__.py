"""Minimal Complexity Machine classifiers.

Hyperplane classifiers (linear and kernel, hard and soft margin) trained by a
linear program that minimizes h, the ratio of the largest to the smallest
signed margin over the training set; h squared bounds the learner's capacity
from both sides, so small h means a simple machine.  The package bundles the
dense simplex solver the trainers run on, capacity diagnostics, dataset
loaders, cross-validation and grid-search machinery, and a command line
interface (``mcm``).
"""

from .capacity import CapacityReport, compute_h, capacity_report, radius_margin_ratio
from .data import (
    CvReport,
    Dataset,
    FoldPlan,
    apply_scale,
    cross_validate,
    fit_minmax,
    grid_search,
    load_csv,
    load_libsvm,
    make_folds,
    train_ovr,
)
from .formulations import (
    HARD_LINEAR,
    SOFT_KERNEL,
    SOFT_LINEAR,
    McmLpLayout,
    TrainConfig,
    TrainResult,
    build_problem,
    extract_kernel,
    extract_linear,
    train,
)
from .kernels import KernelSpec, cross_gram, gram
from .lp import LpProblem, LpSolution, LpStatus, solve, standardize
from .model import (
    KernelModel,
    LinearModel,
    OvrModel,
    decision_many,
    load_model,
    model_from_json,
    model_to_json,
    predict_many,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityReport", "compute_h", "capacity_report", "radius_margin_ratio",
    "CvReport", "Dataset", "FoldPlan", "apply_scale",
    "cross_validate", "fit_minmax", "grid_search", "load_csv", "load_libsvm",
    "make_folds", "train_ovr",
    "HARD_LINEAR", "SOFT_KERNEL", "SOFT_LINEAR", "McmLpLayout", "TrainConfig",
    "TrainResult", "build_problem", "extract_kernel", "extract_linear", "train",
    "KernelSpec", "cross_gram", "gram",
    "LpProblem", "LpSolution", "LpStatus", "solve", "standardize",
    "KernelModel", "LinearModel", "OvrModel", "decision_many",
    "load_model", "model_from_json", "model_to_json", "predict_many", "save_model",
    "__version__",
]
