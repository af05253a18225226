"""Capacity diagnostics for trained hyperplane models.

h is the ratio of the largest to the smallest signed margin y_i f(x_i) over a
training set; it is only meaningful when the hyperplane separates correctly
with positive margin, and is reported as undefined (None) otherwise.  h is
bounded above by the radius/margin ratio R/d computed on origin-augmented
coordinates, itself None when a sample lies on the hyperplane.  h^2 is the
capacity bound the trainers minimize.  The report carries h, h^2, the
support-vector count and the expected-error bound sv_count / M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import McmError
from .model import KernelModel, LinearModel, decision_many

MARGIN_EPS = 1e-10      # smallest signed margin for which the ratio is trusted
DISTANCE_EPS = 1e-12    # samples closer than this to the hyperplane are degenerate


@dataclass(frozen=True)
class CapacityReport:
    h: float | None
    h_squared: float | None
    sv_count: int  # M for linear models, where every sample backs w
    expected_error_bound: float


def _ratio(values: np.ndarray) -> float | None:
    smallest = float(values.min())
    if smallest <= MARGIN_EPS:
        return None
    return float(values.max()) / smallest


def compute_h(samples, labels, w, b) -> float | None:
    """Max/min ratio of the signed margins, or None when the hyperplane does
    not separate the data with positive margin."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    y = np.asarray(labels, dtype=float)
    w = np.asarray(w, dtype=float)
    if not np.any(w != 0.0):
        raise McmError("weight vector is identically zero")
    if X.shape[1] != w.shape[0]:
        raise McmError(f"{X.shape[1]} features, weight vector has {w.shape[0]}")
    return _ratio(y * (X @ w + b))


def radius_margin_ratio(samples, w, b) -> float | None:
    """R/d on augmented coordinates: samples gain a constant-1 feature, the
    hyperplane normal gains the offset, and the plane passes through the
    origin.  R is the largest augmented sample norm, d the smallest
    point-to-plane distance.  None when a sample lies on the plane, as every
    sample does on the zero plane."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    w = np.asarray(w, dtype=float)
    u = np.concatenate([w, [float(b)]])
    augmented = np.hstack([X, np.ones((X.shape[0], 1))])
    projections = np.abs(augmented @ u)
    if projections.min() < DISTANCE_EPS:
        return None
    radius = float(np.linalg.norm(augmented, axis=1).max())
    margin = float(projections.min()) / float(np.linalg.norm(u))
    return radius / margin


def capacity_report(model, train_samples, train_labels) -> CapacityReport:
    """Capacity diagnostics of a trained binary model on its training set."""
    X = np.atleast_2d(np.asarray(train_samples, dtype=float))
    y = np.asarray(train_labels, dtype=float)
    if not isinstance(model, (LinearModel, KernelModel)):
        raise McmError(f"no capacity report for {type(model).__name__}")
    M = X.shape[0]
    h = _ratio(y * decision_many(model, X))
    sv_count = M if isinstance(model, LinearModel) else model.sv_count
    return CapacityReport(
        h=h,
        h_squared=None if h is None else h * h,
        sv_count=sv_count,
        expected_error_bound=sv_count / M if M else 0.0,
    )
