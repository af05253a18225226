"""Kernel functions K(p, q) = phi(p).phi(q) and Gram-matrix construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import McmError, ParseError

LINEAR = "linear"
RBF = "rbf"
POLY = "poly"
_KINDS = (LINEAR, RBF, POLY)

# bound on the float64 difference temporary of one rbf cross_gram chunk
CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    linear: p.q
    rbf:    exp(-gamma * ||p - q||^2), gamma > 0
    poly:   (p.q + coef0) ** degree, degree >= 1
    """

    kind: str
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise McmError(f"unknown kernel kind {self.kind!r}")
        if self.kind == RBF and (self.gamma is None or self.gamma <= 0):
            raise McmError("rbf kernel requires gamma > 0")
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise McmError("kernel gamma must be finite")
        if not math.isfinite(self.coef0):
            raise McmError("kernel coef0 must be finite")
        if not math.isfinite(self.degree):
            raise McmError("kernel degree must be finite")
        if self.kind == POLY and (isinstance(self.degree, bool)
                                  or int(self.degree) != self.degree or self.degree < 1):
            raise McmError("poly kernel requires integer degree >= 1")

    def describe(self) -> str:
        if self.kind == RBF:
            return f"rbf(gamma={self.gamma:g})"
        if self.kind == POLY:
            return f"poly(degree={self.degree}, coef0={self.coef0:g})"
        return "linear"

    def to_dict(self) -> dict:
        """The JSON form model files and cv reports share."""
        return {"kind": self.kind, "gamma": self.gamma,
                "degree": self.degree, "coef0": self.coef0}

    @classmethod
    def from_dict(cls, spec: dict, context: str) -> KernelSpec:
        """Inverse of to_dict; `context` names the object in parse errors."""
        if "kind" not in spec:
            raise ParseError(f"{context}: missing field 'kind'")
        degree = spec.get("degree", 3)
        if not isinstance(degree, bool) and int(degree) == degree:
            degree = int(degree)  # 2.0 reads as 2; int() rejects NaN and infinities
        return cls(spec["kind"], spec.get("gamma"), degree, float(spec.get("coef0", 1.0)))


def cross_gram(kernel: KernelSpec, X, Y) -> np.ndarray:
    """Rectangular kernel matrix K[i, j] = K(X[i], Y[j])."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise McmError(f"samples with {X.shape[1]} features against {Y.shape[1]}")
    if kernel.kind == LINEAR:
        return X @ Y.T
    if kernel.kind == RBF:
        # row chunks keep the (rows, |Y|, n) difference temporary within
        # CHUNK_BYTES; each entry sees the broadcast's operations, same bits
        dist = np.empty((X.shape[0], Y.shape[0]))
        step = chunk_rows(Y.shape[0], X.shape[1])
        for start in range(0, X.shape[0], step):
            sq = (X[start:start + step, None, :] - Y[None, :, :]) ** 2
            sq.sum(axis=2, out=dist[start:start + step])
        dist *= -kernel.gamma
        return np.exp(dist, out=dist)
    return (X @ Y.T + kernel.coef0) ** kernel.degree


def chunk_rows(columns: int, features: int) -> int:
    """Rows of X per rbf chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // max(1, columns * features * 8))


def gram(kernel: KernelSpec, samples) -> np.ndarray:
    """Full M x M kernel matrix; the upper triangle is mirrored so the result
    is exactly symmetric, and the rbf diagonal is exactly one."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    entries = cross_gram(kernel, samples, samples)
    entries = np.triu(entries) + np.triu(entries, 1).T
    if kernel.kind == RBF:
        np.fill_diagonal(entries, 1.0)
    return entries
