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

# bound on the float64 temporaries of one rbf cross_gram row chunk
CHUNK_BYTES = 2 * 2**20


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
        if self.kind == POLY and (integer(self.degree) is None or self.degree < 1):
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
        if not isinstance(spec, dict):
            raise ParseError(f"{context}: expected a JSON object")
        if "kind" not in spec:
            raise ParseError(f"{context}: missing field 'kind'")
        degree = spec.get("degree", 3)
        if integer(degree) is not None:
            degree = int(degree)  # 2.0 reads as 2; __post_init__ rejects 2.5
        return cls(spec["kind"], spec.get("gamma"), degree, float(spec.get("coef0", 1.0)))


def integer(value) -> int | None:
    """`value` as an int if it is an integral number and not a bool (2.0 reads
    as 2), else None; int() raises on NaN and infinities."""
    if isinstance(value, bool) or int(value) != value:
        return None
    return int(value)


def cross_gram(kernel: KernelSpec, X, Y) -> np.ndarray:
    """Rectangular kernel matrix K[i, j] = K(X[i], Y[j]).  rbf takes X in
    row chunks of chunk_rows rows and adds each entry's squared differences
    in feature order, so every value has the same bits at any chunk size."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise McmError(f"samples with {X.shape[1]} features against {Y.shape[1]}")
    if kernel.kind == LINEAR:
        return X @ Y.T
    if kernel.kind == RBF:
        # features are summed one at a time, so each is read contiguously
        # from the transposed rows
        dist = np.empty((X.shape[0], Y.shape[0]))
        Yt = np.ascontiguousarray(Y.T)
        step = chunk_rows(Y.shape[0], X.shape[1])
        for start in range(0, X.shape[0], step):
            Xt = np.ascontiguousarray(X[start:start + step].T)
            _sum_squares(Xt, Yt, dist[start:start + step])
        with np.errstate(over="ignore"):  # -inf, whose exp is the limit 0
            dist *= -kernel.gamma
        return np.exp(dist, out=dist)
    return (X @ Y.T + kernel.coef0) ** kernel.degree


def chunk_rows(columns: int, features: int) -> int:
    """Rows of X per rbf chunk: as many as fit CHUNK_BYTES, at least one.  A
    row costs its transposed features and one row of the (rows, columns)
    term temporary of _sum_squares (none at 0 features)."""
    per_row = 8 * (columns * min(features, 1) + features)
    return max(1, CHUNK_BYTES // max(1, per_row))


def _sum_squares(Xt, Yt, out: np.ndarray) -> None:
    """out[i, j] = sum over the features f of (Xt[f, i] - Yt[f, j]) ** 2,
    added in feature order with one term temporary; the first square is
    written straight into out (0.0 + t == t).  Below 8 features this is the
    order numpy's sum takes, so each entry has the bits of the broadcast
    ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2) with X = Xt.T,
    Y = Yt.T; from 8 on numpy sums pairwise, agreeing to 2e-15 relative."""
    if Xt.shape[0] == 0:
        out.fill(0.0)
        return
    _square(Xt, Yt, 0, out)
    term = np.empty_like(out)
    for f in range(1, Xt.shape[0]):
        out += _square(Xt, Yt, f, term)


def _square(Xt, Yt, f: int, out: np.ndarray) -> np.ndarray:
    """out[i, j] = (Xt[f, i] - Yt[f, j]) ** 2."""
    np.subtract(Xt[f, :, None], Yt[f], out=out)
    return np.multiply(out, out, out=out)


def gram(kernel: KernelSpec, samples) -> np.ndarray:
    """Full M x M kernel matrix cross_gram(X, X): exactly symmetric (X @ X.T
    is, and rbf adds (a - b) ** 2 == (b - a) ** 2 in one feature order), with
    an rbf diagonal of exactly exp(-gamma * 0) = 1."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    entries = cross_gram(kernel, samples, samples)
    entries += 0.0  # an odd poly power can underflow to -0.0; it reads +0.0
    return entries
