"""Trained-model value types, decision functions, and model-file serialization.

Model files are UTF-8 JSON with schema keys {"format", "version", "type", "n",
"w", "b", "h", "C", "kernel", "lambda", "support_vectors", "classes",
"members"}; numbers round-trip exactly because floats are rendered with their
shortest repr, and reading rejects non-finite ones, a non-integer "n", a
"C" that is not positive, support vectors that are not rows of "n" numbers,
"classes" that are not a list of distinct labels and one-versus-rest
members that are not binary.
The conventional extension is ".mcm.json".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import McmError, ParseError
from .kernels import KernelSpec, chunk_rows, cross_gram, integer

FORMAT_NAME = "mcm-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class LinearModel:
    w: np.ndarray
    b: float
    h: float
    C: float | None = None  # None marks a hard-margin fit

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def variant(self) -> str:
        return "hard-linear" if self.C is None else "soft-linear"


@dataclass(frozen=True)
class KernelModel:
    lam: np.ndarray                 # coefficients of the retained support vectors
    support_vectors: np.ndarray     # rows are the retained training samples
    b: float
    h: float
    kernel: KernelSpec
    n: int
    C: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        sv = np.asarray(self.support_vectors, dtype=float)
        if sv.size == 0:
            sv = sv.reshape(0, self.n)
        if sv.ndim != 2 or sv.shape[1] != self.n:
            raise McmError(f"support vectors of shape {sv.shape}, "
                           f"expected rows of {self.n} features")
        if lam.shape[0] != sv.shape[0]:
            raise McmError(
                f"{lam.shape[0]} coefficients for {sv.shape[0]} support vectors")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "support_vectors", sv)

    @property
    def sv_count(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class OvrModel:
    """One-versus-rest bundle: one binary model per class, argmax decides."""

    class_labels: tuple[str, ...]
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise McmError("one-versus-rest model has no members")
        if len(self.class_labels) != len(self.members):
            raise McmError("one member model per class label required")
        dims = {member.n for member in self.members}
        if len(dims) > 1:
            raise McmError(f"member models disagree on feature count: {dims}")
        kinds = {type(member) for member in self.members}
        if len(kinds) > 1:
            raise McmError("member models must share one variant")

    @property
    def n(self) -> int:
        return self.members[0].n


def decision_many(model, X) -> np.ndarray:
    """Decision values for a batch of rows.  For an OvrModel, the (classes,
    rows) stack of member decisions; members with the same kernel and
    support vectors share one cross-Gram matrix.

    Rows are taken in blocks, so no more than one block of kernel rows is
    held at a time.  A block has the rows `kernels.chunk_rows` allows for
    the widest support set, rounded down to a multiple of 64 and at least
    64, and a 1-row remainder joins the block before it.  So each
    matrix-vector product makes the same groups of rows as the one-shot
    product over all of X, and every value has its bits."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n:
        raise McmError(f"{X.shape[1]} features, model expects {model.n}")
    members = model.members if isinstance(model, OvrModel) else (model,)
    shared = _support_sets(members)
    widest = max((sv.shape[0] for _, sv, _ in shared), default=0)
    values = np.empty((len(members), X.shape[0]))
    for rows in _row_blocks(X.shape[0], chunk_rows(widest, X.shape[1])):
        block = X[rows]
        for i, member in enumerate(members):
            if isinstance(member, LinearModel):
                values[i, rows] = block @ member.w + member.b
            elif member.sv_count == 0:
                values[i, rows] = member.b
        for kernel, sv, users in shared:
            K = cross_gram(kernel, block, sv)
            for i in users:
                values[i, rows] = K @ members[i].lam + members[i].b
            del K  # freed before the next matrix is built
    return values if isinstance(model, OvrModel) else values[0]


def _support_sets(members) -> list:
    """(kernel, support vectors, indices of the members using them) for each
    distinct pair among the kernel members with support vectors, in order
    of first use."""
    shared = []
    for i, member in enumerate(members):
        if isinstance(member, LinearModel):
            continue
        if not isinstance(member, KernelModel):
            raise McmError(f"no decision function for {type(member).__name__}")
        if member.sv_count == 0:
            continue
        for kernel, sv, users in shared:
            if kernel == member.kernel and np.array_equal(sv, member.support_vectors):
                users.append(i)
                break
        else:
            shared.append((member.kernel, member.support_vectors, [i]))
    return shared


def _row_blocks(count: int, step: int) -> list[slice]:
    """Slices covering range(count) in blocks of `step` rows rounded down to
    a multiple of 64 (at least 64).  A 1-row remainder joins the block
    before it: BLAS gemv treats rows in groups of 4 with a separate tail
    kernel, and numpy computes a 1-row product with dot; blocks like these
    give the bits of the one-shot product."""
    step = max(64, step - step % 64)
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [count])]


def predict_many(model, X) -> np.ndarray:
    """Signs of the decision values; a decision of exactly zero maps to +1."""
    values = decision_many(model, X)
    return np.where(values >= 0.0, 1, -1)


def predict_ovr_many(ovr: OvrModel, X) -> list:
    """Argmax over class decisions; ties go to the earliest class label."""
    return ovr_labels(ovr, decision_many(ovr, X))


def ovr_labels(ovr: OvrModel, stacked: np.ndarray) -> list:
    """Class label of each column of a `decision_many(ovr, X)` stack."""
    return [ovr.class_labels[k] for k in np.argmax(stacked, axis=0)]


def negated(model):
    """Model with the opposite decision function (the optimum under flipped
    labels, by the sign symmetry of the training programs)."""
    if isinstance(model, LinearModel):
        return replace(model, w=-model.w, b=-model.b)
    if isinstance(model, KernelModel):
        return replace(model, lam=-model.lam, b=-model.b)
    raise McmError(f"cannot negate {type(model).__name__}")


# --- serialization ---

def _model_dict(model) -> dict:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    if isinstance(model, OvrModel):
        return header | {"type": "ovr", "classes": list(model.class_labels),
                         "members": [_model_dict(member) for member in model.members]}
    if not isinstance(model, (LinearModel, KernelModel)):
        raise McmError(f"cannot serialize {type(model).__name__}")
    fit = {"b": float(model.b), "h": float(model.h),
           "C": None if model.C is None else float(model.C)}
    if isinstance(model, LinearModel):
        return header | {"type": "linear", "n": model.n,
                         "w": [float(v) for v in model.w]} | fit
    return header | {"type": "kernel", "n": model.n} | fit | {
        "kernel": model.kernel.to_dict(),
        "lambda": [float(v) for v in model.lam],
        "support_vectors": [[float(v) for v in row] for row in model.support_vectors],
    }


def model_to_json(model) -> str:
    return json.dumps(_model_dict(model), indent=2) + "\n"


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ParseError(f"{context}: missing field {key!r}")
    return obj[key]


def _field(obj: dict, key: str, context: str, array: bool = False):
    """A required number, or array of numbers if `array`.  json reads NaN,
    Infinity and overflowing literals such as 1e999 as floats; no model
    number may be one."""
    value = _require(obj, key, context)
    value = np.asarray(value, dtype=float) if array else float(value)
    if not np.isfinite(value).all():
        raise ParseError(f"{context}: field {key!r} is not finite")
    return value


def _model_from_dict(obj: dict, context: str = "model"):
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: expected a JSON object")
    if obj.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise ParseError(f"{context}: not a {FORMAT_NAME} file")
    version = obj.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"{context}: file version {version}, expected {FORMAT_VERSION}")
    kind = _require(obj, "type", context)
    try:
        if kind == "ovr":
            classes = _require(obj, "classes", context)
            if not isinstance(classes, list) or len(set(classes)) != len(classes):
                raise ParseError(f"{context}: field 'classes' must be a list of distinct labels")
            members = []
            for i, entry in enumerate(_require(obj, "members", context)):
                members.append(_model_from_dict(entry, f"{context}.members[{i}]"))
                if isinstance(members[-1], OvrModel):
                    raise ParseError(f"{context}.members[{i}]: a one-versus-rest member "
                                     "must be a linear or kernel model")
            return OvrModel(class_labels=tuple(classes), members=tuple(members))
        if kind not in ("linear", "kernel"):
            raise ParseError(f"{context}: unknown model type {kind!r}")
        n = integer(_require(obj, "n", context))
        if n is None:
            raise ParseError(f"{context}: field 'n' is not an integer")
        b, h = _field(obj, "b", context), _field(obj, "h", context)
        C = None if obj.get("C") is None else _field(obj, "C", context)
        if C is not None and C <= 0:
            raise ParseError(f"{context}: field 'C' must be positive")
        if kind == "linear":
            w = _field(obj, "w", context, array=True)
            if w.shape != (n,):
                raise ParseError(f"{context}: w has length {len(w)}, n says {n}")
            return LinearModel(w, b, h, C)
        kernel = KernelSpec.from_dict(_require(obj, "kernel", context), f"{context}.kernel")
        lam = _field(obj, "lambda", context, array=True)
        sv = _field(obj, "support_vectors", context, array=True)
        if sv.shape != (0,) and (sv.ndim != 2 or sv.shape[1] != n):
            raise ParseError(f"{context}: support_vectors must be a list of rows of length {n}")
        return KernelModel(lam, sv, b, h, kernel, n, C)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{context}: {exc}") from exc


def model_from_json(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _model_from_dict(obj)


def save_model(model, path) -> None:
    text = model_to_json(model)  # before open, which empties an existing file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(handle.read())
