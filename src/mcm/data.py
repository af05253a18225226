"""Dataset ingestion, preprocessing, stratified cross-validation, grid search.

The evaluation protocol: stratified k-fold splits (deterministic under a
seed), per-fold training with optional min-max scaling fitted on the training
portion only, accuracy on the held-out fold, capacity diagnostics on the
training portion, and mean +/- population standard deviation aggregation over
folds.  Multi-class data is reduced one-versus-rest; both the argmax accuracy
and the mean of the per-class binary accuracies are reported.

JSON reports deliberately omit wall-clock timings so that two runs with the
same seed are byte-identical; timings appear in the text tables only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import formulations
from .capacity import capacity_report
from .errors import (
    McmError,
    NonpositiveIndex,
    ParseError,
    RaggedRows,
    SingleClass,
    TooFewSamples,
    UnknownLabel,
)
from .kernels import RBF, KernelSpec
from .lp import SolverOptions
from .model import OvrModel, decision_many, ovr_labels, predict_many

REPORT_VERSION = 1

# conventional log grids; the protocol leaves the ranges to the experimenter
DEFAULT_C_GRID = tuple(float(2.0 ** e) for e in range(-5, 16, 2))
DEFAULT_GAMMA_GRID = tuple(float(2.0 ** e) for e in range(-15, 4, 2))


@dataclass
class Dataset:
    samples: np.ndarray
    labels: list[str]
    feature_names: list[str] | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            self.samples = self.samples.reshape(len(self.labels), -1)
        if self.samples.shape[0] != len(self.labels):
            raise McmError(
                f"{self.samples.shape[0]} rows for {len(self.labels)} labels")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise McmError("features must be finite")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    def classes(self) -> list[str]:
        return list(dict.fromkeys(self.labels))


def load_csv(path, label_column: int = -1, has_header: bool = False) -> Dataset:
    """Comma-separated rows; one column holds the (raw, string) label and all
    other cells must be numeric."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = [(number, line) for number, line in enumerate(lines, start=1) if line.strip()]
    feature_names = None
    if has_header and rows:
        header_fields = [f.strip() for f in rows[0][1].split(",")]
        rows = rows[1:]
    if not rows:
        return Dataset(np.zeros((0, 0)), [], feature_names)

    width = len(rows[0][1].split(","))
    label_index = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_index < width:
        raise ParseError(f"label column {label_column} out of range for {width} columns")
    if has_header:
        feature_names = [name for j, name in enumerate(header_fields) if j != label_index]

    samples = []
    labels = []
    for number, line in rows:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise RaggedRows(f"line {number}: {len(fields)} fields, expected {width}")
        labels.append(fields[label_index])
        values = []
        for j, cell in enumerate(fields):
            if j == label_index:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"line {number}, column {j + 1}: {cell!r} is not numeric") from None
            if not np.isfinite(value):
                raise ParseError(f"line {number}, column {j + 1}: non-finite value {cell!r}")
            values.append(value)
        samples.append(values)
    return Dataset(np.asarray(samples, dtype=float), labels, feature_names)


def load_libsvm(path) -> Dataset:
    """Sparse "label index:value ..." lines with 1-based indices, densified
    with zeros; the feature count is the largest index seen."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    parsed = []
    n = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = line.split()
        label = tokens[0]
        pairs = []
        for token in tokens[1:]:
            if ":" not in token:
                raise ParseError(f"line {number}: expected index:value, got {token!r}")
            index_text, value_text = token.split(":", 1)
            try:
                index = int(index_text)
                value = float(value_text)
            except ValueError:
                raise ParseError(f"line {number}: bad pair {token!r}") from None
            if index <= 0:
                raise NonpositiveIndex(f"line {number}: index {index} (indices are 1-based)")
            if not np.isfinite(value):
                raise ParseError(f"line {number}: non-finite value {token!r}")
            pairs.append((index, value))
            n = max(n, index)
        parsed.append((label, pairs))
    samples = np.zeros((len(parsed), n))
    labels = []
    for row, (label, pairs) in enumerate(parsed):
        labels.append(label)
        for index, value in pairs:
            samples[row, index - 1] = value
    return Dataset(samples, labels)


def binarize(dataset: Dataset, positive_label: str):
    """+1 for rows of positive_label, -1 for everything else."""
    if positive_label not in dataset.labels:
        raise UnknownLabel(f"label {positive_label!r} not present in dataset")
    y = np.where(np.asarray(dataset.labels, dtype=object) == positive_label, 1.0, -1.0)
    return dataset.samples, y


@dataclass(frozen=True)
class ScaleParams:
    mins: np.ndarray
    ranges: np.ndarray  # zero for constant features, which map to 0


def fit_minmax(X) -> ScaleParams:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mins = X.min(axis=0)
    return ScaleParams(mins, X.max(axis=0) - mins)


def apply_scale(params: ScaleParams, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    factor = np.where(params.ranges > 0.0, 1.0, 0.0)
    safe = np.where(params.ranges > 0.0, params.ranges, 1.0)
    return (X - params.mins) * factor / safe


def minmax_scale(dataset: Dataset):
    """Each feature mapped to [0, 1] by its own min/max (no clamping when the
    params are later applied to unseen rows)."""
    params = fit_minmax(dataset.samples)
    scaled = apply_scale(params, dataset.samples)
    return Dataset(scaled, list(dataset.labels), dataset.feature_names), params


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray
    seed: int


def make_folds(labels, k: int, seed: int) -> FoldPlan:
    """Stratified fold assignment: indices of each class are shuffled and dealt
    round-robin into folds, with the dealing position carried across classes so
    fold sizes differ by at most one overall and per class."""
    labels = list(labels)
    M = len(labels)
    if k < 2:
        raise ValueError("at least 2 folds required")
    if k > M:
        raise TooFewSamples(f"{M} samples cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(M, dtype=int)
    position = 0
    for cls in dict.fromkeys(labels):
        indices = np.array([i for i, lab in enumerate(labels) if lab == cls])
        rng.shuffle(indices)
        for offset, i in enumerate(indices):
            assignments[i] = (position + offset) % k
        position += indices.shape[0]
    return FoldPlan(k, assignments, seed)


@dataclass
class FoldOutcome:
    fold: int
    accuracy: float
    sv_count: float
    h: float | None
    train_seconds: float
    mean_binary_accuracy: float | None = None  # multiclass only


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())  # population std


@dataclass
class CvReport:
    config: formulations.TrainConfig
    scale: bool
    k: int
    seed: int
    classes: list[str]
    sv_applicable: bool
    folds: list[FoldOutcome] = field(default_factory=list)

    @property
    def accuracy_mean(self) -> float:
        return _mean_std([f.accuracy for f in self.folds])[0]

    @property
    def accuracy_std(self) -> float:
        return _mean_std([f.accuracy for f in self.folds])[1]

    @property
    def sv_count_mean(self) -> float:
        return _mean_std([f.sv_count for f in self.folds])[0]

    @property
    def h_values(self) -> list[float]:
        return [f.h for f in self.folds if f.h is not None]

    def to_json_dict(self) -> dict:
        acc_mean, acc_std = _mean_std([f.accuracy for f in self.folds])
        sv_mean, sv_std = _mean_std([f.sv_count for f in self.folds])
        h_vals = self.h_values
        h_mean, h_std = _mean_std(h_vals) if h_vals else (None, None)
        binary = [f.mean_binary_accuracy for f in self.folds]
        has_binary = all(v is not None for v in binary) and binary
        mb_mean, mb_std = _mean_std(binary) if has_binary else (None, None)
        kernel = self.config.kernel
        return {
            "report_version": REPORT_VERSION,
            "kind": "cv",
            "variant": self.config.variant,
            "C": self.config.C,
            "kernel": None if kernel is None else {
                "kind": kernel.kind, "gamma": kernel.gamma,
                "degree": kernel.degree, "coef0": kernel.coef0,
            },
            "scale": self.scale,
            "folds": self.k,
            "seed": self.seed,
            "classes": list(self.classes),
            "sv_applicable": self.sv_applicable,
            "std": "population",
            "per_fold": [
                {
                    "fold": f.fold,
                    "accuracy": f.accuracy,
                    "sv_count": f.sv_count,
                    "h": f.h,
                    "mean_binary_accuracy": f.mean_binary_accuracy,
                }
                for f in self.folds
            ],
            "accuracy_mean": acc_mean,
            "accuracy_std": acc_std,
            "mean_binary_accuracy_mean": mb_mean,
            "mean_binary_accuracy_std": mb_std,
            "sv_count_mean": sv_mean,
            "sv_count_std": sv_std,
            "h_mean": h_mean,
            "h_std": h_std,
            "h_defined_folds": len(h_vals),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_table(self) -> str:
        def h_text(h):
            return "undef" if h is None else f"{h:.4f}"

        def sv_text(value):
            return f"{value:>8.1f}" if self.sv_applicable else f"{'n/a':>8}"

        lines = [f"{'fold':>4}  {'accuracy':>8}  {'sv_count':>8}  {'h':>10}  {'seconds':>8}"]
        for f in self.folds:
            lines.append(
                f"{f.fold:>4}  {f.accuracy:>8.4f}  {sv_text(f.sv_count)}  "
                f"{h_text(f.h):>10}  {f.train_seconds:>8.3f}")
        acc_mean, acc_std = _mean_std([f.accuracy for f in self.folds])
        sv_mean, sv_std = _mean_std([f.sv_count for f in self.folds])
        h_vals = self.h_values
        lines.append(f"{'mean':>4}  {acc_mean:>8.4f}  {sv_text(sv_mean)}  "
                     f"{h_text(_mean_std(h_vals)[0] if h_vals else None):>10}  "
                     f"{sum(f.train_seconds for f in self.folds):>8.3f}")
        lines.append(f"{'std':>4}  {acc_std:>8.4f}  {sv_text(sv_std)}  "
                     f"{h_text(_mean_std(h_vals)[1] if h_vals else None):>10}")
        return "\n".join(lines) + "\n"


def train_ovr(samples, raw_labels, config: formulations.TrainConfig,
              options: SolverOptions | None = None):
    """One binary model per class in first-appearance order."""
    labels = list(raw_labels)
    classes = list(dict.fromkeys(labels))
    if len(classes) < 2:
        raise SingleClass("one-versus-rest needs at least two classes")
    members = []
    results = []
    for cls in classes:
        y = np.where(np.asarray(labels, dtype=object) == cls, 1.0, -1.0)
        result = formulations.train(samples, y, config, options)
        members.append(result.model)
        results.append(result)
    return OvrModel(tuple(classes), tuple(members)), results


def _annotate(exc: McmError, fold: int) -> McmError:
    wrapped = type(exc)(f"fold {fold}: {exc}")
    wrapped.__cause__ = exc
    return wrapped


def cross_validate(dataset: Dataset, config: formulations.TrainConfig,
                   plan: FoldPlan, scale: bool = False,
                   options: SolverOptions | None = None) -> CvReport:
    labels = list(dataset.labels)
    if plan.assignments.shape[0] != len(labels):
        raise McmError(f"fold plan covers {plan.assignments.shape[0]} samples, "
                       f"dataset has {len(labels)}")
    classes = dataset.classes()
    if len(classes) < 2:
        raise SingleClass("cross-validation needs at least two classes")
    binary = len(classes) == 2
    report = CvReport(config=config, scale=scale, k=plan.k, seed=plan.seed,
                      classes=classes,
                      sv_applicable=config.variant == formulations.SOFT_KERNEL)
    labels_arr = np.asarray(labels, dtype=object)
    for fold in range(plan.k):
        test_mask = plan.assignments == fold
        train_mask = ~test_mask
        X_train = dataset.samples[train_mask]
        X_test = dataset.samples[test_mask]
        if scale:
            params = fit_minmax(X_train)
            X_train = apply_scale(params, X_train)
            X_test = apply_scale(params, X_test)
        labels_train = labels_arr[train_mask]
        labels_test = labels_arr[test_mask]
        try:
            if binary:
                y_train = np.where(labels_train == classes[0], 1.0, -1.0)
                y_test = np.where(labels_test == classes[0], 1.0, -1.0)
                result = formulations.train(X_train, y_train, config, options)
                accuracy = float(np.mean(predict_many(result.model, X_test) == y_test))
                cap = capacity_report(result.model, X_train, y_train)
                outcome = FoldOutcome(fold, accuracy, float(cap.sv_count), cap.h,
                                      result.seconds)
            else:
                ovr, results = train_ovr(X_train, labels_train, config, options)
                stacked = decision_many(ovr, X_test)
                accuracy = float(np.mean(
                    np.asarray(ovr_labels(ovr, stacked), dtype=object) == labels_test))
                caps = []
                binary_accuracies = []
                for cls, member, values in zip(ovr.class_labels, ovr.members, stacked):
                    y_tr = np.where(labels_train == cls, 1.0, -1.0)
                    caps.append(capacity_report(member, X_train, y_tr))
                    binary_accuracies.append(
                        float(np.mean((values >= 0.0) == (labels_test == cls))))
                defined = [c.h for c in caps if c.h is not None]
                outcome = FoldOutcome(
                    fold,
                    accuracy,
                    float(np.mean([c.sv_count for c in caps])),
                    float(np.mean(defined)) if defined else None,
                    sum(r.seconds for r in results),
                    mean_binary_accuracy=float(np.mean(binary_accuracies)),
                )
        except McmError as exc:
            raise _annotate(exc, fold) from exc
        report.folds.append(outcome)
    return report


@dataclass(frozen=True)
class GridSpec:
    C_values: tuple[float, ...] = DEFAULT_C_GRID
    gamma_values: tuple[float, ...] = DEFAULT_GAMMA_GRID

    def __post_init__(self):
        object.__setattr__(self, "C_values", tuple(float(v) for v in self.C_values))
        object.__setattr__(self, "gamma_values", tuple(float(v) for v in self.gamma_values))
        if not self.C_values or any(v <= 0 for v in self.C_values):
            raise McmError("C grid must be a nonempty list of positive values")
        if not self.gamma_values or any(v <= 0 for v in self.gamma_values):
            raise McmError("gamma grid must be a nonempty list of positive values")


@dataclass
class GridCell:
    C: float
    gamma: float | None
    report: CvReport | None
    error: str | None = None


@dataclass
class GridResult:
    variant: str
    kernel_kind: str | None
    k: int
    seed: int
    scale: bool
    cells: list[GridCell]
    best_index: int

    @property
    def best_cell(self) -> GridCell:
        return self.cells[self.best_index]

    @property
    def best_config(self) -> formulations.TrainConfig:
        return self.best_cell.report.config

    def to_json_dict(self) -> dict:
        def cell_dict(cell: GridCell) -> dict:
            summary = {
                "C": cell.C,
                "gamma": cell.gamma,
                "error": cell.error,
                "accuracy_mean": None,
                "accuracy_std": None,
                "sv_count_mean": None,
            }
            if cell.report is not None:
                summary["accuracy_mean"] = cell.report.accuracy_mean
                summary["accuracy_std"] = cell.report.accuracy_std
                summary["sv_count_mean"] = cell.report.sv_count_mean
            return summary

        return {
            "report_version": REPORT_VERSION,
            "kind": "grid",
            "variant": self.variant,
            "kernel": self.kernel_kind,
            "folds": self.k,
            "seed": self.seed,
            "scale": self.scale,
            "cells": [cell_dict(cell) for cell in self.cells],
            "best": cell_dict(self.best_cell),
            "best_report": self.best_cell.report.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_table(self) -> str:
        lines = [f"{'C':>12}  {'gamma':>12}  {'accuracy':>8}  {'sv_count':>8}"]
        for cell in self.cells:
            gamma = "-" if cell.gamma is None else f"{cell.gamma:.6g}"
            if cell.report is None:
                lines.append(f"{cell.C:>12.6g}  {gamma:>12}  {'ERROR':>8}  {cell.error}")
            else:
                lines.append(f"{cell.C:>12.6g}  {gamma:>12}  "
                             f"{cell.report.accuracy_mean:>8.4f}  "
                             f"{cell.report.sv_count_mean:>8.1f}")
        best = self.best_cell
        gamma = "-" if best.gamma is None else f"{best.gamma:.6g}"
        lines.append(f"best: C={best.C:.6g} gamma={gamma} "
                     f"accuracy={best.report.accuracy_mean:.4f}")
        return "\n".join(lines) + "\n"


def grid_search(dataset: Dataset, variant: str, grid: GridSpec, plan: FoldPlan,
                kernel_kind: str = RBF, kernel_degree: int = 3,
                kernel_coef0: float = 1.0, scale: bool = False,
                options: SolverOptions | None = None,
                skip_failures: bool = False) -> GridResult:
    """Cross-validate every grid cell and pick the best configuration.

    Best = highest mean accuracy, ties broken by smaller mean support count,
    then smaller C, then smaller gamma.  The gamma axis only exists for the
    rbf kernel; other kernels (and the soft linear variant) scan C alone.
    """
    if variant == formulations.HARD_LINEAR:
        raise McmError("grid search needs a soft variant (nothing to scan for hard margins)")
    if variant == formulations.SOFT_LINEAR:
        pairs = [(C, None) for C in grid.C_values]
    elif kernel_kind == RBF:
        pairs = [(C, g) for C in grid.C_values for g in grid.gamma_values]
    else:
        pairs = [(C, None) for C in grid.C_values]

    cells: list[GridCell] = []
    for C, gamma in pairs:
        if variant == formulations.SOFT_LINEAR:
            config = formulations.TrainConfig(variant, C=C)
        else:
            spec = (KernelSpec(RBF, gamma=gamma) if kernel_kind == RBF
                    else KernelSpec(kernel_kind, degree=kernel_degree, coef0=kernel_coef0))
            config = formulations.TrainConfig(variant, C=C, kernel=spec)
        try:
            report = cross_validate(dataset, config, plan, scale=scale, options=options)
        except McmError as exc:
            if not skip_failures:
                gamma_text = "" if gamma is None else f", gamma={gamma:g}"
                wrapped = type(exc)(f"grid cell C={C:g}{gamma_text}: {exc}")
                raise wrapped from exc
            cells.append(GridCell(C, gamma, None, error=str(exc)))
        else:
            cells.append(GridCell(C, gamma, report))

    scored = [
        (-(cell.report.accuracy_mean), cell.report.sv_count_mean, cell.C,
         cell.gamma if cell.gamma is not None else 0.0, index)
        for index, cell in enumerate(cells) if cell.report is not None
    ]
    if not scored:
        raise McmError("every grid cell failed")
    best_index = min(scored)[-1]
    return GridResult(
        variant=variant,
        kernel_kind=None if variant == formulations.SOFT_LINEAR else kernel_kind,
        k=plan.k,
        seed=plan.seed,
        scale=scale,
        cells=cells,
        best_index=best_index,
    )
