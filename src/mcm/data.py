"""Dataset ingestion, preprocessing, stratified cross-validation, grid search.

The evaluation protocol: stratified k-fold splits (deterministic under a
seed), per-fold training with optional min-max scaling fitted on the training
portion only, accuracy on the held-out fold, capacity diagnostics on the
training portion, and mean +/- population standard deviation aggregation over
folds.  Every fit is a one-versus-rest bundle, two-class data included (one
solve plus its negation), scored by ``evaluate_fold`` for ``cross_validate``
and ``mcm train`` alike; above two classes the mean of the per-class binary
accuracies is reported too.  ``read_csv`` is the one CSV parser.

``CvReport.aggregates`` computes every fold mean and standard deviation; the
JSON report, the text table and the grid ranking all read it.  A
``GridResult`` is its cells alone: a cell whose cross-validation fails is
recorded with its error, and the best cell and the grid's metadata are read
off the succeeding cells' reports.

JSON reports deliberately omit wall-clock timings so that two runs with the
same seed are byte-identical; timings appear in the text tables only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import formulations, lp
from .capacity import capacity_report
from .errors import McmError, ParseError
from .model import OvrModel, decision_many, negated, ovr_labels

REPORT_VERSION = 1

# conventional log grids; the protocol leaves the ranges to the experimenter
DEFAULT_C_GRID = tuple(float(2.0 ** e) for e in range(-5, 16, 2))
DEFAULT_GAMMA_GRID = tuple(float(2.0 ** e) for e in range(-15, 4, 2))

# lines of a CSV file that read_csv converts at once
CSV_BLOCK_LINES = 1024


@dataclass
class Dataset:
    samples: np.ndarray
    labels: list[str]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] != len(self.labels):
            raise McmError(f"samples of shape {self.samples.shape} for {len(self.labels)} "
                           f"labels, expected a 2-d array with one row per label")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise McmError("features must be finite")

    def classes(self) -> list[str]:
        return list(dict.fromkeys(self.labels))


def read_csv(path, label_column: int | None = -1, has_header: bool = False):
    """Comma-separated rows as (samples, labels).

    `label_column` holds the raw string label (negative counts from the end);
    None means every column is a feature and labels is None.  `has_header`
    skips the first nonblank line unread.  Every other cell must be a finite
    number; errors name the line and 1-based column of the first bad cell in
    file order.  Beside the file's lines the parse holds one block of
    CSV_BLOCK_LINES lines' cells at a time."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    nonblank = (i for i, line in enumerate(lines) if line.strip())
    if has_header:
        next(nonblank, None)
    first = next(nonblank, None)
    if first is None:
        return np.zeros((0, 0)), None if label_column is None else []
    n_rows = 1 + sum(1 for _ in nonblank)

    width = len(lines[first].split(","))
    label_index = None
    if label_column is not None:
        label_index = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_index < width:
            raise ParseError(f"label column {label_column} out of range for {width} columns")
    return _parse_rows(lines, first, n_rows, width, label_index)


def _parse_rows(lines: list, first: int, n_rows: int, width: int, label_index: int | None):
    """(samples, labels) of the n_rows nonblank lines from lines[first] on,
    converted a block of lines at a time into one preallocated array.  A
    block with a ragged row or a feature cell that is not a finite number
    raises its first error: every earlier block passed."""
    samples = np.empty((n_rows, width - (label_index is not None)))
    flat = samples.reshape(-1)  # a view: each block's values land in place
    labels = None if label_index is None else []
    filled = 0
    for start in range(first, len(lines), CSV_BLOCK_LINES):
        block = [line for line in lines[start:start + CSV_BLOCK_LINES] if line.strip()]
        if not block:
            continue
        if any(line.count(",") != width - 1 for line in block):
            _raise_first_error(lines, start, width, label_index)
        cells = ",".join(block).split(",")
        if labels is not None:
            labels += [cell.strip() for cell in cells[label_index::width]]
            del cells[label_index::width]
        try:
            values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            _raise_first_error(lines, start, width, label_index)
        flat[filled:filled + values.size] = values
        filled += values.size
    return samples, labels


def _raise_first_error(lines: list, start: int, width: int, label_index: int | None) -> None:
    """Raise ParseError for the first ragged line, or feature cell that is not
    a finite number, in the block of CSV_BLOCK_LINES lines from lines[start]."""
    for number, line in enumerate(lines[start:start + CSV_BLOCK_LINES], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"line {number}: {len(cells)} fields, expected {width}")
        for j, cell in enumerate(cells):
            if j == label_index:
                continue
            cell = cell.strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"line {number}, column {j + 1}: {cell!r} is not numeric") from None
            if not math.isfinite(value):
                raise ParseError(f"line {number}, column {j + 1}: non-finite value {cell!r}")


def load_csv(path, label_column: int = -1, has_header: bool = False) -> Dataset:
    """A labelled CSV file (see `read_csv`) as a Dataset."""
    return Dataset(*read_csv(path, label_column, has_header))


def load_libsvm(path) -> Dataset:
    """Sparse "label index:value ..." lines, densified with zeros in one pass.
    Indices are 1-based and ascend along each line; the feature count is the
    largest index seen.  A dense array over the LP memory budget
    (lp._MAX_TABLEAU_BYTES) is refused before it is allocated."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    labels, rows, cols, values = [], [], [], []
    n = widest_line = 0
    for number, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        previous = 0
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
                raise ParseError(f"line {number}: index {index} (indices are 1-based)")
            if index <= previous:
                raise ParseError(f"line {number}: index {index} after index {previous} "
                                 f"(indices must ascend)")
            if not math.isfinite(value):
                raise ParseError(f"line {number}: non-finite value {token!r}")
            rows.append(len(labels))
            cols.append(index - 1)
            values.append(value)
            previous = index
        labels.append(tokens[0])
        if previous > n:
            n, widest_line = previous, number
    nbytes = 8 * len(labels) * n
    if nbytes > lp._MAX_TABLEAU_BYTES:
        raise ParseError(f"line {widest_line}: index {n} densifies {len(labels)} rows to "
                         f"{nbytes} bytes, over the budget of {lp._MAX_TABLEAU_BYTES} bytes")
    samples = np.zeros((len(labels), n))
    samples[rows, cols] = values
    return Dataset(samples, labels)


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
        raise McmError("at least 2 folds required")
    if k > M:
        raise McmError(f"{M} samples cannot fill {k} folds")
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


@dataclass
class CvReport:
    config: formulations.TrainConfig
    scale: bool
    k: int
    seed: int
    classes: list[str]
    folds: list[FoldOutcome] = field(default_factory=list)

    @property
    def sv_applicable(self) -> bool:
        return self.config.variant == formulations.SOFT_KERNEL

    def aggregates(self) -> dict:
        """Mean and population standard deviation over the folds of each
        per-fold value, keyed and ordered as in the JSON report.  h is taken
        over the folds where it is defined; the mean binary accuracy only
        when every fold has one.  An undefined mean and its std are None."""
        h_values = [f.h for f in self.folds if f.h is not None]
        binary = [f.mean_binary_accuracy for f in self.folds]
        series = [("accuracy", [f.accuracy for f in self.folds]),
                  ("mean_binary_accuracy", binary if None not in binary else []),
                  ("sv_count", [f.sv_count for f in self.folds]),
                  ("h", h_values)]
        stats = {}
        for name, values in series:
            arr = np.asarray(values, dtype=float)
            stats[f"{name}_mean"] = float(arr.mean()) if values else None
            stats[f"{name}_std"] = float(arr.std()) if values else None
        stats["h_defined_folds"] = len(h_values)
        return stats

    def to_json_dict(self) -> dict:
        kernel = self.config.kernel
        return {
            "report_version": REPORT_VERSION,
            "kind": "cv",
            "variant": self.config.variant,
            "C": self.config.C,
            "kernel": None if kernel is None else kernel.to_dict(),
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
            **self.aggregates(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def sv_text(self, value: float) -> str:
        """A support count as both text tables print it (n/a without SVs)."""
        return f"{value:>8.1f}" if self.sv_applicable else f"{'n/a':>8}"

    def to_table(self) -> str:
        def h_text(h):
            return "undef" if h is None else f"{h:.4f}"

        lines = [f"{'fold':>4}  {'accuracy':>8}  {'sv_count':>8}  {'h':>10}  {'seconds':>8}"]
        for f in self.folds:
            lines.append(
                f"{f.fold:>4}  {f.accuracy:>8.4f}  {self.sv_text(f.sv_count)}  "
                f"{h_text(f.h):>10}  {f.train_seconds:>8.3f}")
        stats = self.aggregates()
        lines.append(f"{'mean':>4}  {stats['accuracy_mean']:>8.4f}  "
                     f"{self.sv_text(stats['sv_count_mean'])}  {h_text(stats['h_mean']):>10}  "
                     f"{sum(f.train_seconds for f in self.folds):>8.3f}")
        lines.append(f"{'std':>4}  {stats['accuracy_std']:>8.4f}  "
                     f"{self.sv_text(stats['sv_count_std'])}  {h_text(stats['h_std']):>10}")
        return "\n".join(lines) + "\n"


def train_ovr(samples, raw_labels, config: formulations.TrainConfig, classes=None,
              on_problem=None):
    """One binary model per class, and the TrainResult of each solve.  Two
    classes take one solve: the second member is the negated first, the
    optimum under flipped labels.  `classes` fixes the class order (default:
    first appearance in the labels); `on_problem` sees the first solve's LP
    (see `formulations.train`)."""
    labels = np.asarray(list(raw_labels), dtype=object)
    classes = list(dict.fromkeys(labels) if classes is None else classes)
    if len(classes) < 2:
        raise McmError("training data contains a single class")
    results = [formulations.train(samples, np.where(labels == cls, 1.0, -1.0), config,
                                  on_problem if k == 0 else None)
               for k, cls in enumerate(classes if len(classes) > 2 else classes[:1])]
    members = [result.model for result in results]
    if len(classes) == 2:
        members.append(negated(members[0]))
    return OvrModel(tuple(classes), tuple(members)), results


def evaluate_fold(X_train, labels_train, X_eval, labels_eval,
                  config: formulations.TrainConfig, fold: int = 0, classes=None,
                  on_problem=None):
    """Train a one-versus-rest bundle (`train_ovr`, which `on_problem` is
    passed to) on the training rows and score it on the evaluation rows;
    returns (bundle, TrainResults, FoldOutcome).

    Accuracy is the argmax label's; capacity (h, sv_count) is the mean over
    the members actually solved, on the training rows; the mean of the
    members' binary accuracies is reported only when the training and
    evaluation labels together hold more than two classes."""
    labels_train = np.asarray(labels_train, dtype=object)
    labels_eval = np.asarray(labels_eval, dtype=object)
    ovr, results = train_ovr(X_train, labels_train, config, classes, on_problem)
    stacked = decision_many(ovr, X_eval)
    accuracy = float(np.mean(np.asarray(ovr_labels(ovr, stacked), dtype=object) == labels_eval))
    caps = [capacity_report(result.model, X_train, np.where(labels_train == cls, 1.0, -1.0))
            for cls, result in zip(ovr.class_labels, results)]
    defined = [c.h for c in caps if c.h is not None]
    binary_accuracy = None
    if len(set(labels_train) | set(labels_eval)) > 2:
        binary_accuracy = float(np.mean([
            float(np.mean((values >= 0.0) == (labels_eval == cls)))
            for cls, values in zip(ovr.class_labels, stacked)]))
    outcome = FoldOutcome(fold, accuracy, float(np.mean([c.sv_count for c in caps])),
                          float(np.mean(defined)) if defined else None,
                          sum(r.seconds for r in results), binary_accuracy)
    return ovr, results, outcome


def _annotate(exc: McmError, fold: int) -> McmError:
    wrapped = type(exc)(f"fold {fold}: {exc}")
    wrapped.__cause__ = exc
    return wrapped


def cross_validate(dataset: Dataset, config: formulations.TrainConfig,
                   plan: FoldPlan, scale: bool = False) -> CvReport:
    labels = np.asarray(dataset.labels, dtype=object)
    if plan.assignments.shape[0] != labels.shape[0]:
        raise McmError(f"fold plan covers {plan.assignments.shape[0]} samples, "
                       f"dataset has {labels.shape[0]}")
    classes = dataset.classes()
    if len(classes) < 2:
        raise McmError("cross-validation needs at least two classes")
    report = CvReport(config=config, scale=scale, k=plan.k, seed=plan.seed,
                      classes=classes)
    # Two classes keep the dataset's order in every fold: it picks the class
    # the one LP is solved for, and a degenerate LP under flipped labels need
    # not return the negated optimum.  A fold that lacks a class then fails
    # in that solve ("training data contains a single class").
    order = classes if len(classes) == 2 else None
    for fold in range(plan.k):
        test_mask = plan.assignments == fold
        X_train = dataset.samples[~test_mask]
        X_test = dataset.samples[test_mask]
        if scale:
            params = fit_minmax(X_train)
            X_train = apply_scale(params, X_train)
            X_test = apply_scale(params, X_test)
        try:
            _, _, outcome = evaluate_fold(X_train, labels[~test_mask], X_test,
                                          labels[test_mask], config, fold, order)
        except McmError as exc:
            raise _annotate(exc, fold) from exc
        report.folds.append(outcome)
    return report


@dataclass
class GridCell:
    C: float
    gamma: float | None
    report: CvReport | None
    error: str | None = None


@dataclass
class GridResult:
    """The cells of a grid search, in scan order; at least one succeeded."""

    cells: list[GridCell]

    @property
    def best_cell(self) -> GridCell:
        """Highest mean accuracy, ties broken by smaller mean support count,
        then smaller C, then smaller gamma, then scan order."""
        def rank(cell: GridCell):
            stats = cell.report.aggregates()
            return (-stats["accuracy_mean"], stats["sv_count_mean"], cell.C,
                    0.0 if cell.gamma is None else cell.gamma)

        return min((cell for cell in self.cells if cell.report is not None), key=rank)

    def to_json_dict(self) -> dict:
        def cell_dict(cell: GridCell) -> dict:
            stats = {} if cell.report is None else cell.report.aggregates()
            return {
                "C": cell.C,
                "gamma": cell.gamma,
                "error": cell.error,
                "accuracy_mean": stats.get("accuracy_mean"),
                "accuracy_std": stats.get("accuracy_std"),
                "sv_count_mean": stats.get("sv_count_mean"),
            }

        best = self.best_cell
        kernel = best.report.config.kernel
        return {
            "report_version": REPORT_VERSION,
            "kind": "grid",
            "variant": best.report.config.variant,
            "kernel": None if kernel is None else kernel.kind,
            "folds": best.report.k,
            "seed": best.report.seed,
            "scale": best.report.scale,
            "cells": [cell_dict(cell) for cell in self.cells],
            "best": cell_dict(best),
            "best_report": best.report.to_json_dict(),
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
                stats = cell.report.aggregates()
                lines.append(f"{cell.C:>12.6g}  {gamma:>12}  {stats['accuracy_mean']:>8.4f}  "
                             f"{cell.report.sv_text(stats['sv_count_mean'])}")
        best = self.best_cell
        gamma = "-" if best.gamma is None else f"{best.gamma:.6g}"
        lines.append(f"best: C={best.C:.6g} gamma={gamma} "
                     f"accuracy={best.report.aggregates()['accuracy_mean']:.4f}")
        return "\n".join(lines) + "\n"


def grid_search(dataset: Dataset, configs: list[formulations.TrainConfig], plan: FoldPlan,
                scale: bool = False) -> GridResult:
    """Cross-validate each config in order, one cell per config; see
    `GridResult.best_cell` for the pick.

    A cell's C and gamma are its config's C and kernel gamma (None without
    one).  A cell whose cross-validation fails is recorded with its error
    text; McmError is raised, naming the first failure, only when every cell
    fails.
    """
    if not configs:
        raise McmError("grid search needs at least one config")
    if any(config.variant == formulations.HARD_LINEAR for config in configs):
        raise McmError("grid search needs a soft variant (nothing to scan for hard margins)")
    cells: list[GridCell] = []
    for config in configs:
        gamma = None if config.kernel is None else config.kernel.gamma
        try:
            cells.append(GridCell(config.C, gamma, cross_validate(dataset, config, plan, scale)))
        except McmError as exc:
            cells.append(GridCell(config.C, gamma, None, error=str(exc)))
    if all(cell.report is None for cell in cells):
        first = cells[0]
        gamma_text = "" if first.gamma is None else f", gamma={first.gamma:g}"
        raise McmError(f"every grid cell failed; first failure: "
                       f"grid cell C={first.C:g}{gamma_text}: {first.error}")
    return GridResult(cells)
