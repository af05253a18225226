"""Seeded workload generators for the mcm benchmark.

Each workload turns a case number (the run's seed modulo CASES) into input
files and the `mcm` command lines that use them.  The inputs depend on the
case alone, so the references in references.json, recorded once per case,
check every run.  Sizes come in two sets: FULL for measurement and SMOKE,
tiny, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CASES = 32


@dataclass(frozen=True)
class Command:
    """One `mcm` invocation.  `output` names the file whose bytes the gate
    hashes; None means the command's stdout."""

    argv: tuple[str, ...]
    output: str | None = None


@dataclass
class Plan:
    """What a workload runs once its inputs are written."""

    setup: list[Command]          # run once per set-up, gated like requests
    request: Command              # the measured operation, repeated
    work_units: int               # per request: LP fits, or query rows
    unit: str                     # "fits" or "rows"


def blobs(rng: np.random.Generator, M: int, n: int, k: int, sep: float):
    """k unit-variance Gaussian blobs in n dimensions with centres `sep`
    apart (centre j sits at sep/sqrt(2) along axis j, or at 0 and sep along
    axis 0 for two blobs); labels are balanced and shuffled."""
    centres = np.zeros((k, n))
    if k == 2:
        centres[1, 0] = sep
    else:
        centres[np.arange(k), np.arange(k)] = sep / np.sqrt(2.0)
    labels = np.arange(M) % k
    rng.shuffle(labels)
    X = centres[labels] + rng.standard_normal((M, n))
    return X, [chr(ord("a") + int(j)) for j in labels]


def write_csv(path: Path, X: np.ndarray, labels=None) -> None:
    lines = []
    for i, row in enumerate(X):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            cells.append(labels[i])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _kernel_grid(workdir: Path, rng, size: dict) -> Plan:
    X, labels = blobs(rng, size["M"], 2, 2, 3.0)
    data = workdir / "kernel_grid.csv"
    write_csv(data, X, labels)
    argv = ("grid", "--data", str(data), "--variant", "kernel", "--kernel", "rbf",
            "--grid-c", "1,16", "--grid-gamma", "0.125,2", "--folds", "3", "--json")
    return Plan([], Command(argv), work_units=12, unit="fits")


def _linear_cv(workdir: Path, rng, size: dict) -> Plan:
    X, labels = blobs(rng, size["M"], 5, 3, 2.0)
    data = workdir / "linear_cv.csv"
    write_csv(data, X, labels)
    argv = ("cv", "--data", str(data), "--variant", "soft-linear", "--C", "1",
            "--folds", "5", "--json")
    return Plan([], Command(argv), work_units=15, unit="fits")


def _predict_batch(workdir: Path, rng, size: dict) -> Plan:
    X, labels = blobs(rng, size["M"], 5, 2, 2.0)
    train_csv = workdir / "predict_train.csv"
    write_csv(train_csv, X, labels)
    Q, _ = blobs(rng, size["rows"], 5, 2, 2.0)
    query_csv = workdir / "predict_query.csv"
    write_csv(query_csv, Q)
    model = workdir / "predict_model.mcm.json"
    train = ("train", "--data", str(train_csv), "--variant", "kernel", "--kernel", "rbf",
             "--gamma", "0.5", "--C", "1", "--out", str(model))
    predict = ("predict", "--model", str(model), "--data", str(query_csv), "--scores")
    return Plan([Command(train, output=str(model))], Command(predict),
                work_units=size["rows"], unit="rows")


@dataclass(frozen=True)
class Workload:
    name: str
    index: int          # keeps each workload's random stream apart
    recipe: str
    why: str
    full: dict
    smoke: dict
    build: Callable[[Path, np.random.Generator, dict], Plan]

    def plan(self, workdir: Path, case: int, smoke: bool) -> Plan:
        rng = np.random.default_rng([self.index, case])
        return self.build(workdir, rng, self.smoke if smoke else self.full)


WORKLOADS = {w.name: w for w in (
    Workload(
        "kernel_grid", 1,
        "mcm grid --variant kernel --kernel rbf --grid-c 1,16 --grid-gamma 0.125,2 "
        "--folds 3 --json on 2-class 2-D unit Gaussian blobs, centres 3 apart, M rows",
        "LP-bound kernel fits in both regimes (gamma 0.125 sparse, gamma 2 interpolating); "
        "each (gamma, fold) recurs under two C values, so Gram reuse and warm starts can pay",
        {"M": 150}, {"M": 24}, _kernel_grid),
    Workload(
        "linear_cv", 2,
        "mcm cv --variant soft-linear --C 1 --folds 5 --json on 3-class 5-D unit "
        "Gaussian blobs, centres 2 apart, M rows (15 one-versus-rest fits)",
        "tall narrow linear LPs (about 250 pivots each) through the multiclass "
        "one-versus-rest branch, no kernels; the largest lp.standardize share",
        {"M": 240}, {"M": 30}, _linear_cv),
    Workload(
        "predict_batch", 3,
        "mcm train --variant kernel --kernel rbf --gamma 0.5 --C 1 on 2-class 5-D blobs "
        "(M rows, centres 2 apart) in set-up, then mcm predict --scores on a rows x 5 "
        "feature CSV from the same mixture",
        "no LP in the loop: rbf cross_gram and the CLI's CSV parse and output "
        "formatting; an lp change must show nothing here",
        {"M": 200, "rows": 20000}, {"M": 20, "rows": 200}, _predict_batch),
)}
