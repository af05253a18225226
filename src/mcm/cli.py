"""Command line interface: train, predict, cv, grid, inspect.

Exit codes: 0 success; 1 parse/IO/usage problems; 2 infeasible hard-margin
training; 3 solver failure.  Data goes to stdout, diagnostics to stderr.
JSON reports carry "report_version".  The cv and grid reports omit wall-clock
fields, so reruns with the same seed are byte-identical; the train report
carries "train_seconds".
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as data_mod
from . import formulations, lp
from .errors import HardMarginInfeasible, McmError, SolverFailure
from .kernels import LINEAR, POLY, RBF, KernelSpec
from .model import (
    LinearModel,
    OvrModel,
    decision_many,
    load_model,
    ovr_labels,
    save_model,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcm",
        description="Train and evaluate minimal-complexity hyperplane classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="input dataset file")
        p.add_argument("--format", choices=["csv", "libsvm"], default="csv")
        p.add_argument("--label-col", type=int, default=-1,
                       help="CSV column holding the label (default: last)")
        p.add_argument("--header", action="store_true",
                       help="CSV file starts with a header row")

    def add_train_flags(p):
        p.add_argument("--variant", required=True,
                       choices=[formulations.HARD_LINEAR, formulations.SOFT_LINEAR,
                                formulations.SOFT_KERNEL])
        p.add_argument("--C", type=float, default=None, dest="C",
                       help="slack penalty for the soft variants")
        p.add_argument("--kernel", choices=[LINEAR, RBF, POLY], default=None)
        p.add_argument("--gamma", type=float, default=None, help="rbf width")
        p.add_argument("--degree", type=int, default=3, help="poly degree")
        p.add_argument("--coef0", type=float, default=1.0, help="poly offset")

    p = sub.add_parser("train", help="train a model and write a model file")
    add_data_flags(p)
    add_train_flags(p)
    p.add_argument("--out", required=True, help="model file to write (.mcm.json)")
    p.add_argument("--dump-lp", default=None, metavar="PATH",
                   help="also write the assembled LP in CPLEX-LP text")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="predict labels for a feature file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["csv", "libsvm"], default="csv")
    p.add_argument("--label-col", type=int, default=None,
                   help="CSV column to ignore (a label column, if present)")
    p.add_argument("--header", action="store_true")
    p.add_argument("--scores", action="store_true",
                   help="append the decision value to each line")
    p.add_argument("--out", default=None, help="write predictions here instead of stdout")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    add_data_flags(p)
    add_train_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale", action="store_true",
                   help="min-max scale features (fitted per training fold)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(handler=cmd_cv)

    p = sub.add_parser("grid", help="grid search over C (and gamma for rbf)")
    add_data_flags(p)
    p.add_argument("--variant", required=True,
                   choices=[formulations.SOFT_LINEAR, formulations.SOFT_KERNEL])
    p.add_argument("--kernel", choices=[LINEAR, RBF, POLY], default=RBF)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--coef0", type=float, default=1.0)
    p.add_argument("--grid-c", default=None, help="comma-separated C values")
    p.add_argument("--grid-gamma", default=None, help="comma-separated gamma values")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("inspect", help="print a model-file summary")
    p.add_argument("--model", required=True)
    p.add_argument("--train-size", type=int, default=None,
                   help="training-set size, enables the expected-error bound")
    p.set_defaults(handler=cmd_inspect)

    return parser


def _config_from_args(args) -> formulations.TrainConfig:
    variant = args.variant
    kind = args.kernel or RBF  # the kernel variant's default
    if args.gamma is not None and kind != RBF:
        raise McmError("--gamma requires --kernel rbf")
    if variant == formulations.HARD_LINEAR:
        if args.C is not None:
            raise McmError("hard-linear takes no --C")
        if args.kernel is not None or args.gamma is not None:
            raise McmError("hard-linear takes no --kernel or --gamma")
        return formulations.TrainConfig(variant)
    if variant == formulations.SOFT_LINEAR:
        # a missing or nonpositive C is reported before a stray kernel flag
        config = formulations.TrainConfig(variant, C=args.C)
        if args.kernel is not None or args.gamma is not None:
            raise McmError("soft-linear takes no --kernel or --gamma")
        return config
    return formulations.TrainConfig(
        variant, C=args.C, kernel=_kernel_spec(kind, args.gamma, args.degree, args.coef0))


def _kernel_spec(kind: str, gamma: float | None, degree: int, coef0: float) -> KernelSpec:
    """The kernel of a kernel-variant config: gamma is the rbf kernel's alone,
    and the other kinds carry (and check) degree and coef0."""
    if kind == RBF:
        return KernelSpec(RBF, gamma=gamma)
    return KernelSpec(kind, degree=degree, coef0=coef0)


def _load_dataset(args) -> data_mod.Dataset:
    if args.format == "csv":
        return data_mod.load_csv(args.data, label_column=args.label_col,
                                 has_header=args.header)
    return data_mod.load_libsvm(args.data)


def cmd_train(args) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args)

    def dump_lp(problem, layout):
        # the first solve's LP: for multi-class data, the first class's member
        with open(args.dump_lp, "w", encoding="utf-8") as handle:
            handle.write(lp.write_lp_text(problem, formulations.lp_names(layout, config)))

    model, results, outcome = data_mod.evaluate_fold(
        dataset.samples, dataset.labels, dataset.samples, dataset.labels, config,
        on_problem=dump_lp if args.dump_lp else None)
    save_model(model, args.out)
    report = {
        "report_version": data_mod.REPORT_VERSION,
        "h": outcome.h,
        "sv_count": outcome.sv_count,
        "train_seconds": outcome.train_seconds,
        "objective": float(np.mean([r.objective_value for r in results])),
        "training_accuracy": outcome.accuracy,
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.format == "csv":
        X = data_mod.read_csv(args.data, args.label_col, args.header)[0]
    else:
        X = data_mod.load_libsvm(args.data).samples
        if X.shape[0] and X.shape[1] < model.n:  # sparse tail of zeros
            X = np.hstack([X, np.zeros((X.shape[0], model.n - X.shape[1]))])

    text = ""
    if X.shape[0]:
        if isinstance(model, OvrModel):
            stacked = decision_many(model, X)
            labels = ovr_labels(model, stacked)
            scores = np.max(stacked, axis=0).tolist()
        else:
            scores = decision_many(model, X).tolist()
            labels = ["1" if v >= 0 else "-1" for v in scores]
        if args.scores:
            text = "".join(f"{label}\t{score!r}\n" for label, score in zip(labels, scores))
        else:
            text = "".join(f"{label}\n" for label in labels)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_cv(args) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args)
    plan = data_mod.make_folds(dataset.labels, args.folds, args.seed)
    report = data_mod.cross_validate(dataset, config, plan, scale=args.scale)
    sys.stdout.write(report.to_json() if args.json else report.to_table())
    return 0


def _parse_grid_list(text: str | None, flag: str) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise McmError(f"{flag}: {exc}") from None
    if not values:
        raise McmError(f"{flag} is empty")
    return values


def cmd_grid(args) -> int:
    dataset = _load_dataset(args)
    plan = data_mod.make_folds(dataset.labels, args.folds, args.seed)
    c_values = _parse_grid_list(args.grid_c, "--grid-c") or data_mod.DEFAULT_C_GRID
    gamma_values = (_parse_grid_list(args.grid_gamma, "--grid-gamma")
                    or data_mod.DEFAULT_GAMMA_GRID)
    # every C is checked before any gamma, and every gamma although only an
    # rbf kernel scans them; the cells are C-major, gamma-minor
    placeholder = KernelSpec(LINEAR) if args.variant == formulations.SOFT_KERNEL else None
    for C in c_values:
        formulations.TrainConfig(args.variant, C=C, kernel=placeholder)
    kernels = [_kernel_spec(RBF, gamma, args.degree, args.coef0) for gamma in gamma_values]
    if args.variant == formulations.SOFT_LINEAR:
        kernels = [None]
    elif args.kernel != RBF:
        kernels = [_kernel_spec(args.kernel, None, args.degree, args.coef0)]
    configs = [formulations.TrainConfig(args.variant, C=C, kernel=kernel)
               for C in c_values for kernel in kernels]
    result = data_mod.grid_search(dataset, configs, plan, scale=args.scale)
    for cell in result.cells:
        if cell.error is not None:
            gamma = "" if cell.gamma is None else f" gamma={cell.gamma:g}"
            print(f"grid cell C={cell.C:g}{gamma} failed: {cell.error}", file=sys.stderr)
    sys.stdout.write(result.to_json() if args.json else result.to_table())
    return 0


def _inspect_lines(model, train_size: int | None) -> list[str]:
    if isinstance(model, OvrModel):
        lines = [f"type: ovr ({len(model.class_labels)} classes)",
                 f"classes: {', '.join(str(c) for c in model.class_labels)}",
                 f"n: {model.n}"]
        for cls, member in zip(model.class_labels, model.members):
            summary = _inspect_lines(member, train_size)
            lines.append(f"member {cls!r}: " + "; ".join(summary))
        return lines
    linear = isinstance(model, LinearModel)
    lines = [f"type: linear ({model.variant})" if linear else "type: kernel",
             f"n: {model.n}", f"h: {model.h!r}", f"h_squared: {model.h * model.h!r}"]
    if not linear:
        lines.append(f"kernel: {model.kernel.describe()}")
    if model.C is not None:
        lines.append(f"C: {model.C!r}")
    if linear:
        return lines + ["sv_count: n/a (linear model)",
                        "expected_error_bound: n/a (linear model)"]
    bound = repr(model.sv_count / train_size) if train_size else "n/a (pass --train-size M)"
    return lines + [f"sv_count: {model.sv_count}", f"expected_error_bound: {bound}"]


def cmd_inspect(args) -> int:
    if args.train_size is not None and args.train_size < 1:
        raise McmError("--train-size must be at least 1")
    model = load_model(args.model)
    for line in _inspect_lines(model, args.train_size):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HardMarginInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (McmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
