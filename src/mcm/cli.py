"""Command line interface: train, predict, cv, grid, inspect.

Exit codes: 0 success; 1 parse/IO/usage problems; 2 infeasible hard-margin
training; 3 solver failure.  Data goes to stdout, diagnostics to stderr.
JSON reports carry "report_version" and omit wall-clock fields, so reruns with
the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as data_mod
from . import formulations, lp
from .capacity import capacity_report
from .errors import HardMarginInfeasible, McmError, ParseError, SolverFailure
from .kernels import LINEAR, POLY, RBF, KernelSpec
from .model import (
    KernelModel,
    LinearModel,
    OvrModel,
    decision_many,
    load_model,
    negated,
    ovr_labels,
    predict_many,
    predict_ovr_many,
    save_model,
)


class CliUsage(McmError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcm",
        description="Train and evaluate minimal-complexity hyperplane classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p, label_default=-1):
        p.add_argument("--data", required=True, help="input dataset file")
        p.add_argument("--format", choices=["csv", "libsvm"], default="csv")
        p.add_argument("--label-col", type=int, default=label_default,
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
        raise CliUsage("--gamma requires --kernel rbf")
    if variant == formulations.HARD_LINEAR:
        if args.C is not None:
            raise CliUsage("hard-linear takes no --C")
        if args.kernel is not None or args.gamma is not None:
            raise CliUsage("hard-linear takes no --kernel or --gamma")
        return formulations.TrainConfig(variant)
    if args.C is None or args.C <= 0:
        raise CliUsage(f"{variant} requires --C > 0")
    if variant == formulations.SOFT_LINEAR:
        if args.kernel is not None or args.gamma is not None:
            raise CliUsage("soft-linear takes no --kernel or --gamma")
        return formulations.TrainConfig(variant, C=args.C)
    if kind == RBF:
        if args.gamma is None or args.gamma <= 0:
            raise CliUsage("rbf kernel requires --gamma > 0")
        spec = KernelSpec(RBF, gamma=args.gamma)
    elif kind == POLY:
        spec = KernelSpec(POLY, degree=args.degree, coef0=args.coef0)
    else:
        spec = KernelSpec(LINEAR)
    return formulations.TrainConfig(variant, C=args.C, kernel=spec)


def _load_dataset(args) -> data_mod.Dataset:
    if args.format == "csv":
        return data_mod.load_csv(args.data, label_column=args.label_col,
                                 has_header=args.header)
    return data_mod.load_libsvm(args.data)


def _lp_names(layout: formulations.McmLpLayout) -> list[str]:
    prefix = "lam" if layout.variant == formulations.SOFT_KERNEL else "w"
    names = [f"{prefix}{j + 1}" for j in range(layout.weight_cols.shape[0])]
    names += ["b", "h"]
    if layout.q_cols is not None:
        names += [f"q{i + 1}" for i in range(layout.q_cols.shape[0])]
    return names


def cmd_train(args) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args)
    classes = dataset.classes()
    if len(classes) < 2:
        raise CliUsage("training data contains a single class")

    if args.dump_lp:
        # for multi-class data this is the first one-versus-rest member's LP
        _, y_first = data_mod.binarize(dataset, classes[0])
        problem, layout = formulations.build_problem(dataset.samples, y_first, config)
        with open(args.dump_lp, "w", encoding="utf-8") as handle:
            handle.write(lp.write_lp_text(problem, _lp_names(layout)))

    if len(classes) == 2:
        X, y = data_mod.binarize(dataset, classes[0])
        result = formulations.train(X, y, config)
        primary = result.model
        # the label-flipped optimum is the negated model, so a two-class
        # one-versus-rest bundle costs a single solve and keeps raw labels
        model = OvrModel(tuple(classes), (primary, negated(primary)))
        cap = capacity_report(primary, X, y)
        accuracy = float(np.mean(predict_many(primary, X) == y))
        seconds = result.seconds
        objective = result.objective_value
    else:
        ovr, results = data_mod.train_ovr(dataset.samples, dataset.labels, config)
        model = ovr
        caps = []
        for cls, member in zip(ovr.class_labels, ovr.members):
            y_c = np.where(np.asarray(dataset.labels, dtype=object) == cls, 1.0, -1.0)
            caps.append(capacity_report(member, dataset.samples, y_c))
        predictions = predict_ovr_many(ovr, dataset.samples)
        accuracy = float(np.mean(
            np.asarray(predictions, dtype=object) == np.asarray(dataset.labels, dtype=object)))
        defined = [c.h for c in caps if c.h is not None]
        cap_h = float(np.mean(defined)) if defined else None
        cap_sv = float(np.mean([c.sv_count for c in caps]))
        seconds = sum(r.seconds for r in results)
        objective = float(np.mean([r.objective_value for r in results]))
        cap = None

    save_model(model, args.out)
    report = {
        "report_version": data_mod.REPORT_VERSION,
        "h": cap.h if cap is not None else cap_h,
        "sv_count": cap.sv_count if cap is not None else cap_sv,
        "train_seconds": seconds,
        "objective": objective,
        "training_accuracy": accuracy,
    }
    print(json.dumps(report, indent=2))
    return 0


def _read_feature_csv(path: str, label_col: int | None, has_header: bool) -> np.ndarray:
    if label_col is not None:
        dataset = data_mod.load_csv(path, label_column=label_col, has_header=has_header)
        return dataset.samples
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(i, line) for i, line in enumerate(handle.read().splitlines(), start=1)
                 if line.strip()]
    if has_header and lines:
        lines = lines[1:]
    rows = []
    width = None
    for number, line in lines:
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"line {number}: {len(fields)} fields, expected {width}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"line {number}: {exc}") from None
    return np.asarray(rows, dtype=float).reshape(len(rows), width or 0)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.format == "csv":
        X = _read_feature_csv(args.data, args.label_col, args.header)
    else:
        X = data_mod.load_libsvm(args.data).samples
        if X.shape[0] and X.shape[1] < model.n:  # sparse tail of zeros
            X = np.hstack([X, np.zeros((X.shape[0], model.n - X.shape[1]))])

    lines = []
    if X.shape[0]:
        if isinstance(model, OvrModel):
            stacked = decision_many(model, X)
            labels = ovr_labels(model, stacked)
            scores = np.max(stacked, axis=0)
        else:
            values = decision_many(model, X)
            labels = ["1" if v >= 0 else "-1" for v in values]
            scores = values
        for i, label in enumerate(labels):
            if args.scores:
                lines.append(f"{label}\t{float(scores[i])!r}")
            else:
                lines.append(str(label))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _make_plan(dataset: data_mod.Dataset, args) -> data_mod.FoldPlan:
    if args.folds < 2:
        raise CliUsage("--folds must be at least 2")
    return data_mod.make_folds(dataset.labels, args.folds, args.seed)


def cmd_cv(args) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args)
    plan = _make_plan(dataset, args)
    report = data_mod.cross_validate(dataset, config, plan, scale=args.scale)
    sys.stdout.write(report.to_json() if args.json else report.to_table())
    return 0


def _parse_grid_list(text: str | None, flag: str) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise CliUsage(f"{flag}: {exc}") from None
    if not values:
        raise CliUsage(f"{flag} is empty")
    return values


def cmd_grid(args) -> int:
    dataset = _load_dataset(args)
    plan = _make_plan(dataset, args)
    c_values = _parse_grid_list(args.grid_c, "--grid-c") or data_mod.DEFAULT_C_GRID
    gamma_values = (_parse_grid_list(args.grid_gamma, "--grid-gamma")
                    or data_mod.DEFAULT_GAMMA_GRID)
    grid = data_mod.GridSpec(c_values, gamma_values)
    result = data_mod.grid_search(
        dataset, args.variant, grid, plan,
        kernel_kind=args.kernel, kernel_degree=args.degree, kernel_coef0=args.coef0,
        scale=args.scale, skip_failures=True)
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
    if isinstance(model, LinearModel):
        lines = [f"type: linear ({model.variant})", f"n: {model.n}",
                 f"h: {model.h!r}", f"h_squared: {model.h * model.h!r}"]
        if model.C is not None:
            lines.append(f"C: {model.C!r}")
        lines.append("sv_count: n/a (linear model)")
        lines.append("expected_error_bound: n/a (linear model)")
        return lines
    assert isinstance(model, KernelModel)
    lines = ["type: kernel", f"n: {model.n}", f"h: {model.h!r}",
             f"h_squared: {model.h * model.h!r}",
             f"kernel: {model.kernel.describe()}"]
    if model.C is not None:
        lines.append(f"C: {model.C!r}")
    lines.append(f"sv_count: {model.sv_count}")
    if train_size:
        lines.append(f"expected_error_bound: {model.sv_count / train_size!r}")
    else:
        lines.append("expected_error_bound: n/a (pass --train-size M)")
    return lines


def cmd_inspect(args) -> int:
    if args.train_size is not None and args.train_size < 1:
        raise CliUsage("--train-size must be at least 1")
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
