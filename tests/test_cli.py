import json

import numpy as np
import pytest

from mcm import data as data_mod
from mcm import cli, formulations, lp
from mcm import model as model_mod
from mcm.cli import main
from mcm.errors import HardMarginInfeasible, McmError, ParseError, SolverFailure
from mcm.kernels import KernelSpec, cross_gram, gram
from mcm.model import LinearModel, OvrModel, decision_many, load_model, save_model

import oracles

TRIVIAL_CSV = "1.0,1\n-1.0,-1\n"
XOR_CSV = "0,0,-1\n1,1,-1\n0,1,1\n1,0,1\n"
INSEPARABLE_CSV = "0.0,1\n0.0,-1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def blob_csv(tmp_path, name, m=40, gap=5.0, seed=50, flips=0):
    rng = np.random.default_rng(seed)
    half = m // 2
    X = np.vstack([rng.normal(size=(half, 2)),
                   rng.normal(size=(m - half, 2)) + gap])
    labels = ["-1"] * half + ["1"] * (m - half)
    for i in range(flips):
        j = (i * 11) % m
        labels[j] = "1" if labels[j] == "-1" else "-1"
    lines = [f"{float(x[0])!r},{float(x[1])!r},{lab}" for x, lab in zip(X, labels)]
    return write(tmp_path, name, "\n".join(lines) + "\n")


def three_class_csv(tmp_path, name):
    rng = np.random.default_rng(53)
    centers = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)]
    lines = []
    for label, (cx, cy) in zip("ABC", centers):
        for _ in range(6):
            lines.append(f"{float(rng.normal() * 0.5 + cx)!r},"
                         f"{float(rng.normal() * 0.5 + cy)!r},{label}")
    return write(tmp_path, name, "\n".join(lines) + "\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_trivial_pair(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    out_path = str(tmp_path / "pair.mcm.json")
    code, out, _ = run(capsys, "train", "--data", data, "--variant", "hard-linear",
                       "--out", out_path)
    assert code == 0
    report = json.loads(out)
    assert report["h"] == pytest.approx(1.0, abs=1e-6)
    assert report["training_accuracy"] == 1.0
    assert report["objective"] == pytest.approx(1.0, abs=1e-8)
    assert "train_seconds" in report and "sv_count" in report
    model = load_model(out_path)
    assert model.class_labels == ("1", "-1")


def test_train_model_file_is_deterministic(tmp_path, capsys):
    data = blob_csv(tmp_path, "blobs.csv", m=20, flips=1)
    paths = []
    for name in ("a.mcm.json", "b.mcm.json"):
        out_path = tmp_path / name
        code, _, _ = run(capsys, "train", "--data", data, "--variant", "soft-linear",
                         "--C", "2", "--out", str(out_path))
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_xor_kernel(tmp_path, capsys):
    data = write(tmp_path, "xor.csv", XOR_CSV)
    out_path = str(tmp_path / "xor.mcm.json")
    code, out, _ = run(capsys, "train", "--data", data, "--variant", "kernel",
                       "--kernel", "rbf", "--gamma", "1", "--C", "1e4",
                       "--out", out_path)
    assert code == 0
    assert json.loads(out)["training_accuracy"] == 1.0


def test_train_and_predict_multiclass(tmp_path, capsys):
    data = three_class_csv(tmp_path, "tri.csv")
    model_path = str(tmp_path / "tri.mcm.json")
    code, out, _ = run(capsys, "train", "--data", data, "--variant", "soft-linear",
                       "--C", "10", "--out", model_path)
    assert code == 0
    assert json.loads(out)["training_accuracy"] == 1.0
    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", data,
                       "--label-col", "-1")
    assert code == 0
    assert out.splitlines() == ["A"] * 6 + ["B"] * 6 + ["C"] * 6


def test_train_inseparable_exits_2(tmp_path, capsys):
    data = write(tmp_path, "bad.csv", INSEPARABLE_CSV)
    code, _, err = run(capsys, "train", "--data", data, "--variant", "hard-linear",
                       "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("error, code", [(McmError, 1), (ParseError, 1),
                                         (HardMarginInfeasible, 2), (SolverFailure, 3),
                                         (OSError, 1)])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    def handler(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_inspect", handler)
    if issubclass(error, McmError):
        assert error.exit_code == code
    assert run(capsys, "inspect", "--model", "m.mcm.json") == (code, "", "error: boom\n")


def test_train_flag_validation(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    out = str(tmp_path / "m.json")
    # --gamma requires --kernel rbf
    code, _, err = run(capsys, "train", "--data", data, "--variant", "kernel",
                       "--kernel", "linear", "--C", "1", "--gamma", "2", "--out", out)
    assert code == 1 and "gamma" in err
    # soft variants require C
    code, _, err = run(capsys, "train", "--data", data, "--variant", "soft-linear",
                       "--out", out)
    assert code == 1 and err == "error: variant 'soft-linear' requires C > 0\n"
    # missing file
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope.csv"),
                       "--variant", "hard-linear", "--out", out)
    assert code == 1


def test_gamma_with_default_kernel_is_rbf(tmp_path, capsys):
    # the kernel variant defaults to rbf, so --gamma alone must select it
    data = write(tmp_path, "xor.csv", XOR_CSV)
    paths = []
    for kernel_flags in ([], ["--kernel", "rbf"]):
        path = tmp_path / f"xor{len(paths)}.mcm.json"
        code, _, err = run(capsys, "train", "--data", data, "--variant", "kernel",
                           *kernel_flags, "--gamma", "0.5", "--C", "1", "--out", str(path))
        assert code == 0, err
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    reports = []
    for kernel_flags in ([], ["--kernel", "rbf"]):
        code, out, err = run(capsys, "cv", "--data", data, "--variant", "kernel",
                             *kernel_flags, "--gamma", "0.5", "--C", "1", "--folds", "2",
                             "--json")
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flags", [
    ["--variant", "kernel", "--kernel", "linear", "--C", "1"],
    ["--variant", "kernel", "--kernel", "poly", "--C", "1"],
    ["--variant", "soft-linear", "--C", "1"],
    ["--variant", "hard-linear"],
], ids=["kernel-linear", "kernel-poly", "soft-linear", "hard-linear"])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_gamma_rejected_without_rbf(tmp_path, capsys, command, flags):
    data = write(tmp_path, "xor.csv", XOR_CSV)
    extra = ["--out", str(tmp_path / "m.json")] if command == "train" else ["--folds", "2"]
    code, out, err = run(capsys, command, "--data", data, *flags, "--gamma", "0.5", *extra)
    assert code == 1 and "--gamma" in err and out == ""
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("size", ["0", "-4"])
def test_inspect_rejects_train_size_below_one(tmp_path, capsys, size):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = str(tmp_path / "xor.mcm.json")
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "rbf",
        "--gamma", "1", "--C", "1e4", "--out", model_path)
    code, out, err = run(capsys, "inspect", "--model", model_path, "--train-size", size)
    assert code == 1 and "--train-size" in err and out == ""


def test_predict_round_trip(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    out_path = str(tmp_path / "pair.mcm.json")
    run(capsys, "train", "--data", data, "--variant", "hard-linear", "--out", out_path)
    code, out, _ = run(capsys, "predict", "--model", out_path, "--data", data,
                       "--label-col", "-1")
    assert code == 0
    assert out.splitlines() == ["1", "-1"]


def test_predict_scores_and_out_file(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    model_path = str(tmp_path / "pair.mcm.json")
    run(capsys, "train", "--data", data, "--variant", "hard-linear", "--out", model_path)
    target = tmp_path / "preds.txt"
    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", data,
                       "--label-col", "-1", "--scores", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    label, score = lines[0].split("\t")
    assert label == "1" and float(score) == pytest.approx(1.0, abs=1e-8)


def test_predict_dimension_mismatch(tmp_path, capsys):
    pair = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    model_path = str(tmp_path / "pair.mcm.json")
    run(capsys, "train", "--data", pair, "--variant", "hard-linear", "--out", model_path)
    wide = write(tmp_path, "wide.csv", "1.0,2.0\n")
    code, _, err = run(capsys, "predict", "--model", model_path, "--data", wide)
    assert code == 1 and "features" in err


def test_predict_empty_input(tmp_path, capsys):
    pair = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    model_path = str(tmp_path / "pair.mcm.json")
    run(capsys, "train", "--data", pair, "--variant", "hard-linear", "--out", model_path)
    empty = write(tmp_path, "empty.csv", "")
    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", empty)
    assert code == 0 and out == ""


@pytest.mark.parametrize("flags", [(), ("--label-col", "-1")], ids=["features-only", "label-col"])
def test_predict_rejects_non_finite_features(tmp_path, capsys, flags):
    # one model per query width: two features without a label column, one with
    width = 1 if flags else 2
    train_csv = TRIVIAL_CSV if width == 1 else XOR_CSV
    model_path = str(tmp_path / "m.mcm.json")
    code, _, _ = run(capsys, "train", "--data", write(tmp_path, "t.csv", train_csv),
                     "--variant", "soft-linear", "--C", "1", "--out", model_path)
    assert code == 0
    query = write(tmp_path, "q.csv", "nan,0\ninf,1\n")
    code, out, err = run(capsys, "predict", "--model", model_path, "--data", query,
                         "--scores", *flags)
    assert code == 1 and out == ""
    assert err == "error: line 1, column 1: non-finite value 'nan'\n"


def test_predict_libsvm_pads_missing_tail(tmp_path, capsys):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = str(tmp_path / "xor.mcm.json")
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "rbf",
        "--gamma", "1", "--C", "1e4", "--out", model_path)
    sparse = write(tmp_path, "points.svm", "0 1:1.0\n0 1:1.0 2:1.0\n")
    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", sparse,
                       "--format", "libsvm")
    assert code == 0
    assert out.splitlines() == ["1", "-1"]


def test_predict_libsvm_pads_a_narrow_query_and_refuses_a_wide_one(tmp_path, capsys):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = str(tmp_path / "xor.mcm.json")
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "rbf",
        "--gamma", "1", "--C", "1e4", "--out", model_path)
    # no index above 1: one feature, padded to the model's two
    narrow = write(tmp_path, "narrow.svm", "0 1:1.0\n0 1:0.0\n")
    dense = write(tmp_path, "dense.csv", "1.0,0.0\n0.0,0.0\n")
    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", narrow,
                       "--format", "libsvm", "--scores")
    assert code == 0
    assert (code, out) == run(capsys, "predict", "--model", model_path, "--data", dense,
                              "--scores")[:2]
    wide = write(tmp_path, "wide.svm", "0 1:1.0 3:1.0\n")
    assert run(capsys, "predict", "--model", model_path, "--data", wide,
               "--format", "libsvm") == (1, "", "error: 3 features, model expects 2\n")


def test_predict_with_a_binary_model_file(tmp_path, capsys):
    model_path = str(tmp_path / "binary.mcm.json")
    save_model(LinearModel(w=np.array([1.0, 0.0]), b=-0.5, h=2.0), model_path)
    query = write(tmp_path, "q.csv", "0,0\n1,0\n2.5,3\n")
    assert run(capsys, "predict", "--model", model_path, "--data", query) == (
        0, "-1\n1\n1\n", "")
    assert run(capsys, "predict", "--model", model_path, "--data", query, "--scores") == (
        0, "-1\t-0.5\n1\t0.5\n1\t2.0\n", "")


@pytest.mark.parametrize("flags", [
    ("--variant", "soft-linear", "--C", "1"),
    ("--variant", "kernel", "--kernel", "rbf", "--gamma", "0.5", "--C", "1"),
], ids=["soft-linear", "rbf"])
def test_libsvm_input_trains_and_cross_validates_as_csv(tmp_path, capsys, flags):
    rows = [((0.0, 0.0), "a"), ((0.0, 1.5), "a"), ((0.5, 2.0), "a"),
            ((3.0, 0.0), "b"), ((3.0, 1.0), "b"), ((3.5, 2.5), "b")]
    paths = {
        "csv": write(tmp_path, "d.csv", "".join(
            f"{x!r},{y!r},{label}\n" for (x, y), label in rows)),
        "libsvm": write(tmp_path, "d.svm", "".join(
            " ".join([label] + [f"{j + 1}:{v!r}" for j, v in enumerate(x) if v]) + "\n"
            for x, label in rows)),
    }
    outputs = {}
    for fmt, path in paths.items():
        model_path = tmp_path / f"{fmt}.mcm.json"
        code, out, _ = run(capsys, "train", "--format", fmt, "--data", path, *flags,
                           "--out", str(model_path))
        assert code == 0
        report = json.loads(out)
        del report["train_seconds"]
        code, cv_out, _ = run(capsys, "cv", "--format", fmt, "--data", path, *flags,
                              "--folds", "3", "--json")
        assert code == 0
        outputs[fmt] = (model_path.read_bytes(), report, cv_out)
    assert outputs["libsvm"] == outputs["csv"]


@pytest.mark.parametrize("text, message", [
    ("a 1:0 1:1\nb 2:1\n", "line 1: index 1 after index 1 (indices must ascend)"),
    ("a 1:0\nb 2:1 1:5\n", "line 2: index 1 after index 2 (indices must ascend)"),
    ("a 1:0\nb 1000000000000:1\n", "line 2: index 1000000000000 densifies 2 rows to "
                                    "16000000000000 bytes, over the budget of 1073741824 bytes"),
], ids=["repeated-index", "descending-index", "index-too-large"])
def test_bad_libsvm_file_exits_1_with_one_line(tmp_path, capsys, text, message):
    data = write(tmp_path, "bad.svm", text)
    flags = ("--format", "libsvm", "--data", data, "--variant", "soft-linear", "--C", "1")
    for argv in (("cv", *flags, "--folds", "2"),
                 ("train", *flags, "--out", str(tmp_path / "m.json"))):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("train", "--variant", "hard-linear", "--C", "1"), "variant 'hard-linear' takes no C"),
    (("train", "--variant", "hard-linear", "--gamma", "2"),
     "hard-linear takes no --kernel or --gamma"),
    (("cv", "--variant", "soft-linear", "--C", "1", "--kernel", "rbf"),
     "soft-linear takes no --kernel or --gamma"),
    (("cv", "--variant", "soft-linear", "--C", "0", "--kernel", "rbf"),
     "variant 'soft-linear' requires C > 0"),
    (("train", "--variant", "soft-linear", "--C", "1"), "training data contains a single class"),
    (("cv", "--variant", "soft-linear", "--C", "1", "--folds", "2"),
     "cross-validation needs at least two classes"),
], ids=["hard-linear-with-C", "hard-linear-with-gamma", "soft-linear-with-kernel",
        "soft-linear-zero-C-with-kernel", "train-one-class", "cv-one-class"])
def test_one_class_and_hard_linear_c_exit_1_with_one_line(tmp_path, capsys, argv, message):
    data = write(tmp_path, "one.csv", "0,0,a\n1,0,a\n0,1,a\n")
    out = ("--out", str(tmp_path / "m.json")) if argv[0] == "train" else ()
    assert run(capsys, *argv, "--data", data, *out) == (1, "", f"error: {message}\n")


def test_cv_table_and_json(tmp_path, capsys):
    data = blob_csv(tmp_path, "blobs.csv")
    code, table, _ = run(capsys, "cv", "--data", data, "--variant", "soft-linear",
                         "--C", "10", "--folds", "5", "--seed", "42")
    assert code == 0
    assert "accuracy" in table and "fold" in table
    code, out, _ = run(capsys, "cv", "--data", data, "--variant", "soft-linear",
                       "--C", "10", "--folds", "5", "--seed", "42", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report_version"] == 1
    assert payload["accuracy_mean"] >= 0.9
    assert len(payload["per_fold"]) == 5


def test_cv_rejects_single_fold(tmp_path, capsys):
    data = blob_csv(tmp_path, "blobs.csv")
    code, _, err = run(capsys, "cv", "--data", data, "--variant", "soft-linear",
                       "--C", "1", "--folds", "1")
    assert code == 1 and "folds" in err


@pytest.mark.parametrize("flags, message", [
    (("--variant", "soft-linear", "--C", "0"), "variant 'soft-linear' requires C > 0"),
    (("--variant", "kernel", "--gamma", "0", "--C", "1"), "rbf kernel requires gamma > 0"),
    (("--variant", "soft-linear", "--C", "1", "--folds", "1"), "at least 2 folds required"),
    # each rule is checked where its value is built: the kernel before C
    (("--variant", "kernel", "--gamma", "0", "--C", "0"), "rbf kernel requires gamma > 0"),
], ids=["C", "gamma", "folds", "gamma-and-C"])
def test_each_rule_has_one_message(tmp_path, capsys, flags, message):
    data = blob_csv(tmp_path, "blobs.csv", m=20)
    code, out, err = run(capsys, "cv", "--data", data, *flags)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_cv_json_byte_identical(tmp_path, capsys):
    data = blob_csv(tmp_path, "blobs.csv", flips=2)
    args = ("cv", "--data", data, "--variant", "kernel", "--kernel", "rbf",
            "--gamma", "0.5", "--C", "10", "--folds", "3", "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_grid_json_byte_identical(tmp_path, capsys):
    data = blob_csv(tmp_path, "blobs.csv", m=24)
    args = ("grid", "--data", data, "--variant", "soft-linear",
            "--grid-c", "0.5,8", "--folds", "3", "--seed", "11", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["kind"] == "grid"
    assert len(payload["cells"]) == 2
    assert payload["best"]["error"] is None


def test_grid_every_cell_failing_names_the_first(tmp_path, capsys):
    data = write(tmp_path, "lonely.csv", "0,a\n5,b\n6,b\n7,b\n8,b\n9,b\n")
    code, out, err = run(capsys, "grid", "--data", data, "--variant", "soft-linear",
                         "--grid-c", "1,2", "--folds", "2")
    assert code == 1 and out == ""
    assert err == ("error: every grid cell failed; first failure: "
                   "grid cell C=1: fold 0: training data contains a single class\n")


@pytest.mark.parametrize("argv, message", [
    (("grid", "--variant", "soft-linear", "--grid-c", "1,nan", "--json"),
     "variant 'soft-linear' requires a finite C"),
    (("grid", "--variant", "kernel", "--grid-gamma", "0.5,inf", "--json"),
     "kernel gamma must be finite"),
    (("cv", "--variant", "kernel", "--gamma", "inf", "--C", "1", "--json"),
     "kernel gamma must be finite"),
    (("cv", "--variant", "soft-linear", "--C", "nan", "--json"),
     "variant 'soft-linear' requires a finite C"),
    (("cv", "--variant", "kernel", "--kernel", "poly", "--coef0", "inf", "--C", "1"),
     "kernel coef0 must be finite"),
    (("train", "--variant", "kernel", "--gamma", "inf", "--C", "1"),
     "kernel gamma must be finite"),
], ids=["grid-c-nan", "grid-gamma-inf", "cv-gamma-inf", "cv-c-nan", "cv-coef0-inf",
        "train-gamma-inf"])
def test_non_finite_hyperparameters_are_rejected(tmp_path, capsys, argv, message):
    data = blob_csv(tmp_path, "blobs.csv", m=20)
    model_path = tmp_path / "model.mcm.json"
    extra = ("--out", str(model_path)) if argv[0] == "train" else ()
    code, out, err = run(capsys, *argv, "--data", data, *extra)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("flags, message", [
    (("--grid-c", "0"), "variant 'soft-linear' requires C > 0"),
    (("--grid-c", "1,-2", "--variant", "kernel"), "variant 'kernel' requires C > 0"),
    (("--grid-c", "inf", "--variant", "kernel"), "variant 'kernel' requires a finite C"),
    (("--grid-c", ""), "--grid-c is empty"),
    (("--grid-c", "1,x"), "--grid-c: could not convert string to float: 'x'"),
    (("--grid-gamma", "0", "--variant", "kernel"), "rbf kernel requires gamma > 0"),
    (("--grid-gamma", ","), "--grid-gamma is empty"),
    # gamma values are checked where the grid does not scan them
    (("--grid-gamma", "nan"), "kernel gamma must be finite"),
    (("--grid-gamma", "-1", "--variant", "kernel", "--kernel", "poly"),
     "rbf kernel requires gamma > 0"),
    # the C list is named before the gamma list
    (("--grid-c", "nan", "--grid-gamma", "0", "--variant", "kernel"),
     "variant 'kernel' requires a finite C"),
    (("--grid-c", "1,2,0", "--grid-gamma", "inf", "--variant", "kernel"),
     "variant 'kernel' requires C > 0"),
    (("--variant", "kernel", "--kernel", "poly", "--degree", "0"),
     "poly kernel requires integer degree >= 1"),
], ids=["c-zero", "c-negative", "c-inf", "c-empty", "c-text", "gamma-zero", "gamma-empty",
        "gamma-nan-unscanned", "gamma-negative-poly", "c-before-gamma", "later-c-before-gamma",
        "poly-degree"])
def test_every_grid_value_rule_exits_1_with_one_line(tmp_path, capsys, flags, message):
    data = blob_csv(tmp_path, "blobs.csv", m=12)
    argv = ("grid", "--data", data, "--variant", "soft-linear", "--folds", "2", *flags)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_grid_ignores_flags_of_an_axis_it_does_not_scan(tmp_path, capsys):
    data = blob_csv(tmp_path, "blobs.csv", m=12)
    base = ("grid", "--data", data, "--grid-c", "1,4", "--folds", "2", "--json")
    soft = run(capsys, *base, "--variant", "soft-linear")
    assert soft == run(capsys, *base, "--variant", "soft-linear", "--kernel", "rbf",
                       "--grid-gamma", "0.5,2")
    poly = run(capsys, *base, "--variant", "kernel", "--kernel", "poly", "--degree", "2")
    assert poly == run(capsys, *base, "--variant", "kernel", "--kernel", "poly",
                       "--degree", "2", "--grid-gamma", "0.5,2")
    for code, out, err in (soft, poly):
        assert code == 0 and err == ""
        assert [(c["C"], c["gamma"]) for c in json.loads(out)["cells"]] == [(1.0, None),
                                                                            (4.0, None)]


def test_cv_and_grid_build_the_same_kernel(tmp_path, capsys):
    # a linear kernel carries --degree and --coef0 in both, and checks them
    data = blob_csv(tmp_path, "blobs.csv", m=12)
    flags = ("--data", data, "--variant", "kernel", "--kernel", "linear", "--degree", "2",
             "--folds", "2", "--json")
    code, cv_out, _ = run(capsys, "cv", "--C", "4", "--coef0", "0.5", *flags)
    assert code == 0
    code, grid_out, _ = run(capsys, "grid", "--grid-c", "4", "--coef0", "0.5", *flags)
    assert code == 0
    assert json.loads(grid_out)["best_report"] == json.loads(cv_out)
    assert json.loads(cv_out)["kernel"] == {"kind": "linear", "gamma": None,
                                            "degree": 2, "coef0": 0.5}
    for command in (("cv", "--C", "4"), ("grid", "--grid-c", "4")):
        code, out, err = run(capsys, *command, "--coef0", "inf", *flags)
        assert (code, out, err) == (1, "", "error: kernel coef0 must be finite\n")


def ill_scaled_blobs_csv(tmp_path):
    X, labels = oracles.ill_scaled_blobs()
    lines = [",".join([*(repr(float(v)) for v in row), label]) for row, label in zip(X, labels)]
    return write(tmp_path, "ill_scaled.csv", "\n".join(lines) + "\n")


def test_non_finite_tableau_is_a_solver_failure(tmp_path, capsys):
    # this grid used to die in the ratio test with a ValueError traceback; no
    # cell stands now: the gamma = 0.125 programs end infeasible, C = 1's
    # gamma = 2 tableau overflows, and C = 16's reach objectives below 1
    data = ill_scaled_blobs_csv(tmp_path)
    code, out, err = run(capsys, "grid", "--data", data, "--variant", "kernel",
                         "--grid-c", "1,16", "--grid-gamma", "0.125,2", "--folds", "3",
                         "--seed", "1", "--json")
    assert (code, out) == (1, "")
    assert err == ("error: every grid cell failed; first failure: grid cell C=1, "
                   "gamma=0.125: fold 0: soft-margin program reported infeasible\n")
    code, out, err = run(capsys, "cv", "--data", data, "--variant", "kernel", "--kernel", "rbf",
                         "--gamma", "2", "--C", "1", "--folds", "3", "--seed", "1")
    assert code == 3
    assert err == "error: fold 2: solver returned numerical_failure\n"


def test_feature_scale_witnesses(tmp_path, capsys):
    # features near 1e12 give weights near 2e-13, which the model keeps; near
    # 1e-11 the hard-linear phase 1 drifts, an error and not a traceback
    out_path = str(tmp_path / "scale.mcm.json")
    big = write(tmp_path, "big4.csv", oracles.BIG4_CSV)
    for flags in (["--variant", "hard-linear"], ["--variant", "soft-linear", "--C", "1"]):
        code, out, err = run(capsys, "train", "--data", big, *flags, "--out", out_path)
        assert (code, err) == (0, "")
        assert json.loads(out)["training_accuracy"] == 1.0
    tiny = write(tmp_path, "tiny4.csv", oracles.TINY4_CSV)
    code, out, err = run(capsys, "train", "--data", tiny, "--variant", "hard-linear",
                         "--out", out_path)
    assert (code, out, err) == (3, "", "error: solver returned numerical_failure\n")


def test_objective_below_one_is_a_solver_failure(tmp_path, capsys):
    # lp.solve ends this fold's solves OPTIMAL at 0.0 and 0.158, although
    # every feasible point has h >= 1
    data = ill_scaled_blobs_csv(tmp_path)
    code, out, err = run(capsys, "cv", "--data", data, "--variant", "kernel", "--kernel", "rbf",
                         "--gamma", "2", "--C", "16", "--folds", "3", "--seed", "1")
    assert (code, out) == (3, "")
    assert err == ("error: fold 1: solver returned objective 0.0, below 1, "
                   "the least of any feasible point\n")


def test_overflowing_costs_fail_their_grid_cell(tmp_path, capsys):
    # C = 1e308 overflows the cost row; the cell used to report accuracy 1.0
    rng = np.random.default_rng(0)
    rows = [(f"{float(a)!r},{float(b)!r},{label}")
            for label, centre in (("a", 0.0), ("b", 5.0))
            for a, b in rng.normal(centre, 0.5, size=(6, 2))]
    data = write(tmp_path, "twelve.csv", "\n".join(rows) + "\n")
    code, out, err = run(capsys, "grid", "--data", data, "--variant", "soft-linear",
                         "--grid-c", "1,1e308", "--folds", "3", "--seed", "1", "--json")
    assert code == 0
    assert err == "grid cell C=1e+308 failed: fold 0: solver returned numerical_failure\n"
    payload = json.loads(out)
    assert [(c["C"], c["error"], c["accuracy_mean"]) for c in payload["cells"]] == [
        (1.0, None, 1.0), (1e308, "fold 0: solver returned numerical_failure", None)]
    assert payload["best"]["C"] == 1.0


def test_inspect_reports_h(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    model_path = str(tmp_path / "pair.mcm.json")
    run(capsys, "train", "--data", data, "--variant", "hard-linear", "--out", model_path)
    code, out, _ = run(capsys, "inspect", "--model", model_path)
    assert code == 0
    assert "h: 1.0" in out
    assert "type: ovr" in out


def test_inspect_kernel_model(tmp_path, capsys):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = str(tmp_path / "xor.mcm.json")
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "rbf",
        "--gamma", "1", "--C", "1e4", "--out", model_path)
    code, out, _ = run(capsys, "inspect", "--model", model_path, "--train-size", "4")
    assert code == 0
    assert "sv_count:" in out and "expected_error_bound:" in out
    with open(model_path, encoding="utf-8") as fh:
        stored = json.load(fh)
    sv = len(stored["members"][0]["lambda"])
    assert f"sv_count: {sv}" in out


def test_inspect_linear_kernel_model(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    model_path = str(tmp_path / "pair.mcm.json")
    run(capsys, "train", "--data", data, "--variant", "kernel", "--kernel", "linear",
        "--C", "1", "--out", model_path)
    code, out, _ = run(capsys, "inspect", "--model", model_path)
    assert code == 0
    members = [line for line in out.splitlines() if line.startswith("member ")]
    assert len(members) == 2 and all("; kernel: linear; " in line for line in members)


def test_inspect_corrupt_file(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    code, _, err = run(capsys, "inspect", "--model", bad)
    assert code == 1 and "error" in err


def test_infinite_poly_degree_is_a_parse_error(tmp_path, capsys):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = tmp_path / "xor.mcm.json"
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "poly",
        "--degree", "2", "--C", "1e4", "--out", str(model_path))
    stored = json.loads(model_path.read_text(encoding="utf-8"))
    stored["members"][0]["kernel"]["degree"] = float("inf")
    model_path.write_text(json.dumps(stored), encoding="utf-8")  # "degree": Infinity
    for argv in (("inspect", "--model", str(model_path)),
                 ("predict", "--model", str(model_path), "--data", xor, "--label-col", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == ("error: model.members[0]: "
                       "cannot convert float infinity to integer\n")


def test_non_finite_model_numbers_are_a_parse_error(tmp_path, capsys):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = tmp_path / "xor.mcm.json"
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "rbf",
        "--gamma", "1", "--C", "1e4", "--out", str(model_path))
    stored = json.loads(model_path.read_text(encoding="utf-8"))
    stored["members"][0]["b"] = float("nan")
    stored["members"][0]["lambda"][0] = float("inf")
    model_path.write_text(json.dumps(stored), encoding="utf-8")  # NaN, Infinity
    for argv in (("inspect", "--model", str(model_path)),
                 ("predict", "--model", str(model_path), "--data", xor, "--label-col", "-1",
                  "--scores")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: model.members[0]: field 'b' is not finite\n")


@pytest.mark.parametrize("degree", ["2.5", "true"])
def test_poly_degree_in_model_file_must_be_an_integer(tmp_path, capsys, degree):
    xor = write(tmp_path, "xor.csv", XOR_CSV)
    model_path = tmp_path / "xor.mcm.json"
    run(capsys, "train", "--data", xor, "--variant", "kernel", "--kernel", "poly",
        "--degree", "2", "--C", "1e4", "--out", str(model_path))
    text = model_path.read_text(encoding="utf-8")
    model_path.write_text(text.replace('"degree": 2', f'"degree": {degree}'), encoding="utf-8")
    for argv in (("inspect", "--model", str(model_path)),
                 ("predict", "--model", str(model_path), "--data", xor, "--label-col", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: poly kernel requires integer degree >= 1\n")


def test_empty_ovr_model_file_is_an_error(tmp_path, capsys):
    model_path = write(tmp_path, "empty.mcm.json", json.dumps(
        {"format": "mcm-model", "version": 1, "type": "ovr", "classes": [], "members": []}))
    query = write(tmp_path, "query.csv", "0,1\n")
    for argv in (("inspect", "--model", model_path),
                 ("predict", "--model", model_path, "--data", query)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: one-versus-rest model has no members\n")


def test_bad_model_fields_fail_at_load(tmp_path, capsys):
    data = write(tmp_path, "pair.csv", TRIVIAL_CSV)
    model_path = tmp_path / "pair.mcm.json"
    run(capsys, "train", "--data", data, "--variant", "soft-linear", "--C", "1",
        "--out", str(model_path))
    stored = json.loads(model_path.read_text(encoding="utf-8"))
    n = stored["members"][0]["n"]
    query = write(tmp_path, "query.csv", ",".join(["0"] * n) + "\n")
    nested = dict(stored, members=[stored, stored])
    fractional = json.loads(json.dumps(stored))
    fractional["members"][1]["n"] = n + 0.5
    negative_c = json.loads(json.dumps(stored))
    negative_c["members"][0]["C"] = -3.0
    wider = json.loads(json.dumps(stored))
    wider["members"][1].update(n=n + 1, w=wider["members"][1]["w"] + [0.0])
    kernel_member = {"format": "mcm-model", "version": 1, "type": "kernel", "n": n,
                     "b": 0.0, "h": 1.0, "C": 1.0, "kernel": {"kind": "linear"},
                     "lambda": [], "support_vectors": []}
    mixed = dict(stored, members=[stored["members"][0], kernel_member])
    kindless = dict(stored, members=[stored["members"][0],
                                     dict(kernel_member, kernel={"gamma": 1.0})])
    # "kind" in spec holds for both: only a type check makes these parse errors
    string_kernel, list_kernel = (
        dict(stored, members=[dict(kernel_member, kernel=kernel), kernel_member])
        for kernel in ("kind", ["kind"]))
    for bad, message in (
            (nested, "model.members[0]: a one-versus-rest member must be "
                     "a linear or kernel model"),
            (fractional, "model.members[1]: field 'n' is not an integer"),
            (negative_c, "model.members[0]: field 'C' must be positive"),
            ([stored], "model: expected a JSON object"),
            (dict(stored, format="svm-model"), "model: not a mcm-model file"),
            (dict(stored, type="forest"), "model: unknown model type 'forest'"),
            (dict(stored, classes=stored["classes"] + ["c"]),
             "one member model per class label required"),
            (wider, f"member models disagree on feature count: {{{n}, {n + 1}}}"),
            (mixed, "member models must share one variant"),
            (kindless, "model.members[1].kernel: missing field 'kind'"),
            (string_kernel, "model.members[0].kernel: expected a JSON object"),
            (list_kernel, "model.members[0].kernel: expected a JSON object")):
        model_path.write_text(json.dumps(bad), encoding="utf-8")
        for argv in (("inspect", "--model", str(model_path)),
                     ("predict", "--model", str(model_path), "--data", query)):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: {message}\n")


def test_dump_lp_round_trips(tmp_path, capsys):
    data = write(tmp_path, "xor.csv", XOR_CSV)
    lp_path = tmp_path / "dump.lp"
    code, out, _ = run(capsys, "train", "--data", data, "--variant", "kernel",
                       "--kernel", "rbf", "--gamma", "1", "--C", "1e4",
                       "--out", str(tmp_path / "m.json"), "--dump-lp", str(lp_path))
    assert code == 0
    reported = json.loads(out)["objective"]
    reparsed = oracles.parse_lp_text(lp_path.read_text())
    solution = lp.solve(reparsed)
    assert solution.status is lp.LpStatus.OPTIMAL
    assert solution.objective_value == pytest.approx(reported, abs=1e-6)


def test_dump_lp_is_the_program_the_fit_solves(tmp_path, capsys, monkeypatch):
    # one Gram matrix for the dump and the fit, and the same model bytes
    data = write(tmp_path, "xor.csv", XOR_CSV)
    argv = ("train", "--data", data, "--variant", "kernel", "--kernel", "rbf",
            "--gamma", "1", "--C", "1e4")
    assert run(capsys, *argv, "--out", str(tmp_path / "plain.json"))[0] == 0
    calls = []

    def counting_gram(*args, **kwargs):
        calls.append(args)
        return gram(*args, **kwargs)

    monkeypatch.setattr(formulations, "gram", counting_gram)
    lp_path = tmp_path / "dump.lp"
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "dumped.json"),
                     "--dump-lp", str(lp_path))
    assert code == 0 and len(calls) == 1
    assert (tmp_path / "dumped.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    dataset = data_mod.load_csv(data)
    config = formulations.TrainConfig("kernel", C=1e4, kernel=KernelSpec("rbf", gamma=1.0))
    problem, layout = formulations.build_problem(
        dataset.samples, np.where(np.array(dataset.labels) == "-1", 1.0, -1.0), config)
    assert lp_path.read_text() == lp.write_lp_text(problem, formulations.lp_names(layout, config))


@pytest.mark.parametrize("flags, names", [
    (("--variant", "hard-linear"), "w1 w2 b h"),
    (("--variant", "soft-linear", "--C", "1"), "w1 w2 b t q1 q2 q3 q4"),
    (("--variant", "kernel", "--kernel", "rbf", "--gamma", "1", "--C", "1"),
     "lam1 lam2 lam3 lam4 b h q1 q2 q3 q4"),
    (("--variant", "kernel", "--kernel", "poly", "--degree", "2", "--C", "1"),
     "lam1 lam2 lam3 lam4 b h q1 q2 q3 q4"),
], ids=["hard-linear", "soft-linear", "rbf", "poly"])
def test_dump_lp_column_names(tmp_path, capsys, flags, names):
    data = write(tmp_path, "d.csv", "0,0,-1\n0,1,-1\n3,0,1\n3,1,1\n")
    lp_path = tmp_path / "dump.lp"
    code, _, _ = run(capsys, "train", "--data", data, *flags,
                     "--out", str(tmp_path / "m.json"), "--dump-lp", str(lp_path))
    assert code == 0
    lines = lp_path.read_text().splitlines()
    # the free columns (weights, b, and h, but not soft-linear's t = h - 1)
    # in column order, then the objective's columns that are not free: h or
    # t leads the objective, the slacks follow it
    free = [line.split()[0] for line in lines[lines.index("Bounds") + 1:-1]]
    objective = lines[1].split()[2::3]
    columns = names.split()
    assert objective[0] == columns[columns.index("b") + 1]
    assert " ".join(free + [name for name in objective if name not in free]) == names


def query_csv(tmp_path, rows=50, seed=54):
    X = np.random.default_rng(seed).normal(scale=4.0, size=(rows, 2))
    lines = [f"{float(a)!r},{float(b)!r}" for a, b in X]
    return X, write(tmp_path, "query.csv", "\n".join(lines) + "\n")


def per_member_scores(model_path, X) -> str:
    """`predict --scores` output rebuilt from one decision_many per member."""
    ovr = load_model(model_path)
    stacked = np.vstack([decision_many(member, X) for member in ovr.members])
    return "".join(f"{ovr.class_labels[k]}\t{float(stacked[k, i])!r}\n"
                   for i, k in enumerate(np.argmax(stacked, axis=0)))


def predict_counting_cross_gram(capsys, monkeypatch, model_path, query):
    calls = []

    def counting(kernel, X, Y):
        calls.append(Y.shape[0])
        return cross_gram(kernel, X, Y)

    with monkeypatch.context() as patch:
        patch.setattr(model_mod, "cross_gram", counting)
        code, out, _ = run(capsys, "predict", "--model", model_path, "--data", query,
                           "--scores")
    assert code == 0
    return out, calls


def distinct_support_sets(model) -> int:
    seen = []
    for member in model.members:
        if not any(kernel == member.kernel and np.array_equal(sv, member.support_vectors)
                   for kernel, sv in seen):
            seen.append((member.kernel, member.support_vectors))
    return len(seen)


def test_predict_scores_two_class_kernel_one_cross_gram(tmp_path, capsys, monkeypatch):
    data = blob_csv(tmp_path, "blobs.csv", m=30, gap=2.0)
    model_path = str(tmp_path / "rbf.mcm.json")
    code, _, _ = run(capsys, "train", "--data", data, "--variant", "kernel",
                     "--kernel", "rbf", "--gamma", "0.5", "--C", "1", "--out", model_path)
    assert code == 0
    X, query = query_csv(tmp_path)
    expected = per_member_scores(model_path, X)
    out, calls = predict_counting_cross_gram(capsys, monkeypatch, model_path, query)
    assert len(calls) == 1
    assert out == expected


def test_predict_scores_three_class_kernel(tmp_path, capsys, monkeypatch):
    data = three_class_csv(tmp_path, "tri.csv")
    model_path = str(tmp_path / "tri.mcm.json")
    code, _, _ = run(capsys, "train", "--data", data, "--variant", "kernel",
                     "--kernel", "rbf", "--gamma", "0.5", "--C", "1", "--out", model_path)
    assert code == 0
    X, query = query_csv(tmp_path)
    expected = per_member_scores(model_path, X)
    out, calls = predict_counting_cross_gram(capsys, monkeypatch, model_path, query)
    assert len(calls) == distinct_support_sets(load_model(model_path))
    assert out == expected


def test_predict_scores_linear_ovr_unchanged(tmp_path, capsys, monkeypatch):
    data = three_class_csv(tmp_path, "tri.csv")
    model_path = str(tmp_path / "tri.mcm.json")
    code, _, _ = run(capsys, "train", "--data", data, "--variant", "soft-linear",
                     "--C", "10", "--out", model_path)
    assert code == 0
    X, query = query_csv(tmp_path)
    expected = per_member_scores(model_path, X)
    out, calls = predict_counting_cross_gram(capsys, monkeypatch, model_path, query)
    assert calls == []
    assert out == expected


def test_predict_exact_tie_picks_first_class(tmp_path, capsys):
    member = LinearModel(np.array([1.0, -2.0]), 0.5, 1.0)
    model_path = str(tmp_path / "tie.mcm.json")
    save_model(OvrModel(("first", "second"), (member, member)), model_path)
    _, query = query_csv(tmp_path, rows=5)
    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", query)
    assert code == 0
    assert out.splitlines() == ["first"] * 5
