import json

import numpy as np
import pytest

from mcm import lp
from mcm import model as model_mod
from mcm.cli import main
from mcm.kernels import cross_gram
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
    assert code == 1 and "--C" in err
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


def test_grid_partial_failures_keep_going(tmp_path, capsys):
    # fold plans with a stray third class of one sample: some folds lose it
    rng = np.random.default_rng(52)
    lines = [f"{float(rng.normal())!r},{float(rng.normal())!r},A" for _ in range(6)]
    lines += [f"{float(rng.normal() + 5)!r},{float(rng.normal() + 5)!r},B" for _ in range(6)]
    data = write(tmp_path, "tri.csv", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "grid", "--data", data, "--variant", "soft-linear",
                       "--grid-c", "1,4", "--folds", "3", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 2


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


def test_inspect_corrupt_file(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    code, _, err = run(capsys, "inspect", "--model", bad)
    assert code == 1 and "error" in err


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
