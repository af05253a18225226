import re
import tracemalloc

import numpy as np
import pytest

from mcm import data as data_mod
from mcm import formulations
from mcm.capacity import capacity_report
from mcm.errors import McmError, ParseError
from mcm.kernels import KernelSpec
from mcm.model import negated, predict_many, predict_ovr_many

import oracles


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def blob_dataset(rng, m=100, gap=6.0, noise_flips=0):
    half = m // 2
    X = np.vstack([rng.normal(size=(half, 2)),
                   rng.normal(size=(m - half, 2)) + gap])
    labels = ["neg"] * half + ["pos"] * (m - half)
    for i in range(noise_flips):
        labels[i * 7 % m] = "pos" if labels[i * 7 % m] == "neg" else "neg"
    return data_mod.Dataset(X, labels)


# --- loaders ---

def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "t.csv", "1.0,2.0,A\n3.0,4.0,B\n")
    ds = data_mod.load_csv(path, label_column=2)
    assert ds.samples.shape == (2, 2)
    assert ds.labels == ["A", "B"]
    assert np.array_equal(ds.samples, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_negative_label_column(tmp_path):
    path = write(tmp_path, "t.csv", "1.0,2.0,A\n3.0,4.0,B\n")
    ds = data_mod.load_csv(path, label_column=-1)
    assert ds.labels == ["A", "B"]


def test_load_csv_ragged(tmp_path):
    path = write(tmp_path, "t.csv", "1.0,2.0,A\n3.0,B\n")
    with pytest.raises(ParseError, match="^line 2: 2 fields, expected 3$"):
        data_mod.load_csv(path, label_column=2)


def test_load_csv_header(tmp_path):
    path = write(tmp_path, "t.csv", "f1,f2,label\n1.0,2.0,A\n3.0,4.0,B\n")
    ds = data_mod.load_csv(path, label_column=2, has_header=True)
    assert np.array_equal(ds.samples, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.labels == ["A", "B"]


def test_load_csv_non_numeric_cell(tmp_path):
    path = write(tmp_path, "t.csv", "1.0,x,A\n")
    with pytest.raises(ParseError, match="line 1, column 2"):
        data_mod.load_csv(path, label_column=2)


@pytest.mark.parametrize("text, label_column, message", [
    ("1.0,A,2.0\n3.0,B,x\n", 1, "line 2, column 3: 'x' is not numeric"),
    ("1.0,2.0,A\n3.0, inf ,B\n", 2, "line 2, column 2: non-finite value 'inf'"),
    ("nan,x,A\n", 2, "line 1, column 1: non-finite value 'nan'"),
], ids=["label-in-middle", "inf", "nan-then-non-numeric"])
def test_load_csv_first_bad_cell(tmp_path, text, label_column, message):
    path = write(tmp_path, "t.csv", text)
    with pytest.raises(ParseError, match=f"^{message}$"):
        data_mod.load_csv(path, label_column=label_column)


def test_read_csv_features_only(tmp_path):
    # the last row's cells are finite although their sum overflows
    path = write(tmp_path, "t.csv", "1.0,2.0\n\n 3.0 ,4.0\n1e308,1e308\n")
    samples, labels = data_mod.read_csv(path, label_column=None)
    assert samples.tolist() == [[1.0, 2.0], [3.0, 4.0], [1e308, 1e308]]
    assert labels is None


def test_read_csv_features_only_header(tmp_path):
    path = write(tmp_path, "t.csv", "f1, f2\n1.0,2.0\n")
    samples, labels = data_mod.read_csv(path, label_column=None, has_header=True)
    assert np.array_equal(samples, [[1.0, 2.0]])
    assert labels is None


@pytest.mark.parametrize("text", ["", "\n\n", "f1,f2\n"])
def test_read_csv_features_only_empty(tmp_path, text):
    path = write(tmp_path, "t.csv", text)
    samples, labels = data_mod.read_csv(path, label_column=None, has_header=bool(text))
    assert samples.shape == (0, 0) and labels is None


@pytest.mark.parametrize("text, error, message", [
    ("1.0,2.0\n3.0\n", ParseError, "line 2: 1 fields, expected 2"),
    ("1.0,x\n", ParseError, "line 1, column 2: 'x' is not numeric"),
    ("nan,x\n", ParseError, "line 1, column 1: non-finite value 'nan'"),
    ("1.0,nan\nx,1.0\n", ParseError, "line 1, column 2: non-finite value 'nan'"),
    ("1.0,2.0\n-inf,3.0\n", ParseError, "line 2, column 1: non-finite value '-inf'"),
], ids=["ragged", "non-numeric", "nan-then-non-numeric", "nan-row-first", "inf"])
def test_read_csv_features_only_first_bad_cell(tmp_path, text, error, message):
    path = write(tmp_path, "t.csv", text)
    with pytest.raises(error, match=f"^{message}$"):
        data_mod.read_csv(path, label_column=None)


@pytest.mark.parametrize("text, label_column, message", [
    ("1,2,a\n3,b\n5,x,c\n7,inf,d\n", -1, "line 2: 2 fields, expected 3"),
    ("1,2,a\n\n3,x,b\n5,6\n7,nan,d\n", -1, "line 3, column 2: 'x' is not numeric"),
    ("1,2,a\n3, -inf ,b\n5,x,c\n7\n", -1, "line 2, column 2: non-finite value '-inf'"),
    ("a,1,2\nb,3\nc,x,4\n", 3, "label column 3 out of range for 3 columns"),
    ("1,2\n3\n", -3, "label column -3 out of range for 2 columns"),
], ids=["ragged", "non-numeric", "non-finite", "label-column", "negative-label-column"])
def test_read_csv_first_error_before_later_bad_lines(tmp_path, text, label_column, message):
    path = write(tmp_path, "t.csv", text)
    with pytest.raises(ParseError, match=f"^{message}$"):
        data_mod.read_csv(path, label_column=label_column)


CSV_TEXT = ("f1, f2 ,f3,class\n"  # any column can be the label
            "1.5,-2, 3e-5 ,1\n"
            "\n"
            "  0.1 ,1e308,-0.0, -1 \n"
            "7,1_000,2.5E+3,1\n"
            "-1e-320,4,5,2.0\n")


@pytest.mark.parametrize("label_column", [None, 0, 1, -1])
def test_read_csv_one_pass_matches_row_loop(tmp_path, label_column):
    path = write(tmp_path, "t.csv", CSV_TEXT)
    samples, labels = data_mod.read_csv(path, label_column, has_header=True)
    loop_samples, loop_labels = oracles.csv_row_loop(path, label_column, has_header=True)
    assert samples.shape == loop_samples.shape == (4, 4 - (label_column is not None))
    assert samples.dtype == loop_samples.dtype and samples.flags.c_contiguous
    assert samples.tobytes() == loop_samples.tobytes()
    assert labels == loop_labels


def block_csv(rows, header=False, blank_every=0):
    """A 4-column CSV of `rows` rows in the cell spellings read_csv accepts,
    so any column can be the label, with blank lines after every
    `blank_every`-th row: runs of three after odd rows, which fill whole
    blocks of two or three lines."""
    cells = ["1.5", " -2 ", "3e-5", "-0.0", "1e308", "1_000", "  0.1 ", "-1e-320", "7"]
    lines = ["f1, f2 ,f3,class"] if header else []
    for i in range(rows):
        lines.append(",".join([cells[i % 9], cells[(i + 4) % 9], cells[(2 * i) % 9],
                               f" {i % 3 - 1} "]))
        if blank_every and i % blank_every == 0:
            lines += ["", "  ", ""] if i % 2 else [""]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("rows, header, blank_every", [
    (1, False, 0), (6, False, 0), (7, True, 0), (12, True, 1), (13, False, 2), (5, True, 4),
], ids=["one-row", "whole-blocks", "header-partial", "blank-each", "blank-alternate",
        "header-blank"])
def test_read_csv_blocks_match_row_loop(tmp_path, monkeypatch, block, rows, header,
                                        blank_every):
    monkeypatch.setattr(data_mod, "CSV_BLOCK_LINES", block)
    path = write(tmp_path, "t.csv", block_csv(rows, header, blank_every))
    for label_column in (None, 0, 1, -1):
        samples, labels = data_mod.read_csv(path, label_column, header)
        loop = oracles.csv_row_loop(path, label_column, header)
        assert samples.shape == loop[0].shape == (rows, 4 - (label_column is not None))
        assert samples.flags.c_contiguous and samples.tobytes() == loop[0].tobytes()
        assert labels == loop[1]


@pytest.mark.parametrize("bad_lines, message", [
    ({7: "1,2"}, "line 7: 2 fields, expected 4"),
    ({7: "1,x,2,a"}, "line 7, column 2: 'x' is not numeric"),
    ({8: "1,2,inf,a"}, "line 8, column 3: non-finite value 'inf'"),
    ({3: "1,2,3", 8: "x,2,3,a"}, "line 3: 3 fields, expected 4"),
    ({2: "1,nan,3,a", 7: "1,2"}, "line 2, column 2: non-finite value 'nan'"),
    ({4: "1,2,3,4,5", 5: "x,2,3,a"}, "line 4: 5 fields, expected 4"),
], ids=["ragged-later", "non-numeric-later", "non-finite-later", "ragged-then-bad-cell",
        "non-finite-then-ragged", "same-block"])
def test_read_csv_names_first_error_across_blocks(tmp_path, monkeypatch, bad_lines, message):
    monkeypatch.setattr(data_mod, "CSV_BLOCK_LINES", 3)
    lines = block_csv(9).splitlines()
    for number, line in bad_lines.items():
        lines[number - 1] = line
    path = write(tmp_path, "t.csv", "\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        data_mod.read_csv(path, label_column=-1)


def test_read_csv_holds_one_block_of_cells(tmp_path):
    # 20 000 x 5 floats, 2 MB of text: the file's lines, the samples and one
    # block of cells, where splitting the whole file at once took 14 MB
    X = np.random.default_rng(0).normal(size=(20000, 5))
    path = write(tmp_path, "q.csv", "".join(
        ",".join(repr(v) for v in row) + "\n" for row in X.tolist()))
    tracemalloc.start()
    try:
        samples = data_mod.read_csv(path, label_column=None)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.tobytes() == X.tobytes()
    assert peak <= 8 * 10**6


def test_read_csv_label_only_rows(tmp_path):
    path = write(tmp_path, "t.csv", "a\nb\n")
    samples, labels = data_mod.read_csv(path, label_column=0)
    assert samples.shape == (2, 0) and labels == ["a", "b"]


def test_load_libsvm_basic(tmp_path):
    path = write(tmp_path, "t.svm", "+1 1:0.5 3:2.0\n-1 2:1.0\n")
    ds = data_mod.load_libsvm(path)
    assert np.array_equal(ds.samples, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert ds.labels == ["+1", "-1"]


def test_load_libsvm_label_only_line(tmp_path):
    path = write(tmp_path, "t.svm", "+1 1:0.5\n-1\n")
    ds = data_mod.load_libsvm(path)
    assert np.array_equal(ds.samples[1], [0.0])


def test_load_libsvm_nonpositive_index(tmp_path):
    path = write(tmp_path, "t.svm", "+1 0:0.5\n")
    with pytest.raises(ParseError, match=r"^line 1: index 0 \(indices are 1-based\)$"):
        data_mod.load_libsvm(path)


def test_load_libsvm_bad_pair(tmp_path):
    path = write(tmp_path, "t.svm", "+1 1:abc\n")
    with pytest.raises(ParseError):
        data_mod.load_libsvm(path)


def test_load_libsvm_skips_blank_lines(tmp_path):
    path = write(tmp_path, "t.svm", "+1 1:0.5\n\n  \n-1 2:1.0\n")
    ds = data_mod.load_libsvm(path)
    assert np.array_equal(ds.samples, [[0.5, 0.0], [0.0, 1.0]])
    assert ds.labels == ["+1", "-1"]


@pytest.mark.parametrize("text, message", [
    ("+1 1:0.5 1:2\n", "line 1: index 1 after index 1 (indices must ascend)"),
    ("+1 1:0.5\n\n-1 3:1 2:4\n", "line 3: index 2 after index 3 (indices must ascend)"),
    ("+1 1:0.5\n-1 5\n", "line 2: expected index:value, got '5'"),
    ("+1 2:1 1:inf\n", "line 1: index 1 after index 2 (indices must ascend)"),
    ("+1 1:1 2:inf\n", "line 1: non-finite value '2:inf'"),
], ids=["repeated-index", "descending-index", "no-colon", "descending-before-non-finite",
        "non-finite"])
def test_load_libsvm_names_the_bad_line(tmp_path, text, message):
    path = write(tmp_path, "t.svm", text)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        data_mod.load_libsvm(path)


def test_load_libsvm_refuses_an_array_over_the_budget_before_allocating(tmp_path):
    # densified, the two rows would take 16 TB
    path = write(tmp_path, "t.svm", "a 1:0\nb 1000000000000:1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=(
                r"^line 2: index 1000000000000 densifies 2 rows to 16000000000000 bytes, "
                r"over the budget of 1073741824 bytes$")):
            data_mod.load_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_load_libsvm_budget_is_the_lp_budget(tmp_path, monkeypatch):
    # 2 rows of 3 features take 48 bytes, 2 rows of 4 take 64
    monkeypatch.setattr(data_mod.lp, "_MAX_TABLEAU_BYTES", 48)
    ds = data_mod.load_libsvm(write(tmp_path, "fits.svm", "a 3:1\nb 1:2 2:3\n"))
    assert np.array_equal(ds.samples, [[0.0, 0.0, 1.0], [2.0, 3.0, 0.0]])
    path = write(tmp_path, "over.svm", "a 1:1 4:1\nb 2:1 4:2\n")
    with pytest.raises(ParseError, match=r"^line 1: index 4 densifies 2 rows to 64 bytes, "
                                         r"over the budget of 48 bytes$"):
        data_mod.load_libsvm(path)


@pytest.mark.parametrize("samples, labels", [
    (np.arange(6.0), ["a", "b", "c"]),          # 1-d: was reshaped to 3 x 2
    (np.zeros((1, 2, 3)), ["a"]),               # 3-d: was reshaped to 1 x 6
    (np.arange(6.0), ["a", "b", "c", "d"]),     # escaped as numpy's ValueError
    (np.zeros((3, 2)), ["a", "b"]),
], ids=["1-d", "3-d", "1-d-uneven", "rows-mismatch"])
def test_dataset_requires_one_2d_row_per_label(samples, labels):
    shape = np.asarray(samples).shape
    with pytest.raises(McmError, match=(rf"^samples of shape {re.escape(str(shape))} for "
                                        rf"{len(labels)} labels, expected a 2-d array "
                                        r"with one row per label$")):
        data_mod.Dataset(samples, labels)


def test_dataset_features_must_be_finite():
    with pytest.raises(McmError, match="^features must be finite$"):
        data_mod.Dataset(np.array([[1.0, np.inf], [0.0, 1.0]]), ["a", "b"])


def test_dataset_of_an_empty_file_loads(tmp_path):
    ds = data_mod.load_csv(write(tmp_path, "empty.csv", ""))
    assert ds.samples.shape == (0, 0) and ds.labels == []


# --- scaling ---

def test_minmax_scale():
    X = np.array([[2.0, 5.0], [4.0, 5.0]])
    params = data_mod.fit_minmax(X)
    scaled = data_mod.apply_scale(params, X)
    assert np.array_equal(scaled[:, 0], [0.0, 1.0])
    assert np.array_equal(scaled[:, 1], [0.0, 0.0])  # constant feature
    # application to unseen rows does not clamp
    out = data_mod.apply_scale(params, np.array([[6.0, 7.0]]))
    assert out[0, 0] == pytest.approx(2.0)
    assert out[0, 1] == 0.0


# --- folds ---

def test_make_folds_balanced_classes():
    labels = ["a", "b"] * 5
    plan = data_mod.make_folds(labels, k=5, seed=0)
    for fold in range(5):
        members = [labels[i] for i in np.flatnonzero(plan.assignments == fold)]
        assert sorted(members) == ["a", "b"]


def test_make_folds_deterministic():
    labels = ["a"] * 9 + ["b"] * 5
    one = data_mod.make_folds(labels, k=5, seed=123)
    two = data_mod.make_folds(labels, k=5, seed=123)
    assert np.array_equal(one.assignments, two.assignments)
    other = data_mod.make_folds(labels, k=5, seed=124)
    assert not np.array_equal(one.assignments, other.assignments)


def test_make_folds_sizes_seven_into_five():
    plan = data_mod.make_folds(["a"] * 7, k=5, seed=1)
    sizes = sorted(np.bincount(plan.assignments, minlength=5).tolist(), reverse=True)
    assert sizes == [2, 2, 1, 1, 1]


def test_make_folds_errors():
    with pytest.raises(McmError, match="^2 samples cannot fill 3 folds$"):
        data_mod.make_folds(["a", "b"], k=3, seed=0)
    with pytest.raises(McmError, match="^at least 2 folds required$"):
        data_mod.make_folds(["a", "b", "c"], k=1, seed=0)


def test_fold_invariants_random_labels():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n_classes = int(rng.integers(2, 5))
        M = int(rng.integers(10, 60))
        labels = [f"c{rng.integers(n_classes)}" for _ in range(M)]
        k = int(rng.integers(2, min(6, M + 1)))
        plan = data_mod.make_folds(labels, k=k, seed=int(rng.integers(1 << 31)))
        sizes = np.bincount(plan.assignments, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        for cls in set(labels):
            counts = np.bincount(
                plan.assignments[[i for i, lab in enumerate(labels) if lab == cls]],
                minlength=k)
            assert counts.max() - counts.min() <= 1


# --- cross-validation ---

def test_cross_validate_blobs_accuracy():
    rng = np.random.default_rng(32)
    ds = blob_dataset(rng, m=100, gap=6.0)
    plan = data_mod.make_folds(ds.labels, k=5, seed=42)
    config = formulations.TrainConfig("soft-linear", C=10.0)
    report = data_mod.cross_validate(ds, config, plan)
    assert len(report.folds) == 5
    assert report.aggregates()["accuracy_mean"] >= 0.95
    assert not report.sv_applicable


def test_cross_validate_leave_one_out():
    X = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.4],
                  [3.0, 3.0], [3.5, 2.9], [2.9, 3.6]])
    ds = data_mod.Dataset(X, ["n", "n", "n", "p", "p", "p"])
    plan = data_mod.make_folds(ds.labels, k=6, seed=0)
    report = data_mod.cross_validate(ds, formulations.TrainConfig("hard-linear"), plan)
    assert len(report.folds) == 6
    for fold in report.folds:
        assert fold.accuracy in (0.0, 1.0)


def test_cross_validate_deterministic_json():
    rng = np.random.default_rng(33)
    ds = blob_dataset(rng, m=40, gap=4.0, noise_flips=3)
    plan = data_mod.make_folds(ds.labels, k=5, seed=9)
    config = formulations.TrainConfig("soft-linear", C=1.0)
    first = data_mod.cross_validate(ds, config, plan).to_json()
    second = data_mod.cross_validate(ds, config, plan).to_json()
    assert first == second


@pytest.mark.parametrize("config", [
    formulations.TrainConfig("soft-linear", C=2.0),
    formulations.TrainConfig("kernel", C=2.0, kernel=KernelSpec("rbf", gamma=2.0)),
], ids=["soft-linear", "rbf"])
def test_cross_validate_matches_manual_protocol_with_scaling(config):
    # outlier magnitudes make any train/test leakage of the scale parameters
    # visible in the fold accuracies
    rng = np.random.default_rng(34)
    ds = blob_dataset(rng, m=30, gap=5.0)
    ds.samples[4] *= 50.0
    plan = data_mod.make_folds(ds.labels, k=3, seed=7)
    report = data_mod.cross_validate(ds, config, plan, scale=True)
    classes = ds.classes()
    for fold in range(3):
        te = plan.assignments == fold
        tr = ~te
        params = data_mod.fit_minmax(ds.samples[tr])
        X_tr = data_mod.apply_scale(params, ds.samples[tr])
        X_te = data_mod.apply_scale(params, ds.samples[te])
        y_tr = np.where(np.asarray(ds.labels, dtype=object)[tr] == classes[0], 1.0, -1.0)
        y_te = np.where(np.asarray(ds.labels, dtype=object)[te] == classes[0], 1.0, -1.0)
        result = formulations.train(X_tr, y_tr, config)
        accuracy = float(np.mean(predict_many(result.model, X_te) == y_te))
        assert report.folds[fold].accuracy == accuracy
        cap = capacity_report(result.model, X_tr, y_tr)
        assert report.folds[fold].h == cap.h
        assert report.folds[fold].sv_count == float(cap.sv_count)
        assert report.folds[fold].mean_binary_accuracy is None


def test_cross_validate_multiclass_reports_both_accuracies():
    rng = np.random.default_rng(35)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([rng.normal(size=(10, 2)) * 0.5 + c for c in centers])
    labels = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
    ds = data_mod.Dataset(X, labels)
    plan = data_mod.make_folds(labels, k=3, seed=2)
    report = data_mod.cross_validate(ds, formulations.TrainConfig("soft-linear", C=10.0),
                                     plan)
    for fold in report.folds:
        assert fold.mean_binary_accuracy is not None
        assert 0.0 <= fold.accuracy <= 1.0
    payload = report.to_json_dict()
    assert payload["mean_binary_accuracy_mean"] is not None
    assert payload["accuracy_mean"] >= 0.9


def test_cross_validate_two_classes_solve_for_the_first_class(monkeypatch):
    # fold 0's training rows start with "n", the dataset's second class
    rng = np.random.default_rng(43)
    labels = ["p", "n", "n", "p"] * 4
    X = rng.normal(size=(16, 2)) + 3.0 * (np.asarray(labels) == "p")[:, None]
    ds = data_mod.Dataset(X, labels)
    plan = data_mod.FoldPlan(2, np.arange(16) % 2, seed=0)
    solved = []
    real_train = formulations.train

    def recording_train(samples, y, *args, **kwargs):
        solved.append(y)
        return real_train(samples, y, *args, **kwargs)

    monkeypatch.setattr(formulations, "train", recording_train)
    data_mod.cross_validate(ds, formulations.TrainConfig("soft-linear", C=1.0), plan)
    assert len(solved) == 2
    for fold, y in enumerate(solved):
        positive = np.asarray(labels)[plan.assignments != fold] == "p"
        assert y.tolist() == np.where(positive, 1.0, -1.0).tolist()


def test_cross_validate_singleton_class_keeps_binary_accuracy():
    # the fold holding "c" trains a two-class bundle on three-class data
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 3.0, [[0.0, 3.0]]])
    ds = data_mod.Dataset(X, ["a"] * 6 + ["b"] * 6 + ["c"])
    plan = data_mod.make_folds(ds.labels, k=3, seed=1)
    report = data_mod.cross_validate(ds, formulations.TrainConfig("soft-linear", C=1.0), plan)
    assert all(fold.mean_binary_accuracy is not None for fold in report.folds)
    assert report.to_json_dict()["mean_binary_accuracy_mean"] is not None


def test_cross_validate_error_carries_fold_index():
    # one class has a single sample; leave-one-out starves a training fold
    X = np.array([[0.0], [0.1], [1.0]])
    ds = data_mod.Dataset(X, ["a", "a", "b"])
    plan = data_mod.make_folds(ds.labels, k=3, seed=0)
    with pytest.raises(McmError, match="fold"):
        data_mod.cross_validate(ds, formulations.TrainConfig("hard-linear"), plan)


@pytest.mark.parametrize("labels, message", [
    (["a", "a", "b"], "training data contains a single class"),
    (["a", "a", "b", "c"], "training data contains a single class"),
], ids=["two-class", "three-class"])
def test_single_class_training_fold_message(labels, message):
    X = np.arange(len(labels), dtype=float)[:, None]
    ds = data_mod.Dataset(X, labels)
    plan = data_mod.FoldPlan(2, np.array([1] + [0] * (len(labels) - 1)), seed=0)
    config = formulations.TrainConfig("soft-linear", C=1.0)
    with pytest.raises(McmError, match=f"^fold 0: {message}$"):
        data_mod.cross_validate(ds, config, plan)
    with pytest.raises(McmError, match=("^every grid cell failed; first failure: "
                                        f"grid cell C=1: fold 0: {message}$")):
        data_mod.grid_search(ds, soft_linear_grid(1.0), plan)


def test_fold_plan_must_match_dataset():
    ds = blob_dataset(np.random.default_rng(0), m=10)
    plan = data_mod.make_folds(["x"] * 8 + ["y"] * 4, k=3, seed=0)
    with pytest.raises(McmError):
        data_mod.cross_validate(ds, formulations.TrainConfig("hard-linear"), plan)


# --- grid search ---

def soft_linear_grid(*C_values):
    return [formulations.TrainConfig("soft-linear", C=C) for C in C_values]


def rbf_grid(C_values, gamma_values):
    """The C-major, gamma-minor configs `mcm grid --variant kernel` scans."""
    return [formulations.TrainConfig("kernel", C=C, kernel=KernelSpec("rbf", gamma=gamma))
            for C in C_values for gamma in gamma_values]


def test_grid_single_cell():
    rng = np.random.default_rng(36)
    ds = blob_dataset(rng, m=24, gap=5.0)
    plan = data_mod.make_folds(ds.labels, k=3, seed=1)
    result = data_mod.grid_search(ds, soft_linear_grid(2.0), plan)
    assert len(result.cells) == 1
    assert result.best_cell.C == 2.0 and result.best_cell.gamma is None


def test_grid_exhaustive_cell_counts():
    rng = np.random.default_rng(37)
    ds = blob_dataset(rng, m=20, gap=5.0)
    plan = data_mod.make_folds(ds.labels, k=2, seed=1)
    linear = data_mod.grid_search(ds, soft_linear_grid(0.5, 8.0), plan)
    assert len(linear.cells) == 2
    kernel = data_mod.grid_search(ds, rbf_grid((0.5, 8.0), (0.1, 1.0, 4.0)), plan)
    assert len(kernel.cells) == 6
    assert [(c.C, c.gamma) for c in kernel.cells] == [
        (0.5, 0.1), (0.5, 1.0), (0.5, 4.0), (8.0, 0.1), (8.0, 1.0), (8.0, 4.0)]


def test_grid_prefers_accurate_cell():
    # a vanishing penalty underfits: the h + C*sum(q) objective then prefers
    # the all-slack solution over separating the classes
    rng = np.random.default_rng(38)
    half = 20
    X = np.vstack([rng.normal(size=(half, 2)) * 0.8,
                   rng.normal(size=(half, 2)) * 0.8 + 3.0])
    ds = data_mod.Dataset(X, ["n"] * half + ["p"] * half)
    plan = data_mod.make_folds(ds.labels, k=4, seed=3)
    result = data_mod.grid_search(ds, soft_linear_grid(1e-6, 10.0), plan)
    accs = {cell.C: cell.report.aggregates()["accuracy_mean"] for cell in result.cells}
    assert accs[10.0] > accs[1e-6]
    assert result.best_cell.C == 10.0


def test_grid_accuracy_tie_breaks_to_smaller_c():
    rng = np.random.default_rng(39)
    ds = blob_dataset(rng, m=24, gap=8.0)  # easy data: every C is perfect
    plan = data_mod.make_folds(ds.labels, k=3, seed=5)
    result = data_mod.grid_search(ds, soft_linear_grid(4.0, 1.0, 16.0), plan)
    assert result.best_cell.report.aggregates()["accuracy_mean"] == 1.0
    assert result.best_cell.C == 1.0  # sv_count ties for linear cells, C decides


def test_grid_accuracy_tie_breaks_to_smaller_sv_count():
    rng = np.random.default_rng(61)
    half = 12
    X = np.vstack([rng.normal(size=(half, 2)) * 0.4,
                   rng.normal(size=(half, 2)) * 0.4 + 6.0])
    ds = data_mod.Dataset(X, ["a"] * half + ["b"] * half)
    plan = data_mod.make_folds(ds.labels, k=3, seed=2)
    result = data_mod.grid_search(ds, rbf_grid((8.0,), (0.5, 0.01, 4.0)), plan)
    by_gamma = {cell.gamma: cell.report.aggregates() for cell in result.cells}
    assert by_gamma[0.01]["accuracy_mean"] == by_gamma[0.5]["accuracy_mean"] == 1.0
    assert by_gamma[0.5]["sv_count_mean"] < by_gamma[0.01]["sv_count_mean"]
    assert result.best_cell.gamma == 0.5  # sparser model wins the tie


def test_grid_fails_only_when_every_cell_fails():
    X = np.array([[0.0], [0.1], [1.0], [1.1]])
    ds = data_mod.Dataset(X, ["a", "a", "b", "b"])
    plan = data_mod.FoldPlan(2, np.array([0, 1, 0, 1]), seed=0)
    bad_plan = data_mod.FoldPlan(2, np.array([0, 0, 1, 1]), seed=0)  # single-class folds

    grid = soft_linear_grid(1.0)
    ok = data_mod.grid_search(ds, grid, plan)
    assert ok.best_cell.error is None

    with pytest.raises(McmError, match=("^every grid cell failed; first failure: "
                                        "grid cell C=1: fold 0: training data contains")):
        data_mod.grid_search(ds, grid, bad_plan)


def test_grid_rejects_hard_variant():
    ds = blob_dataset(np.random.default_rng(40), m=10)
    plan = data_mod.make_folds(ds.labels, k=2, seed=0)
    with pytest.raises(McmError):
        data_mod.grid_search(ds, [formulations.TrainConfig("hard-linear")], plan)


@pytest.mark.parametrize("configs", [
    soft_linear_grid(0.5, 4.0),
    rbf_grid((1.0, 16.0), (0.125, 2.0)),
    [formulations.TrainConfig("kernel", C=C, kernel=KernelSpec("poly", degree=2, coef0=0.5))
     for C in (1.0, 4.0)],
], ids=["soft-linear", "rbf", "poly"])
def test_grid_cell_is_the_cross_validation_of_its_config(configs):
    ds = blob_dataset(np.random.default_rng(41), m=18, gap=2.0, noise_flips=2)
    plan = data_mod.make_folds(ds.labels, k=3, seed=4)
    result = data_mod.grid_search(ds, configs, plan)
    assert len(result.cells) == len(configs)
    for cell, config in zip(result.cells, configs):
        assert cell.error is None and cell.report.config == config
        assert (cell.C, cell.gamma) == (config.C, getattr(config.kernel, "gamma", None))
        assert cell.report.to_json() == data_mod.cross_validate(ds, config, plan).to_json()


def test_grid_search_needs_a_config():
    ds = blob_dataset(np.random.default_rng(42), m=10)
    plan = data_mod.make_folds(ds.labels, k=2, seed=0)
    with pytest.raises(McmError, match="^grid search needs at least one config$"):
        data_mod.grid_search(ds, [], plan)


def test_grid_rejects_a_hard_config_among_soft_ones(monkeypatch):
    ds = blob_dataset(np.random.default_rng(43), m=10)
    plan = data_mod.make_folds(ds.labels, k=2, seed=0)
    monkeypatch.setattr(data_mod, "cross_validate", None)  # nothing may be fitted
    configs = soft_linear_grid(1.0) + [formulations.TrainConfig("hard-linear")]
    with pytest.raises(McmError, match="^grid search needs a soft variant"):
        data_mod.grid_search(ds, configs, plan)


# --- report consistency ---

CV_KEYS = ["report_version", "kind", "variant", "C", "kernel", "scale", "folds", "seed",
           "classes", "sv_applicable", "std", "per_fold", "accuracy_mean", "accuracy_std",
           "mean_binary_accuracy_mean", "mean_binary_accuracy_std", "sv_count_mean",
           "sv_count_std", "h_mean", "h_std", "h_defined_folds"]
FOLD_KEYS = ["fold", "accuracy", "sv_count", "h", "mean_binary_accuracy"]
GRID_KEYS = ["report_version", "kind", "variant", "kernel", "folds", "seed", "scale",
             "cells", "best", "best_report"]
CELL_KEYS = ["C", "gamma", "error", "accuracy_mean", "accuracy_std", "sv_count_mean"]


def overlapping_three_class_dataset():
    # soft-linear members do not separate their training rows in fold 1
    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    X = np.vstack([rng.normal(size=(6, 2)) * 0.7 + c for c in centers])
    return data_mod.Dataset(X, ["a"] * 6 + ["b"] * 6 + ["c"] * 6)


def assert_cv_aggregates_match_folds(payload):
    assert list(payload) == CV_KEYS
    per_fold = payload["per_fold"]
    assert all(list(fold) == FOLD_KEYS for fold in per_fold)
    for name in ("accuracy", "sv_count"):
        values = [fold[name] for fold in per_fold]
        assert payload[f"{name}_mean"] == float(np.mean(values))
        assert payload[f"{name}_std"] == float(np.std(values))
    h = [fold["h"] for fold in per_fold if fold["h"] is not None]
    assert payload["h_defined_folds"] == len(h)
    assert payload["h_mean"] == (float(np.mean(h)) if h else None)
    assert payload["h_std"] == (float(np.std(h)) if h else None)
    binary = [fold["mean_binary_accuracy"] for fold in per_fold]
    every = all(v is not None for v in binary)
    assert payload["mean_binary_accuracy_mean"] == (float(np.mean(binary)) if every else None)
    assert payload["mean_binary_accuracy_std"] == (float(np.std(binary)) if every else None)


def test_cv_report_aggregates_come_from_per_fold_values():
    ds = overlapping_three_class_dataset()
    plan = data_mod.make_folds(ds.labels, k=3, seed=1)
    report = data_mod.cross_validate(ds, formulations.TrainConfig("soft-linear", C=1.0), plan)
    payload = report.to_json_dict()
    assert 0 < payload["h_defined_folds"] < 3  # some fold has h undefined
    assert payload["mean_binary_accuracy_mean"] is not None
    assert_cv_aggregates_match_folds(payload)
    two_class = data_mod.cross_validate(
        blob_dataset(np.random.default_rng(2), m=12, gap=4.0),
        formulations.TrainConfig("soft-linear", C=1.0),
        data_mod.FoldPlan(2, np.arange(12) % 2, seed=0)).to_json_dict()
    assert two_class["mean_binary_accuracy_mean"] is None
    assert_cv_aggregates_match_folds(two_class)


def test_grid_report_reads_its_cells(monkeypatch):
    ds = overlapping_three_class_dataset()
    plan = data_mod.make_folds(ds.labels, k=3, seed=1)
    real_cross_validate = data_mod.cross_validate

    def failing_at_c_2(dataset, config, plan, scale=False):
        if config.C == 2.0:
            raise McmError("fold 1: injected failure")
        return real_cross_validate(dataset, config, plan, scale)

    monkeypatch.setattr(data_mod, "cross_validate", failing_at_c_2)
    # C = 1.5 and C = 1 tie on accuracy and support count; the smaller C wins
    result = data_mod.grid_search(ds, soft_linear_grid(1.5, 2.0, 0.01, 1.0, 8.0), plan,
                                  scale=True)
    payload = result.to_json_dict()
    assert list(payload) == GRID_KEYS
    assert all(list(cell) == CELL_KEYS for cell in payload["cells"] + [payload["best"]])
    failed = [cell for cell in payload["cells"] if cell["error"] is not None]
    assert failed == [{"C": 2.0, "gamma": None, "error": "fold 1: injected failure",
                       "accuracy_mean": None, "accuracy_std": None, "sv_count_mean": None}]

    best_report = payload["best_report"]
    assert_cv_aggregates_match_folds(best_report)
    for key in ("variant", "folds", "seed", "scale"):
        assert payload[key] == best_report[key]
    assert payload["kernel"] is best_report["kernel"] is None

    # highest accuracy, then fewer support vectors, then smaller C
    ranked = sorted((cell for cell in payload["cells"] if cell["error"] is None),
                    key=lambda cell: (-cell["accuracy_mean"], cell["sv_count_mean"], cell["C"]))
    assert payload["best"] == ranked[0] and ranked[0]["C"] == 1.0
    assert best_report["C"] == 1.0
    for cell, report in zip(payload["cells"], [c.report for c in result.cells]):
        if report is not None:
            stats = report.to_json_dict()
            assert [cell[key] for key in CELL_KEYS[3:]] == [stats[key] for key in CELL_KEYS[3:]]


def test_grid_table_soft_linear_has_no_sv_count():
    ds = blob_dataset(np.random.default_rng(41), m=18, gap=2.0, noise_flips=2)
    plan = data_mod.make_folds(ds.labels, k=3, seed=4)
    result = data_mod.grid_search(ds, soft_linear_grid(0.5, 4.0), plan)
    assert result.to_table() == (
        "           C         gamma  accuracy  sv_count\n"
        "         0.5             -    0.7778       n/a\n"
        "           4             -    0.8889       n/a\n"
        "best: C=4 gamma=- accuracy=0.8889\n")
    assert result.cells[0].report.to_table().splitlines()[1].split()[2] == "n/a"


def test_grid_table_rbf_with_a_failing_cell(monkeypatch):
    ds = blob_dataset(np.random.default_rng(41), m=18, gap=2.0, noise_flips=2)
    plan = data_mod.make_folds(ds.labels, k=3, seed=4)
    real_cross_validate = data_mod.cross_validate

    def failing_at_16_2(dataset, config, plan, scale=False):
        if (config.C, config.kernel.gamma) == (16.0, 2.0):
            raise McmError("fold 1: injected failure")
        return real_cross_validate(dataset, config, plan, scale)

    monkeypatch.setattr(data_mod, "cross_validate", failing_at_16_2)
    result = data_mod.grid_search(ds, rbf_grid((1.0, 16.0), (0.125, 2.0)), plan)
    assert result.to_table() == (
        "           C         gamma  accuracy  sv_count\n"
        "           1         0.125    0.7778      11.3\n"
        "           1             2    0.6667      11.0\n"
        "          16         0.125    0.7778      11.3\n"
        "          16             2     ERROR  fold 1: injected failure\n"
        "best: C=1 gamma=0.125 accuracy=0.7778\n")


def test_default_grids_match_protocol_sizes():
    assert len(data_mod.DEFAULT_C_GRID) == 11
    assert len(data_mod.DEFAULT_GAMMA_GRID) == 10
    assert data_mod.DEFAULT_C_GRID[0] == 2.0 ** -5
    assert data_mod.DEFAULT_C_GRID[-1] == 2.0 ** 15
    assert data_mod.DEFAULT_GAMMA_GRID[0] == 2.0 ** -15
    assert data_mod.DEFAULT_GAMMA_GRID[-1] == 2.0 ** 3


def test_train_ovr_shares_variant_and_dimensions():
    rng = np.random.default_rng(41)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    X = np.vstack([rng.normal(size=(6, 2)) * 0.4 + c for c in centers])
    labels = ["a"] * 6 + ["b"] * 6 + ["c"] * 6
    ovr, results = data_mod.train_ovr(X, labels, formulations.TrainConfig("soft-linear", C=5.0))
    assert ovr.class_labels == ("a", "b", "c")
    assert len(results) == 3
    assert all(member.n == 2 for member in ovr.members)


@pytest.mark.parametrize("config", [
    formulations.TrainConfig("soft-linear", C=1.0),
    formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("rbf", gamma=0.5)),
], ids=["soft-linear", "rbf"])
def test_train_ovr_two_classes_solves_once(monkeypatch, config):
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal(size=(8, 2)), rng.normal(size=(8, 2)) + 2.0])
    labels = ["p"] * 8 + ["n"] * 8
    calls = []
    real_train = formulations.train

    def counting_train(*args, **kwargs):
        calls.append(args)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(formulations, "train", counting_train)
    flipped, _ = data_mod.train_ovr(X, labels, config, classes=("n", "p"))
    assert flipped.class_labels == ("n", "p")
    assert calls.pop()[1].tolist() == [-1.0] * 8 + [1.0] * 8
    ovr, results = data_mod.train_ovr(X, labels, config)
    assert len(calls) == 1 and len(results) == 1
    assert calls[0][1].tolist() == [1.0] * 8 + [-1.0] * 8  # first class positive
    assert ovr.class_labels == ("p", "n")
    first, second = ovr.members
    assert first is results[0].model
    mirror = negated(first)
    assert type(second) is type(mirror)
    assert getattr(second, "kernel", None) == getattr(mirror, "kernel", None)
    for name in ("w", "lam", "support_vectors", "b", "h", "C"):
        if hasattr(mirror, name):
            assert (np.asarray(getattr(second, name)).tobytes()
                    == np.asarray(getattr(mirror, name)).tobytes()), name


def test_cross_validate_multiclass_matches_per_member_protocol():
    # overlapping blobs, so neither accuracy is trivially 1
    rng = np.random.default_rng(36)
    centers = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])
    X = np.vstack([rng.normal(size=(12, 2)) + c for c in centers])
    labels = ["a"] * 12 + ["b"] * 12 + ["c"] * 12
    ds = data_mod.Dataset(X, labels)
    plan = data_mod.make_folds(labels, k=3, seed=3)
    config = formulations.TrainConfig("soft-linear", C=1.0)
    report = data_mod.cross_validate(ds, config, plan)
    labels_arr = np.asarray(labels, dtype=object)
    for fold in range(3):
        te = plan.assignments == fold
        ovr, _ = data_mod.train_ovr(X[~te], labels_arr[~te], config)
        predictions = np.asarray(predict_ovr_many(ovr, X[te]), dtype=object)
        assert report.folds[fold].accuracy == float(np.mean(predictions == labels_arr[te]))
        binary = [float(np.mean(predict_many(member, X[te])
                                == np.where(labels_arr[te] == cls, 1.0, -1.0)))
                  for cls, member in zip(ovr.class_labels, ovr.members)]
        assert report.folds[fold].mean_binary_accuracy == float(np.mean(binary))
    assert report.to_json_dict()["accuracy_mean"] < 1.0
