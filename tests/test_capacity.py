import numpy as np
import pytest

from mcm import formulations
from mcm.capacity import capacity_report, compute_h, radius_margin_ratio
from mcm.errors import McmError
from mcm.kernels import KernelSpec
from mcm.model import LinearModel, OvrModel, negated

PAIR_X = np.array([[1.0], [-1.0]])
PAIR_Y = np.array([1.0, -1.0])


def test_h_on_symmetric_pair():
    assert compute_h(PAIR_X, PAIR_Y, [1.0], 0.0) == pytest.approx(1.0)


def test_h_with_shifted_offset():
    # margins 1.5 and 0.5, so the ratio is 3
    assert compute_h(PAIR_X, PAIR_Y, [1.0], 0.5) == pytest.approx(3.0)


def test_h_undefined_when_misclassifying():
    assert compute_h(PAIR_X, PAIR_Y, [-1.0], 0.0) is None


def test_h_zero_weight():
    with pytest.raises(McmError, match="^weight vector is identically zero$"):
        compute_h(PAIR_X, PAIR_Y, [0.0], 1.0)


def test_h_feature_count_mismatch():
    with pytest.raises(McmError, match="^1 features, weight vector has 2$"):
        compute_h(PAIR_X, PAIR_Y, [1.0, 0.0], 0.0)


def test_h_scale_invariance():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(12, 3))
    w = rng.normal(size=3)
    y = np.where(X @ w + 0.1 >= 0, 1.0, -1.0)
    base = compute_h(X, y, w, 0.1)
    assert base is not None
    for s in (0.25, 7.0, 1e3):
        assert compute_h(X, y, s * w, s * 0.1) == pytest.approx(base, rel=1e-12)


def test_radius_margin_ratio_on_pair():
    # augmented points (+-1, 1) have norm sqrt(2); distance of both is 1
    assert radius_margin_ratio(PAIR_X, [1.0], 0.0) == pytest.approx(np.sqrt(2.0))


def test_radius_margin_ratio_homogeneous():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(9, 2))
    value = radius_margin_ratio(X, [0.3, -1.2], 0.4)
    doubled = radius_margin_ratio(X, [0.6, -2.4], 0.8)
    assert doubled == pytest.approx(value, rel=1e-12)


def test_radius_margin_ratio_degenerate():
    # a sample on the plane, or within DISTANCE_EPS of it
    assert radius_margin_ratio(np.array([[1.0, 0.0]]), [0.0, 1.0], 0.0) is None
    assert radius_margin_ratio(np.array([[1.0, 0.0], [2.0, 1.0]]), [0.0, 1.0], 1e-13) is None


def test_zero_hyperplane_is_degenerate():
    # every sample lies on the zero plane
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert radius_margin_ratio(X, [0.0, 0.0], 0.0) is None
    report = capacity_report(LinearModel(w=[0.0, 0.0], b=0.0, h=1.0), X, [1.0, -1.0])
    assert report.h is None


def test_h_bounded_by_radius_margin_ratio():
    rng = np.random.default_rng(12)
    for _ in range(25):
        X = rng.normal(size=(10, 2))
        w = rng.normal(size=2)
        b = rng.normal() * 0.1
        margins = X @ w + b
        if np.abs(margins).min() < 1e-6:
            continue
        y = np.sign(margins)
        h = compute_h(X, y, w, b)
        assert h is not None
        assert h <= radius_margin_ratio(X, w, b) + 1e-6


def test_signed_and_unsigned_forms_agree():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(15, 3))
    w = rng.normal(size=3)
    y = np.sign(X @ w + 0.2)
    signed = compute_h(X, y, w, 0.2)
    raw = np.abs(X @ w + 0.2)
    unsigned = raw.max() / raw.min()
    assert signed == pytest.approx(unsigned, abs=1e-12)


def test_report_for_hard_linear_pair():
    result = formulations.train(PAIR_X, PAIR_Y, formulations.TrainConfig("hard-linear"))
    report = capacity_report(result.model, PAIR_X, PAIR_Y)
    assert report.h == pytest.approx(1.0, abs=1e-8)
    assert report.h_squared == pytest.approx(1.0, abs=1e-8)
    model = result.model
    assert radius_margin_ratio(PAIR_X, model.w, model.b) == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert report.sv_count == 2
    assert report.expected_error_bound == 1.0


def test_report_for_xor_kernel_model():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    config = formulations.TrainConfig("kernel", C=1e4,
                                      kernel=KernelSpec("rbf", gamma=1.0))
    result = formulations.train(X, y, config)
    report = capacity_report(result.model, X, y)
    assert report.sv_count == result.model.sv_count
    assert report.expected_error_bound == pytest.approx(report.sv_count / 4)
    assert report.h is not None and report.h >= 1.0 - 1e-8


def test_report_undefined_h_for_misclassifying_soft_model():
    X = np.array([[0.0], [0.05], [1.0], [0.95], [0.5], [0.52]])
    y = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])  # interleaved core
    result = formulations.train(X, y, formulations.TrainConfig("soft-linear", C=0.5))
    report = capacity_report(result.model, X, y)
    margins = y * (X @ result.model.w + result.model.b)
    assert margins.min() <= 0  # this data really is mixed up
    assert report.h is None and report.h_squared is None
    assert report.sv_count == 6  # linear model: every sample backs w


def test_no_training_rows_leave_h_undefined():
    model = LinearModel(w=np.array([1.0]), b=0.0, h=1.0)
    assert compute_h(np.zeros((0, 1)), [], model.w, model.b) is None
    report = capacity_report(model, np.zeros((0, 1)), [])
    assert (report.h, report.h_squared, report.sv_count) == (None, None, 0)
    assert report.expected_error_bound == 0.0


def test_report_dimension_mismatch():
    result = formulations.train(PAIR_X, PAIR_Y, formulations.TrainConfig("hard-linear"))
    with pytest.raises(McmError, match="^3 features, model expects 1$"):
        capacity_report(result.model, np.zeros((2, 3)), PAIR_Y)


def test_report_refuses_a_bundle():
    model = LinearModel(np.array([1.0]), 0.0, 1.0)
    with pytest.raises(McmError, match="^no capacity report for OvrModel$"):
        capacity_report(OvrModel(("a", "b"), (model, negated(model))), PAIR_X, PAIR_Y)
