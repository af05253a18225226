import json
import tracemalloc

import numpy as np
import pytest

from mcm import kernels
from mcm import model as model_mod
from mcm.errors import McmError, ParseError
from mcm.formulations import TrainConfig, train
from mcm.kernels import KernelSpec, cross_gram
from mcm.model import (
    KernelModel,
    LinearModel,
    OvrModel,
    decision_many,
    load_model,
    model_from_json,
    model_to_json,
    negated,
    predict_many,
    predict_ovr_many,
    save_model,
)


def linear_model(w=(1.0,), b=0.0, h=1.0):
    return LinearModel(np.asarray(w), b, h)


def kernel_model(lam, sv, b=0.0, gamma=1.0, n=2):
    return KernelModel(np.asarray(lam), np.asarray(sv), b, 1.0,
                       KernelSpec("rbf", gamma=gamma), n, C=1.0)


def test_linear_decision():
    assert decision_many(linear_model(), [[0.5]]).tolist() == [pytest.approx(0.5)]


def test_kernel_decision_no_support_vectors():
    model = kernel_model([], np.zeros((0, 2)), b=-0.25)
    values = decision_many(model, [[0.0, 0.0], [3.0, -1.0]])
    assert values.tolist() == [pytest.approx(-0.25)] * 2


def test_predict_sign_rule():
    model = linear_model()
    assert predict_many(model, [[0.3], [-0.3]]).tolist() == [1, -1]
    assert predict_many(model, [[0.0]]).tolist() == [1]  # exact zero goes positive


def test_decision_dimension_mismatch():
    with pytest.raises(McmError, match="^2 features, model expects 1$"):
        decision_many(linear_model(), [[1.0, 2.0]])


def test_ovr_two_class_matches_binary_sign():
    base = linear_model()
    ovr = OvrModel(("pos", "neg"), (base, negated(base)))
    X = np.array([[0.4], [-0.4], [0.0]])
    labels = predict_ovr_many(ovr, X)
    assert labels == ["pos", "neg", "pos"]  # ties break to the first class


def test_ovr_all_equal_decisions_pick_first_class():
    flat = LinearModel(np.array([0.0]), 1.0, 1.0)
    ovr = OvrModel(("a", "b", "c"), (flat, flat, flat))
    assert predict_ovr_many(ovr, [[2.0]]) == ["a"]


def test_ovr_closed_world():
    rng = np.random.default_rng(4)
    members = tuple(LinearModel(rng.normal(size=2), rng.normal(), 1.0) for _ in range(3))
    ovr = OvrModel(("x", "y", "z"), members)
    for label in predict_ovr_many(ovr, rng.normal(size=(20, 2))):
        assert label in ("x", "y", "z")


def test_ovr_determinism():
    rng = np.random.default_rng(5)
    members = tuple(LinearModel(rng.normal(size=3), 0.0, 1.0) for _ in range(2))
    ovr = OvrModel(("p", "q"), members)
    X = rng.normal(size=(1, 3))
    assert predict_ovr_many(ovr, X) == predict_ovr_many(ovr, X)


def test_linear_round_trip_bit_identical():
    rng = np.random.default_rng(6)
    model = LinearModel(rng.normal(size=5), rng.normal(), 1.7, C=3.5)
    clone = model_from_json(model_to_json(model))
    X = rng.normal(size=(100, 5))
    assert decision_many(model, X).tobytes() == decision_many(clone, X).tobytes()
    assert clone.C == model.C and clone.variant == model.variant


def test_kernel_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    model = kernel_model(rng.normal(size=4), rng.normal(size=(4, 2)), b=0.3,
                         gamma=0.8)
    path = tmp_path / "model.mcm.json"
    save_model(model, path)
    clone = load_model(path)
    X = rng.normal(size=(50, 2))
    assert decision_many(model, X).tobytes() == decision_many(clone, X).tobytes()


def test_ovr_round_trip():
    base = linear_model(w=(2.0,), b=0.5)
    ovr = OvrModel(("yes", "no"), (base, negated(base)))
    clone = model_from_json(model_to_json(ovr))
    X = np.array([[0.1], [-0.9]])
    assert predict_ovr_many(clone, X) == predict_ovr_many(ovr, X)


def test_truncated_stream_is_parse_error():
    text = model_to_json(linear_model())
    with pytest.raises(ParseError):
        model_from_json(text[: len(text) // 2])


def test_missing_field_is_parse_error():
    with pytest.raises(ParseError, match="missing field"):
        model_from_json('{"format":"mcm-model","version":1,"type":"linear","n":1}')


def test_version_mismatch():
    with pytest.raises(ParseError, match="^model: file version 99, expected 1$"):
        model_from_json('{"format":"mcm-model","version":99,"type":"linear"}')


def test_scalar_w_is_parse_error():
    with pytest.raises(ParseError, match="^model: "):
        model_from_json('{"type":"linear","n":1,"w":1.0,"b":0.0,"h":1.0}')


def test_hand_written_minimal_file():
    text = ('{"format":"mcm-model","version":1,"type":"linear",'
            '"n":1,"w":[1.0],"b":0.0,"h":1.0}')
    model = model_from_json(text)
    assert isinstance(model, LinearModel)
    assert model.w == pytest.approx([1.0])
    assert model.b == 0.0 and model.h == 1.0
    assert model.C is None and model.variant == "hard-linear"
    assert predict_many(model, np.array([[1.0], [-1.0]])).tolist() == [1, -1]


def test_schema_keys():
    obj = json.loads(model_to_json(kernel_model([0.5], [[1.0, 2.0]])))
    assert set(obj) == {"format", "version", "type", "n", "b", "h", "C",
                       "kernel", "lambda", "support_vectors"}
    assert set(obj["kernel"]) == {"kind", "gamma", "degree", "coef0"}


LINEAR_TEXT = """\
{
  "format": "mcm-model",
  "version": 1,
  "type": "linear",
  "n": 2,
  "w": [
    0.5,
    0.30000000000000004
  ],
  "b": -0.125,
  "h": 1.7,
  "C": null
}
"""

KERNEL_TEXT = """\
{
  "format": "mcm-model",
  "version": 1,
  "type": "kernel",
  "n": 2,
  "b": 0.25,
  "h": 1.0,
  "C": 4.0,
  "kernel": {
    "kind": "rbf",
    "gamma": 0.5,
    "degree": 3,
    "coef0": 1.0
  },
  "lambda": [
    0.75,
    -2.0
  ],
  "support_vectors": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      0.3333333333333333
    ]
  ]
}
"""


OVR_TEXT = """\
{
  "format": "mcm-model",
  "version": 1,
  "type": "ovr",
  "classes": [
    "yes",
    "no"
  ],
  "members": [
    {
      "format": "mcm-model",
      "version": 1,
      "type": "linear",
      "n": 2,
      "w": [
        0.5,
        0.30000000000000004
      ],
      "b": -0.125,
      "h": 1.7,
      "C": null
    },
    {
      "format": "mcm-model",
      "version": 1,
      "type": "linear",
      "n": 2,
      "w": [
        -0.5,
        -0.30000000000000004
      ],
      "b": 0.125,
      "h": 1.7,
      "C": null
    }
  ]
}
"""


def test_model_file_text_is_pinned():
    """Key order, nested member headers and shortest float reprs."""
    hard = LinearModel(np.array([0.5, 0.1 + 0.2]), -0.125, 1.7)
    rbf = KernelModel(np.array([0.75, -2.0]), np.array([[1.0, 0.0], [0.0, 1 / 3]]),
                      0.25, 1.0, KernelSpec("rbf", gamma=0.5), 2, C=4.0)
    assert model_to_json(hard) == LINEAR_TEXT
    assert model_to_json(rbf) == KERNEL_TEXT
    assert model_to_json(OvrModel(("yes", "no"), (hard, negated(hard)))) == OVR_TEXT


def test_hard_margin_config_refuses_c_and_reloads_as_hard_margin():
    with pytest.raises(McmError, match="^variant 'hard-linear' takes no C$"):
        TrainConfig("hard-linear", C=5.0)
    X = np.array([[2.0, 0.5], [1.5, -1.0], [-1.0, 0.0], [-2.0, 1.0]])
    fit = train(X, [1, 1, -1, -1], TrainConfig("hard-linear")).model
    clone = model_from_json(model_to_json(fit))
    assert fit.C is None and clone.C is None
    assert clone.variant == "hard-linear"


def with_token(model, path, token):
    """model_to_json(model) with the number at `path` replaced by the raw
    JSON token `token`."""
    obj = json.loads(model_to_json(model))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@"
    return json.dumps(obj).replace('"@"', token)


NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999")
SOFT = LinearModel(np.array([1.0, -0.5]), 0.25, 1.5, C=2.0)
RBF = kernel_model([0.5, -0.5], [[0.0, 1.0], [1.0, 0.0]])
POLY = KernelModel(np.array([1.0]), np.array([[1.0, 2.0]]), 0.0, 1.0,
                   KernelSpec("poly", degree=2, coef0=0.5), 2, C=1.0)


@pytest.mark.parametrize("model,path", [
    pytest.param(SOFT, ("w", 1), id="linear-w"),
    pytest.param(SOFT, ("b",), id="linear-b"),
    pytest.param(SOFT, ("h",), id="linear-h"),
    pytest.param(SOFT, ("C",), id="linear-C"),
    pytest.param(RBF, ("lambda", 0), id="kernel-lambda"),
    pytest.param(RBF, ("support_vectors", 1, 0), id="kernel-support_vectors"),
    pytest.param(RBF, ("b",), id="kernel-b"),
    pytest.param(RBF, ("h",), id="kernel-h"),
    pytest.param(RBF, ("C",), id="kernel-C"),
])
def test_non_finite_model_number_is_a_parse_error(model, path):
    model_from_json(with_token(model, path, "0.5"))  # the file is valid otherwise
    for token in NON_FINITE:
        with pytest.raises(ParseError, match=f"^model: field '{path[0]}' is not finite$"):
            model_from_json(with_token(model, path, token))


@pytest.mark.parametrize("model,key", [pytest.param(RBF, "gamma", id="gamma"),
                                       pytest.param(POLY, "coef0", id="coef0"),
                                       pytest.param(POLY, "degree", id="degree")])
def test_non_finite_kernel_parameter_is_an_error(model, key):
    for token in NON_FINITE:
        with pytest.raises(McmError):
            model_from_json(with_token(model, ("kernel", key), token))


@pytest.mark.parametrize("token", ["2.7", "true", "0", "-2"])
def test_poly_degree_must_be_an_integer_of_at_least_one(token):
    with pytest.raises(McmError, match="^poly kernel requires integer degree >= 1$"):
        model_from_json(with_token(POLY, ("kernel", "degree"), token))


def test_integral_float_poly_degree_reads_as_int():
    clone = model_from_json(with_token(POLY, ("kernel", "degree"), "2.0"))
    assert clone.kernel == POLY.kernel and clone.kernel.describe() == POLY.kernel.describe()
    assert model_to_json(clone) == model_to_json(POLY)


def test_nested_ovr_member_is_a_parse_error():
    inner = json.loads(model_to_json(OvrModel(("a", "b"), (SOFT, negated(SOFT)))))
    outer = {"format": "mcm-model", "version": 1, "type": "ovr",
             "classes": ["x", "y"], "members": [inner, inner]}
    with pytest.raises(ParseError, match=r"^model\.members\[0\]: a one-versus-rest member "
                                         r"must be a linear or kernel model$"):
        model_from_json(json.dumps(outer))


@pytest.mark.parametrize("token", ["[0.0, 1.0, 1.0, 0.0]", "[[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]",
                                   "[[0.0], [1.0]]", "[[[0.0, 1.0]], [[1.0, 0.0]]]", "[[]]"],
                         ids=["flat", "rows-too-long", "rows-too-short", "nested", "empty-row"])
def test_support_vectors_must_be_rows_of_n_numbers(token):
    with pytest.raises(ParseError, match="^model: support_vectors must be a list of rows "
                                         "of length 2$"):
        model_from_json(with_token(RBF, ("support_vectors",), token))


def test_kernel_model_without_support_vectors_loads():
    empty = kernel_model([], np.zeros((0, 2)), b=-0.25)
    text = model_to_json(empty)
    assert '"support_vectors": []' in text
    clone = model_from_json(text)
    assert clone.sv_count == 0 and clone.support_vectors.shape == (0, 2)
    assert model_to_json(clone) == text


@pytest.mark.parametrize("token", ['"ab"', '["a", "a"]', '{"a": 0, "b": 1}', "null"],
                         ids=["string", "repeated", "object", "null"])
def test_ovr_classes_must_be_a_list_of_distinct_labels(token):
    bundle = OvrModel(("a", "b"), (SOFT, negated(SOFT)))
    model_from_json(with_token(bundle, ("classes",), '["a", "b"]'))  # valid otherwise
    with pytest.raises(ParseError, match="^model: field 'classes' must be a list of "
                                         "distinct labels$"):
        model_from_json(with_token(bundle, ("classes",), token))


@pytest.mark.parametrize("model", [SOFT, RBF], ids=["linear", "kernel"])
@pytest.mark.parametrize("token", ["2.7", "true", "false", '"2"'])
def test_feature_count_must_be_an_integer(model, token):
    with pytest.raises(ParseError, match="^model: field 'n' is not an integer$"):
        model_from_json(with_token(model, ("n",), token))


def test_integral_float_feature_count_reads_as_int():
    clone = model_from_json(with_token(RBF, ("n",), "2.0"))
    assert clone.n == 2 and type(clone.n) is int
    assert model_to_json(clone) == model_to_json(RBF)


@pytest.mark.parametrize("model", [SOFT, RBF], ids=["linear", "kernel"])
@pytest.mark.parametrize("token", ["-3.0", "0", "-0.0"])
def test_nonpositive_c_is_a_parse_error(model, token):
    with pytest.raises(ParseError, match="^model: field 'C' must be positive$"):
        model_from_json(with_token(model, ("C",), token))


def test_h_below_one_still_loads():
    # an uncertified solve can write h < 1; reading keeps what was written
    assert model_from_json(with_token(SOFT, ("h",), "0.5")).h == 0.5


def test_negated_flips_decisions():
    rng = np.random.default_rng(8)
    model = kernel_model(rng.normal(size=3), rng.normal(size=(3, 2)), b=0.7)
    X = rng.normal(size=(10, 2))
    assert np.array_equal(decision_many(negated(model), X), -decision_many(model, X))


def count_cross_gram(monkeypatch) -> list:
    """Replaces mcm.model.cross_gram with a counting pass-through; the
    returned list gets one entry per call."""
    calls = []

    def counting(kernel, X, Y):
        calls.append(Y.shape[0])
        return cross_gram(kernel, X, Y)

    monkeypatch.setattr(model_mod, "cross_gram", counting)
    return calls


def test_a_bundle_is_not_a_binary_model(tmp_path):
    ovr = OvrModel(("a", "b"), (SOFT, negated(SOFT)))
    with pytest.raises(McmError, match="^no decision function for OvrModel$"):
        decision_many(OvrModel(("x", "y"), (ovr, ovr)), np.zeros((1, 2)))
    with pytest.raises(McmError, match="^cannot negate OvrModel$"):
        negated(ovr)
    path = tmp_path / "m.json"
    save_model(SOFT, path)
    before = path.read_bytes()
    with pytest.raises(McmError, match="^cannot serialize str$"):
        save_model("model", path)
    assert path.read_bytes() == before  # serialized before the file is opened


def test_ovr_decision_is_stack_of_member_decisions():
    rng = np.random.default_rng(9)
    members = tuple(LinearModel(rng.normal(size=3), rng.normal(), 1.0) for _ in range(3))
    ovr = OvrModel(("x", "y", "z"), members)
    X = rng.normal(size=(25, 3))
    reference = np.vstack([decision_many(member, X) for member in members])
    assert decision_many(ovr, X).tobytes() == reference.tobytes()
    assert predict_ovr_many(ovr, X) == [ovr.class_labels[k]
                                         for k in np.argmax(reference, axis=0)]


def test_kernel_ovr_shares_cross_gram_per_support_set(monkeypatch):
    rng = np.random.default_rng(10)
    sv, other = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
    members = (kernel_model(rng.normal(size=5), sv, b=0.1, gamma=0.6),
               kernel_model(rng.normal(size=5), sv.copy(), b=-0.2, gamma=0.6),
               kernel_model(rng.normal(size=4), other, b=0.3, gamma=0.6),
               kernel_model(rng.normal(size=5), sv, b=0.0, gamma=0.9),
               kernel_model([], np.zeros((0, 2)), b=-0.5))
    ovr = OvrModel(tuple("abcde"), members)
    X = rng.normal(size=(30, 2))
    reference = np.vstack([decision_many(member, X) for member in members])
    calls = count_cross_gram(monkeypatch)
    stacked = decision_many(ovr, X)
    assert calls == [5, 4, 5]  # (rbf 0.6, sv), (rbf 0.6, other), (rbf 0.9, sv)
    assert stacked.tobytes() == reference.tobytes()


def test_two_class_kernel_ovr_one_cross_gram(monkeypatch):
    rng = np.random.default_rng(11)
    base = kernel_model(rng.normal(size=6), rng.normal(size=(6, 2)), b=0.2)
    ovr = OvrModel(("pos", "neg"), (base, negated(base)))
    clone = model_from_json(model_to_json(ovr))  # equal, not identical, arrays
    X = rng.normal(size=(40, 2))
    reference = np.vstack([decision_many(base, X), decision_many(negated(base), X)])
    calls = count_cross_gram(monkeypatch)
    labels = predict_ovr_many(clone, X)
    assert len(calls) == 1
    assert labels == ["pos" if v >= 0 else "neg" for v in reference[0]]
    assert decision_many(clone, X).tobytes() == reference.tobytes()


def test_kernel_ovr_exact_tie_picks_first_class():
    rng = np.random.default_rng(12)
    member = kernel_model(rng.normal(size=3), rng.normal(size=(3, 2)), b=0.4)
    ovr = OvrModel(("first", "second", "third"), (member, member, member))
    assert predict_ovr_many(ovr, rng.normal(size=(8, 2))) == ["first"] * 8


def test_support_vectors_must_have_shape_lam_by_n():
    with pytest.raises(McmError, match=r"^support vectors of shape \(2, 3\), "
                                       r"expected rows of 2 features$"):
        kernel_model(np.ones(3), np.arange(6.0).reshape(2, 3))
    with pytest.raises(McmError, match=r"^support vectors of shape \(4,\), "
                                       r"expected rows of 2 features$"):
        kernel_model(np.ones(2), np.arange(4.0))
    with pytest.raises(McmError, match="^3 coefficients for 2 support vectors$"):
        kernel_model(np.ones(3), np.zeros((2, 2)))
    with pytest.raises(McmError, match="^1 coefficients for 0 support vectors$"):
        kernel_model([1.0], [])
    assert kernel_model([], []).support_vectors.shape == (0, 2)


# decisions in row blocks: with CHUNK_BYTES at 1, every block has 64 rows,
# and with at most 40 support vectors and 200 rows every product stays below
# the size at which OpenBLAS starts threads

# query rows -> rows of each block
BLOCKS = {1: [1], 63: [63], 64: [64], 65: [65], 129: [64, 65], 200: [64, 64, 64, 8]}


def one_shot(model, X) -> np.ndarray:
    """The whole cross-Gram matrix (or X) times the coefficients, at once."""
    if isinstance(model, LinearModel):
        return X @ model.w + model.b
    return cross_gram(model.kernel, X, model.support_vectors) @ model.lam + model.b


def blocked(monkeypatch, model, X) -> tuple[np.ndarray, list]:
    """decision_many with 64-row blocks, and the rows of each cross_gram call."""
    rows = []

    def recording(kernel, X, Y):
        rows.append(X.shape[0])
        return cross_gram(kernel, X, Y)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "CHUNK_BYTES", 1)
        patch.setattr(model_mod, "cross_gram", recording)
        return decision_many(model, X), rows


@pytest.mark.parametrize("count, blocks", BLOCKS.items())
def test_blocks_are_multiples_of_64_rows_with_no_one_row_tail(monkeypatch, count, blocks):
    rng = np.random.default_rng(13)
    model = kernel_model(rng.normal(size=7), rng.normal(size=(7, 2)), b=0.1)
    _, rows = blocked(monkeypatch, model, rng.normal(size=(count, 2)))
    assert rows == blocks


# 2 features, and 13: heart-statlog's width
@pytest.mark.parametrize("count, features",
                         [pytest.param(count, 2, id=str(count)) for count in BLOCKS]
                         + [pytest.param(count, 13, id=f"{count}-13") for count in BLOCKS])
def test_blocked_binary_rbf_decision_has_one_shot_bits(monkeypatch, count, features):
    rng = np.random.default_rng(14)
    model = kernel_model(rng.normal(size=40), rng.normal(size=(40, features)), b=-0.3,
                         gamma=0.5, n=features)
    X = rng.normal(scale=2.0, size=(count, features))
    values, _ = blocked(monkeypatch, model, X)
    assert values.shape == (count,)
    assert values.tobytes() == one_shot(model, X).tobytes()


@pytest.mark.parametrize("count", BLOCKS)
def test_blocked_three_class_rbf_decision_has_one_shot_bits(monkeypatch, count):
    rng = np.random.default_rng(15)
    sv = [rng.normal(size=(k, 3)) for k in (40, 17, 29)]
    members = tuple(KernelModel(rng.normal(size=s.shape[0]), s, rng.normal(), 1.0,
                                KernelSpec("rbf", gamma=0.25), 3) for s in sv)
    ovr = OvrModel(("a", "b", "c"), members)
    X = rng.normal(scale=2.0, size=(count, 3))
    values, rows = blocked(monkeypatch, ovr, X)
    assert rows == [r for r in BLOCKS[count] for _ in sv]  # one call per set and block
    assert values.shape == (3, count)
    assert values.tobytes() == np.vstack([one_shot(m, X) for m in members]).tobytes()


@pytest.mark.parametrize("count", BLOCKS)
def test_blocked_linear_decision_has_one_shot_bits(monkeypatch, count):
    rng = np.random.default_rng(16)
    model = LinearModel(rng.normal(size=5), rng.normal(), 1.0, C=1.0)
    X = rng.normal(size=(count, 5))
    values, rows = blocked(monkeypatch, model, X)
    assert rows == []
    assert values.tobytes() == one_shot(model, X).tobytes()


def test_decision_memory_is_bounded_by_one_block():
    """200 support vectors over 20 000 rows, in 5 and 13 features: the whole
    cross-Gram matrix would take 32 MB, and one block's matrix and
    temporaries fit in 2 * CHUNK_BYTES."""
    for features in (5, 13):
        rng = np.random.default_rng(17)
        model = KernelModel(rng.normal(size=200), rng.normal(size=(200, features)), 0.1,
                            1.0, KernelSpec("rbf", gamma=0.5), features)
        X = rng.normal(size=(20_000, features))
        tracemalloc.start()
        try:
            values = decision_many(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * kernels.CHUNK_BYTES + values.nbytes + 2**18
