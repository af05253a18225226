import itertools
import tracemalloc

import numpy as np
import pytest

from mcm import kernels
from mcm.errors import McmError
from mcm.kernels import RBF, KernelSpec, cross_gram, gram

import oracles


def test_rbf_self_evaluation_is_one():
    spec = KernelSpec("rbf", gamma=2.5)
    for p in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
        assert oracles.kernel_eval(spec, p, p) == 1.0


def test_linear_orthogonal_vectors():
    spec = KernelSpec("linear")
    assert oracles.kernel_eval(spec, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_rbf_known_value():
    spec = KernelSpec("rbf", gamma=0.5)
    value = oracles.kernel_eval(spec, [0.0, 0.0], [2.0, 0.0])
    assert value == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_poly_known_value():
    spec = KernelSpec("poly", degree=2, coef0=1.0)
    # (1*2 + 0 + 1)^2 = 9
    assert oracles.kernel_eval(spec, [1.0, 0.0], [2.0, 3.0]) == pytest.approx(9.0)


def test_eval_dimension_mismatch():
    with pytest.raises(McmError, match=r"^kernel arguments of length \(1,\) vs \(2,\)$"):
        oracles.kernel_eval(KernelSpec("linear"), [1.0], [1.0, 2.0])


def test_kernel_spec_validation():
    with pytest.raises(McmError):
        KernelSpec("rbf")  # gamma missing
    with pytest.raises(McmError):
        KernelSpec("rbf", gamma=-1.0)
    with pytest.raises(McmError):
        KernelSpec("poly", degree=0)
    for degree in (float("inf"), float("nan")):
        with pytest.raises(McmError, match="^kernel degree must be finite$"):
            KernelSpec("poly", degree=degree)
    for degree in (2.5, True, False):
        with pytest.raises(McmError, match="^poly kernel requires integer degree >= 1$"):
            KernelSpec("poly", degree=degree)
    with pytest.raises(McmError):
        KernelSpec("sigmoid")


def test_gram_single_sample():
    K = gram(KernelSpec("linear"), np.array([[2.0, 3.0]]))
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(13.0)


def test_gram_linear_identity_samples():
    K = gram(KernelSpec("linear"), np.eye(4))
    assert np.array_equal(K, np.eye(4))


def test_gram_linear_orthogonal_centered_samples_is_diagonal():
    X = np.array([[1.0, -1.0, 0.0, 0.0],     # zero-mean, mutually orthogonal rows
                  [1.0, 1.0, -1.0, -1.0],
                  [0.0, 0.0, 1.0, -1.0]])
    K = gram(KernelSpec("linear"), X)
    off_diagonal = K - np.diag(np.diag(K))
    assert np.all(off_diagonal == 0.0)


def test_gram_matches_scalar_eval():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 3))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7),
                 KernelSpec("poly", degree=3, coef0=0.5)):
        K = gram(spec, X)
        for i in range(5):
            for j in range(5):
                assert K[i, j] == pytest.approx(
                    oracles.kernel_eval(spec, X[i], X[j]), abs=1e-14)


def test_gram_symmetry_and_rbf_range():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 4))
    K = gram(KernelSpec(RBF, gamma=1.3), X)
    assert np.array_equal(K, K.T)  # exact: the squares add in one order
    assert np.all(np.diag(K) == 1.0)
    assert np.all(K > 0.0) and np.all(K <= 1.0)


def test_gram_is_pure():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 2))
    spec = KernelSpec(RBF, gamma=0.9)
    first = gram(spec, X)
    second = gram(spec, X)
    assert first.tobytes() == second.tobytes()


def test_cross_gram_rectangular():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    K = cross_gram(KernelSpec(RBF, gamma=0.4), X, Y)
    assert K.shape == (4, 3)
    assert K[2, 1] == pytest.approx(
        oracles.kernel_eval(KernelSpec(RBF, gamma=0.4), X[2], Y[1]), abs=1e-14)
    with pytest.raises(McmError, match="^samples with 2 features against 5$"):
        cross_gram(KernelSpec("linear"), X, rng.normal(size=(3, 5)))


SMALL_CHUNK = 4096  # bytes, times n // 12 from 24 features on: a few rows per chunk


# below 8 features, where the sequential sum has the broadcast's bits, and
# from 8, where numpy sums the broadcast pairwise, to 257
@pytest.mark.parametrize("n", [3, 12, 1, 7, 8, 9, 16, 17, 129, 200, 257])
@pytest.mark.parametrize("rows", ["one", "chunk", "chunk+1", "several", "empty", "wide"])
def test_chunked_rbf_matches_broadcast_bits(rows, n, monkeypatch):
    chunk = SMALL_CHUNK * max(1, n // 12)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", chunk)
    rng = np.random.default_rng(11)
    if rows == "wide":  # one row of the temporaries overflows a chunk
        columns = next(c for c in itertools.count(1) if kernels.chunk_rows(c, n) == 1)
        Y = rng.normal(size=(columns, n))
        m = 5
    else:
        Y = rng.normal(size=(7, n))
        step = kernels.chunk_rows(Y.shape[0], n)
        assert 1 < step < 80
        m = {"one": 1, "chunk": step, "chunk+1": step + 1, "several": 3 * step + 2,
             "empty": 0}[rows]
    X = rng.normal(size=(m, n))
    K = cross_gram(KernelSpec(RBF, gamma=0.7), X, Y)
    assert K.shape == (m, Y.shape[0])
    assert K.tobytes() == oracles.rbf_sequential(0.7, X, Y).tobytes()


def test_zero_feature_rbf_is_all_ones():
    X, Y = np.zeros((4, 0)), np.zeros((3, 0))
    K = cross_gram(KernelSpec(RBF, gamma=0.7), X, Y)
    assert K.shape == (4, 3) and np.all(K == 1.0)
    assert K.tobytes() == oracles.rbf_sequential(0.7, X, Y).tobytes()


def test_rbf_at_module_chunk_size_matches_broadcast_bits():
    rng = np.random.default_rng(13)
    Y = rng.normal(size=(200, 3))
    X = rng.normal(size=(kernels.chunk_rows(200, 3) + 1, 3))  # two real chunks
    K = cross_gram(KernelSpec(RBF, gamma=0.5), X, Y)
    assert K.tobytes() == oracles.rbf_sequential(0.5, X, Y).tobytes()


@pytest.mark.parametrize("n", range(8))
def test_rbf_below_8_features_keeps_the_broadcast_bits(n, monkeypatch):
    # every benchmark workload and CI fixture has 2 or 5 features
    monkeypatch.setattr(kernels, "CHUNK_BYTES", SMALL_CHUNK)
    rng = np.random.default_rng(17)
    X, Y = rng.normal(size=(90, n)), rng.normal(size=(9, n))
    assert n == 0 or kernels.chunk_rows(9, n) < 90  # no temporary at 0 features
    K = cross_gram(KernelSpec(RBF, gamma=0.7), X, Y)
    assert K.tobytes() == oracles.rbf_broadcast(0.7, X, Y).tobytes()


@pytest.mark.parametrize("n", [8, 9, 16, 17, 129, 200, 257])
def test_sequential_squares_are_near_the_broadcast(n):
    rng = np.random.default_rng(18)
    X, Y = rng.normal(size=(40, n)), rng.normal(size=(30, n))
    sequential = oracles.squares_sequential(X, Y)
    broadcast = oracles.squares_broadcast(X, Y)
    assert np.all(np.abs(sequential - broadcast) <= 2e-15 * broadcast)


def test_chunked_gram_symmetric_with_unit_diagonal(monkeypatch):
    monkeypatch.setattr(kernels, "CHUNK_BYTES", SMALL_CHUNK)
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 12))
    assert kernels.chunk_rows(60, 12) < 60
    K = gram(KernelSpec(RBF, gamma=0.2), X)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)
    full = oracles.rbf_sequential(0.2, X, X)
    assert np.triu(K, 1).tobytes() == np.triu(full, 1).tobytes()


def test_huge_rbf_gamma_gives_the_limit_without_a_warning():
    # -gamma * d^2 overflows to -inf off the matching rows, and exp(-inf) = 0
    X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
    K = cross_gram(KernelSpec("rbf", gamma=1e308), X, X[[2, 0]])
    assert np.array_equal(K, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])


def test_chunk_bound_from_shapes():
    # 10^4 query rows against 10^3 support vectors in 100 features would
    # need an 8 GB one-shot difference; a chunk holds a term per support
    # vector, plus its transposed features, within the bound
    columns, features = 1000, 100
    step = kernels.chunk_rows(columns, features)
    per_row = (columns + features) * 8
    assert step * per_row <= kernels.CHUNK_BYTES < (step + 1) * per_row
    assert -(-10_000 // step) * step >= 10_000
    assert kernels.chunk_rows(10**6, 100) == 1  # a row wider than the bound
    assert kernels.chunk_rows(0, 5) >= 1 and kernels.chunk_rows(5, 0) >= 1  # no zero step


def test_chunked_rbf_peak_memory(monkeypatch):
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 64 * 1024)
    rng = np.random.default_rng(15)
    # 8: the fewest features numpy's broadcast sums pairwise; 300: more
    # features than a chunk has rows
    for n, columns in ((10, 100), (8, 100), (300, 20)):
        X, Y = rng.normal(size=(2000, n)), rng.normal(size=(columns, n))
        out_bytes = 2000 * columns * 8  # the broadcast temporary would be n times this
        tracemalloc.start()
        try:
            cross_gram(KernelSpec(RBF, gamma=0.5), X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out_bytes + 4 * kernels.CHUNK_BYTES


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("poly", degree=3, coef0=0.0),
                                  KernelSpec(RBF, gamma=0.5)], ids=["linear", "poly", "rbf"])
def test_gram_mirror_has_the_bits_of_the_triangle_sum(spec):
    # p.q = -1.5e-200 underflows to -0.0 when cubed: the sum of the triangles
    # reads it as +0.0, in both triangles
    X = np.array([[1e-200, 0.0], [-1e-200, -0.0], [0.5, -2.0], [1.5, 0.25], [-1.0, 3.0]])
    if spec.kind == "poly":
        entries = cross_gram(spec, X, X)
        assert np.signbit(np.triu(entries, 1)[entries == 0.0]).any()
    # the same rows F-ordered and as a strided view, and a larger random X
    strided = np.repeat(X, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous and np.array_equal(strided, X)
    random = np.random.default_rng(17).normal(size=(200, 5))
    for samples in (X, np.asfortranarray(X), strided, random):
        entries = cross_gram(spec, samples, samples)
        expected = np.triu(entries) + np.triu(entries, 1).T
        if spec.kind == RBF:
            np.fill_diagonal(expected, 1.0)
        assert gram(spec, samples).tobytes() == expected.tobytes()


def test_gram_peak_memory_is_the_matrix_and_one_chunk():
    X = np.random.default_rng(16).normal(size=(1000, 5))
    tracemalloc.start()
    try:
        gram(KernelSpec(RBF, gamma=0.5), X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the triangle sum held three more M x M temporaries (23.8 MiB here)
    assert peak < 8 * 1000 * 1000 + 2 * kernels.CHUNK_BYTES
