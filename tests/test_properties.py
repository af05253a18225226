"""Property tests of the training programs: symmetries that any correct
solver must respect.  Flipped labels make the free weights and offset change
sign, so these also drive free variables through their negative direction.
Skipped when hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mcm import formulations, lp  # noqa: E402
from mcm.errors import HardMarginInfeasible, SolverFailure  # noqa: E402
from mcm.kernels import KernelSpec, gram  # noqa: E402

import oracles  # noqa: E402

HARD = formulations.TrainConfig("hard-linear")
SOFT = formulations.TrainConfig("soft-linear", C=1.0)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(6, 24)
dims = st.integers(1, 4)
# the same examples on every run, and no example database
derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@derandomized
@given(seed=seeds, m=sizes, d=dims, config=st.sampled_from([HARD, SOFT]))
def test_permuting_samples_keeps_the_objective(seed, m, d, config):
    X, y = oracles.blobs(seed, m, d, 8.0)
    order = np.random.default_rng(seed + 1).permutation(m)
    first = formulations.train(X, y, config)
    permuted = formulations.train(X[order], y[order], config)
    assert permuted.objective_value == pytest.approx(first.objective_value, rel=1e-7)


@derandomized
@given(seed=seeds, m=sizes, d=dims, config=st.sampled_from([HARD, SOFT]))
def test_flipping_labels_negates_the_hyperplane(seed, m, d, config):
    X, y = oracles.blobs(seed, m, d, 8.0)  # continuous data: the optimum is unique
    model = formulations.train(X, y, config).model
    flipped = formulations.train(X, -y, config).model
    assert flipped.h == pytest.approx(model.h, rel=1e-7)
    assert np.allclose(flipped.w, -model.w, rtol=1e-6, atol=1e-8)
    assert flipped.b == pytest.approx(-model.b, rel=1e-6, abs=1e-8)


@derandomized
@given(seed=seeds, m=sizes, d=dims, scale=st.floats(0.01, 100.0))
def test_scaling_features_keeps_hard_margin_h(seed, m, d, scale):
    X, y = oracles.blobs(seed, m, d, 8.0)
    h = formulations.train(X, y, HARD).model.h
    assert formulations.train(X * scale, y, HARD).model.h == pytest.approx(h, rel=1e-7)


@settings(derandomized, max_examples=15)
@given(seed=seeds, m=sizes, d=dims, which=st.integers(0, 2**16))
def test_contradictory_duplicate_defeats_hard_margin_only(seed, m, d, which):
    X, y = oracles.blobs(seed, m, d, 8.0)
    i = which % m
    X2, y2 = np.vstack([X, X[i]]), np.append(y, -y[i])
    with pytest.raises(HardMarginInfeasible):
        formulations.train(X2, y2, HARD)
    soft = formulations.train(X2, y2, SOFT)
    assert np.isfinite(soft.objective_value) and soft.model.h >= 1.0 - 1e-9


KERNELS = [KernelSpec("linear"), KernelSpec("poly", degree=2, coef0=1.0),
           KernelSpec("poly", degree=3, coef0=1.0)]


@derandomized
@given(seed=seeds, m=st.integers(6, 40), d=st.integers(2, 5),
       kernel=st.sampled_from(KERNELS))
def test_support_vectors_never_exceed_the_gram_rank(seed, m, d, kernel):
    # a basic optimum has at most rank(K) linearly independent Gram columns
    # in its basis, so at most that many nonzero coefficients
    X, y = oracles.blobs(seed, m, d, 2.0)
    config = formulations.TrainConfig("kernel", C=1.0, kernel=kernel)
    model = formulations.train(X, y, config).model
    assert model.sv_count <= np.linalg.matrix_rank(gram(kernel, X))


POLY3 = formulations.TrainConfig("kernel", C=1.0, kernel=KernelSpec("poly", degree=3, coef0=1.0))


@derandomized
@given(seed=seeds, m=sizes, d=dims,
       config=st.sampled_from([HARD, SOFT, POLY3, formulations.TrainConfig(
           "kernel", C=16.0, kernel=KernelSpec("rbf", gamma=2.0))]))
@example(seed=307, m=13, d=2, config=POLY3)  # lp.solve: OPTIMAL at 0.995
def test_an_optimal_fit_meets_the_least_feasible_objective(seed, m, d, config):
    # every feasible point has h >= y_i f(x_i) [+ q_i] >= 1, so a fit that
    # returns reports an objective of at least 1; the rest are solver failures
    X, y = oracles.blobs(seed, m, d, 8.0)
    try:
        result = formulations.train(X, y, config)
    except (HardMarginInfeasible, SolverFailure):
        return
    assert result.objective_value >= 1.0 - lp._FEAS_TOL
