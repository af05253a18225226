"""Property test of the vectorized ratio test, which reads only the rows
where the entering column is positive, against the full-length loop
reference in oracles.py.  Skipped when hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mcm import lp  # noqa: E402

import oracles  # noqa: E402

# the same examples on every run, and no example database
derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# entries that make ties: equal ratios, ratios 1e-10 apart (inside the
# Harris window, outside Bland's), entries at the pivot tolerance, negative
# and non-finite ones
COLUMN = [-1.0, 0.0, 1e-10, 2e-10, 0.5, 1.0, 2.0, 4.0, np.nan]
RHS = [0.0, -0.0, -1e-12, -1.0, 0.5, 1.0, 1.0 + 1e-10, 2.0, 2.0 + 2e-10, np.nan, np.inf]


@st.composite
def ratio_cases(draw):
    m = draw(st.integers(1, 8))
    n_orig = draw(st.integers(1, 4))
    free_cols = sorted(draw(st.sets(st.integers(0, n_orig - 1))))
    width = n_orig + 2 * m  # originals, then slacks and artificials
    basis = draw(st.permutations(range(width)))[:m]
    sign = [draw(st.sampled_from([1.0, -1.0])) if j in free_cols else 1.0 for j in basis]
    col = draw(st.lists(st.sampled_from(COLUMN), min_size=m, max_size=m))
    rhs = draw(st.lists(st.sampled_from(RHS), min_size=m, max_size=m))
    artificial_start = draw(st.one_of(st.none(), st.integers(n_orig, width)))
    return col, rhs, basis, sign, free_cols, n_orig, draw(st.booleans()), artificial_start


@derandomized
@given(case=ratio_cases())
# ties inside the Harris window: the larger pivot element wins
@example(case=([1.0, 2.0, 1.0], [1.0, 2.0 + 2e-10, 3.0], [3, 4, 5], [1.0] * 3, [], 3,
               False, None))
# the same tie with the second row's basic variable artificial, then the first's
@example(case=([1.0, 2.0, 1.0], [1.0, 2.0 + 2e-10, 3.0], [3, 6, 5], [1.0] * 3, [], 3,
               False, 6))
@example(case=([1.0, 2.0, 1.0], [1.0, 2.0 + 2e-10, 3.0], [6, 3, 5], [1.0] * 3, [], 3,
               False, 6))
# Bland's tie: the negative direction of free column 0 (split index 3) comes
# before slack 3 (split index 4), though its row comes second
@example(case=([1.0, 1.0], [1.0, 1.0], [3, 0], [1.0, -1.0], [0], 3, True, None))
# no positive entry
@example(case=([-1.0, 0.0, 1e-10], [1.0, 1.0, 1.0], [0, 1, 2], [1.0] * 3, [], 3, False, None))
# NaN and inf in the rhs
@example(case=([1.0, 1.0], [np.nan, 1.0], [0, 1], [1.0] * 2, [], 2, False, None))
@example(case=([1.0, 1.0], [np.inf, np.inf], [0, 1], [1.0] * 2, [], 2, True, None))
@example(case=([1.0, 1.0], [np.inf, 1.0], [0, 1], [1.0] * 2, [], 2, False, None))
def test_ratio_test_matches_the_full_length_reference(case):
    col, rhs, basis, sign, free_cols, n_orig, bland, artificial_start = case
    m = len(rhs)
    T = np.zeros((m, n_orig + 2 * m + 1))
    T[:, -1] = rhs
    tab = lp._Tableau(T, (T[:, :-1].copy(), T[:, -1].copy()), np.array(basis),
                      np.array(sign), np.array(free_cols, dtype=int), n_orig)
    col = np.array(col)
    expected = oracles.ratio_test_full_length(tab, col, bland, artificial_start)
    assert lp._ratio_test(tab, col, bland, artificial_start) == expected
