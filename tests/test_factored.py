"""The Kronecker-factored path of tensor-product response matrices.

From 7 qubits a matrix that is the Kronecker product of a high-qubit and a
low-qubit factor is unfolded through the two factors.  Its results are held
to dense references written here, not to the package's dense path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from readout_rebalance.core import NumericalError
from readout_rebalance.noise import (
    ResponseMatrix, estimate_response, load_response, save_response,
)
from readout_rebalance.unfold import (
    _kron_apply, condition_report, ibu_unfold, matrix_inverse_unfold,
)

from conftest import make_response

EPS01 = [0.002 + 0.0003 * i for i in range(9)]
EPS10 = [0.065 + 0.002 * i for i in range(9)]


def assert_dense(R):
    """R is its own single factor, the entries themselves."""
    assert len(R.kron_factors) == 1
    assert R.kron_factors[0] is R.entries


def column_stochastic(off):
    """``off`` plus ``len(off)`` on the diagonal, each column scaled to sum to
    one: the diagonal holds at least half, as in a readout matrix."""
    m = off + len(off) * np.eye(len(off))
    return m / m.sum(axis=0)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_tensor_model_read_back_from_a_file_is_factored(tmp_path, n):
    # the calibrate, then run --calibration-file route
    path = tmp_path / "cal.json"
    save_response(make_response(EPS01[:n], EPS10[:n]), path)
    hi, lo = load_response(path).kron_factors
    low = n // 2
    np.testing.assert_allclose(hi, make_response(EPS01[low:n], EPS10[low:n]).entries, atol=1e-15)
    np.testing.assert_allclose(lo, make_response(EPS01[:low], EPS10[:low]).entries, atol=1e-15)


def test_matrices_off_the_product_are_not_factored():
    R = make_response(EPS01[:8], EPS10[:8])
    # finite-shot noise breaks the product structure far beyond rounding
    assert_dense(estimate_response(R, 10 ** 6, 3))
    # and so does moving 1e-13 between two entries of one column
    entries = R.entries.copy()
    entries[[0, 1], 37] += [1e-13, -1e-13]
    assert_dense(ResponseMatrix(entries))
    assert len(ResponseMatrix(R.entries).kron_factors) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_narrow_tensor_models_stay_dense(n, committed_response):
    assert_dense(committed_response)
    assert_dense(make_response(EPS01[:n], EPS10[:n]))


@pytest.mark.parametrize("n, a, b", [(8, 1e-8, 1e-2), (9, 1e-4, 1e-2), (11, 1e-8, 1e-3)])
def test_products_of_dense_factors_are_factored(n, a, b):
    # columns of equal off-diagonal entries round the most in the marginal
    # sums: np.kron of the found factors rebuilds these to 17, 29 and 48 eps
    high, low = 2 ** ((n + 1) // 2), 2 ** (n // 2)
    A, B = column_stochastic(np.full((high, high), a)), column_stochastic(np.full((low, low), b))
    R = ResponseMatrix(np.kron(A, B))
    assert len(R.kron_factors) == 2
    for found, expected in zip(R.kron_factors, (A, B)):
        np.testing.assert_allclose(found, expected, rtol=1e-13)


def test_factored_inversion_refuses_a_singular_qubit():
    # qubit 5 reads out at random: eps01 + eps10 = 1
    R = make_response(EPS01[:5] + [0.3] + EPS01[6:8], EPS10[:5] + [0.7] + EPS10[6:8])
    assert len(R.kron_factors) == 2
    with pytest.raises(NumericalError):
        matrix_inverse_unfold(np.ones((256, 2)), R)


def dense_ibu(R, counts, iterations):
    t = np.ones_like(counts) * (counts.sum(axis=0) / len(counts))
    for _ in range(iterations):
        folded = R @ t
        ratio = np.divide(counts, folded, out=np.zeros_like(t), where=folded > 0)
        t = t * (R.T @ ratio)
    return t


def assert_close(actual, reference, rtol=1e-12):
    assert np.abs(actual - reference).max() <= rtol * np.abs(reference).max()


@st.composite
def factored_cases(draw):
    n = draw(st.integers(7, 9))
    eps = st.floats(0.0, 0.2)
    params = draw(st.lists(st.tuples(eps, eps), min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    counts = draw(arrays(np.float64, (2 ** n, k), elements=st.integers(0, 10 ** 5)))
    counts[0] += 1  # every column needs a positive total
    return make_response(*zip(*params)), counts


@st.composite
def kron_cases(draw):
    """``np.kron(A, B)`` of two column-stochastic matrices that no per-qubit
    model spans: qubit errors correlated within each half."""
    n = draw(st.integers(7, 9))
    A, B = (
        column_stochastic(draw(arrays(np.float64, (d, d), elements=st.floats(0.0, 1.0))))
        for d in (2 ** ((n + 1) // 2), 2 ** (n // 2))
    )
    k = draw(st.integers(1, 3))
    counts = draw(arrays(np.float64, (2 ** n, k), elements=st.integers(0, 10 ** 5)))
    counts[0] += 1  # every column needs a positive total
    return ResponseMatrix(np.kron(A, B)), counts


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.one_of(factored_cases(), kron_cases()))
def test_factored_paths_match_dense_references(case):
    R, counts = case
    assert len(R.kron_factors) == 2
    assert condition_report(R) == pytest.approx(np.linalg.cond(R.entries), rel=1e-12)
    assert_close(matrix_inverse_unfold(counts, R), np.linalg.solve(R.entries, counts))
    assert_close(ibu_unfold(counts, R, 30), dense_ibu(R.entries, counts, 30))


@pytest.mark.parametrize("scale", [1 + 1e-11, 1 - 1e-11, 1 + 1e-7])
def test_products_whose_columns_miss_one_are_factored(scale):
    # within the column-sum tolerances (1e-9, 1e-6 on load), each marginal
    # carries the other factor's column sum, so only the rescaled pair fits
    entries = make_response(EPS01[:8], EPS10[:8]).entries * scale
    R = ResponseMatrix(entries, column_sum_atol=1e-6)
    assert len(R.kron_factors) == 2
    counts = np.random.default_rng(5).integers(0, 10 ** 4, (256, 3)).astype(float)
    assert condition_report(R) == pytest.approx(np.linalg.cond(entries), rel=1e-12)
    assert_close(matrix_inverse_unfold(counts, R), np.linalg.solve(entries, counts))
    assert_close(ibu_unfold(counts, R, 30), dense_ibu(entries, counts, 30))
    # a finite-shot estimate is no product, rescaled or not
    assert_dense(estimate_response(R, 10 ** 6, 3))


@pytest.mark.parametrize("op", [np.matmul, np.linalg.solve])
@pytest.mark.parametrize("k", [None, 1, 4])
def test_kron_apply_walks_any_number_of_factors(op, k):
    rng = np.random.default_rng(7)
    # three factors of unequal sizes, each diagonally dominant
    factors = tuple(rng.random((d, d)) + d * np.eye(d) for d in (2, 4, 3))
    x = rng.random(24 if k is None else (24, k))
    reference = op(np.kron(np.kron(*factors[:2]), factors[2]), x)
    actual = _kron_apply(op, factors, x)
    assert actual.shape == x.shape
    assert_close(actual, reference)
