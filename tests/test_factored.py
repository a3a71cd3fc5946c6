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
from readout_rebalance.unfold import condition_report, ibu_unfold, matrix_inverse_unfold

from conftest import make_response

EPS01 = [0.002 + 0.0003 * i for i in range(9)]
EPS10 = [0.065 + 0.002 * i for i in range(9)]


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
    assert estimate_response(R, 10 ** 6, 3).kron_factors is None
    # and so does moving 1e-13 between two entries of one column
    entries = R.entries.copy()
    entries[[0, 1], 37] += [1e-13, -1e-13]
    assert ResponseMatrix(entries).kron_factors is None
    assert ResponseMatrix(R.entries).kron_factors is not None


@pytest.mark.parametrize("n", range(1, 7))
def test_narrow_tensor_models_stay_dense(n, committed_response):
    assert committed_response.kron_factors is None
    assert make_response(EPS01[:n], EPS10[:n]).kron_factors is None


def test_factored_inversion_refuses_a_singular_qubit():
    # qubit 5 reads out at random: eps01 + eps10 = 1
    R = make_response(EPS01[:5] + [0.3] + EPS01[6:8], EPS10[:5] + [0.7] + EPS10[6:8])
    assert R.kron_factors is not None
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


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(factored_cases())
def test_factored_paths_match_dense_references(case):
    R, counts = case
    assert R.kron_factors is not None
    assert condition_report(R) == pytest.approx(np.linalg.cond(R.entries), rel=1e-12)
    assert_close(matrix_inverse_unfold(counts, R), np.linalg.solve(R.entries, counts))
    assert_close(ibu_unfold(counts, R, 30), dense_ibu(R.entries, counts, 30))
