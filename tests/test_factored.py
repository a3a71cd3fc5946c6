"""The Kronecker-factored path of tensor-product response matrices.

From 7 qubits a tensor model, a matrix built from its per-qubit pairs, is
unfolded through a high-qubit and a low-qubit factor built from those pairs.
Its results are held to dense references written here, not to the package's
dense path; its draws are held to those of the dense fold ``R @ p``.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from readout_rebalance import noise
from readout_rebalance.core import (
    NumericalError, ProbDist, QubitNoiseParams, rng_stream, xor_permute,
)
from readout_rebalance.harness import ExperimentConfig, run_experiment
from readout_rebalance.noise import (
    ResponseMatrix, _kron_apply, build_tensor_response, estimate_response, load_response,
    sample_measured, save_response,
)
from readout_rebalance.rebalance import STRATEGIES
from readout_rebalance.states import inverted_w_dist
from readout_rebalance.unfold import condition_report, ibu_unfold, matrix_inverse_unfold

from conftest import make_response

EPS01 = [0.002 + 0.0003 * i for i in range(11)]
EPS10 = [0.065 + 0.002 * i for i in range(11)]


def assert_dense(R):
    """R is its own single factor, the entries themselves."""
    assert len(R.kron_factors) == 1
    assert R.kron_factors[0] is R.entries


def loaded(R, path):
    """R written by ``save_response`` and read back by ``load_response``."""
    save_response(R, path)
    return load_response(path)


# every way a matrix is made, from a path it may write and read back
MATRIX_KINDS = {
    "dense": lambda path: ResponseMatrix(make_response(EPS01[:3], EPS10[:3]).entries),
    "estimate": lambda path: estimate_response(make_response(EPS01[:3], EPS10[:3]), 100, 5),
    "entries file": lambda path: loaded(ResponseMatrix(np.eye(4)), path),
    **{f"tensor {n}q": (lambda path, n=n: make_response(EPS01[:n], EPS10[:n]))
       for n in range(1, 12)},
    "pairs file": lambda path: loaded(make_response(EPS01[:8], EPS10[:8]), path),
}


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_every_matrix_holds_its_factors_from_construction(tmp_path, kind):
    # no kind decides on first read which factors it has
    R = MATRIX_KINDS[kind](tmp_path / "cal.json")
    assert "kron_factors" in vars(R)
    assert R.dim == math.prod(len(f) for f in R.kron_factors)
    if R.qubit_params is None:
        assert_dense(R)


def column_stochastic(off):
    """``off`` plus ``len(off)`` on the diagonal, each column scaled to sum to
    one: the diagonal holds at least half, as in a readout matrix."""
    m = off + len(off) * np.eye(len(off))
    return m / m.sum(axis=0)


@pytest.mark.parametrize("n", [7, 8, 9, 11])
def test_tensor_model_read_back_from_a_file_is_factored(tmp_path, n):
    # built, or read back on the calibrate, then run --calibration-file
    # route, a model's factors are its half-models' matrices bit for bit
    R = make_response(EPS01[:n], EPS10[:n])
    path = tmp_path / "cal.json"
    save_response(R, path)
    low = n // 2
    for hi, lo in (R.kron_factors, load_response(path).kron_factors):
        assert np.array_equal(hi, make_response(EPS01[low:n], EPS10[low:n]).entries)
        assert np.array_equal(lo, make_response(EPS01[:low], EPS10[:low]).entries)


def fold(params):
    """The left fold of the qubits' 2x2 channels, the last qubit outermost:
    how a tensor model's dense entries have always been built."""
    channels = [np.array([[1 - p.eps01, p.eps10], [p.eps01, 1 - p.eps10]]) for p in params]
    return reduce(np.kron, channels[::-1])


def check_tensor_model(params):
    R = build_tensor_response(params)
    n = len(params)
    assert (R.dim, R.n_qubits) == (2 ** n, n)
    # neither the width nor the factors formed the dense matrix
    assert "entries" not in vars(R)
    half = n // 2
    expected = (fold(params),) if n < 7 else (fold(params[half:]), fold(params[:half]))
    assert [f.tobytes() for f in R.kron_factors] == [f.tobytes() for f in expected]
    entries = R.entries
    assert entries.tobytes() == fold(params).tobytes()
    assert R.entries is entries and not entries.flags.writeable
    # in [0, 1] with columns summing to 1 within a few ulp, which the dense
    # checks a tensor model skips would accept
    ResponseMatrix(entries)
    assert np.abs(entries.sum(axis=0) - 1).max() <= 8 * n * np.finfo(float).eps


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.builds(QubitNoiseParams, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    min_size=n, max_size=n,
)))
def test_tensor_model_forms_the_fold_of_its_pairs_on_first_read(params):
    check_tensor_model(params)


def test_eleven_qubit_tensor_model_forms_the_fold_of_its_pairs_on_first_read():
    check_tensor_model([QubitNoiseParams(a, b) for a, b in zip(EPS01, EPS10)])


@pytest.mark.parametrize("unfold_method", ["ibu", "matrix_inversion"])
@pytest.mark.parametrize("source", ["calibration_file", "eps"])
def test_run_path_forms_no_dense_tensor_matrix(tmp_path, monkeypatch, unfold_method, source):
    # an 8-qubit model, read back from its pairs file or built from flags,
    # runs every strategy folding no more than one 4-qubit half at a time
    if source == "calibration_file":
        save_response(make_response(EPS01[:8], EPS10[:8]), tmp_path / "cal.json")
        model = {"calibration_file": str(tmp_path / "cal.json")}
    else:
        model = {"eps01": EPS01[:8], "eps10": EPS10[:8]}
    widths, channels = [], noise._kron_channels
    monkeypatch.setattr(noise, "_kron_channels", lambda p: widths.append(len(p)) or channels(p))
    config = ExperimentConfig(
        **model, shots=2000, repetitions=4, strategies=list(STRATEGIES),
        unfold_method=unfold_method, ibu_iterations=5,
    )
    results, _ = run_experiment(config)
    assert len(results) == len(STRATEGIES)
    assert widths == [4, 4]


@pytest.mark.parametrize("scale", [1.0, 1 + 1e-7])
def test_kron_factors_are_read_only(scale):
    # the factors are kept with the matrix, so a write into one would reach
    # every later unfold; a rescaled model has no qubit pairs and is its own
    # one factor, frozen like its entries
    R = make_response(EPS01[:8], EPS10[:8])
    if scale != 1.0:
        R = ResponseMatrix(R.entries * scale, column_sum_atol=1e-6)
    # so are the factors' kept inverses
    assert len(R.inverse_factors) == len(R.kron_factors) == (2 if scale == 1.0 else 1)
    for factor in R.kron_factors + R.inverse_factors:
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 0.5


def test_matrices_off_the_product_are_not_factored():
    R = make_response(EPS01[:8], EPS10[:8])
    # a finite-shot estimate, of the model or of one whose columns miss 1
    assert_dense(estimate_response(R, 10 ** 6, 3))
    rescaled = ResponseMatrix(R.entries * (1 + 1e-7), column_sum_atol=1e-6)
    assert_dense(estimate_response(rescaled, 10 ** 6, 3))
    # and a model with 1e-13 moved between two entries of one column
    entries = R.entries.copy()
    entries[[0, 1], 37] += [1e-13, -1e-13]
    assert_dense(ResponseMatrix(entries))


def test_products_without_qubit_pairs_are_dense():
    # the factors come from how R was built, not from its entries: a tensor
    # model's entries alone, and a product of two dense column-stochastic
    # factors, unfold densely
    assert_dense(ResponseMatrix(make_response(EPS01[:8], EPS10[:8]).entries))
    A, B = column_stochastic(np.full((16, 16), 1e-8)), column_stochastic(np.full((16, 16), 1e-2))
    assert_dense(ResponseMatrix(np.kron(A, B)))


@pytest.mark.parametrize("n", range(1, 7))
def test_narrow_tensor_models_stay_dense(n, committed_response):
    assert_dense(committed_response)
    assert_dense(make_response(EPS01[:n], EPS10[:n]))


def test_factored_inversion_refuses_a_singular_qubit():
    # qubit 5 reads out at random: eps01 + eps10 = 1
    R = make_response(EPS01[:5] + [0.3] + EPS01[6:8], EPS10[:5] + [0.7] + EPS10[6:8])
    assert len(R.kron_factors) == 2
    with pytest.raises(NumericalError):
        matrix_inverse_unfold(np.ones((256, 2)), R)


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("n", [5, 8])
def test_inversion_near_the_condition_bound_stays_accurate(n, cond):
    # qubits read out nearly at random, dense at 5 qubits and factored at 8:
    # a product with the kept inverse factors errs like a solve, by about
    # cond(R) times machine epsilon, in the residual and in each column total
    eps = (1 - cond ** (-1 / n)) / 2 * np.linspace(0.9, 1.1, n)
    R = make_response(eps, eps[::-1])
    assert len(R.kron_factors) == (1 if n == 5 else 2)
    assert cond / 2 < condition_report(R) < 2 * cond
    m = np.random.default_rng(n).integers(0, 10 ** 5, (2 ** n, 3)).astype(float)
    x = matrix_inverse_unfold(m, R)
    bound = condition_report(R) * 1e-15
    assert np.linalg.norm(R.entries @ x - m) / np.linalg.norm(m) < bound
    assert np.all(np.abs(x.sum(axis=0) - m.sum(axis=0)) / m.sum(axis=0) < bound)


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


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(factored_cases())
def test_factored_paths_match_dense_references(case):
    R, counts = case
    assert len(R.kron_factors) == 2
    assert condition_report(R) == pytest.approx(np.linalg.cond(R.entries), rel=1e-12)
    assert_close(matrix_inverse_unfold(counts, R), np.linalg.solve(R.entries, counts))
    assert_close(ibu_unfold(counts, R, 30), dense_ibu(R.entries, counts, 30))


@pytest.mark.parametrize("oracle", [np.matmul, np.linalg.solve])
@pytest.mark.parametrize("k", [None, 1, 4])
def test_kron_apply_walks_any_number_of_factors(oracle, k):
    rng = np.random.default_rng(7)
    # three factors of unequal sizes, each diagonally dominant
    factors = tuple(rng.random((d, d)) + d * np.eye(d) for d in (2, 4, 3))
    x = rng.random(24 if k is None else (24, k))
    reference = oracle(np.kron(np.kron(*factors[:2]), factors[2]), x)
    # the inverse of a Kronecker product is the product of the factors'
    # inverses, so walking those solves with the dense product
    if oracle is np.linalg.solve:
        factors = tuple(np.linalg.inv(f) for f in factors)
    actual = _kron_apply(factors, x)
    assert actual.shape == x.shape
    assert_close(actual, reference)
    # a lone factor is the plain product, bit for bit
    A = rng.random((24, 24)) + 24 * np.eye(24)
    assert np.array_equal(_kron_apply((A,), x), A @ x)


@pytest.mark.parametrize("model", ["wide_8q", 7, 9])
def test_factored_sampling_draws_what_the_dense_fold_draws(model):
    # the 8-qubit model of the wide benchmark workload, and two from EPS01/EPS10
    if model == "wide_8q":
        R = make_response(np.linspace(0.0020, 0.0036, 8), np.linspace(0.065, 0.080, 8))
    else:
        R = make_response(EPS01[:model], EPS10[:model])
    assert len(R.kron_factors) == 2
    n, dim, shots, k = R.n_qubits, R.dim, 100_000, 6
    rng = np.random.default_rng(11)
    truths = [inverted_w_dist(n), ProbDist(rng.dirichlet(np.full(dim, 0.3)))]
    for truth in truths:
        for masks in (0, dim - 1, [0, dim - 1, 5, 5, dim // 3, 0]):
            drawn = sample_measured(truth, R, shots, [rng_stream(3, j) for j in range(k)], masks)
            for j, mask in enumerate(np.broadcast_to(masks, k)):
                q = R.entries @ xor_permute(truth.probs, int(mask))
                expected = rng_stream(3, j).multinomial(shots, q / q.sum())
                assert np.array_equal(drawn[:, j], expected)
