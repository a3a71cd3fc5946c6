"""Every array function gives a ``(dim, k)`` call the k results of its
``(dim,)`` calls, and rejects counts and masks that do not fit the register.

Sampling, masks, permutations and the integer-count reductions must match
exactly; the unfolders may differ by the rounding of batched linear algebra.
"""

import numpy as np
import pytest

from readout_rebalance.core import (
    DimensionError,
    ProbDist,
    QubitNoiseParams,
    ValidationError,
    counts_in_state,
    observable_base10,
    qubit_marginals,
    rng_stream,
    xor_permute,
)
from readout_rebalance.noise import build_tensor_response, sample_measured
from readout_rebalance.rebalance import STRATEGIES, MeasurementPlan, choose_flip_mask, run_plan
from readout_rebalance.states import gaussian_dist
from readout_rebalance.unfold import (
    UnfoldConfig,
    apply_unfold,
    ibu_unfold,
    matrix_inverse_unfold,
)

K = 6
TRUTH = gaussian_dist(0.0, 0.3, 5)
# from 7 qubits a tensor model unfolds through its Kronecker factors
WIDE = build_tensor_response(
    [QubitNoiseParams(0.002 + 0.0002 * i, 0.065 + 0.002 * i) for i in range(8)]
)
TRUTHS = {5: TRUTH, 8: gaussian_dist(0.0, 0.3, 8)}

# name -> (call on counts, masks and streams, rtol against the column calls)
CASES = {
    "sample_measured": (
        lambda R, c, m, s: sample_measured(TRUTHS[R.n_qubits], R, 3000, s, m), 0),
    "xor_permute": (lambda R, c, m, s: xor_permute(c, m), 0),
    "choose_flip_mask": (lambda R, c, m, s: choose_flip_mask(c), 0),
    "qubit_marginals": (lambda R, c, m, s: qubit_marginals(c), 0),
    "observable_base10": (lambda R, c, m, s: observable_base10(c), 0),
    "counts_in_state": (lambda R, c, m, s: counts_in_state(c, 7), 0),
    "apply_unfold-matrix_inversion": (
        lambda R, c, m, s: apply_unfold(c, R, UnfoldConfig("matrix_inversion")), 1e-12),
    "apply_unfold-ibu": (lambda R, c, m, s: apply_unfold(c, R, UnfoldConfig("ibu")), 1e-12),
}


@pytest.mark.parametrize("name", CASES)
def test_batch_equals_column_calls(committed_response, name):
    call, rtol = CASES[name]
    # the committed model unfolds densely, as its own single factor, the wide
    # one through two factors
    assert committed_response.kron_factors[0] is committed_response.entries
    for response, n_factors in ((committed_response, 1), (WIDE, 2)):
        assert len(response.kron_factors) == n_factors
        rng = np.random.default_rng(11)
        # pilot-like counts, each column's marginals spread around 0.5
        counts = rng.integers(0, 400, size=(response.dim, K)).astype(float)
        masks = rng.integers(0, response.dim, size=K)
        batch = call(response, counts, masks, [rng_stream(5, j) for j in range(K)])
        columns = [
            call(response, counts[:, j], int(masks[j]), [rng_stream(5, j)])
            for j in range(K)
        ]
        # one stream gives a (dim, 1) sample; every other call gives (dim,) or a scalar
        expected = np.stack([np.reshape(c, np.shape(batch)[:-1]) for c in columns], axis=-1)
        assert np.shape(batch) == expected.shape
        if rtol:
            np.testing.assert_allclose(batch, expected, rtol=rtol, atol=1e-9)
        else:
            np.testing.assert_array_equal(batch, expected)


def test_sample_measured_column_j_draws_the_truth_flipped_by_mask_j(committed_response):
    # repeated masks share one fold; every column is the plain draw of its
    # flipped truth from its own stream
    masks = np.array([0, 5, 31, 5, 0, 12])
    streams = [rng_stream(5, j) for j in range(K)]
    batch = sample_measured(TRUTH, committed_response, 3000, streams, masks)
    columns = [
        sample_measured(ProbDist(xor_permute(TRUTH.probs, int(mask))), committed_response,
                        3000, [rng_stream(5, j)])[:, 0]
        for j, mask in enumerate(masks)
    ]
    np.testing.assert_array_equal(batch, np.stack(columns, axis=-1))


@pytest.mark.parametrize(
    "masks, error",
    [
        ([0, 1], DimensionError),
        ([[0, 1, 2]], DimensionError),
        (1.0, ValidationError),
        ([0, 1.5, 2], ValidationError),
        (32, DimensionError),
        ([0, -1, 1], DimensionError),
    ],
    ids=["count-mismatch", "matrix", "float", "float-column", "out-of-range", "negative"],
)
def test_sample_measured_refuses_masks_that_do_not_fit(committed_response, masks, error):
    streams = [rng_stream(5, j) for j in range(3)]
    with pytest.raises(error) as raised:
        sample_measured(TRUTH, committed_response, 10, streams, masks)
    assert raised.type is error


UNFOLDERS = {
    "apply_unfold-matrix_inversion":
        lambda R, c: apply_unfold(c, R, UnfoldConfig("matrix_inversion")),
    "apply_unfold-ibu": lambda R, c: apply_unfold(c, R, UnfoldConfig("ibu")),
    "matrix_inverse_unfold": lambda R, c: matrix_inverse_unfold(c, R),
    "ibu_unfold": lambda R, c: ibu_unfold(c, R),
}
REGISTER = {
    "qubit_marginals": lambda R, c: qubit_marginals(c),
    "choose_flip_mask": lambda R, c: choose_flip_mask(c),
    "observable_base10": lambda R, c: observable_base10(c),
    "counts_in_state": lambda R, c: counts_in_state(c, 0),
    "xor_permute": lambda R, c: xor_permute(c, 0),
}


@pytest.mark.parametrize("shape", [(1,), (31,), (48, 2), (32, 2, 2)])
@pytest.mark.parametrize("name", [*UNFOLDERS, *REGISTER])
def test_counts_of_the_wrong_shape_raise(committed_response, name, shape):
    call = {**UNFOLDERS, **REGISTER}[name]
    with pytest.raises(DimensionError):
        call(committed_response, np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", [*UNFOLDERS, "qubit_marginals", "choose_flip_mask",
                                  "observable_base10"])
def test_non_finite_counts_are_refused(committed_response, name, bad):
    call = {**UNFOLDERS, **REGISTER}[name]
    counts = np.ones((32, 3))
    counts[7, 1] = bad
    with pytest.raises(ValidationError, match=r"counts must be finite, got .* at index \(7, 1\)"):
        call(committed_response, counts)
    with pytest.raises(ValidationError, match="finite"):
        call(committed_response, counts[:, 1])


@pytest.mark.parametrize("name", UNFOLDERS)
def test_unfolders_need_the_response_width(committed_response, name):
    # 16 states is a whole register, but not the 5-qubit one of the matrix
    with pytest.raises(DimensionError):
        UNFOLDERS[name](committed_response, np.ones((16, 3)))


def test_out_of_range_masks_raise():
    counts = np.ones((8, 3))
    for masks in (8, -1, [0, 8, 1], [0, -1, 1]):
        with pytest.raises(DimensionError):
            xor_permute(counts, masks)
    with pytest.raises(DimensionError):
        counts_in_state(counts, 8)


@pytest.mark.parametrize("name", UNFOLDERS)
def test_unfolders_take_zero_columns(committed_response, name):
    # no histograms unfold to no histograms, dense and factored alike
    for response in (committed_response, WIDE):
        unfolded = UNFOLDERS[name](response, np.zeros((response.dim, 0)))
        assert unfolded.shape == (response.dim, 0)


@pytest.mark.parametrize("method", ["matrix_inversion", "ibu"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_plan_of_no_repetitions(committed_response, strategy, method):
    plan = MeasurementPlan(1000, strategy, unfold=UnfoldConfig(method))
    for response in (committed_response, WIDE):
        corrected, masks = run_plan(TRUTHS[response.n_qubits], response, plan, [])
        assert corrected.shape == (response.dim, 0)
        assert masks is None if strategy == "nominal" else masks.shape == (0,)
