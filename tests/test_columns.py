"""Every array function gives a ``(dim, k)`` call the k results of its
``(dim,)`` calls, and rejects counts and masks that do not fit the register.

Sampling, masks, permutations and the integer-count reductions must match
exactly; the unfolders may differ by the rounding of batched linear algebra.
"""

import numpy as np
import pytest

from readout_rebalance.core import (
    DimensionError,
    counts_in_state,
    observable_base10,
    qubit_marginals,
    rng_stream,
    xor_permute,
)
from readout_rebalance.noise import sample_measured
from readout_rebalance.rebalance import choose_flip_mask
from readout_rebalance.states import gaussian_dist
from readout_rebalance.unfold import (
    UnfoldConfig,
    apply_unfold,
    ibu_unfold,
    matrix_inverse_unfold,
)

K = 6
TRUTH = gaussian_dist(0.0, 0.3, 5)

# name -> (call on counts, masks and streams, rtol against the column calls)
CASES = {
    "sample_measured": (lambda R, c, m, s: sample_measured(TRUTH, R, 3000, s), 0),
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
    rng = np.random.default_rng(11)
    # pilot-like counts, each column's marginals spread around 0.5
    counts = rng.integers(0, 400, size=(32, K)).astype(float)
    masks = rng.integers(0, 32, size=K)
    batch = call(committed_response, counts, masks, [rng_stream(5, j) for j in range(K)])
    columns = [
        call(committed_response, counts[:, j], int(masks[j]), [rng_stream(5, j)])
        for j in range(K)
    ]
    # one stream gives a (dim, 1) sample; every other call gives (dim,) or a scalar
    expected = np.stack([np.reshape(c, np.shape(batch)[:-1]) for c in columns], axis=-1)
    assert np.shape(batch) == expected.shape
    if rtol:
        np.testing.assert_allclose(batch, expected, rtol=rtol, atol=1e-9)
    else:
        np.testing.assert_array_equal(batch, expected)


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
