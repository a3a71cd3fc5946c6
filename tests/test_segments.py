"""The un-flip of readout segments: each segment by its own mask, then summed.

``run_plan`` unfolds every segment of every run in one batch, un-flips each
segment by its own mask through ``xor_permute`` and sums the segments.  The
references here are the stacked path it replaced: one permute with a mask
per column of all the segments side by side, then a reshape-sum.  Both must
agree bit for bit, ``xor_permute`` must refuse exactly the masks it always
refused, and a cell must stay within the memory that
``analytics._MAX_CELL_BYTES`` is sized by.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from readout_rebalance.core import (
    DimensionError, ProbDist, QubitNoiseParams, _generators, xor_permute,
)
from readout_rebalance.noise import ResponseMatrix, _kron_apply, build_tensor_response
from readout_rebalance.rebalance import (
    STRATEGIES, MeasurementPlan, choose_flip_mask, run_plan, stream_words,
)
from readout_rebalance.states import gaussian_dist
from readout_rebalance.unfold import UnfoldConfig, apply_unfold

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def stacked_unflip(unfolded, flips, n_segments):
    """One gather with a mask per column over all segments, then a reshape-sum."""
    dim, width = unfolded.shape
    states = np.arange(dim)[:, None] ^ flips.astype(np.intp)
    unflipped = unfolded[states, np.arange(width)]
    return unflipped.reshape(dim, n_segments, width // n_segments).sum(axis=1)


def draw(truth, response, shots, streams, masks):
    """Each stream's multinomial draw from the fold of the truth flipped by its mask."""
    counts = np.empty((response.dim, len(streams)))
    for j, (stream, mask) in enumerate(zip(streams, masks)):
        folded = _kron_apply(response.kron_factors, truth.probs[np.arange(response.dim) ^ mask])
        counts[:, j] = stream.multinomial(shots, folded / folded.sum())
    return counts


def stacked_run_plan(truth, response, plan, repetitions):
    """``run_plan`` as it ran before segments were un-flipped one by one."""
    reps, shots = len(repetitions), plan.total_shots
    streams = _generators(stream_words([plan], repetitions)[0])
    none = np.zeros(reps, dtype=np.int64)
    if plan.strategy == "nominal":
        masks, segments = None, [(none, shots, streams[0])]
    elif plan.strategy == "symmetrized":
        masks = np.full(reps, response.dim - 1)
        segments = [(none, shots // 2, streams[0]), (masks, shots - shots // 2, streams[1])]
    else:
        pilots = draw(truth, response, plan.pilot_shots, streams[0], none)
        masks = choose_flip_mask(pilots)
        segments = [(masks, shots - plan.pilot_shots, streams[1])]
    counts = np.hstack([draw(truth, response, n, s, m) for m, n, s in segments])
    flips = np.concatenate([m for m, _, _ in segments])
    unfolded = apply_unfold(counts, response, plan.unfold)
    return stacked_unflip(unfolded, flips, len(segments)), masks


def tensor_model(eps, n):
    return build_tensor_response([QubitNoiseParams(a, b) for a, b in eps[:n]])


def dense_model(rng, n):
    # diagonally dominant columns: well conditioned, every entry positive
    entries = rng.uniform(0.0, 0.2 / 2 ** n, size=(2 ** n, 2 ** n)) + np.eye(2 ** n)
    return ResponseMatrix(entries / entries.sum(axis=0))


@pytest.mark.parametrize("kind", ["tensor", "dense"])
@pytest.mark.parametrize("method", ["matrix_inversion", "ibu"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 8),
    truth_kind=st.sampled_from(["spread", "near_half", "point"]),
    iterations=st.integers(1, 20),
    shots=st.integers(20, 5000),
    seed=st.integers(0, 2 ** 64 - 1),
    repetitions=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8),
    data=st.data(),
)
def test_run_plan_matches_the_stacked_path(strategy, method, kind, n, truth_kind, iterations,
                                           shots, seed, repetitions, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # random truths and point masses; marginals near one half make the
    # rebalanced pilots of one call choose different masks
    if truth_kind == "point":
        truth = ProbDist(np.eye(2 ** n)[rng.integers(2 ** n)])
    else:
        truth = ProbDist(rng.dirichlet(np.full(2 ** n, 0.3 if truth_kind == "spread" else 50.0)))
    eps = list(zip(rng.uniform(0.0, 0.05, 8), rng.uniform(0.0, 0.2, 8)))
    response = dense_model(rng, n) if kind == "dense" else tensor_model(eps, n)
    # a tensor model is factored from 7 qubits on
    assert len(response.kron_factors) == (2 if kind == "tensor" and n >= 7 else 1)
    plan = MeasurementPlan(shots, strategy, unfold=UnfoldConfig(method, iterations),
                           rng_seed=seed)
    corrected, masks = run_plan(truth, response, plan, repetitions)
    expected, expected_masks = stacked_run_plan(truth, response, plan, repetitions)
    assert corrected.shape == expected.shape
    assert corrected.dtype == expected.dtype
    assert corrected.tobytes() == expected.tobytes()
    if expected_masks is None:
        assert masks is None
    else:
        np.testing.assert_array_equal(masks, expected_masks)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 8),
    reps=st.integers(0, 6),
    dtype=st.sampled_from(INT_DTYPES),
    scalars=st.lists(st.booleans(), min_size=1, max_size=3),
    data=st.data(),
)
def test_segment_unflip_matches_one_stacked_permute(n, reps, dtype, scalars, data):
    # each segment's mask is one integer or one per column, of any integer dtype
    dim = 2 ** n
    unfolded = data.draw(arrays(np.float64, (dim, len(scalars) * reps),
                                elements=st.floats(-1e6, 1e6, width=64)))
    inside = st.integers(0, min(dim - 1, np.iinfo(dtype).max))
    masks = [
        dtype(data.draw(inside)) if scalar else data.draw(arrays(dtype, reps, elements=inside))
        for scalar in scalars
    ]
    corrected = xor_permute(unfolded[:, :reps], masks[0])
    for at, mask in enumerate(masks[1:], 1):
        corrected += xor_permute(unfolded[:, at * reps:(at + 1) * reps], mask)
    flips = np.concatenate([np.broadcast_to(m, reps).astype(np.uint64) for m in masks])
    expected = stacked_unflip(unfolded, flips, len(scalars))
    np.testing.assert_array_equal(corrected, expected)


def refusal(values, masks):
    """The message ``xor_permute`` refuses masks outside the register with, or None."""
    n = len(values).bit_length() - 1
    masks = np.asarray(masks)
    outside = (masks < 0) | (masks >= 2 ** n)
    if np.any(outside):
        return f"flip mask {masks[outside].flat[0]} does not fit in {n} qubits"
    return None


def mask_values(dtype, dim):
    """Masks either side of the register's bounds, and anywhere in the dtype's range."""
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    ranges = [(-2, 2), (dim - 2, dim + 2), (lo, hi)]
    return st.one_of(*[st.integers(max(a, lo), min(b, hi)) for a, b in ranges if a <= hi])


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 11),
    dtype=st.sampled_from(INT_DTYPES),
    shape=st.sampled_from([(), (0,), (1,), (5,)]),
    data=st.data(),
)
def test_xor_permute_refuses_exactly_the_masks_outside_the_register(n, dtype, shape, data):
    dim = 2 ** n
    masks = data.draw(arrays(dtype, shape, elements=mask_values(dtype, dim)))
    values = np.arange(dim * (shape[0] if shape else 3), dtype=np.float64).reshape(dim, -1)
    message = refusal(values, masks)
    if message is not None:
        with pytest.raises(DimensionError) as raised:
            xor_permute(values, masks)
        assert raised.type is DimensionError
        assert str(raised.value) == message
        return
    states = np.arange(dim)[:, None] ^ masks.astype(np.intp)
    expected = values[states[:, 0]] if masks.ndim == 0 else values[states, np.arange(masks.size)]
    np.testing.assert_array_equal(xor_permute(values, masks), expected)


# tracemalloc peaks of run_plan before segments were un-flipped one by one, in
# cells (one (256, 200) float64 array) at 8 qubits and 200 repetitions, rounded
# up to two places: (dense, strategy) -> (IBU, matrix inversion)
CELL_PEAKS = {
    (False, "nominal"): (5.40, 4.56),
    (False, "rebalanced"): (6.78, 5.95),
    (False, "symmetrized"): (10.79, 8.96),
    (True, "nominal"): (4.56, 4.56),
    (True, "rebalanced"): (5.95, 5.95),
    (True, "symmetrized"): (8.96, 8.96),
}


@pytest.mark.parametrize("dense", [False, True], ids=["factored", "dense"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cell_memory_stays_within_its_bound(dense, strategy):
    n, reps = 8, 200
    response = tensor_model([(0.002 + 0.0002 * i, 0.065 + 0.002 * i) for i in range(n)], n)
    if dense:
        response = ResponseMatrix(response.entries)
    truth, cell = gaussian_dist(0.0, 0.3, n), 8 * 2 ** n * reps
    for method, bound in zip(("ibu", "matrix_inversion"), CELL_PEAKS[dense, strategy]):
        plan = MeasurementPlan(100_000, strategy, unfold=UnfoldConfig(method))
        # a first run finds and keeps what the matrix and the package cache
        run_plan(truth, response, plan, range(reps))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_plan(truth, response, plan, range(reps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / cell <= bound, (method, (peak - before) / cell)
