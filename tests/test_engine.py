"""The batched ensemble engine against fixed-seed numbers and the one-run path.

The literals below were recorded with the earlier engine, which sampled,
unfolded and un-flipped one repetition at a time: the committed model,
2000 shots, 20 repetitions, plan seed 2024.  Sampled counts and flip masks
must come out bit-identical, so flip-mask modes and negative-run counts
match exactly; means and stds may move only by the rounding of batched
linear algebra.
"""

import numpy as np
import pytest

from readout_rebalance.analytics import ensemble_run
from readout_rebalance.core import FlipMask, observable_base10, rng_stream
from readout_rebalance.rebalance import MeasurementPlan, run_batch, run_plan
from readout_rebalance.states import gaussian_dist, inverted_w_dist
from readout_rebalance.unfold import UnfoldConfig

SHOTS, REPS, SEED = 2000, 20, 2024

# (state, unfold method, strategy, None) -> (mean, std, flip_mask_mode, negative_runs)
# Repetition r of every cell draws from rng_stream(SEED, r); the trailing None
# keeps the cell ids as recorded (w-ibu-nominal-None, ...).
CONTRACT = [
    (("w", "matrix_inversion", "nominal", None),
     (24.839911759298552, 0.13517169425115147, None, 20)),
    (("w", "matrix_inversion", "rebalanced", None),
     (24.78103525896542, 0.12096065049823077, 31, 20)),
    (("w", "matrix_inversion", "symmetrized", None),
     (24.77240400817471, 0.11795999403997189, 31, 20)),
    (("w", "ibu", "nominal", None),
     (24.703450702430658, 0.10125966660939206, None, 0)),
    (("w", "ibu", "rebalanced", None),
     (24.777552005864518, 0.11169511289029757, 31, 0)),
    (("w", "ibu", "symmetrized", None),
     (24.67276292026555, 0.09861721524162669, 31, 0)),
    # a Gaussian near mu = 0, where pilot masks vary between repetitions
    (("gauss", "matrix_inversion", "rebalanced", None),
     (13.7941119103378, 0.058482124974714764, 12, 20)),
]


def _state(name):
    return inverted_w_dist(5) if name == "w" else gaussian_dist(-0.11, 0.1, 5)


@pytest.mark.parametrize(
    "cell, expected", CONTRACT,
    ids=["-".join(map(str, c)) for c, _ in CONTRACT],
)
def test_fixed_seed_contract(committed_response, cell, expected):
    state, method, strategy, _ = cell
    t = _state(state)
    plan = MeasurementPlan(total_shots=SHOTS, strategy=strategy,
                           unfold=UnfoldConfig(method=method), rng_seed=SEED)
    res = ensemble_run(t, committed_response, plan, observable_base10, REPS)
    mean, std, mode, negative = expected
    assert res.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert res.std == pytest.approx(std, rel=1e-12, abs=0)
    assert res.flip_mask_mode == mode
    assert res.negative_runs == negative

    # the batch equals a plain loop of one-run calls on the same streams
    values = []
    for r in range(REPS):
        hist, _ = run_plan(t, committed_response, plan, rng_stream(SEED, r))
        values.append(observable_base10(hist))
    assert res.mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
    assert res.std == pytest.approx(np.std(values, ddof=1), rel=1e-12, abs=0)


@pytest.mark.parametrize("strategy", ["nominal", "rebalanced", "symmetrized"])
def test_run_batch_columns_match_single_runs(committed_response, strategy):
    # every column of a batch is the run its stream gives alone: same mask,
    # same corrected histogram up to rounding
    t = gaussian_dist(0.0, 0.1, 5)
    plan = MeasurementPlan(total_shots=SHOTS, strategy=strategy,
                           unfold=UnfoldConfig(ibu_iterations=30), rng_seed=SEED)
    corrected, masks = run_batch(t, committed_response, plan,
                                 [rng_stream(SEED, r) for r in range(6)])
    assert corrected.shape == (32, 6)
    for r in range(6):
        hist, mask = run_plan(t, committed_response, plan, rng_stream(SEED, r))
        np.testing.assert_allclose(corrected[:, r], hist.counts, rtol=1e-12, atol=1e-9)
        if strategy == "nominal":
            assert masks is None and mask is None
        else:
            assert mask == FlipMask(5, int(masks[r]))
    if strategy == "symmetrized":
        assert np.all(masks == 31)
