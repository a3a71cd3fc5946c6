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
from readout_rebalance import rebalance
from readout_rebalance.core import (
    ProbDist, ValidationError, _generators, observable_base10, rng_stream, xor_permute,
)
from readout_rebalance.noise import sample_measured
from readout_rebalance.rebalance import MeasurementPlan, choose_flip_mask, run_plan
from readout_rebalance.states import gaussian_dist, inverted_w_dist
from readout_rebalance.unfold import UnfoldConfig, apply_unfold

SHOTS, REPS, SEED = 2000, 20, 2024
# a run-cell seed: state word 0 of numpy's seed sequence of base seed 7, row 0, strategy 1
CELL_SEED = int(np.random.SeedSequence([7, 0, 1]).generate_state(1, np.uint64)[0])
# the base-10 observable as per-state weights
BASE10 = np.arange(32.0)

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
    res = ensemble_run(t, committed_response, plan, BASE10, REPS)
    mean, std, mode, negative = expected
    assert res.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert res.std == pytest.approx(std, rel=1e-12, abs=0)
    assert res.flip_mask_mode == mode
    assert res.negative_runs == negative

    # the batch, evaluated in one product, equals a plain loop of one-run
    # calls on the same repetitions, each evaluated as a histogram
    values = []
    for r in range(REPS):
        hist, _ = run_plan(t, committed_response, plan, [r])
        values.append(observable_base10(hist[:, 0]))
    assert res.mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
    assert res.std == pytest.approx(np.std(values, ddof=1), rel=1e-12, abs=0)


@pytest.mark.parametrize("strategy", ["nominal", "rebalanced", "symmetrized"])
def test_run_batch_columns_match_single_runs(committed_response, strategy):
    # every column of a run_plan batch is the run its index gives alone:
    # same mask, same corrected histogram up to rounding, for both unfolders
    t = gaussian_dist(0.0, 0.1, 5)
    for unfold in (UnfoldConfig(ibu_iterations=30), UnfoldConfig("matrix_inversion")):
        plan = MeasurementPlan(total_shots=SHOTS, strategy=strategy,
                               unfold=unfold, rng_seed=SEED)
        corrected, masks = run_plan(t, committed_response, plan, range(6))
        assert corrected.shape == (32, 6)
        for r in range(6):
            hist, mask = run_plan(t, committed_response, plan, [r])
            np.testing.assert_allclose(corrected[:, r], hist[:, 0], rtol=1e-12, atol=1e-9)
            if strategy == "nominal":
                assert masks is None and mask is None
            else:
                assert mask.tolist() == [masks[r]]
        if strategy == "symmetrized":
            assert np.all(masks == 31)



def numpys_stream(seed, *path, spawn_key=()):
    """numpy's own generator of a seed, an index path and a spawn key: the reference."""
    return np.random.default_rng(np.random.SeedSequence([seed, *path], spawn_key=spawn_key))


@pytest.mark.parametrize("seed", [0, 2 ** 32 + 7])
def test_rng_stream_pads_the_path_with_zeros(seed):
    # numpy's seed sequence pads its entropy with zero words, so a path of one
    # 0 adds nothing; fixed-seed outputs rest on numpy's streams, so the
    # package's hash must reproduce this padding
    expected = numpys_stream(seed).random(8)
    assert np.array_equal(numpys_stream(seed, 0).random(8), expected)
    assert np.array_equal(rng_stream(seed).random(8), expected)
    assert np.array_equal(rng_stream(seed, 0).random(8), expected)


# a seed of one word at each end of its range, one of two words, a harness
# cell seed, and one of four words: with r that is more entropy than numpy's
# pool of four words holds, so the hash's last mixing loop runs for every key
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32 + 7, CELL_SEED, 2 ** 96 + 5])
@pytest.mark.parametrize("key", [(), (0,), (1,)])
def test_rng_streams_match_numpys_seed_sequence(seed, key):
    # the vectorized hash gives the state words numpy's SeedSequence gives,
    # and every stream, whether run_plan's from stream_words or rng_stream,
    # draws what numpy's own generator draws; r = 0 ends the path in a zero,
    # which SeedSequence's padding makes vanish for key ()
    indices = [0, 1, 2, 999, 2 ** 32 - 1]
    strategy = "nominal" if key == () else "rebalanced"
    [words] = rebalance.stream_words([MeasurementPlan(SHOTS, strategy, rng_seed=seed)], indices)
    [streams] = _generators(words[[key[0] if key else 0]])
    assert len(streams) == len(indices)
    for r, stream in zip(indices, streams):
        expected = np.random.SeedSequence([seed, r], spawn_key=key).generate_state(4, np.uint64)
        words = stream.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.tolist() == expected.tolist()
        draws = numpys_stream(seed, r, spawn_key=key).random(8)
        assert np.array_equal(stream.random(8), draws)
        assert np.array_equal(rng_stream(seed, r, spawn_key=key).random(8), draws)


@pytest.mark.parametrize("seed, repetitions", [
    (-1, [0]),
    (SEED, [-1]),
    (SEED, [0, 1, 2 ** 32]),
    (SEED, [2 ** 70]),
])
@pytest.mark.parametrize("strategy", ["nominal", "rebalanced", "symmetrized"])
def test_run_plan_refuses_streams_it_cannot_derive(committed_response, monkeypatch,
                                                   strategy, seed, repetitions):
    # a negative seed or index would wrap in a uint32 cast, and an index of
    # 2**32 or more would need a second entropy word: both are refused before
    # any bit generator is built, the seed already where the plan is made
    def unreachable(*args):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "PCG64", unreachable)
    with pytest.raises(ValidationError, match="rng_seed must" if seed < 0 else "path entries"):
        plan = MeasurementPlan(total_shots=SHOTS, strategy=strategy, rng_seed=seed)
        run_plan(inverted_w_dist(5), committed_response, plan, repetitions)


@pytest.mark.parametrize("seed", [0, 2 ** 32 + 7, CELL_SEED])
@pytest.mark.parametrize("strategy", ["nominal", "rebalanced", "symmetrized"])
def test_stream_tree_is_numpys_own(committed_response, monkeypatch, strategy, seed):
    # run r of a plan is the run assembled by hand from numpy's own streams:
    # numpy's generator of (seed, r) for nominal, its spawn(2) children for
    # the others
    R, r = committed_response, 3
    t = gaussian_dist(0.0, 0.1, 5)
    plan = MeasurementPlan(total_shots=SHOTS, strategy=strategy,
                           unfold=UnfoldConfig(ibu_iterations=30), rng_seed=seed)
    drawn = []

    def recording(*args):
        drawn.append(sample_measured(*args))
        return drawn[-1]

    monkeypatch.setattr(rebalance, "sample_measured", recording)
    corrected, masks = run_plan(t, R, plan, [r])
    monkeypatch.undo()

    hand = []

    def draw(mask, shots, stream):
        hand.append(sample_measured(ProbDist(xor_permute(t.probs, mask)), R, shots, [stream]))
        return hand[-1]

    if strategy == "nominal":
        segments = [(0, SHOTS, numpys_stream(seed, r))]
    else:
        first, second = numpys_stream(seed, r).spawn(2)
        if strategy == "symmetrized":
            segments = [(0, SHOTS // 2, first), (31, SHOTS - SHOTS // 2, second)]
        else:
            mask = int(choose_flip_mask(draw(0, plan.pilot_shots, first))[0])
            segments = [(mask, SHOTS - plan.pilot_shots, second)]
    expected = sum(xor_permute(apply_unfold(draw(*segment), R, plan.unfold), segment[0])
                   for segment in segments)

    assert len(drawn) == len(hand)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, hand))
    if strategy == "nominal":
        assert masks is None
    else:
        assert masks.tolist() == [segments[-1][0]]
    np.testing.assert_allclose(corrected, expected, rtol=1e-12, atol=0)
