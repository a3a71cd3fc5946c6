from dataclasses import replace

import numpy as np
import pytest

from readout_rebalance.core import (
    CountsHistogram,
    FlipMask,
    ProbDist,
    ValidationError,
    counts_in_state,
    qubit_marginals,
    rng_stream,
    xor_permute,
)
from readout_rebalance.noise import ResponseMatrix, sample_measured
from readout_rebalance.rebalance import (
    MeasurementPlan,
    choose_flip_mask,
    run_plan,
)
from readout_rebalance.states import inverted_w_dist
from readout_rebalance.unfold import UnfoldConfig, ibu_unfold, matrix_inverse_unfold

from conftest import make_response


INVERSION = UnfoldConfig(method="matrix_inversion")


def test_plan_validation():
    MeasurementPlan(total_shots=100)
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=0)
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=100, strategy="hedged")
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=100, pilot_fraction=0.0)
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=100, pilot_fraction=1.0)
    # 3 shots at 10% pilot rounds to zero pilot shots
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=3, strategy="rebalanced")
    plan = MeasurementPlan(total_shots=100, strategy="rebalanced")
    assert plan.pilot_shots == 10
    # a pilot of every shot leaves the main segment none
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=2, strategy="rebalanced", pilot_fraction=0.9)
    assert MeasurementPlan(total_shots=2, strategy="rebalanced", pilot_fraction=0.5).pilot_shots == 1
    # numpy draws at most an int64 of shots
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=2 ** 63)
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=100, pilot_fraction=10 ** 400)
    with pytest.raises(ValidationError):
        MeasurementPlan(total_shots=1, strategy="symmetrized")


def test_choose_flip_mask_point_masses():
    ground = CountsHistogram(5, np.eye(32)[0] * 50)
    excited = CountsHistogram(5, np.eye(32)[31] * 50)
    assert choose_flip_mask(ground).mask == 0
    assert choose_flip_mask(excited).mask == 0b11111


def test_choose_flip_mask_strict_threshold():
    # marginals exactly 0.5 must not flip
    h = CountsHistogram(1, [5.0, 5.0])
    assert choose_flip_mask(h).mask == 0
    h = CountsHistogram(1, [4.0, 6.0])
    assert choose_flip_mask(h).mask == 1


def test_choose_flip_mask_from_w_pilot(committed_response):
    # inverted W marginals are 0.8, far enough above 0.5 that a modest pilot
    # picks the full mask essentially always
    t = inverted_w_dist(5)
    for seed in range(10):
        pilot = sample_measured(t, committed_response, 2000, seed)
        assert choose_flip_mask(pilot).mask == 0b11111


def test_choose_flip_mask_empty():
    with pytest.raises(ValidationError):
        choose_flip_mask(CountsHistogram(2, np.zeros(4)))


def test_nominal_identity_noise_returns_raw_sample():
    R = make_response([0, 0], [0, 0])
    t = ProbDist(2, [0.5, 0.25, 0.125, 0.125])
    plan = MeasurementPlan(total_shots=4000, unfold=INVERSION, rng_seed=5)
    out, _ = run_plan(t, R, plan)
    assert out.total == pytest.approx(4000, abs=1e-9)
    assert np.allclose(out.counts, np.round(out.counts), atol=1e-9)


def test_nominal_large_shots_approaches_truth(committed_response):
    t = inverted_w_dist(5)
    plan = MeasurementPlan(total_shots=10 ** 6, unfold=INVERSION, rng_seed=9)
    out, _ = run_plan(t, committed_response, plan)
    tv = 0.5 * np.abs(out.counts / out.total - t.probs).sum()
    assert tv < 5e-3


def test_rebalanced_budget_split(committed_response):
    t = inverted_w_dist(5)
    plan = MeasurementPlan(total_shots=10000, strategy="rebalanced", unfold=INVERSION, rng_seed=1)
    hist, mask = run_plan(t, committed_response, plan)
    # pilot shots are spent and excluded
    assert hist.total == pytest.approx(9000, rel=1e-9)
    assert mask.mask == 0b11111


def test_rebalanced_point_mass_zero_variance():
    # with eps01 = 0 the flipped |11111> state sits in |00000>, which the
    # channel never misreads, so every run reconstructs exactly
    R = make_response([0.0] * 5, [0.05, 0.06, 0.07, 0.08, 0.03])
    probs = np.zeros(32)
    probs[31] = 1.0
    t = ProbDist(5, probs)
    for seed in range(5):
        hist, mask = run_plan(
            t, R, MeasurementPlan(total_shots=2000, strategy="rebalanced",
                                  unfold=INVERSION, rng_seed=seed)
        )
        assert mask.mask == 0b11111
        assert counts_in_state(hist, 31) == pytest.approx(1800, abs=1e-9)


def test_rebalanced_forced_mask_involution(committed_response):
    # the main run under the chosen mask f is exactly the nominal run of the
    # pre-permuted problem on the same stream, followed by a relabeling
    t = xor_permute(inverted_w_dist(5), FlipMask(5, 0b01010))
    for unfold in (INVERSION, UnfoldConfig()):
        plan = MeasurementPlan(total_shots=5000, strategy="rebalanced",
                               unfold=unfold, rng_seed=21)
        rebalanced, f = run_plan(t, committed_response, plan, rng_stream(42))
        assert f.mask == 0b10101
        nominal_plan = replace(plan, strategy="nominal",
                               total_shots=plan.total_shots - plan.pilot_shots)
        main = rng_stream(42).spawn(2)[1]
        nominal, _ = run_plan(xor_permute(t, f), committed_response, nominal_plan, main)
        assert np.array_equal(xor_permute(nominal, f).counts, rebalanced.counts)


def test_rebalanced_marginal_flip(committed_response, rng):
    # after the chosen mask, the true distribution has no marginal above
    # 0.5 plus pilot sampling error
    for _ in range(10):
        probs = rng.dirichlet(np.ones(32))
        t = ProbDist(5, probs)
        pilot = sample_measured(t, committed_response, 5000, rng)
        mask = choose_flip_mask(pilot)
        flipped = xor_permute(t, mask)
        # pilot reads marginals through the noisy channel; allow for both
        # sampling error and the channel distortion
        assert np.all(qubit_marginals(flipped) <= 0.5 + 0.1)


def test_symmetrized_identity_noise_matches_nominal_scale():
    R = make_response([0, 0], [0, 0])
    t = ProbDist(2, [0.25, 0.25, 0.25, 0.25])
    plan = MeasurementPlan(total_shots=5000, strategy="symmetrized", unfold=INVERSION, rng_seed=3)
    out, _ = run_plan(t, R, plan)
    assert out.total == pytest.approx(5000, rel=1e-9)


def test_symmetrized_uniform_agrees_with_nominal_in_expectation(committed_response):
    # a uniform distribution is its own XOR image, so both strategies
    # estimate the same thing; check the means are compatible
    t = ProbDist(5, np.full(32, 1 / 32))
    shots, reps = 2000, 120
    means = {}
    for strat_idx, strategy in enumerate(("nominal", "symmetrized")):
        values = []
        for r in range(reps):
            plan = MeasurementPlan(total_shots=shots, strategy=strategy,
                                   unfold=INVERSION, rng_seed=50)
            hist, _ = run_plan(t, committed_response, plan, rng_stream(60, strat_idx, r))
            values.append(counts_in_state(hist, 31) / hist.total)
        values = np.asarray(values)
        means[strategy] = (values.mean(), values.std(ddof=1) / np.sqrt(reps))
    gap = abs(means["nominal"][0] - means["symmetrized"][0])
    combined = np.hypot(means["nominal"][1], means["symmetrized"][1])
    assert gap < 4 * combined


def test_unfold_then_xor_equals_conjugated_response(committed_response):
    # correction in the physical basis then XOR must agree with correcting
    # in the logical basis against the XOR-conjugated matrix
    rng = np.random.default_rng(8)
    f = FlipMask(5, 0b01101)
    idx = np.arange(32) ^ f.mask
    conjugated = ResponseMatrix(5, committed_response.entries[np.ix_(idx, idx)])
    m_phys = CountsHistogram(5, rng.integers(0, 500, size=32).astype(float))
    m_logical = xor_permute(m_phys, f)

    inv_physical = xor_permute(matrix_inverse_unfold(m_phys, committed_response), f)
    inv_logical = matrix_inverse_unfold(m_logical, conjugated)
    assert np.allclose(inv_physical.counts, inv_logical.counts, atol=1e-9 * m_phys.total)

    ibu_physical = xor_permute(ibu_unfold(m_phys, committed_response, 50), f)
    ibu_logical = ibu_unfold(m_logical, conjugated, 50)
    assert np.allclose(ibu_physical.counts, ibu_logical.counts, atol=1e-9 * m_phys.total)


def test_run_plan_dispatch(committed_response):
    t = inverted_w_dist(5)
    for strategy in ("nominal", "rebalanced", "symmetrized"):
        plan = MeasurementPlan(total_shots=1000, strategy=strategy,
                               unfold=INVERSION, rng_seed=2)
        hist, mask = run_plan(t, committed_response, plan)
        assert hist.n_qubits == 5
        if strategy == "nominal":
            assert mask is None
        else:
            assert mask is not None


def test_seeded_runs_reproducible(committed_response):
    t = inverted_w_dist(5)
    for strategy in ("nominal", "rebalanced", "symmetrized"):
        plan = MeasurementPlan(total_shots=3000, strategy=strategy,
                               unfold=UnfoldConfig(), rng_seed=13)
        a, _ = run_plan(t, committed_response, plan)
        b, _ = run_plan(t, committed_response, plan)
        assert np.array_equal(a.counts, b.counts)
