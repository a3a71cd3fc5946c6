import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readout_rebalance.core import (
    ProbDist,
    ValidationError,
    counts_in_state,
    qubit_marginals,
    rng_stream,
    xor_permute,
)
from readout_rebalance.noise import ResponseMatrix, sample_measured
from readout_rebalance.rebalance import (
    STRATEGIES,
    MeasurementPlan,
    choose_flip_mask,
    run_plan,
    stream_words,
)
from readout_rebalance.states import inverted_w_dist
from readout_rebalance.unfold import (
    UnfoldConfig,
    apply_unfold,
    ibu_unfold,
    matrix_inverse_unfold,
)

from conftest import make_response


INVERSION = UnfoldConfig(method="matrix_inversion")


def one_run(t, response, plan, repetition=0):
    """Repetition ``repetition`` of ``plan``: ``(corrected histogram, flip mask or None)``."""
    corrected, masks = run_plan(t, response, plan, [repetition])
    return corrected[:, 0], None if masks is None else int(masks[0])


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
    with pytest.raises(ValidationError, match="pilot_fraction must be a real number"):
        MeasurementPlan(total_shots=100, strategy="rebalanced", pilot_fraction="0.1")
    # the seed is checked where the plan is made, not at its first run
    with pytest.raises(ValidationError, match="rng_seed must lie between 0 and"):
        MeasurementPlan(total_shots=100, rng_seed=-1)
    with pytest.raises(ValidationError, match="rng_seed must be an integer"):
        MeasurementPlan(total_shots=100, rng_seed=2.5)


def builds_by_strategy_rules(total_shots, strategy, pilot_fraction):
    """Whether a plan of these numbers is valid, by one shot rule per strategy."""
    if strategy == "rebalanced":
        return 1 <= int(round(pilot_fraction * total_shots)) < total_shots
    if strategy == "symmetrized":
        return total_shots >= 2
    return True


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    total_shots=st.integers(1, 10 ** 6),
    strategy=st.sampled_from(STRATEGIES),
    pilot_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_a_plan_builds_exactly_when_every_stream_gets_a_shot(total_shots, strategy,
                                                              pilot_fraction):
    # the one rule of the plan agrees with the strategy-by-strategy rules
    builds = builds_by_strategy_rules(total_shots, strategy, pilot_fraction)
    try:
        plan = MeasurementPlan(total_shots, strategy, pilot_fraction)
    except ValidationError:
        assert not builds
        return
    assert builds
    shots = plan.stream_shots
    assert sum(shots) == total_shots and min(shots) >= 1
    assert len(shots) == (1 if strategy == "nominal" else 2)
    if strategy == "rebalanced":
        assert shots[0] == plan.pilot_shots
    assert next(stream_words([plan], range(3))).shape[0] == len(shots)


@pytest.mark.parametrize("unfold", ["ibu", None, {"method": "ibu"}])
def test_plan_refuses_an_unfold_that_is_not_an_unfold_config(unfold):
    # refused where the plan is made, not as an AttributeError at its first run
    with pytest.raises(ValidationError, match="unfold must be an UnfoldConfig"):
        MeasurementPlan(total_shots=1000, unfold=unfold)


def test_choose_flip_mask_point_masses():
    ground = np.eye(32)[0] * 50
    excited = np.eye(32)[31] * 50
    assert choose_flip_mask(ground) == 0
    assert choose_flip_mask(excited) == 0b11111


def test_choose_flip_mask_strict_threshold():
    # marginals exactly 0.5 must not flip
    h = np.array([5.0, 5.0])
    assert choose_flip_mask(h) == 0
    h = np.array([4.0, 6.0])
    assert choose_flip_mask(h) == 1


def test_choose_flip_mask_from_w_pilot(committed_response):
    # inverted W marginals are 0.8, far enough above 0.5 that a modest pilot
    # picks the full mask essentially always
    t = inverted_w_dist(5)
    for seed in range(10):
        pilot = sample_measured(t, committed_response, 2000, [rng_stream(seed)])[:, 0]
        assert choose_flip_mask(pilot) == 0b11111


def test_choose_flip_mask_empty():
    with pytest.raises(ValidationError):
        choose_flip_mask(np.zeros(4))


def test_nominal_identity_noise_returns_raw_sample():
    R = make_response([0, 0], [0, 0])
    t = ProbDist([0.5, 0.25, 0.125, 0.125])
    plan = MeasurementPlan(total_shots=4000, unfold=INVERSION, rng_seed=5)
    out, _ = one_run(t, R, plan)
    assert out.sum() == pytest.approx(4000, abs=1e-9)
    assert np.allclose(out, np.round(out), atol=1e-9)


def test_nominal_large_shots_approaches_truth(committed_response):
    t = inverted_w_dist(5)
    plan = MeasurementPlan(total_shots=10 ** 6, unfold=INVERSION, rng_seed=9)
    out, _ = one_run(t, committed_response, plan)
    tv = 0.5 * np.abs(out / out.sum() - t.probs).sum()
    assert tv < 5e-3


def test_rebalanced_budget_split(committed_response):
    t = inverted_w_dist(5)
    plan = MeasurementPlan(total_shots=10000, strategy="rebalanced", unfold=INVERSION, rng_seed=1)
    hist, mask = one_run(t, committed_response, plan)
    # pilot shots are spent and excluded
    assert hist.sum() == pytest.approx(9000, rel=1e-9)
    assert mask == 0b11111


def test_rebalanced_point_mass_zero_variance():
    # with eps01 = 0 the flipped |11111> state sits in |00000>, which the
    # channel never misreads, so every run reconstructs exactly
    R = make_response([0.0] * 5, [0.05, 0.06, 0.07, 0.08, 0.03])
    probs = np.zeros(32)
    probs[31] = 1.0
    t = ProbDist(probs)
    for seed in range(5):
        hist, mask = one_run(
            t, R, MeasurementPlan(total_shots=2000, strategy="rebalanced",
                                  unfold=INVERSION, rng_seed=seed)
        )
        assert mask == 0b11111
        assert counts_in_state(hist, 31) == pytest.approx(1800, abs=1e-9)


def test_rebalanced_forced_mask_involution(committed_response):
    # the main run under the chosen mask f is exactly the nominal run of the
    # pre-permuted problem on the same stream, followed by a relabeling
    t = ProbDist(xor_permute(inverted_w_dist(5).probs, 0b01010))
    for unfold in (INVERSION, UnfoldConfig()):
        plan = MeasurementPlan(total_shots=5000, strategy="rebalanced",
                               unfold=unfold, rng_seed=42)
        rebalanced, f = one_run(t, committed_response, plan)
        assert f == 0b10101
        main = np.random.default_rng(np.random.SeedSequence([42, 0])).spawn(2)[1]
        flipped = ProbDist(xor_permute(t.probs, f))
        measured = sample_measured(flipped, committed_response,
                                   plan.total_shots - plan.pilot_shots, [main])
        nominal = apply_unfold(measured, committed_response, unfold)[:, 0]
        assert np.array_equal(xor_permute(nominal, f), rebalanced)


def test_rebalanced_marginal_flip(committed_response, rng):
    # after the chosen mask, the true distribution has no marginal above
    # 0.5 plus pilot sampling error
    for _ in range(10):
        probs = rng.dirichlet(np.ones(32))
        t = ProbDist(probs)
        pilot = sample_measured(t, committed_response, 5000, [rng])[:, 0]
        mask = choose_flip_mask(pilot)
        flipped = xor_permute(t.probs, mask)
        # pilot reads marginals through the noisy channel; allow for both
        # sampling error and the channel distortion
        assert np.all(qubit_marginals(flipped) <= 0.5 + 0.1)


def test_symmetrized_identity_noise_matches_nominal_scale():
    R = make_response([0, 0], [0, 0])
    t = ProbDist([0.25, 0.25, 0.25, 0.25])
    plan = MeasurementPlan(total_shots=5000, strategy="symmetrized", unfold=INVERSION, rng_seed=3)
    out, _ = one_run(t, R, plan)
    assert out.sum() == pytest.approx(5000, rel=1e-9)


def test_symmetrized_uniform_agrees_with_nominal_in_expectation(committed_response):
    # a uniform distribution is its own XOR image, so both strategies
    # estimate the same thing; check the means are compatible
    t = ProbDist(np.full(32, 1 / 32))
    shots, reps = 2000, 120
    means = {}
    for strat_idx, strategy in enumerate(("nominal", "symmetrized")):
        plan = MeasurementPlan(total_shots=shots, strategy=strategy,
                               unfold=INVERSION, rng_seed=60 + strat_idx)
        hists, _ = run_plan(t, committed_response, plan, range(reps))
        values = counts_in_state(hists, 31) / hists.sum(axis=0)
        means[strategy] = (values.mean(), values.std(ddof=1) / np.sqrt(reps))
    gap = abs(means["nominal"][0] - means["symmetrized"][0])
    combined = np.hypot(means["nominal"][1], means["symmetrized"][1])
    assert gap < 4 * combined


def test_unfold_then_xor_equals_conjugated_response(committed_response):
    # correction in the physical basis then XOR must agree with correcting
    # in the logical basis against the XOR-conjugated matrix
    rng = np.random.default_rng(8)
    f = 0b01101
    idx = np.arange(32) ^ f
    conjugated = ResponseMatrix(committed_response.entries[np.ix_(idx, idx)])
    m_phys = rng.integers(0, 500, size=32).astype(float)
    m_logical = xor_permute(m_phys, f)

    inv_physical = xor_permute(matrix_inverse_unfold(m_phys, committed_response), f)
    inv_logical = matrix_inverse_unfold(m_logical, conjugated)
    assert np.allclose(inv_physical, inv_logical, atol=1e-9 * m_phys.sum())

    ibu_physical = xor_permute(ibu_unfold(m_phys, committed_response, 50), f)
    ibu_logical = ibu_unfold(m_logical, conjugated, 50)
    assert np.allclose(ibu_physical, ibu_logical, atol=1e-9 * m_phys.sum())


def test_run_plan_dispatch(committed_response):
    t = inverted_w_dist(5)
    for strategy in ("nominal", "rebalanced", "symmetrized"):
        plan = MeasurementPlan(total_shots=1000, strategy=strategy,
                               unfold=INVERSION, rng_seed=2)
        hist, mask = one_run(t, committed_response, plan)
        assert hist.shape == (32,)
        if strategy == "nominal":
            assert mask is None
        else:
            assert mask is not None


def test_seeded_runs_reproducible(committed_response):
    t = inverted_w_dist(5)
    for strategy in ("nominal", "rebalanced", "symmetrized"):
        plan = MeasurementPlan(total_shots=3000, strategy=strategy,
                               unfold=UnfoldConfig(), rng_seed=13)
        a, _ = one_run(t, committed_response, plan)
        b, _ = one_run(t, committed_response, plan)
        assert np.array_equal(a, b)
