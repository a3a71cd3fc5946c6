import itertools
import math

import numpy as np
import pytest

from readout_rebalance.analytics import (
    EnsembleResult,
    TwoQubitModel,
    appendix_a_exact_variances,
    appendix_a_expectations,
    appendix_a_variances,
    ensemble_run,
    linear_order_reconstruct,
    shots_equivalent_fraction,
    std_err_of_std,
)
from readout_rebalance.core import DimensionError, ProbDist, ValidationError
from readout_rebalance.rebalance import MeasurementPlan
from readout_rebalance.unfold import UnfoldConfig

from conftest import make_response

# the base-10 observable of a 5-qubit register as per-state weights
BASE10 = np.arange(32.0)


def test_two_qubit_model_validation():
    TwoQubitModel(0.1, 0.0, 10, 0, 0, 90)
    with pytest.raises(ValidationError):
        TwoQubitModel(1.0, 0.0, 10, 0, 0, 90)
    with pytest.raises(ValidationError):
        TwoQubitModel(0.1, 0.0, -1, 0, 0, 90)
    # float() would take "0.05" and read False as q0 = 0
    for q0 in ("0.05", False):
        with pytest.raises(ValidationError, match="q0 must be a real number"):
            TwoQubitModel(q0, 0.0, 10, 0, 0, 90)


def test_expectations_noiseless_identity():
    model = TwoQubitModel(0.0, 0.0, 10, 20, 30, 40)
    assert np.allclose(appendix_a_expectations(model), [10, 20, 30, 40])


def test_expectations_pure_excited():
    N = 100000
    model = TwoQubitModel(0.05, 0.03, 0, 0, 0, N)
    exact = appendix_a_expectations(model)
    assert exact[3] == pytest.approx((1 - 0.05) * (1 - 0.03) * N, rel=1e-12)
    # the decayed counts land where a single qubit dropped
    assert exact[1] == pytest.approx(0.05 * (1 - 0.03) * N, rel=1e-12)
    assert exact[2] == pytest.approx(0.03 * (1 - 0.05) * N, rel=1e-12)


def test_expectations_pure_ground_untouched():
    N = 100000
    model = TwoQubitModel(0.2, 0.1, N, 0, 0, 0)
    assert np.allclose(appendix_a_expectations(model), [N, 0, 0, 0])


def test_expectations_conserve_total():
    model = TwoQubitModel(0.07, 0.04, 100, 200, 300, 400)
    assert appendix_a_expectations(model).sum() == pytest.approx(model.total, rel=1e-12)


def test_variances_pure_excited():
    N = 100000
    q0, q1 = 0.05, 0.03
    model = TwoQubitModel(q0, q1, 0, 0, 0, N)
    for variant in ("as_printed", "mirror_symmetric"):
        var = appendix_a_variances(model)[variant]
        assert var[0] == 0.0
        assert var[3] == pytest.approx((q0 + q1) * N, rel=1e-12)


def test_variances_pure_ground_all_zero():
    model = TwoQubitModel(0.1, 0.2, 100000, 0, 0, 0)
    for variant in ("as_printed", "mirror_symmetric"):
        assert np.allclose(appendix_a_variances(model)[variant], 0.0)


def test_variances_noiseless_reduce_to_multinomial():
    model = TwoQubitModel(0.0, 0.0, 100, 200, 300, 400)
    N = model.total
    expected = [n * (1 - n / N) for n in (100, 200, 300, 400)]
    for variance in appendix_a_variances(model).values():
        assert np.allclose(variance, expected)


def test_variance_variants_differ_only_in_10_row():
    model = TwoQubitModel(0.08, 0.02, 100, 200, 300, 400)
    variances = appendix_a_variances(model)
    assert list(variances) == ["as_printed", "mirror_symmetric"]
    printed, mirror = variances["as_printed"], variances["mirror_symmetric"]
    assert np.allclose(printed[[0, 1, 3]], mirror[[0, 1, 3]])
    assert mirror[2] - printed[2] == pytest.approx((0.08 - 0.02) * 300, rel=1e-12)


def test_linear_reconstruct_inverts_expectations():
    # reconstructing the expected measured counts returns the true counts
    # up to O(q^2)
    model = TwoQubitModel(0.04, 0.03, 1000, 2000, 3000, 4000)
    measured = appendix_a_expectations(model)
    recon = linear_order_reconstruct(measured, model.q0, model.q1)
    assert np.allclose(recon, model.true_counts(), atol=(0.07) ** 2 * model.total)


# the oracle of the analytic formulas is the exact variance of the linear
# reconstruction, checked here by enumeration and by sampling

def enumerated_variances(model):
    """Variances of the reconstructed counts over every multinomial outcome."""
    total = model.total
    probs = appendix_a_expectations(model) / total
    outcomes, weights = [], []
    for c00, c01, c10 in itertools.product(range(total + 1), repeat=3):
        counts = (c00, c01, c10, total - c00 - c01 - c10)
        if counts[3] < 0:
            continue
        ways = math.factorial(total) // math.prod(math.factorial(c) for c in counts)
        outcomes.append(counts)
        weights.append(ways * math.prod(p ** c for p, c in zip(probs, counts)))
    recon = linear_order_reconstruct(np.array(outcomes, dtype=float), model.q0, model.q1)
    weights = np.array(weights)
    centered = recon - weights @ recon
    return weights @ centered ** 2


@pytest.mark.parametrize("q0, q1", [(0.05, 0.03), (0.1, 0.0), (0.2, 0.15), (0.01, 0.3)])
@pytest.mark.parametrize("counts", [(0, 0, 0, 6), (1, 2, 3, 1), (2, 2, 2, 2), (0, 3, 0, 4)])
def test_exact_variances_match_every_multinomial_outcome(q0, q1, counts):
    model = TwoQubitModel(q0, q1, *counts)
    assert np.allclose(appendix_a_exact_variances(model), enumerated_variances(model),
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("q0, q1, counts, seed", [
    (0.05, 0.03, (25000, 25000, 25000, 25000), 1),
    (0.1, 0.0, (0, 0, 0, 100000), 2),
    (0.02, 0.08, (1000, 30000, 9000, 60000), 3),
])
def test_exact_variances_agree_with_sampled_reconstructions(q0, q1, counts, seed):
    # K = 5 standard errors of the sample variance, by its fourth-moment formula
    model = TwoQubitModel(q0, q1, *counts)
    probs = appendix_a_expectations(model) / model.total
    trials = 20_000
    draws = np.random.default_rng(seed).multinomial(model.total, probs, size=trials)
    recon = linear_order_reconstruct(draws.astype(float), q0, q1)
    variances = recon.var(axis=0, ddof=1)
    fourth = ((recon - recon.mean(axis=0)) ** 4).mean(axis=0)
    std_errors = np.sqrt((fourth - variances ** 2) / trials)
    assert np.all(np.abs(variances - appendix_a_exact_variances(model)) <= 5 * std_errors)


def test_oracle_noiseless_matches_multinomial():
    model = TwoQubitModel(0.0, 0.0, 25000, 25000, 25000, 25000)
    exact = appendix_a_exact_variances(model)
    for variance in appendix_a_variances(model).values():
        assert np.allclose(exact, variance, rtol=1e-12, atol=0)


def test_oracle_pure_excited_decay_variance():
    # Var[(1 + q0 + q1) c11] for c11 ~ Binomial(N, (1 - q0)(1 - q1))
    N, q0, q1 = 100000, 0.02, 0.02
    model = TwoQubitModel(q0, q1, 0, 0, 0, N)
    keep = (1 - q0) * (1 - q1)
    target = (1 + q0 + q1) ** 2 * N * keep * (1 - keep)
    assert appendix_a_exact_variances(model)[3] == pytest.approx(target, rel=1e-12)


def test_oracle_pure_ground_exact_zero():
    model = TwoQubitModel(0.3, 0.2, 100000, 0, 0, 0)
    assert np.array_equal(appendix_a_exact_variances(model), np.zeros(4))


def test_oracle_rejects_a_model_without_counts():
    # zero true counts give no measured probabilities
    model = TwoQubitModel(0.05, 0.03, 0, 0, 0, 0)
    with pytest.raises(ValidationError, match="the model's total count must lie between 1 and"):
        appendix_a_exact_variances(model)


def test_oracle_agrees_with_mirror_formulas_at_small_q():
    # |analytic - exact| <= (q0 + q1)^2 N, the linear-order truncation scale
    rng = np.random.default_rng(7)
    for case in range(12):
        q0, q1 = rng.uniform(0.0, 0.05, size=2)
        fractions = rng.dirichlet(np.ones(4))
        counts = np.round(fractions * 10 ** 5).astype(int)
        model = TwoQubitModel(q0, q1, *counts)
        gap = appendix_a_variances(model)["mirror_symmetric"] - appendix_a_exact_variances(model)
        assert np.all(np.abs(gap) <= (q0 + q1) ** 2 * model.total), (
            f"case {case}: q=({q0:.4f},{q1:.4f}) gap={gap}"
        )


def test_oracle_detects_printed_10_row_discrepancy():
    # at q0 = 0.1, q1 = 0 with uniform quarters, the printed 10-row formula
    # misses q0 * N10 = 2500, far outside the truncation scale of 1000
    model = TwoQubitModel(0.1, 0.0, 25000, 25000, 25000, 25000)
    exact = appendix_a_exact_variances(model)
    variances = appendix_a_variances(model)
    printed, mirror = variances["as_printed"], variances["mirror_symmetric"]
    bound = 0.1 ** 2 * model.total
    assert abs(printed[2] - exact[2]) > bound
    assert abs(mirror[2] - exact[2]) <= bound


def test_shots_equivalent_fraction_basics():
    assert shots_equivalent_fraction(2.0, 2.0) == 1.0
    # scale invariance; exact for power-of-two factors, 1 ulp otherwise
    assert shots_equivalent_fraction(3.0, 4.0) == shots_equivalent_fraction(6.0, 8.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        assert shots_equivalent_fraction(c * a, c * b) == pytest.approx(
            shots_equivalent_fraction(a, b), rel=1e-12
        )
    with pytest.raises(ValidationError):
        shots_equivalent_fraction(0.0, 1.0)
    with pytest.raises(ValidationError):
        shots_equivalent_fraction(1.0, -1.0)
    with pytest.raises(ValidationError, match="sigma_method must be a real number"):
        shots_equivalent_fraction("1", 2)
    with pytest.raises(ValidationError, match="sigma_nominal must be a real number"):
        shots_equivalent_fraction(1.0, True)
    # a failed cell's NaN std still gives a NaN fraction, not an error
    assert math.isnan(shots_equivalent_fraction(float("nan"), 2.0))


def test_shots_equivalent_fraction_reported_ratios():
    # the published W-state and Grover ratios round to the reported percents
    assert shots_equivalent_fraction(0.0189, 0.0232) == pytest.approx(0.66, abs=0.005)
    assert shots_equivalent_fraction(185, 210) == pytest.approx(0.78, abs=0.005)


def test_std_err_of_std_formula():
    assert std_err_of_std(2.0, 1000) == pytest.approx(2.0 / np.sqrt(2 * 999))
    # the one count rule: at least 2 repetitions, integers only
    for repetitions, message in ((1, "lie between 2 and"), (0, "lie between 2 and"),
                                 (2.9, "be an integer"), (True, "be an integer")):
        with pytest.raises(ValidationError, match=f"repetitions must {message}"):
            std_err_of_std(2.0, repetitions)
    with pytest.raises(ValidationError, match="std must be a real number"):
        std_err_of_std(True, 10)


def test_ensemble_point_mass_zero_std():
    R = make_response([0, 0], [0, 0])
    probs = np.zeros(4)
    probs[2] = 1.0
    t = ProbDist(probs)
    plan = MeasurementPlan(total_shots=100, unfold=UnfoldConfig(method="matrix_inversion"))
    res = ensemble_run(t, R, plan, 100 * np.eye(4)[2], 50)
    assert res.std == 0.0
    assert res.mean == 100.0
    assert res.negative_runs == 0


def test_ensemble_result_fields(committed_response):
    from readout_rebalance.states import inverted_w_dist

    t = inverted_w_dist(5)
    plan = MeasurementPlan(total_shots=2000, strategy="rebalanced", rng_seed=4)
    res = ensemble_run(t, committed_response, plan, BASE10, 30, observable_label="base10_mean")
    assert res.repetitions == 30
    assert res.strategy == "rebalanced"
    assert res.observable == "base10_mean"
    assert res.std_err_of_std == pytest.approx(res.std / np.sqrt(2 * 29))
    assert res.flip_mask_mode == 0b11111
    # a weight vector has no name, so an unlabelled observable gets the default
    assert ensemble_run(t, committed_response, plan, BASE10, 2).observable == "observable"


@pytest.mark.parametrize("weights, error", [
    (np.arange(31.0), DimensionError),
    (np.arange(64.0), DimensionError),
    (np.arange(32.0).reshape(2, 16), DimensionError),
    (np.where(np.arange(32) == 3, np.nan, 1.0), ValidationError),
    (np.where(np.arange(32) == 3, np.inf, 1.0), ValidationError),
    (np.where(np.arange(32) == 3, -np.inf, 1.0), ValidationError),
], ids=["short", "long", "matrix", "nan", "inf", "neg-inf"])
def test_ensemble_rejects_bad_weights(committed_response, weights, error):
    from readout_rebalance.states import inverted_w_dist

    plan = MeasurementPlan(total_shots=500, rng_seed=1)
    with pytest.raises(error):
        ensemble_run(inverted_w_dist(5), committed_response, plan, weights, 5)


@pytest.mark.parametrize("weights", [
    np.arange(32.0) + 1j,
    np.arange(32) * (1 + 0j),
    [1j] + [0.0] * 31,
    np.array([1j] + [0.0] * 31, dtype=object),
    ["1"] * 31 + ["one"],
], ids=["complex", "zero-imag", "list", "object", "text"])
def test_ensemble_refuses_complex_weights_before_any_stream(committed_response, monkeypatch,
                                                            weights):
    # float64 conversion would drop the imaginary parts with only a ComplexWarning
    import readout_rebalance.analytics as analytics
    from readout_rebalance.states import inverted_w_dist

    def no_run(*args):
        raise AssertionError("run_plan reached")

    monkeypatch.setattr(analytics, "run_plan", no_run)
    plan = MeasurementPlan(total_shots=500, rng_seed=1)
    with pytest.raises(ValidationError, match="observable weights must be real"):
        ensemble_run(inverted_w_dist(5), committed_response, plan, weights, 5)


def test_ensemble_reproducible(committed_response):
    from readout_rebalance.states import grover_dist

    t = grover_dist(5, 31, 1)
    plan = MeasurementPlan(total_shots=1000, strategy="symmetrized", rng_seed=8)
    a = ensemble_run(t, committed_response, plan, BASE10, 25)
    b = ensemble_run(t, committed_response, plan, BASE10, 25)
    assert a.mean == b.mean
    assert a.std == b.std


def test_ensemble_rejects_bad_repetitions(committed_response):
    from readout_rebalance.states import inverted_w_dist

    t = inverted_w_dist(5)
    plan = MeasurementPlan(total_shots=500)
    for repetitions in (1, 2 ** 16 + 1):
        with pytest.raises(ValidationError, match="repetitions must lie between 2 and 65536"):
            ensemble_run(t, committed_response, plan, BASE10, repetitions)
    for repetitions in (2.9, True):
        with pytest.raises(ValidationError, match="repetitions must be an integer"):
            ensemble_run(t, committed_response, plan, BASE10, repetitions)


def test_ensemble_counts_negative_runs(committed_response):
    # matrix inversion on the sparse W state regularly produces small
    # negative entries at low shot counts
    from readout_rebalance.states import inverted_w_dist

    t = inverted_w_dist(5)
    plan = MeasurementPlan(
        total_shots=500, unfold=UnfoldConfig(method="matrix_inversion"), rng_seed=6
    )
    res = ensemble_run(t, committed_response, plan, BASE10, 40)
    assert res.negative_runs > 0


def test_ensemble_result_validation():
    with pytest.raises(ValidationError):
        EnsembleResult(10, 1.0, -0.5, 0.1, "nominal", "obs")
