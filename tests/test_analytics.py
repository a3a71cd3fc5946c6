import numpy as np
import pytest

from readout_rebalance.analytics import (
    EnsembleResult,
    TwoQubitModel,
    appendix_a_expectations,
    appendix_a_expectations_linear,
    appendix_a_variances,
    ensemble_run,
    linear_order_reconstruct,
    measured_state_probs,
    monte_carlo_variance_oracle,
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


def test_expectations_noiseless_identity():
    model = TwoQubitModel(0.0, 0.0, 10, 20, 30, 40)
    assert np.allclose(appendix_a_expectations(model), [10, 20, 30, 40])
    assert np.allclose(appendix_a_expectations_linear(model), [10, 20, 30, 40])


def test_expectations_pure_excited():
    N = 100000
    model = TwoQubitModel(0.05, 0.03, 0, 0, 0, N)
    exact = appendix_a_expectations(model)
    assert exact[3] == pytest.approx((1 - 0.05) * (1 - 0.03) * N, rel=1e-12)
    linear = appendix_a_expectations_linear(model)
    assert linear[3] == pytest.approx((1 - 0.08) * N, rel=1e-12)
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
        var = appendix_a_variances(model, variant)
        assert var[0] == 0.0
        assert var[3] == pytest.approx((q0 + q1) * N, rel=1e-12)


def test_variances_pure_ground_all_zero():
    model = TwoQubitModel(0.1, 0.2, 100000, 0, 0, 0)
    for variant in ("as_printed", "mirror_symmetric"):
        assert np.allclose(appendix_a_variances(model, variant), 0.0)


def test_variances_noiseless_reduce_to_multinomial():
    model = TwoQubitModel(0.0, 0.0, 100, 200, 300, 400)
    N = model.total
    expected = [n * (1 - n / N) for n in (100, 200, 300, 400)]
    assert np.allclose(appendix_a_variances(model), expected)


def test_variance_variants_differ_only_in_10_row():
    model = TwoQubitModel(0.08, 0.02, 100, 200, 300, 400)
    printed = appendix_a_variances(model, "as_printed")
    mirror = appendix_a_variances(model, "mirror_symmetric")
    assert np.allclose(printed[[0, 1, 3]], mirror[[0, 1, 3]])
    assert mirror[2] - printed[2] == pytest.approx((0.08 - 0.02) * 300, rel=1e-12)
    with pytest.raises(ValidationError):
        appendix_a_variances(model, "typo")


def test_linear_reconstruct_inverts_expectations():
    # reconstructing the expected measured counts returns the true counts
    # up to O(q^2)
    model = TwoQubitModel(0.04, 0.03, 1000, 2000, 3000, 4000)
    measured = appendix_a_expectations(model)
    recon = linear_order_reconstruct(measured, model.q0, model.q1)
    assert np.allclose(recon, model.true_counts(), atol=(0.07) ** 2 * model.total)


def test_oracle_noiseless_matches_multinomial():
    model = TwoQubitModel(0.0, 0.0, 25000, 25000, 25000, 25000)
    oracle = monte_carlo_variance_oracle(model, 10000, 1)
    expected = appendix_a_variances(model)
    assert np.all(np.abs(oracle.variances - expected) <= 5 * oracle.variance_std_errors)


def test_oracle_pure_excited_decay_variance():
    N = 100000
    model = TwoQubitModel(0.02, 0.02, 0, 0, 0, N)
    oracle = monte_carlo_variance_oracle(model, 10000, 2)
    target = (0.02 + 0.02) * N
    assert abs(oracle.variances[3] - target) < 0.1 * target + 3 * oracle.variance_std_errors[3]


def test_oracle_pure_ground_exact_zero():
    model = TwoQubitModel(0.3, 0.2, 100000, 0, 0, 0)
    oracle = monte_carlo_variance_oracle(model, 500, 3)
    assert np.array_equal(oracle.variances, np.zeros(4))
    assert np.array_equal(oracle.means, [100000.0, 0.0, 0.0, 0.0])


def test_oracle_requires_enough_trials():
    model = TwoQubitModel(0.1, 0.1, 0, 0, 0, 1000)
    with pytest.raises(ValidationError):
        monte_carlo_variance_oracle(model, 99, 0)


def test_oracle_rejects_a_model_without_counts():
    # zero true counts give the multinomial NaN probabilities
    model = TwoQubitModel(0.05, 0.03, 0, 0, 0, 0)
    with pytest.raises(ValidationError, match="at least one true count"):
        monte_carlo_variance_oracle(model, 1000, 0)


def test_oracle_agrees_with_mirror_formulas_at_small_q():
    # |analytic - empirical| <= max(3 * bootstrap error, C * q^2 * N) with
    # C = 1 and q = q0 + q1 (the linear-order truncation scale)
    rng = np.random.default_rng(7)
    C = 1.0
    for case in range(12):
        q0, q1 = rng.uniform(0.0, 0.05, size=2)
        fractions = rng.dirichlet(np.ones(4))
        counts = np.round(fractions * 10 ** 5).astype(int)
        model = TwoQubitModel(q0, q1, *counts)
        oracle = monte_carlo_variance_oracle(model, 4000, 100 + case)
        analytic = appendix_a_variances(model, "mirror_symmetric")
        tol = np.maximum(3 * oracle.variance_std_errors, C * (q0 + q1) ** 2 * model.total)
        assert np.all(np.abs(analytic - oracle.variances) <= tol), (
            f"case {case}: q=({q0:.4f},{q1:.4f}) "
            f"diff={np.abs(analytic - oracle.variances)} tol={tol}"
        )


def test_oracle_detects_printed_10_row_discrepancy():
    # at q0 = 0.1, q1 = 0 with uniform quarters, the printed 10-row formula
    # is off by q0 * N10 = 2500, far outside the tolerance band
    model = TwoQubitModel(0.1, 0.0, 25000, 25000, 25000, 25000)
    oracle = monte_carlo_variance_oracle(model, 10000, 5)
    printed = appendix_a_variances(model, "as_printed")
    mirror = appendix_a_variances(model, "mirror_symmetric")
    tol = np.maximum(3 * oracle.variance_std_errors, 0.1 ** 2 * model.total)
    assert abs(printed[2] - oracle.variances[2]) > tol[2]
    assert abs(mirror[2] - oracle.variances[2]) <= tol[2]


def test_measured_probs_normalized():
    model = TwoQubitModel(0.07, 0.02, 123, 456, 789, 1011)
    assert measured_state_probs(model).sum() == pytest.approx(1.0, abs=1e-12)


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


def test_shots_equivalent_fraction_reported_ratios():
    # the published W-state and Grover ratios round to the reported percents
    assert shots_equivalent_fraction(0.0189, 0.0232) == pytest.approx(0.66, abs=0.005)
    assert shots_equivalent_fraction(185, 210) == pytest.approx(0.78, abs=0.005)


def test_std_err_of_std_formula():
    assert std_err_of_std(2.0, 1000) == pytest.approx(2.0 / np.sqrt(2 * 999))


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
    with pytest.raises(ValidationError):
        ensemble_run(t, committed_response, plan, BASE10, 1)


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
