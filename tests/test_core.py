import math

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


def grover_target_probability(n, iterations):
    """Independent oracle: iterate the oracle-plus-diffusion amplitude map.

    Tracks the target amplitude a and the common non-target amplitude b;
    the diffusion step reflects every amplitude about the mean.
    """
    dim = 2 ** n
    a = b = 1.0 / math.sqrt(dim)
    for _ in range(iterations):
        a = -a
        mean = (a + (dim - 1) * b) / dim
        a, b = 2 * mean - a, 2 * mean - b
    return a * a


def test_probdist_validation():
    ProbDist([0.25, 0.75])
    with pytest.raises(ValidationError):
        ProbDist([0.3, 0.8])
    with pytest.raises(ValidationError):
        ProbDist([-0.1, 1.1])


def test_probdist_width_is_read_from_the_array():
    assert ProbDist([0.25, 0.75]).n_qubits == 1
    assert ProbDist(np.full(32, 1 / 32)).n_qubits == 5
    with pytest.raises(DimensionError, match="probs must be 1-D"):
        ProbDist(np.full((2, 2), 0.25))
    for length in (1, 3, 6):
        with pytest.raises(DimensionError, match="probs must have a power-of-two length"):
            ProbDist(np.full(length, 1 / length))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probdist_rejects_non_finite(bad):
    # NaN compares False both ways, so a plain range test lets it through
    with pytest.raises(ValidationError, match="finite"):
        ProbDist([bad, 0.5, 0.25, 0.25])


def test_noise_params_validation():
    QubitNoiseParams(0.0, 1.0)
    with pytest.raises(ValidationError):
        QubitNoiseParams(-0.1, 0.5)
    with pytest.raises(ValidationError):
        QubitNoiseParams(0.1, 1.5)


@pytest.mark.parametrize("bad", ["0.01", True, np.True_, None, 0.01 + 0j, np.array(0.01)])
def test_noise_params_refuse_what_is_not_a_real_number(bad):
    # float() would turn "0.01" into 0.01 and True into a qubit that always reads 0
    with pytest.raises(ValidationError, match="must be a real number"):
        QubitNoiseParams(bad, 0.05)
    with pytest.raises(ValidationError, match="must be a real number"):
        QubitNoiseParams(0.01, bad)


@pytest.mark.parametrize("good", [0, 0.05, np.float64(0.05), np.float32(0.05), np.int64(0)])
def test_noise_params_take_python_and_numpy_numbers(good):
    # load_response passes numpy scalars, argparse floats, appendix-a an int 0
    params = QubitNoiseParams(good, good)
    assert type(params.eps01) is float and params.eps10 == float(good)


def test_xor_permute_identity_mask():
    h = np.arange(8.0)
    out = xor_permute(h, 0)
    assert np.array_equal(out, h)


def test_xor_permute_two_qubit_reversal():
    # (a, b, c, d) indexed 00, 01, 10, 11 reverses under the full mask
    h = np.array([1.0, 2.0, 3.0, 4.0])
    out = xor_permute(h, 0b11)
    assert list(out) == [4.0, 3.0, 2.0, 1.0]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_xor_permute_takes_every_integer_mask_dtype(dtype):
    # int64 states ^ uint64 masks has no integer loop in numpy
    values = np.arange(24.0).reshape(8, 3)
    masks = np.array([0, 5, 7])
    assert np.array_equal(xor_permute(values, masks.astype(dtype)), xor_permute(values, masks))
    assert np.array_equal(xor_permute(values[:, 0], dtype(6)), xor_permute(values[:, 0], 6))


def test_xor_permute_involution(rng):
    counts = rng.integers(0, 50, size=32).astype(float)
    f = 0b10001
    back = xor_permute(xor_permute(counts, f), f)
    assert np.array_equal(back, counts)


def test_xor_permute_preserves_total_and_multiset(rng):
    counts = rng.integers(0, 50, size=16).astype(float)
    out = xor_permute(counts, 0b0110)
    assert out.sum() == counts.sum()
    assert sorted(out) == sorted(counts)


def test_xor_permute_width_mismatch():
    # a mask wider than the register, alone or among per-column masks
    with pytest.raises(DimensionError):
        xor_permute(np.ones(8), 0b1000)
    with pytest.raises(DimensionError):
        xor_permute(np.ones((8, 3)), [0, 0b1000, 1])
    with pytest.raises(DimensionError):
        xor_permute(np.ones(8), -1)
    # one mask per column, or one for all of them
    with pytest.raises(DimensionError):
        xor_permute(np.ones((8, 3)), [0, 1])
    with pytest.raises(DimensionError):
        xor_permute(np.ones(8), [0])


def test_xor_permute_refuses_float_masks():
    for masks in (1.0, [0.0, 1.0]):
        with pytest.raises(ValidationError, match="flip masks must be one integer"):
            xor_permute(np.ones((8, 2)), masks)


def test_marginals_ground_and_excited():
    ground = np.eye(32)[0] * 100
    excited = np.eye(32)[31] * 100
    assert np.array_equal(qubit_marginals(ground), np.zeros(5))
    assert np.array_equal(qubit_marginals(excited), np.ones(5))


def test_marginals_uniform_two_qubit():
    h = np.array([5.0, 5.0, 5.0, 5.0])
    assert np.allclose(qubit_marginals(h), [0.5, 0.5])


def test_marginals_empty_histogram():
    with pytest.raises(ValidationError):
        qubit_marginals(np.zeros(4))


def test_observable_ground_state():
    h = np.eye(32)[0] * 1000
    assert observable_base10(h) == 0.0


def test_observable_inverted_w_value():
    # support states are 31 ^ 2^i -> {30, 29, 27, 23, 15}; mean = 124/5
    probs = np.zeros(32)
    for i in range(5):
        probs[31 ^ (1 << i)] = 0.2
    h = probs * 1e5
    assert observable_base10(h) == pytest.approx(124 / 5, abs=1e-12)
    assert 124 / 5 == 24.8


def test_observable_uniform():
    h = np.ones(32)
    assert observable_base10(h) == pytest.approx(15.5, abs=1e-12)


def test_observable_concentrated_equals_index():
    for state in range(32):
        h = np.eye(32)[state] * 7
        assert observable_base10(h) == float(state)


def test_observable_empty():
    with pytest.raises(ValidationError):
        observable_base10(np.zeros(4))


def test_counts_in_state_basics():
    h = np.eye(32)[31] * 12345
    assert counts_in_state(h, 31) == 12345
    assert counts_in_state(h, 0) == 0
    with pytest.raises(DimensionError):
        counts_in_state(h, 32)
    # a state index is an integer: int() would read 7.9 as state 7 and True as 1
    for state in (7.9, True):
        with pytest.raises(ValidationError, match="state must be an integer"):
            counts_in_state(h, state)


def test_counts_in_state_ideal_grover():
    # one Grover iteration on 5 qubits: oracle recursion fixes the target mass
    p_oracle = grover_target_probability(5, 1)
    assert p_oracle == pytest.approx(529 / 2048, abs=1e-15)
    probs = np.full(32, (1 - p_oracle) / 31)
    probs[31] = p_oracle
    h = probs * 1e5
    expected = 1e5 * p_oracle  # = 25830.078125
    assert counts_in_state(h, 31) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(25830.078125, abs=1e-9)


def test_shot_counts_beyond_int64_are_refused():
    # numpy's multinomial draws at most an int64 of shots; every caller
    # refuses more with the one core check instead of an OverflowError
    from readout_rebalance.analytics import TwoQubitModel, appendix_a_exact_variances
    from readout_rebalance.noise import default_response, estimate_response, sample_measured
    from readout_rebalance.rebalance import MeasurementPlan

    R, beyond = default_response(), 2 ** 63
    callers = [
        lambda n: MeasurementPlan(n),
        lambda n: sample_measured(ProbDist(np.full(32, 1 / 32)), R, n, [rng_stream(0)]),
        lambda n: estimate_response(R, n, 0),
        lambda n: TwoQubitModel(0.05, 0.03, 0, 0, 0, n),
        # four counts that each fit an int64 but whose total does not
        lambda n: appendix_a_exact_variances(TwoQubitModel(0.05, 0.03, *[n // 2] * 4)),
    ]
    for call in callers:
        with pytest.raises(ValidationError, match=f"between [0-9]+ and {beyond - 1}"):
            call(beyond)
    # integers only, as in a config file: no bool, text or fraction is coerced
    for call in callers[:-1]:
        for bad in (True, "100", 100.9):
            with pytest.raises(ValidationError, match=f"must be an integer, got {bad!r}"):
                call(bad)
    # numpy integers pass, as Python ints
    assert type(MeasurementPlan(np.int64(100)).total_shots) is int
