import math

import numpy as np
import pytest

from readout_rebalance.core import (
    CountsHistogram,
    DimensionError,
    FlipMask,
    ProbDist,
    QubitNoiseParams,
    ValidationError,
    counts_in_state,
    observable_base10,
    qubit_marginals,
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


def test_histogram_invariants():
    h = CountsHistogram(2, [1, 2, 3, 4])
    assert h.total == 10
    with pytest.raises(DimensionError):
        CountsHistogram(2, [1, 2, 3])


def test_histogram_counts_frozen():
    h = CountsHistogram(1, [1, 2])
    with pytest.raises(ValueError):
        h.counts[0] = 5


def test_probdist_validation():
    ProbDist(1, [0.25, 0.75])
    with pytest.raises(ValidationError):
        ProbDist(1, [0.3, 0.8])
    with pytest.raises(ValidationError):
        ProbDist(1, [-0.1, 1.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probdist_rejects_non_finite(bad):
    # NaN compares False both ways, so a plain range test lets it through
    with pytest.raises(ValidationError, match="finite"):
        ProbDist(2, [bad, 0.5, 0.25, 0.25])


def test_flipmask_basics():
    f = FlipMask(5, 0b10001)
    assert f.bitstring() == "10001"
    with pytest.raises(DimensionError):
        FlipMask(2, 0b100)


def test_noise_params_validation():
    QubitNoiseParams(0.0, 1.0)
    with pytest.raises(ValidationError):
        QubitNoiseParams(-0.1, 0.5)
    with pytest.raises(ValidationError):
        QubitNoiseParams(0.1, 1.5)


def test_xor_permute_identity_mask():
    h = CountsHistogram(3, np.arange(8))
    out = xor_permute(h, FlipMask.identity(3))
    assert np.array_equal(out.counts, h.counts)


def test_xor_permute_two_qubit_reversal():
    # (a, b, c, d) indexed 00, 01, 10, 11 reverses under the full mask
    h = CountsHistogram(2, [1.0, 2.0, 3.0, 4.0])
    out = xor_permute(h, FlipMask.full(2))
    assert list(out.counts) == [4.0, 3.0, 2.0, 1.0]


def test_xor_permute_involution(rng):
    counts = rng.integers(0, 50, size=32).astype(float)
    h = CountsHistogram(5, counts)
    f = FlipMask(5, 0b10001)
    back = xor_permute(xor_permute(h, f), f)
    assert np.array_equal(back.counts, h.counts)


def test_xor_permute_preserves_total_and_multiset(rng):
    counts = rng.integers(0, 50, size=16).astype(float)
    h = CountsHistogram(4, counts)
    out = xor_permute(h, FlipMask(4, 0b0110))
    assert out.total == h.total
    assert sorted(out.counts) == sorted(h.counts)


def test_xor_permute_width_mismatch():
    h = CountsHistogram(3, np.ones(8))
    with pytest.raises(DimensionError):
        xor_permute(h, FlipMask(2, 0b01))


def test_marginals_ground_and_excited():
    ground = CountsHistogram(5, np.eye(32)[0] * 100)
    excited = CountsHistogram(5, np.eye(32)[31] * 100)
    assert np.array_equal(qubit_marginals(ground), np.zeros(5))
    assert np.array_equal(qubit_marginals(excited), np.ones(5))


def test_marginals_uniform_two_qubit():
    h = CountsHistogram(2, [5, 5, 5, 5])
    assert np.allclose(qubit_marginals(h), [0.5, 0.5])


def test_marginals_empty_histogram():
    with pytest.raises(ValidationError):
        qubit_marginals(CountsHistogram(2, np.zeros(4)))


def test_observable_ground_state():
    h = CountsHistogram(5, np.eye(32)[0] * 1000)
    assert observable_base10(h) == 0.0


def test_observable_inverted_w_value():
    # support states are 31 ^ 2^i -> {30, 29, 27, 23, 15}; mean = 124/5
    probs = np.zeros(32)
    for i in range(5):
        probs[31 ^ (1 << i)] = 0.2
    h = CountsHistogram(5, probs * 1e5)
    assert observable_base10(h) == pytest.approx(124 / 5, abs=1e-12)
    assert 124 / 5 == 24.8


def test_observable_uniform():
    h = CountsHistogram(5, np.ones(32))
    assert observable_base10(h) == pytest.approx(15.5, abs=1e-12)


def test_observable_concentrated_equals_index():
    for state in range(32):
        h = CountsHistogram(5, np.eye(32)[state] * 7)
        assert observable_base10(h) == float(state)


def test_observable_empty():
    with pytest.raises(ValidationError):
        observable_base10(CountsHistogram(2, np.zeros(4)))


def test_counts_in_state_basics():
    h = CountsHistogram(5, np.eye(32)[31] * 12345)
    assert counts_in_state(h, 31) == 12345
    assert counts_in_state(h, 0) == 0
    with pytest.raises(DimensionError):
        counts_in_state(h, 32)


def test_counts_in_state_ideal_grover():
    # one Grover iteration on 5 qubits: oracle recursion fixes the target mass
    p_oracle = grover_target_probability(5, 1)
    assert p_oracle == pytest.approx(529 / 2048, abs=1e-15)
    probs = np.full(32, (1 - p_oracle) / 31)
    probs[31] = p_oracle
    h = CountsHistogram(5, probs * 1e5)
    expected = 1e5 * p_oracle  # = 25830.078125
    assert counts_in_state(h, 31) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(25830.078125, abs=1e-9)
