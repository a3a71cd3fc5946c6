import math
import re

import numpy as np
import pytest

from readout_rebalance.core import DimensionError, ValidationError, qubit_marginals
from readout_rebalance.states import (
    gaussian_dist,
    gaussian_grid,
    grover_dist,
    inverted_w_dist,
)

from test_core import grover_target_probability


def test_inverted_w_five_qubits():
    dist = inverted_w_dist(5)
    support = {31 ^ (1 << i) for i in range(5)}
    assert support == {30, 29, 27, 23, 15}
    for s in range(32):
        expected = 0.2 if s in support else 0.0
        assert dist.probs[s] == pytest.approx(expected, abs=1e-15)


def test_inverted_w_two_qubits():
    dist = inverted_w_dist(2)
    assert list(dist.probs) == [0.0, 0.5, 0.5, 0.0]


def test_inverted_w_marginals():
    # each qubit is excited in 4 of the 5 support states
    assert np.allclose(qubit_marginals(inverted_w_dist(5).probs), 0.8, atol=1e-15)


def test_inverted_w_needs_two_qubits():
    with pytest.raises(ValidationError):
        inverted_w_dist(1)


def test_grover_zero_iterations_uniform():
    dist = grover_dist(5, 31, 0)
    assert np.allclose(dist.probs, 1 / 32, atol=1e-15)


def test_grover_single_iteration_matches_recursion_oracle():
    dist = grover_dist(5, 31, 1)
    assert dist.probs[31] == pytest.approx(grover_target_probability(5, 1), abs=1e-14)
    assert dist.probs[31] == pytest.approx(529 / 2048, abs=1e-14)
    # triple angle by hand: sin(3t) = 3 sin t - 4 sin^3 t with sin t = 1/sqrt(32)
    amp = 3 / math.sqrt(32) - 4 / (32 * math.sqrt(32))
    assert dist.probs[31] == pytest.approx(amp ** 2, abs=1e-14)


def test_grover_multiple_iterations_match_oracle():
    for k in range(8):
        dist = grover_dist(4, 9, k)
        assert dist.probs[9] == pytest.approx(grover_target_probability(4, k), abs=1e-12)


def test_grover_off_target_mass_split_evenly():
    dist = grover_dist(5, 31, 1)
    off = np.delete(dist.probs, 31)
    assert np.allclose(off, off[0], atol=1e-16)
    assert off.sum() == pytest.approx(1 - dist.probs[31], abs=1e-12)


def test_grover_target_out_of_range():
    with pytest.raises(DimensionError):
        grover_dist(3, 8, 1)


def test_grover_iterations_bounded_where_the_angle_stays_accurate():
    # (2k + 1) * theta carries theta's rounding times 2k + 1.  Exact references:
    # one qubit has theta = pi/4, so p = 1/2 for every k; two qubits have
    # theta = pi/6, so p = 1 when k = 1 (mod 3) and 1/4 otherwise
    for k in (10 ** 4 - 1, 10 ** 4):
        assert grover_dist(1, 1, k).probs[1] == pytest.approx(0.5, abs=1e-11)
        assert grover_dist(2, 3, k).probs[3] == pytest.approx(
            1.0 if k % 3 == 1 else 0.25, abs=1e-11)
    for k in (-1, 10 ** 4 + 1, 10 ** 400):
        with pytest.raises(ValidationError, match="iterations must lie between 0 and 10000"):
            grover_dist(5, 31, k)


def test_gaussian_grid_endpoints():
    x = gaussian_grid(5)
    assert x[0] == -1.0
    assert x[-1] == 1.0
    assert len(x) == 32


def test_gaussian_symmetric_at_zero_mean():
    dist = gaussian_dist(0.0, 0.1, 5)
    assert np.allclose(dist.probs, dist.probs[::-1], atol=1e-12)


def test_gaussian_mode_at_left_edge():
    dist = gaussian_dist(-1.0, 0.1, 5)
    assert np.argmax(dist.probs) == 0


def test_gaussian_excited_heavy_at_positive_mean():
    # direct enumeration oracle for the mean number of excited qubits
    dist = gaussian_dist(0.78, 0.1, 5)
    mean_bits = sum(
        dist.probs[s] * bin(s).count("1") for s in range(32)
    )
    assert mean_bits > 2.5
    assert np.allclose(qubit_marginals(dist.probs).sum(), mean_bits, atol=1e-12)


def test_gaussian_mirror_property():
    for mu in (0.1, 0.35, 0.78, 1.0):
        plus = gaussian_dist(mu, 0.1, 5)
        minus = gaussian_dist(-mu, 0.1, 5)
        assert np.allclose(plus.probs, minus.probs[::-1], atol=1e-12)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValidationError):
        gaussian_dist(0.0, 0.0, 5)
    with pytest.raises(ValidationError):
        gaussian_dist(0.0, -0.2, 5)
    # an infinite width would otherwise give the uniform distribution
    for sigma in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="sigma"):
            gaussian_dist(0.0, sigma, 5)
    for mu in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValidationError, match="mu"):
            gaussian_dist(mu, 0.1, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, sigma", [(40.0, 0.01), (0.0, 1e-5)])
def test_gaussian_refuses_all_weights_underflowing(mu, sigma):
    # no 5-bit grid point lies within about 38.6 sigma of mu: refused before
    # the 0 / 0 normalization, with no RuntimeWarning
    with pytest.raises(ValidationError, match="mu = .*, sigma = "):
        gaussian_dist(mu, sigma, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mu, sigma",
    [(0.0, 1e200), (1e200, 0.1), (-1.0, 1e-200), (-1.0, 1e-160)],
    ids=["sigma-squared-overflows", "mean-squared-overflows", "sigma-squared-underflows",
         "exponent-overflows"],
)
def test_gaussian_refuses_a_density_float64_cannot_evaluate(mu, sigma):
    with pytest.raises(ValidationError, match=re.escape(f"mu = {mu!r}, sigma = {sigma!r}")):
        gaussian_dist(mu, sigma, 5)


@pytest.mark.filterwarnings("error")
def test_gaussian_accepts_the_extremes_float64_evaluates():
    # 2 sigma**2 overflows to inf, not sigma**2: every exponent is 0
    assert np.array_equal(gaussian_dist(0.0, 1.3e154, 5).probs, np.full(32, 1 / 32))
    # the grid point at mu keeps all the mass; the others underflow to 0
    assert np.array_equal(gaussian_dist(-1.0, 1e-150, 5).probs, np.eye(32)[0])


def test_distributions_normalized():
    dists = [inverted_w_dist(5), grover_dist(5, 31, 1)]
    dists += [gaussian_dist(mu, 0.1, 5) for mu in np.linspace(-1, 1, 21)]
    for dist in dists:
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
