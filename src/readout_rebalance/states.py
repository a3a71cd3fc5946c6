"""Analytic ideal output distributions for the three benchmark circuits.

Outcome statistics are all that matter for readout studies, so the circuits
are replaced by their exact output distributions: no gate-level simulation.
"""

import math
import sys

import numpy as np

from .core import DimensionError, ProbDist, ValidationError, _MAX_QUBITS, _check_count, _check_real


def inverted_w_dist(n):
    """Equal superposition of the n basis states with exactly one 0 bit.

    Probability 1/n on each of |011..1>, |101..1>, ..., |11..10>.
    """
    n = _check_count(n, "n", least=2, most=_MAX_QUBITS)
    probs = np.zeros(2 ** n)
    ones = 2 ** n - 1
    for i in range(n):
        probs[ones ^ (1 << i)] = 1.0 / n
    return ProbDist(probs)


# (2k + 1) * theta carries the rounding of theta times 2k + 1: up to 10**4
# iterations the target probability stays within about 1e-12 at every width
_MAX_GROVER_ITERATIONS = 10 ** 4


def _check_grover_iterations(iterations):
    return _check_count(iterations, "iterations", least=0, most=_MAX_GROVER_ITERATIONS)


def grover_dist(n, target, iterations):
    """Outcome distribution of Grover search after a number of iterations.

    Starting from the uniform superposition, k Grover iterations leave the
    marked state with amplitude sin((2k+1) * theta) where sin(theta) =
    1/sqrt(2^n); the remaining mass is split evenly over the other states.
    """
    n = _check_count(n, "n", most=_MAX_QUBITS)
    iterations = _check_grover_iterations(iterations)
    target = _check_count(target, "target", least=0, most=math.inf)
    dim = 2 ** n
    if target >= dim:
        raise DimensionError(f"target state {target} out of range for {n} qubits")
    theta = np.arcsin(1.0 / np.sqrt(dim))
    p_target = np.sin((2 * iterations + 1) * theta) ** 2
    probs = np.full(dim, (1.0 - p_target) / (dim - 1))
    probs[target] = p_target
    return ProbDist(probs)


def gaussian_grid(n_bits):
    """Uniform digitization grid on [-1, 1]: x_s = -1 + 2 s / (2^n - 1)."""
    n_bits = _check_count(n_bits, "n_bits", most=_MAX_QUBITS)
    dim = 2 ** n_bits
    return -1.0 + 2.0 * np.arange(dim) / (dim - 1)


def _check_gaussian(mu, sigma):
    """``(mu, 2 sigma**2)`` in float64, as the density uses them."""
    # compared with a Python float, exact for an integer beyond float range and
    # failing NaN; a float32 compares as float32, where largest overflows to inf
    largest = sys.float_info.max
    with np.errstate(all="ignore"):
        if not -largest <= _check_real(mu, "mu") <= largest:
            raise ValidationError(f"mu must be finite, got {mu!r}")
        if not 0.0 < _check_real(sigma, "sigma") <= largest:
            raise ValidationError(f"sigma must be positive and finite, got {sigma!r}")
        # gaussian_dist's exponent, largest at the grid end x = -1 or +1 farthest
        # from mu, computed as there (an array's ** 2 is np.square, a float's is
        # pow): float64 evaluates it at every grid point when it and sigma**2 are finite
        square = np.float64(sigma) ** 2
        spread = 2.0 * square
        far = np.square(1.0 + abs(np.float64(mu))) / spread
    if not (np.isfinite(square) and np.isfinite(far)):
        raise ValidationError(f"float64 cannot hold the density of mu = {mu!r}, sigma = {sigma!r}")
    return np.float64(mu), spread


def gaussian_dist(mu, sigma, n_bits):
    """Gaussian digitized on the [-1, 1] grid, |00..0> -> -1 and |11..1> -> +1.

    The density is evaluated at the grid points and renormalized, so the
    tails are truncated rather than reflected.
    """
    mu64, spread = _check_gaussian(mu, sigma)
    x = gaussian_grid(n_bits)
    weights = np.exp(-((x - mu64) ** 2) / spread)
    total = weights.sum()
    if not total > 0.0:
        raise ValidationError(
            f"every grid weight underflows to 0 for mu = {mu!r}, sigma = {sigma!r}"
        )
    return ProbDist(weights / total)
