"""Analytic ideal output distributions for the three benchmark circuits.

Outcome statistics are all that matter for readout studies, so the circuits
are replaced by their exact output distributions: no gate-level simulation.
"""

import numpy as np

from .core import DimensionError, ProbDist, ValidationError


def inverted_w_dist(n):
    """Equal superposition of the n basis states with exactly one 0 bit.

    Probability 1/n on each of |011..1>, |101..1>, ..., |11..10>.
    """
    n = int(n)
    if n < 2:
        raise ValidationError("inverted W state needs at least 2 qubits")
    probs = np.zeros(2 ** n)
    ones = 2 ** n - 1
    for i in range(n):
        probs[ones ^ (1 << i)] = 1.0 / n
    return ProbDist(n, probs)


def grover_dist(n, target, iterations):
    """Outcome distribution of Grover search after a number of iterations.

    Starting from the uniform superposition, k Grover iterations leave the
    marked state with amplitude sin((2k+1) * theta) where sin(theta) =
    1/sqrt(2^n); the remaining mass is split evenly over the other states.
    """
    n = int(n)
    if n < 1:
        raise ValidationError("need at least 1 qubit")
    if int(iterations) < 0:
        raise ValidationError("iterations must be >= 0")
    target = int(target)
    dim = 2 ** n
    if not 0 <= target < dim:
        raise DimensionError(f"target state {target} out of range for {n} qubits")
    theta = np.arcsin(1.0 / np.sqrt(dim))
    p_target = np.sin((2 * int(iterations) + 1) * theta) ** 2
    probs = np.full(dim, (1.0 - p_target) / (dim - 1))
    probs[target] = p_target
    return ProbDist(n, probs)


def gaussian_grid(n_bits):
    """Uniform digitization grid on [-1, 1]: x_s = -1 + 2 s / (2^n - 1)."""
    n_bits = int(n_bits)
    if n_bits < 1:
        raise ValidationError("need at least 1 bit")
    dim = 2 ** n_bits
    return -1.0 + 2.0 * np.arange(dim) / (dim - 1)


def gaussian_dist(mu, sigma, n_bits):
    """Gaussian digitized on the [-1, 1] grid, |00..0> -> -1 and |11..1> -> +1.

    The density is evaluated at the grid points and renormalized, so the
    tails are truncated rather than reflected.
    """
    if not np.isfinite(float(mu)):
        raise ValidationError(f"mu must be finite, got {mu!r}")
    # written so that NaN fails the test as well
    if not 0.0 < float(sigma) < np.inf:
        raise ValidationError(f"sigma must be positive and finite, got {sigma!r}")
    x = gaussian_grid(n_bits)
    weights = np.exp(-((x - float(mu)) ** 2) / (2.0 * float(sigma) ** 2))
    return ProbDist(int(n_bits), weights / weights.sum())
