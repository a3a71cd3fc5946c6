"""Readout-error correction: matrix inversion and iterative Bayesian unfolding.

Both unfolders take measured counts, one histogram or one per column of a
``(dim, k)`` array, and a response matrix, and return an estimate of the
true histograms at the same totals.  Matrix inversion is exactly unbiased
for linear observables but can go negative; IBU stays nonnegative and is
the usual choice for actual correction work.
"""

import numpy as np
from dataclasses import dataclass

from .core import DimensionError, NumericalError, ValidationError, _totals, _width

DEFAULT_IBU_ITERATIONS = 100
# refuse inversion beyond this condition number; far above anything a
# readout matrix should reach
DEFAULT_MAX_CONDITION = 1e12

_METHODS = ("matrix_inversion", "ibu")


@dataclass(frozen=True)
class UnfoldConfig:
    """Which unfolder to run and with what settings."""

    method: str = "ibu"
    ibu_iterations: int = DEFAULT_IBU_ITERATIONS

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown unfold method {self.method!r}, expected one of {_METHODS}"
            )
        if int(self.ibu_iterations) < 1:
            raise ValidationError("ibu_iterations must be >= 1")
        object.__setattr__(self, "ibu_iterations", int(self.ibu_iterations))


def condition_report(response):
    """2-norm condition number of the response matrix (ratio of extreme
    singular values), computed once per matrix."""
    return response.condition_number


def _check_counts(counts, response):
    counts, n = _width(counts)
    if n != response.n_qubits:
        raise DimensionError(
            f"counts of shape {counts.shape} do not match a {response.dim}-state response matrix"
        )
    return counts


def matrix_inverse_unfold(counts, response):
    """Unfold by solving R t = m, for every column of the counts at once.

    Solves the linear system rather than materializing R^-1.  Because the
    columns of R sum to one, the solution preserves each measured total.
    Entries may come out negative; they are returned as-is so downstream
    statistics stay unbiased.

    Raises
    ------
    NumericalError
        If R is singular or its condition number exceeds ``DEFAULT_MAX_CONDITION``.
    """
    counts = _check_counts(counts, response)
    cond = condition_report(response)
    if not np.isfinite(cond) or cond > DEFAULT_MAX_CONDITION:
        raise NumericalError(
            f"response matrix condition number {cond:.3e} exceeds {DEFAULT_MAX_CONDITION:.3e}"
        )
    try:
        return np.linalg.solve(response.entries, counts)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"response matrix is singular: {exc}") from exc


def ibu_unfold(counts, response, iterations=DEFAULT_IBU_ITERATIONS):
    """Iterative Bayesian unfolding (Richardson-Lucy / D'Agostini iteration).

    Starting from the uniform distribution scaled to the measured total,
    each step redistributes the measured counts with Bayes' rule:

        t[i] <- t[i] * sum_j R[j, i] * m[j] / (R t)[j]

    Every column of the counts runs in the same loop of ``R @ t`` and
    ``R.T @ ratio``.  The iterate stays nonnegative and keeps the measured
    total at every step.  Convergence is controlled purely by the iteration
    count, and it is slow where the truth is (near-)empty: the
    multiplicative update clears the mass left in such bins only like
    C/iterations.  On noiseless folded counts of the committed 5-qubit
    model, the total variation to the truth after k iterations is about
    0.32/k for the inverted W state and up to 0.19/k for the benchmark
    Gaussians.

    Raises
    ------
    ValidationError
        For negative or zero-total input histograms, or ``iterations < 1``.
    NumericalError
        If some measured bin has counts but zero folded support, so no
        redistribution can explain it.
    """
    counts = _check_counts(counts, response)
    if int(iterations) < 1:
        raise ValidationError("ibu_iterations must be >= 1")
    if np.any(counts < 0):
        raise ValidationError("IBU requires a nonnegative measured histogram")
    t = np.ones_like(counts) * (_totals(counts, "IBU") / response.dim)

    R = response.entries
    for i in range(int(iterations)):
        folded = R @ t
        empty = folded <= 0.0
        # with R, t and the counts nonnegative, an occupied bin that has folded
        # support keeps it at every later step: only the first fold can fail
        if i == 0 and np.any(empty & (counts > 0)):
            j = int(np.argwhere(empty & (counts > 0))[0][0])
            raise NumericalError(
                f"measured bin {j} has counts but zero folded support; "
                "degenerate response/prior combination"
            )
        ratio = np.divide(counts, folded, out=np.zeros_like(t), where=~empty)
        t = t * (R.T @ ratio)
    return t


def apply_unfold(counts, response, config):
    """Run the unfolder an :class:`UnfoldConfig` selects on ``(dim,)`` or
    ``(dim, k)`` counts.

    One ``solve`` for matrix inversion, or one IBU loop over the whole
    array.  A column's result does not depend on the other columns beyond
    floating-point rounding, but the checks (condition bound, nonnegative
    input, positive total, folded support) apply to every column, and one
    failing column fails the call.
    """
    if config.method == "matrix_inversion":
        return matrix_inverse_unfold(counts, response)
    return ibu_unfold(counts, response, config.ibu_iterations)
