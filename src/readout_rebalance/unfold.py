"""Readout-error correction: matrix inversion and iterative Bayesian unfolding.

Both unfolders take a measured histogram and a response matrix and return
an estimate of the true histogram at the same total.  Matrix inversion is
exactly unbiased for linear observables but can go negative; IBU stays
nonnegative and is the usual choice for actual correction work.
"""

import numpy as np
from dataclasses import dataclass

from .core import (
    CountsHistogram,
    DimensionError,
    NumericalError,
    ValidationError,
)

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


def _check_dims(measured, response):
    if measured.n_qubits != response.n_qubits:
        raise DimensionError("histogram width does not match response matrix")


def condition_report(response):
    """2-norm condition number of the response matrix (ratio of extreme
    singular values), computed once per matrix."""
    return response.condition_number


def _invert_columns(counts, response):
    cond = condition_report(response)
    if not np.isfinite(cond) or cond > DEFAULT_MAX_CONDITION:
        raise NumericalError(
            f"response matrix condition number {cond:.3e} exceeds {DEFAULT_MAX_CONDITION:.3e}"
        )
    try:
        return np.linalg.solve(response.entries, counts)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"response matrix is singular: {exc}") from exc


def _ibu_columns(counts, response, iterations):
    if np.any(counts < 0):
        raise ValidationError("IBU requires a nonnegative measured histogram")
    totals = counts.sum(axis=0)
    if np.any(totals <= 0):
        raise ValidationError("IBU requires a histogram with positive total")
    t = np.ones_like(counts) * (totals / response.dim)

    R = response.entries
    occupied = counts > 0
    for _ in range(int(iterations)):
        folded = R @ t
        empty = folded <= 0.0
        stuck = empty & occupied
        if np.any(stuck):
            j = int(np.argwhere(stuck)[0][0])
            raise NumericalError(
                f"measured bin {j} has counts but zero folded support; "
                "degenerate response/prior combination"
            )
        ratio = np.divide(counts, folded, out=np.zeros_like(t), where=~empty)
        t = t * (R.T @ ratio)
    return t


def unfold_columns(counts, response, config):
    """Unfold every column of a ``(dim, k)`` measured-counts array at once.

    The batched kernel behind every unfolder in the package: one
    ``solve(R, counts)`` for matrix inversion, or one IBU loop of ``R @ T``
    and ``R.T @ ratio`` over the whole matrix.  The single-histogram
    unfolders run this kernel on one column; a column's result does not
    depend on the other columns beyond floating-point rounding.  Their
    checks (condition bound, nonnegative input, positive total, folded
    support) apply to every column, and one failing column fails the batch.
    """
    if config.method == "matrix_inversion":
        return _invert_columns(counts, response)
    return _ibu_columns(counts, response, config.ibu_iterations)


def matrix_inverse_unfold(measured, response):
    """Unfold by solving R t = m.

    Solves the linear system rather than materializing R^-1.  Because the
    columns of R sum to one, the solution preserves the measured total.
    Entries may come out negative; they are returned as-is so downstream
    statistics stay unbiased.

    Raises
    ------
    NumericalError
        If R is singular or its condition number exceeds ``DEFAULT_MAX_CONDITION``.
    """
    _check_dims(measured, response)
    solution = _invert_columns(measured.counts[:, None], response)
    return CountsHistogram(measured.n_qubits, solution[:, 0])


def ibu_unfold(measured, response, iterations=DEFAULT_IBU_ITERATIONS):
    """Iterative Bayesian unfolding (Richardson-Lucy / D'Agostini iteration).

    Starting from the uniform distribution scaled to the measured total,
    each step redistributes the measured counts with Bayes' rule:

        t[i] <- t[i] * sum_j R[j, i] * m[j] / (R t)[j]

    The iterate stays nonnegative and keeps the measured total at every
    step.  Convergence is controlled purely by the iteration count, and it
    is slow where the truth is (near-)empty: the multiplicative update
    clears the mass left in such bins only like C/iterations.  On noiseless
    folded counts of the committed 5-qubit model, the total variation to
    the truth after k iterations is about 0.32/k for the inverted W state
    and up to 0.19/k for the benchmark Gaussians.

    Raises
    ------
    ValidationError
        For negative or zero-total input histograms.
    NumericalError
        If some measured bin has counts but zero folded support, so no
        redistribution can explain it.
    """
    _check_dims(measured, response)
    if int(iterations) < 1:
        raise ValidationError("iterations must be >= 1")
    t = _ibu_columns(measured.counts[:, None], response, iterations)
    return CountsHistogram(measured.n_qubits, t[:, 0])


def apply_unfold(measured, response, config):
    """Run the unfolder selected by an :class:`UnfoldConfig`."""
    _check_dims(measured, response)
    corrected = unfold_columns(measured.counts[:, None], response, config)
    return CountsHistogram(measured.n_qubits, corrected[:, 0])
