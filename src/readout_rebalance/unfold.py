"""Readout-error correction: matrix inversion and iterative Bayesian unfolding.

Both unfolders take measured counts, one histogram or one per column of a
``(dim, k)`` array, and a response matrix, and return an estimate of the
true histograms at the same totals.  Matrix inversion is exactly unbiased
for linear observables but can go negative; IBU stays nonnegative and is
the usual choice for actual correction work.

Both act on R through its factor tuple,
:attr:`~readout_rebalance.noise.ResponseMatrix.kron_factors`: the dense
matrix alone, or, for a tensor model from 7 qubits up, a high-qubit and a
low-qubit factor built from its per-qubit pairs.  ``_kron_apply``
is the one code that walks the factors: ``R @ x``, ``R.T @ x`` and the
solve each act on one axis of the counts per factor.  Factoring changes
results by rounding only.
"""

import numpy as np
from dataclasses import dataclass
from functools import partial

from .core import DimensionError, NumericalError, ValidationError, _check_count, _counts, _totals

DEFAULT_IBU_ITERATIONS = 100
# Most IBU iterations: 10**5 take about 30 s on a 5-qubit, 1000-repetition cell
# (2-core host), 10**10 over a month; the tests and docs use at most 3000.
_MAX_IBU_ITERATIONS = 10 ** 5
# refuse inversion beyond this condition number; far above anything a
# readout matrix should reach
DEFAULT_MAX_CONDITION = 1e12
# IBU's floor under a folded bin: only an empty bin's fold can fall below it
_FLOOR = np.finfo(np.float64).smallest_subnormal

_METHODS = ("matrix_inversion", "ibu")


def _check_ibu_iterations(iterations):
    return _check_count(iterations, "ibu_iterations", most=_MAX_IBU_ITERATIONS)


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
        object.__setattr__(self, "ibu_iterations", _check_ibu_iterations(self.ibu_iterations))


def condition_report(response):
    """2-norm condition number of the response matrix (ratio of extreme
    singular values), computed once per matrix."""
    return response.condition_number


def _check_counts(counts, response):
    counts, n = _counts(counts)
    if n != response.n_qubits:
        raise DimensionError(
            f"counts of shape {counts.shape} do not match a {response.dim}-state response matrix"
        )
    return counts


def _kron_apply(op, factors, x):
    """``op(np.kron(*factors), x)`` for ``op`` ``np.matmul`` or ``np.linalg.solve``.

    ``x`` is ``(dim,)`` or ``(dim, k)``; viewed as ``(len(f0), len(f1), ..., k)``,
    each factor acts, broadcast, on its own axis, outermost first.
    """
    y, lead = x, 1
    for f in factors:
        y = op(f, y.reshape(lead, len(f), -1))
        lead *= len(f)
    return y.reshape(x.shape)


def _products(factors):
    """``R @ x`` and ``R.T @ x`` as callables; a lone factor's own ``@`` saves
    the 2 us a ``_kron_apply`` call adds to each 7 us 32x32 product."""
    transposed = tuple(f.T for f in factors)
    if len(factors) == 1:
        return factors[0].__matmul__, transposed[0].__matmul__
    return partial(_kron_apply, np.matmul, factors), partial(_kron_apply, np.matmul, transposed)


def matrix_inverse_unfold(counts, response):
    """Unfold by solving R t = m, for every column of the counts at once.

    Solves the linear system rather than materializing R^-1: one LU solve
    with each of R's ``kron_factors``, so a factored matrix never has its
    ``2**n x 2**n`` product factorized.  Because the columns of R sum to
    one, the solution preserves each measured total.
    Entries may come out negative; they are returned as-is so downstream
    statistics stay unbiased.

    Raises
    ------
    ValidationError
        For a count that is NaN or infinite.
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
        return _kron_apply(np.linalg.solve, response.kron_factors, counts)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"response matrix is singular: {exc}") from exc


def ibu_unfold(counts, response, iterations=DEFAULT_IBU_ITERATIONS):
    """Iterative Bayesian unfolding (Richardson-Lucy / D'Agostini iteration).

    Starting from the uniform distribution scaled to the measured total,
    each step redistributes the measured counts with Bayes' rule:

        t[i] <- t[i] * sum_j R[j, i] * m[j] / (R t)[j]

    Every column of the counts runs in the same loop of ``R @ t`` and
    ``R.T @ ratio``, both taken through R's Kronecker factors.  The
    iterate stays nonnegative and keeps the measured
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
        For negative, non-finite or zero-total input histograms, or
        iterations that are not an integer from 1 to 10**5.
    NumericalError
        If some measured bin has counts but zero folded support, so no
        redistribution can explain it.
    """
    counts = _check_counts(counts, response)
    iterations = _check_ibu_iterations(iterations)
    if np.any(counts < 0):
        raise ValidationError("IBU requires a nonnegative measured histogram")
    t = np.ones_like(counts) * (_totals(counts, "IBU") / response.dim)

    fold, back = _products(response.kron_factors)
    for i in range(iterations):
        folded = fold(t)
        # Only the first fold can fail: R, t and the counts are nonnegative, so an
        # occupied bin's largest term R[j, k] t[k] leaves t'[k] >= counts[j] / dim
        # and its fold positive.  The floor then changes only an empty bin's 0 / 0.
        if i == 0 and np.any((counts > 0) & (folded <= 0.0)):
            j = int(np.argwhere((counts > 0) & (folded <= 0.0))[0][0])
            raise NumericalError(
                f"measured bin {j} has counts but zero folded support; "
                "degenerate response/prior combination"
            )
        t = t * back(counts / np.maximum(folded, _FLOOR))
    return t


def apply_unfold(counts, response, config):
    """Run the unfolder an :class:`UnfoldConfig` selects on ``(dim,)`` or
    ``(dim, k)`` counts.

    One ``solve`` for matrix inversion, or one IBU loop over the whole
    array.  A column's result does not depend on the other columns beyond
    floating-point rounding, but the checks (finite counts, condition bound,
    nonnegative input, positive total, folded support) apply to every
    column, and one failing column fails the call.
    """
    if config.method == "matrix_inversion":
        return matrix_inverse_unfold(counts, response)
    return ibu_unfold(counts, response, config.ibu_iterations)
