"""Readout-error correction: matrix inversion and iterative Bayesian unfolding.

Both unfolders take measured counts, one histogram or one per column of a
``(dim, k)`` array, and a response matrix, and return an estimate of the
true histograms at the same totals.  Matrix inversion is exactly unbiased
for linear observables but can go negative; IBU stays nonnegative and is
the usual choice for actual correction work.

Both go through :func:`~readout_rebalance.noise._kron_apply`: IBU applies R
by its :attr:`~readout_rebalance.noise.ResponseMatrix.kron_factors`, and
matrix inversion applies R^-1 by their inverses, which each matrix finds
once and keeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, NumericalError, ValidationError, _check_count, _counts, _totals
from .noise import _kron_apply

DEFAULT_IBU_ITERATIONS = 100
# Most IBU iterations: 10**5 took 13 s and 10**4 1.2-1.5 s on the 1000 columns
# of a 5-qubit inverted-W cell (nominal or rebalanced, one BLAS thread, 2-core
# x86 host); 10**10 would take about two weeks.  An R with zero entries skips
# the flush of emptied bins, which then decay into subnormal arithmetic after
# about 1000 iterations: up to 10-30 times slower.  The tests and docs use at
# most 3000.
_MAX_IBU_ITERATIONS = 10 ** 5
# refuse inversion beyond this condition number; far above anything a
# readout matrix should reach
DEFAULT_MAX_CONDITION = 1e12
# IBU's floor under a folded bin: only an empty bin's fold can fall below it
_FLOOR = np.finfo(np.float64).smallest_subnormal
# a fold bound above this proves every fold far above _FLOOR (see ibu_unfold)
_POSITIVE = 2.0 ** -900
# IBU's flush (see ibu_unfold): entries under a column's total times
# min(_FLUSH, min(R) / dim * _FLUSH_MARGIN) become 0 every _FLUSH_EVERY
# iterations.  On the 8-qubit benchmark model entries near 2**-600 of the total
# fall by about 2**-21 an iteration, so 16 iterations keep every product with R
# above the subnormal range, and 2**-600 stays far below any bin a run prints.
_FLUSH = 2.0 ** -600
_FLUSH_MARGIN = 2.0 ** -100
_FLUSH_EVERY = 16

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
    """The counts as a C-ordered float64 array, checked against R's width.

    C order whatever the caller's layout, so that the products round alike
    for every layout of the same counts, and the iterate made from them does
    not reshape with a copy in every product with two factors.
    """
    counts, n = _counts(counts)
    if n != response.n_qubits:
        raise DimensionError(
            f"counts of shape {counts.shape} do not match a {response.dim}-state response matrix"
        )
    return np.ascontiguousarray(counts)


def matrix_inverse_unfold(counts, response):
    """Unfold by solving R t = m, for every column of the counts at once.

    Multiplies by R's :attr:`~readout_rebalance.noise.ResponseMatrix.inverse_factors`,
    the inverse of each of its ``kron_factors``, found once per matrix and
    kept, so a factored matrix never has its ``2**n x 2**n`` product
    inverted and later calls pay for products only.  The condition bound
    is what makes that safe: a product with the kept inverse, like an LU
    solve, errs by at most about ``cond(R)`` times machine epsilon relative,
    so below ``DEFAULT_MAX_CONDITION`` it stays under about 2e-4, and the
    committed model (cond about 1.7) sees rounding only.  Because the
    columns of R sum to one, the solution keeps each measured total to the
    same accuracy.
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
        inverses = response.inverse_factors
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"response matrix is singular: {exc}") from exc
    return _kron_apply(inverses, counts)


def ibu_unfold(counts, response, iterations=DEFAULT_IBU_ITERATIONS):
    """Iterative Bayesian unfolding (Richardson-Lucy / D'Agostini iteration).

    Starting from the uniform distribution scaled to the measured total,
    each step redistributes the measured counts with Bayes' rule:

        t[i] <- t[i] * sum_j R[j, i] * m[j] / (R t)[j]

    Every column of the counts runs in the same loop, and an iteration is
    two products, ``R @ t`` and ``R.T @ ratio``, both taken through R's
    Kronecker factors, one divide written over the fold and one multiply
    written over ``t``.  The iterate stays nonnegative and keeps the
    measured total at every step.  An empty bin whose fold is 0 divides by
    a floor of the smallest subnormal, for a ratio of 0.  The floor is
    skipped where it provably changes nothing: every fold is at least
    ``prod(f.min() for f in kron_factors) * min(totals) / dim``, and while
    that bound exceeds 2**-900 no fold comes near the floor.  It stays for
    an R with zero entries (sparse, or decay-only channels) and for totals
    too small to pass the bound; either way the result is bit for bit the
    floored one.

    Where the floor is skipped, every 16 iterations and after the last the
    loop sets each entry below its column's cutoff to exactly 0, so that
    emptied bins do not decay into subnormal arithmetic, which is several
    times slower.  The cutoff is ``total * min(2**-600, min(R) / dim *
    2**-100)``, min(R) as above.  Every fold is at least ``min(R) * total /
    dim``, so all the entries under the cutoff together move a fold by at
    most ``dim * 2**-100`` of its size, far below half an ulp: each fold,
    and so each entry at or above the cutoff, is bit for bit the unflushed
    one, and only entries that no fold reads become 0.  An observable's
    value changes only where it is made of such entries alone, by at most
    ``dim * max|o| * 2**-600``.

    Convergence is controlled purely by the iteration count, and it is slow
    where the truth is (near-)empty: the multiplicative update clears the
    mass left in such bins only like C/iterations.  On noiseless folded
    counts of the committed 5-qubit model, the total variation to the truth
    after k iterations is about 0.32/k for the inverted W state and up to
    0.19/k for the benchmark Gaussians.

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
    totals = _totals(counts, "IBU")
    t = np.ones_like(counts) * (totals / response.dim)

    factors = response.kron_factors
    transposed = tuple(f.T for f in factors)
    # The iterate keeps each column's total, so its largest entry is at least
    # total / dim and every fold at least min(R) times that, min(R) being the
    # product of the factors' smallest entries.  Above _POSITIVE that bound
    # makes the floor the identity, and the loop skips it.  No columns, no fold
    # to floor: the least total is then inf.
    least_entry = math.prod(float(f.min()) for f in factors)
    least_total = float(totals.min(initial=np.inf))
    floored = least_entry * least_total / response.dim <= _POSITIVE
    cutoff = totals * min(_FLUSH, least_entry / response.dim * _FLUSH_MARGIN)
    for i in range(iterations):
        folded = _kron_apply(factors, t)
        # Only the first fold can fail: R, t and the counts are nonnegative, so an
        # occupied bin's largest term R[j, k] t[k] leaves t'[k] >= counts[j] / dim
        # and its fold positive.  The floor then changes only an empty bin's 0 / 0.
        if i == 0 and np.any((counts > 0) & (folded <= 0.0)):
            j = int(np.argwhere((counts > 0) & (folded <= 0.0))[0][0])
            raise NumericalError(
                f"measured bin {j} has counts but zero folded support; "
                "degenerate response/prior combination"
            )
        if floored:
            np.maximum(folded, _FLOOR, out=folded)
        t *= _kron_apply(transposed, np.divide(counts, folded, out=folded))
        if not floored and (i % _FLUSH_EVERY == _FLUSH_EVERY - 1 or i == iterations - 1):
            np.putmask(t, t < cutoff, 0.0)
    return t


def apply_unfold(counts, response, config):
    """Run the unfolder an :class:`UnfoldConfig` selects on ``(dim,)`` or
    ``(dim, k)`` counts.

    One product with R's kept inverse for matrix inversion, or one IBU loop
    over the whole array.  A column's result does not depend on the other
    columns beyond floating-point rounding, but the checks (finite counts,
    condition bound, nonnegative input, positive total, folded support)
    apply to every column, and one failing column fails the call.
    """
    if config.method == "matrix_inversion":
        return matrix_inverse_unfold(counts, response)
    return ibu_unfold(counts, response, config.ibu_iterations)
