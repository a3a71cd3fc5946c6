"""Correctness gates for ensemble cells, valid for any seed.

A cell is one (benchmark row, strategy) ensemble.  Every gate compares the
cell's mean and std with values computed exactly from the true distribution
and the response matrix, so no reference run is needed:

* mean, matrix inversion: within ``K`` standard errors of the exact
  observable value (inversion is unbiased for a linear observable);
* mean, IBU: within ``IBU_REL_TOL`` of the exact value plus ``K`` standard
  errors (IBU is biased; see the constant);
* std, nominal and symmetrized inversion: within ``K`` times the standard
  error of a std of the closed-form linear-unfolding std.

With inversion the corrected histogram of a segment of N shots is
``R^-1 m`` with ``m ~ Multinomial(N, q)``, so a linear observable ``o . t``
has variance ``N (sum w^2 q - (w . q)^2)`` with ``w = R^-T o``.  A flip mask
``f`` relabels states by XOR on the way in (``q = R p[s ^ f]``) and on the
way out (``w = R^-T o[s ^ f]``); segments are independent, so variances add.
"""

import math

import numpy as np

# Gate width in standard errors.  22 runs of each of the 3 workloads check
# 1782 cells, about 2.8k mean and std comparisons.  At 6 standard errors a
# comparison against a closed-form std fails falsely with probability 2e-9.
# A mean judged by its own sample std (Student t) fails falsely with
# probability 5e-7 at 40 repetitions and 9e-6 at 20; the 23 + 1 rebalanced
# inversion cells per run judged that way give 22 * (23 * 5e-7 + 9e-6) =
# 4.6e-4.  IBU cells sit 15 or more standard errors inside their bias
# allowance.  The total false-failure rate stays below 1e-3.
K = 6.0

# Relative bias allowed to IBU at 100 iterations.  Measured on this code
# with 400-1000 repetitions at 100k shots: -1.1e-3 (nominal) and -6e-4
# (symmetrized) on 5-qubit inverted W, -1.5e-3 and -1.0e-3 on the 8-qubit
# model, within noise of 0 on Grover and for rebalanced cells.
IBU_REL_TOL = 3e-3


def linear_unfold_moments(response, probs, weights, segments):
    """Exact mean and variance of ``weights . R^-1 m`` summed over segments.

    ``segments`` is a sequence of ``(flip mask, shots)``; each segment
    samples ``m ~ Multinomial(shots, R p[s ^ mask])`` and un-flips the
    corrected histogram with the same mask.
    """
    R = np.asarray(response, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    states = np.arange(len(probs))
    mean = variance = 0.0
    for mask, shots in segments:
        idx = states ^ int(mask)
        q = R @ probs[idx]
        w = np.linalg.solve(R.T, weights[idx])
        wq = float(w @ q)
        mean += shots * wq
        variance += shots * (float(w**2 @ q) - wq**2)
    return mean, variance


def segments(strategy, shots, n_qubits):
    """Shot segments of the strategies whose masks do not depend on the data."""
    if strategy == "nominal":
        return [(0, shots)]
    if strategy == "symmetrized":
        half = shots // 2
        return [(0, half), (2**n_qubits - 1, shots - half)]
    return None


def expected_rows(harness, states, config, response):
    """Exact inputs of each benchmark row the harness runs for ``config``.

    Returns ``{(label, mu): (probs, weights, scale)}`` where the cell's
    observable is ``scale * (weights . histogram) / histogram total``.
    """
    n = response.n_qubits
    index = np.arange(2**n, dtype=np.float64)
    if config.experiment == "inverted_w":
        return {("inverted_w", None): (states.inverted_w_dist(n).probs, index, 1.0)}
    if config.experiment == "grover":
        target = 2**n - 1
        dist = states.grover_dist(n, target, config.grover_iterations)
        weights = (index == target).astype(np.float64)
        return {("grover", None): (dist.probs, weights, float(config.shots))}
    mus = config.mus if config.mus is not None else harness.default_sweep_mus()
    return {
        ("gaussian", float(mu)): (states.gaussian_dist(mu, config.sigma, n).probs, index, 1.0)
        for mu in mus
    }


def check_cell(result, row, response, shots, method):
    """Gate failures of one cell as a list of messages (empty when it passes)."""
    probs, weights, scale = row
    exact = scale * float(weights @ probs)
    reps = result.repetitions
    failures = []
    sigma = None
    segs = segments(result.strategy, shots, response.n_qubits)
    if method == "matrix_inversion" and segs is not None:
        _, variance = linear_unfold_moments(response.entries, probs, weights, segs)
        sigma = scale / shots * math.sqrt(variance)
        se_std = sigma / math.sqrt(2.0 * (reps - 1))
        if not abs(result.std - sigma) <= K * se_std:
            failures.append(
                f"std {result.std!r} vs closed form {sigma!r} (allowed {K * se_std:.3g})"
            )
    se_mean = (sigma if sigma is not None else result.std) / math.sqrt(reps)
    allowed = K * se_mean
    if method == "ibu":
        allowed += IBU_REL_TOL * abs(exact)
    if not abs(result.mean - exact) <= allowed:
        failures.append(f"mean {result.mean!r} vs exact {exact!r} (allowed {allowed:.3g})")
    return failures
