"""Ensemble statistics, the shots-equivalent metric, and the analytic
two-qubit variance formulas with their exact variances.

The two-qubit machinery quantifies what readout correction does to counting
noise: inverting the transition matrix restores expectation values but
inflates the variance of every state that can exchange counts with another,
which is the whole motivation for rebalancing toward the ground state.
"""

import math

import numpy as np
from dataclasses import dataclass

from .core import DimensionError, QubitNoiseParams, ValidationError, _check_count, _check_real
from .noise import build_tensor_response
from .rebalance import run_plan

# Largest (2**n, repetitions) float64 counts array of one ensemble cell.  IBU
# sets the engine's peak: its counts, iterate, fold and product, twice over for
# symmetrized's two segments.  By tracemalloc at 8 qubits and 200 repetitions
# (tests/test_segments.py), symmetrized IBU peaks at 8.8 cells, or 10.8 where
# the Kronecker-factored products hold one more intermediate array, and
# symmetrized inversion at 4.8 (dense) or 6.8 (factored).  16 MiB is 64 times
# the paper's 5-qubit, 1000-repetition cell; its largest 5-qubit cell (65536
# repetitions, symmetrized) peaks at 0.24 GB by tracemalloc under IBU and
# 0.17 GB under inversion.
_MAX_CELL_BYTES = 2 ** 24
# Most repetitions of one cell at any width (the least is 2, for a standard
# deviation).  While a cell runs each holds one Generator (nominal) or two,
# about 780 B each by tracemalloc, which the byte bound does not count (it
# admits 2**20 at one qubit); 2**16 caps them near 2**16 * 2 * 780 B = 102 MB.
_MAX_CELL_REPETITIONS = 2 ** 16


@dataclass(frozen=True)
class EnsembleResult:
    """Mean and spread of an observable over repeated measurement runs."""

    repetitions: int
    mean: float
    std: float
    std_err_of_std: float
    strategy: str
    observable: str
    flip_mask_mode: int | None = None
    negative_runs: int = 0

    def __post_init__(self):
        if self.std < 0 or self.std_err_of_std < 0:
            raise ValidationError("standard deviations cannot be negative")


@dataclass(frozen=True)
class TwoQubitModel:
    """Two-qubit decay-only error model with fixed true counts.

    Labels read left to right as (qubit 0, qubit 1): ``n10`` is the number
    of true counts with qubit 0 excited and qubit 1 in the ground state.
    ``q0``/``q1`` are the per-qubit decay probabilities Pr(1 -> 0); the
    excitation errors Pr(0 -> 1) are zero in this model, so nothing ever
    leaves the ground state.
    """

    q0: float
    q1: float
    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        for name, q in (("q0", self.q0), ("q1", self.q1)):
            if not 0.0 <= _check_real(q, name) < 1.0:
                raise ValidationError(f"{name} = {q} outside [0, 1)")
        for name, n in (("n00", self.n00), ("n01", self.n01), ("n10", self.n10), ("n11", self.n11)):
            object.__setattr__(self, name, _check_count(n, name, least=0))

    @property
    def total(self):
        return self.n00 + self.n01 + self.n10 + self.n11

    def true_counts(self):
        return np.array([self.n00, self.n01, self.n10, self.n11], dtype=np.float64)


def appendix_a_expectations(model):
    """Exact expected measured counts E[N^PRC] for the four states: the true
    counts folded through the package's tensor channel with decay only.

    The appendix names qubit 0 first, so label ab is package state a + 2b,
    and the order [0, 2, 1, 3] takes labels to states and back.
    """
    channel = build_tensor_response([QubitNoiseParams(0.0, q) for q in (model.q0, model.q1)])
    order = [0, 2, 1, 3]
    return (channel.entries @ model.true_counts()[order])[order]


def linear_order_reconstruct(measured_counts, q0, q1):
    """First-order inverse of the decay channel applied to measured counts.

    Vectorized over leading axes: ``measured_counts[..., 4]`` in state order
    (00, 01, 10, 11).  This is the reconstruction whose variance the
    analytic formulas describe.
    """
    c = np.asarray(measured_counts, dtype=np.float64)
    c00, c01, c10, c11 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    r00 = c00 - q1 * c01 - q0 * c10
    r01 = (1 + q1) * c01 - q0 * c11
    r10 = (1 + q0) * c10 - q1 * c11
    r11 = (1 + q0 + q1) * c11
    return np.stack([r00, r01, r10, r11], axis=-1)


def appendix_a_variances(model):
    """Linear-order variances of the reconstructed counts, in both forms of
    the 10 row: ``{"as_printed": ..., "mirror_symmetric": ...}``.

    Var[N_hat] = N_ij (1 - N_ij / N) + DeltaVar with the excess terms

        DeltaVar[00] = q0 n10 + q1 n01
        DeltaVar[01] = q0 n11 + q1 n01
        DeltaVar[10] = q1 n11 + q1 n10   ("as_printed")
                       q1 n11 + q0 n10   ("mirror_symmetric")
        DeltaVar[11] = (q0 + q1) n11

    The two forms of the 10 state exist because the printed second term
    breaks the 01/10 relabeling symmetry; the exact variances of
    :func:`appendix_a_exact_variances` decide which one is right (they side
    with the mirror form).  All formulas carry O(q^2) corrections.
    """
    counts = model.true_counts()
    total = model.total
    counting = counts * (1.0 - counts / total) if total else np.zeros(4)
    q0, q1 = model.q0, model.q1
    d00 = q0 * model.n10 + q1 * model.n01
    d01 = q0 * model.n11 + q1 * model.n01
    d11 = (q0 + q1) * model.n11
    return {
        "as_printed": counting + np.array([d00, d01, q1 * model.n11 + q1 * model.n10, d11]),
        "mirror_symmetric": counting + np.array([d00, d01, q1 * model.n11 + q0 * model.n10, d11]),
    }


def appendix_a_exact_variances(model):
    """Exact variances of the linear-order reconstructed counts.

    The reconstructed count of state s is ``a_s . m`` for a fixed row ``a_s``
    of :func:`linear_order_reconstruct` and measured counts ``m`` of N shots,
    each landing in a state with the probabilities
    ``P = appendix_a_expectations / N``, so Var = N (a_s^2 . P - (a_s . P)^2)
    exactly.  The analytic formulas differ
    from it only by their O(q^2) truncation.
    """
    total = _check_count(model.total, "the model's total count")
    probs = appendix_a_expectations(model) / total
    rows = linear_order_reconstruct(np.eye(4), model.q0, model.q1).T
    return total * (rows ** 2 @ probs - (rows @ probs) ** 2)


def shots_equivalent_fraction(sigma_method, sigma_nominal):
    """Fraction of measurements a method needs for nominal statistical power.

    (sigma_method / sigma_nominal)^2: below one means the method reaches the
    nominal precision with proportionally fewer shots.
    """
    sm, sn = _check_real(sigma_method, "sigma_method"), _check_real(sigma_nominal, "sigma_nominal")
    if sm <= 0 or sn <= 0:
        raise ValidationError("standard deviations must be positive")
    return (sm / sn) ** 2


def std_err_of_std(std, repetitions):
    """Normal-approximation standard error of a sample standard deviation."""
    std = _check_real(std, "std")
    return float(std / np.sqrt(2.0 * (_check_count(repetitions, "repetitions", least=2) - 1)))


def _check_repetitions(repetitions):
    return _check_count(repetitions, "repetitions", least=2, most=_MAX_CELL_REPETITIONS)


def ensemble_run(
    true_dist,
    response,
    plan,
    observable,
    repetitions,
    observable_label=None,
    words=None,
):
    """Repeat a measurement plan and summarize a linear observable across runs.

    Repetition r is run r of :func:`~readout_rebalance.rebalance.run_plan`,
    whose streams derive from (plan.rng_seed, r) alone, so results are
    reproducible and do not depend on the order or grouping of repetitions.
    The whole ensemble is sampled repetition by repetition and then
    corrected as one batch.

    ``observable`` holds one weight per basis state, ``o``: the value of a
    run with corrected histogram ``h`` is ``o . h / h.sum()``.  The weights
    are checked once, and every repetition is evaluated in one product.
    ``words`` passes the streams' state words, the plan's block of
    :func:`~readout_rebalance.rebalance.stream_words` for ``range(repetitions)``,
    on to ``run_plan``, which otherwise hashes its own.
    """
    repetitions = _check_repetitions(repetitions)
    cell_bytes = 8 * true_dist.probs.size * repetitions
    if cell_bytes > _MAX_CELL_BYTES:
        raise ValidationError(
            f"{repetitions} repetitions over {true_dist.probs.size} states need a "
            f"counts array of {cell_bytes:,} bytes, above the limit of "
            f"{_MAX_CELL_BYTES:,} bytes per ensemble cell"
        )
    # converting complex weights to float64 would drop their imaginary parts
    if np.iscomplexobj(observable):
        raise ValidationError("observable weights must be real, got complex weights")
    try:
        weights = np.asarray(observable, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"observable weights must be real, got {exc}") from exc
    if weights.shape != true_dist.probs.shape:
        raise DimensionError(
            f"observable needs one weight per state, shape {true_dist.probs.shape}, "
            f"got {weights.shape}"
        )
    if not np.isfinite(weights).all():
        raise ValidationError("observable weights must be finite")
    corrected, masks = run_plan(true_dist, response, plan, range(repetitions), words)
    values = weights @ corrected / corrected.sum(axis=0)
    negative_runs = int(np.count_nonzero((corrected < -1e-9).any(axis=0)))

    # numpy's mean and std(ddof=1) step for step, without their Python-level wrappers
    mean = float(np.add.reduce(values) / repetitions)
    std = math.sqrt(np.add.reduce(np.square(values - mean)) / (repetitions - 1))
    # the most frequent mask; argmax takes the smallest one on a tie
    mask_mode = None if masks is None else int(np.argmax(np.bincount(masks)))
    return EnsembleResult(
        repetitions=repetitions,
        mean=mean,
        std=std,
        std_err_of_std=std_err_of_std(std, repetitions),
        strategy=plan.strategy,
        observable=observable_label or "observable",
        flip_mask_mode=mask_mode,
        negative_runs=negative_runs,
    )
