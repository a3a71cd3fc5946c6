"""Measurement strategies: nominal, rebalanced, and symmetrized readout.

Rebalancing spends a small pilot fraction of the shot budget to estimate
per-qubit marginals, flips every qubit that is mostly excited with an X gate
before measurement, corrects readout errors in the physical basis, and
finally undoes the flips classically.  Fewer physical qubits then sit in the
error-prone excited state while every observable keeps its value.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CountsHistogram,
    DimensionError,
    FlipMask,
    ValidationError,
    bit_table,
    rng_stream,
    xor_permute,
)
from .noise import sample_columns
from .unfold import UnfoldConfig, unfold_columns

STRATEGIES = ("nominal", "rebalanced", "symmetrized")
# the largest shot count numpy draws a multinomial sample of (an int64)
_MAX_SHOTS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class MeasurementPlan:
    """Shot budget and strategy for one measurement run.

    ``pilot_fraction`` of the budget goes to the mask-choosing pilot when
    the strategy is "rebalanced"; pilot shots are spent from the total and
    excluded from the returned histogram.
    """

    total_shots: int
    strategy: str = "nominal"
    pilot_fraction: float = 0.1
    unfold: UnfoldConfig = field(default_factory=UnfoldConfig)
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "total_shots", int(self.total_shots))
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if not 1 <= self.total_shots <= _MAX_SHOTS:
            raise ValidationError(f"total_shots must lie between 1 and {_MAX_SHOTS}")
        # compared without float(), which overflows on a huge integer
        if not 0.0 < self.pilot_fraction < 1.0:
            raise ValidationError("pilot_fraction must lie strictly between 0 and 1")
        if self.strategy == "rebalanced" and not 1 <= self.pilot_shots < self.total_shots:
            raise ValidationError(
                "rebalanced strategy needs at least one pilot shot and one main shot; "
                "change total_shots or pilot_fraction"
            )
        if self.strategy == "symmetrized" and self.total_shots < 2:
            raise ValidationError("symmetrized strategy needs at least 2 shots")

    @property
    def pilot_shots(self):
        return int(round(float(self.pilot_fraction) * self.total_shots))


def _pilot_masks(pilots, n_qubits):
    """Flip masks from pilot counts, one per column of a ``(dim, k)`` array.

    One ``bits @ pilots`` gives every qubit's count of 1s in every column.
    Integer counts sum exactly, so the strict threshold is exact too.
    """
    totals = pilots.sum(axis=0)
    if np.any(totals <= 0):
        raise ValidationError("cannot choose a flip mask from an empty pilot")
    marginals = (bit_table(n_qubits) @ pilots) / totals
    return (1 << np.arange(n_qubits)) @ (marginals > 0.5)


def choose_flip_mask(pilot):
    """Flip rule: set bit i when the pilot marginal of qubit i exceeds 0.5.

    The inequality is strict, so a marginal of exactly 0.5 leaves the qubit
    untouched.
    """
    masks = _pilot_masks(pilot.counts[:, None], pilot.n_qubits)
    return FlipMask(pilot.n_qubits, int(masks[0]))


def _draw(true_dist, response, masks, shots, streams):
    """One readout segment of every repetition as columns of a ``(dim, reps)``
    array: column j holds ``shots`` draws from ``streams[j]`` of the truth
    flipped by ``masks[j]``.

    The folded distribution R @ p[s ^ mask] is computed once per distinct
    mask, then each repetition takes one multinomial draw from its stream.
    """
    if true_dist.n_qubits != response.n_qubits:
        raise DimensionError("distribution width does not match response matrix")
    counts = np.empty((response.dim, len(streams)))
    for mask in sorted(set(masks.tolist())):
        measured = response.apply(xor_permute(true_dist, FlipMask(true_dist.n_qubits, mask)))
        columns = np.flatnonzero(masks == mask)
        counts[:, columns] = sample_columns(measured, shots, [streams[j] for j in columns])
    return counts


def _correct(true_dist, response, unfold, segments):
    """Corrected histograms of every repetition, as columns of a ``(dim, reps)`` array.

    ``segments`` lists the readout segments each repetition is made of, each
    as ``(masks, shots, streams)`` with one flip mask and one stream per
    repetition.  All segments are sampled, stacked as the columns of one
    counts array and unfolded in one batch in the physical basis.  Each
    column is then un-flipped by its own mask, and the segments of each
    repetition are summed.
    """
    masks = np.concatenate([m for m, _, _ in segments])
    counts = np.hstack([_draw(true_dist, response, *segment) for segment in segments])
    corrected = unfold_columns(counts, response, unfold)
    dim = response.dim
    unflipped = corrected[np.arange(dim)[:, None] ^ masks, np.arange(masks.size)]
    return unflipped.reshape(dim, len(segments), -1).sum(axis=1)


def run_batch(true_dist, response, plan, streams):
    """Run a plan once per stream and correct all the runs in one batch.

    This is the engine behind every strategy, from a single run to a whole
    ensemble.  Each run is a list of (flip mask, shots) segments:

    - nominal: ``[(0, N)]``;
    - symmetrized: ``[(0, N // 2), (full, N - N // 2)]``, the halves drawn
      from the two children of the run's stream;
    - rebalanced: a pilot of ``plan.pilot_shots`` from the first child
      chooses the mask, then ``[(mask, N - pilot)]`` from the second.

    Returns ``(corrected, masks)``: the corrected histograms as the columns
    of a ``(dim, len(streams))`` array, and the flip mask of each run as an
    integer array (``None`` for nominal).
    """
    reps = len(streams)
    shots = plan.total_shots
    identity = np.zeros(reps, dtype=np.int64)
    if plan.strategy == "nominal":
        return _correct(true_dist, response, plan.unfold, [(identity, shots, streams)]), None
    first, second = zip(*(stream.spawn(2) for stream in streams))
    if plan.strategy == "symmetrized":
        full = np.full(reps, response.dim - 1)
        half = shots // 2
        segments = [(identity, half, first), (full, shots - half, second)]
        return _correct(true_dist, response, plan.unfold, segments), full
    pilots = _draw(true_dist, response, identity, plan.pilot_shots, first)
    masks = _pilot_masks(pilots, true_dist.n_qubits)
    segments = [(masks, shots - plan.pilot_shots, second)]
    return _correct(true_dist, response, plan.unfold, segments), masks


def run_plan(true_dist, response, plan, rng=None):
    """One run of ``plan.strategy``.  Returns ``(histogram, mask or None)``.

    The run draws from ``rng``, or from ``rng_stream(plan.rng_seed)`` when
    no generator is given.
    """
    stream = rng if rng is not None else rng_stream(plan.rng_seed)
    corrected, masks = run_batch(true_dist, response, plan, [stream])
    hist = CountsHistogram(true_dist.n_qubits, corrected[:, 0])
    return hist, None if masks is None else FlipMask(true_dist.n_qubits, int(masks[0]))
