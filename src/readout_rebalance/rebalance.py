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
    ProbDist, ValidationError, _check_shots, _seed_sequence, qubit_marginals, rng_stream,
    xor_permute,
)
from .noise import sample_measured
from .unfold import UnfoldConfig, apply_unfold

STRATEGIES = ("nominal", "rebalanced", "symmetrized")


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
        object.__setattr__(self, "total_shots", _check_shots(self.total_shots, "total_shots"))
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
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


def choose_flip_mask(pilots):
    """Flip rule: set bit i when the pilot marginal of qubit i exceeds 0.5.

    Takes one pilot histogram or one per column of a ``(dim, k)`` array and
    returns the integer mask of each.  The inequality is strict, so a
    marginal of exactly 0.5 leaves the qubit untouched; integer counts sum
    exactly, so the threshold is exact too.
    """
    marginals = qubit_marginals(pilots)
    return (1 << np.arange(marginals.shape[0])) @ (marginals > 0.5)


def _draw(true_dist, response, masks, shots, streams):
    """One readout segment of every repetition as columns of a ``(dim, reps)``
    array: column j holds ``shots`` draws from ``streams[j]`` of the truth
    flipped by ``masks[j]``, sampled once per distinct mask.
    """
    counts = np.empty((response.dim, len(streams)))
    for mask in sorted(set(masks.tolist())):
        flipped = ProbDist(xor_permute(true_dist.probs, mask))
        columns = np.flatnonzero(masks == mask)
        counts[:, columns] = sample_measured(
            flipped, response, shots, [streams[j] for j in columns]
        )
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
    unflipped = xor_permute(apply_unfold(counts, response, unfold), masks)
    return unflipped.reshape(response.dim, len(segments), -1).sum(axis=1)


def run_plan(true_dist, response, plan, repetitions):
    """Run a plan once per repetition index and correct all the runs in one batch.

    This is the engine behind every strategy, from a single run to a whole
    ensemble, and the one place that picks random streams.  Run r is a list
    of (flip mask, shots) segments:

    - nominal: ``[(0, N)]`` from ``rng_stream(plan.rng_seed, r)``;
    - symmetrized: ``[(0, N // 2), (full, N - N // 2)]``, the halves drawn
      from the two children of that stream's ``SeedSequence``;
    - rebalanced: a pilot of ``plan.pilot_shots`` from the first child
      chooses the mask, then ``[(mask, N - pilot)]`` from the second.

    Child k is built from ``SeedSequence([plan.rng_seed, r], spawn_key=(k,))``,
    the child k that numpy's ``spawn`` makes of that stream's ``SeedSequence``,
    with no parent built.  Returns ``(corrected, masks)``: the corrected
    histograms as the columns of a ``(dim, len(repetitions))`` array, and the
    flip mask of each run as an integer array (``None`` for nominal).
    """
    reps = len(repetitions)
    shots = plan.total_shots
    identity = np.zeros(reps, dtype=np.int64)
    if plan.strategy == "nominal":
        streams = [rng_stream(plan.rng_seed, r) for r in repetitions]
        return _correct(true_dist, response, plan.unfold, [(identity, shots, streams)]), None
    first, second = ([np.random.default_rng(_seed_sequence(plan.rng_seed, r, spawn_key=(k,)))
                      for r in repetitions] for k in (0, 1))
    if plan.strategy == "symmetrized":
        full = np.full(reps, response.dim - 1)
        half = shots // 2
        segments = [(identity, half, first), (full, shots - half, second)]
        return _correct(true_dist, response, plan.unfold, segments), full
    masks = choose_flip_mask(_draw(true_dist, response, identity, plan.pilot_shots, first))
    segments = [(masks, shots - plan.pilot_shots, second)]
    return _correct(true_dist, response, plan.unfold, segments), masks
