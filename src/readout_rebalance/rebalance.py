"""Measurement strategies: nominal, rebalanced, and symmetrized readout.

Rebalancing spends a small pilot fraction of the shot budget to estimate
per-qubit marginals, flips every qubit that is mostly excited with an X gate
before measurement, corrects readout errors in the physical basis, and
finally undoes the flips classically.  Fewer physical qubits then sit in the
error-prone excited state while every observable keeps its value.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError, _check_shots, qubit_marginals, rng_streams, xor_permute
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


def run_plan(true_dist, response, plan, repetitions):
    """Run a plan once per repetition index and correct all the runs in one batch.

    This is the engine behind every strategy, from a single run to a whole
    ensemble, and the one place that picks random streams.  Run r is a list
    of readout segments, each a flip mask and a shot count drawn from one
    stream ``rng_stream(plan.rng_seed, r, spawn_key=key)``:

    - nominal: ``[(0, N)]`` with key ``()``;
    - symmetrized: ``[(0, N // 2), (full, N - N // 2)]`` with keys ``(0,)``
      and ``(1,)``, the two children numpy's ``spawn`` makes of the nominal
      stream;
    - rebalanced: a pilot of ``plan.pilot_shots`` with key ``(0,)`` chooses
      the mask, then ``[(mask, N - pilot)]`` with key ``(1,)``.

    The streams of every key are built for all repetitions in one
    :func:`~readout_rebalance.core.rng_streams` call, that is one call of the
    package's one seed hash per run, which the tests hold to numpy's own seed
    sequence word for word.  The seed must be non-negative, and each
    repetition index must lie between 0 and 2**32 - 1, so that it is one
    entropy word; ``ensemble_run`` passes at most 2**16 indices.  Anything
    else raises ``ValidationError`` before a stream is built.

    Each segment of every run is one :func:`sample_measured` call.  The
    segments are stacked as the columns of one counts array, unfolded in one
    batch in the physical basis, un-flipped column by column and summed per
    run.  Returns ``(corrected, masks)``: the corrected histograms as the
    columns of a ``(dim, len(repetitions))`` array, and the flip mask of each
    run as an integer array (``None`` for nominal).
    """
    reps, shots = len(repetitions), plan.total_shots
    keys = [()] if plan.strategy == "nominal" else [(0,), (1,)]
    streams = rng_streams(plan.rng_seed, repetitions, *keys)
    if plan.strategy == "nominal":
        masks, segments = None, [(0, shots, streams[0])]
    elif plan.strategy == "symmetrized":
        masks = np.full(reps, response.dim - 1)
        segments = [(0, shots // 2, streams[0]), (masks, shots - shots // 2, streams[1])]
    else:
        pilots = sample_measured(true_dist, response, plan.pilot_shots, streams[0])
        masks = choose_flip_mask(pilots)
        segments = [(masks, shots - plan.pilot_shots, streams[1])]
    counts = np.hstack([sample_measured(true_dist, response, n, s, m) for m, n, s in segments])
    flips = np.concatenate([np.broadcast_to(m, reps) for m, _, _ in segments])
    unflipped = xor_permute(apply_unfold(counts, response, plan.unfold), flips)
    return unflipped.reshape(response.dim, len(segments), reps).sum(axis=1), masks
