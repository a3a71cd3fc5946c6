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
    ValidationError, _check_count, _check_real, _generators, _seed_states, _uint32_words,
    qubit_marginals, xor_permute,
)
from .noise import sample_measured
from .unfold import UnfoldConfig, apply_unfold

STRATEGIES = ("nominal", "rebalanced", "symmetrized")
# the spawn keys of each strategy's streams (see run_plan)
_SPAWN_KEYS = {"nominal": ((),), "rebalanced": ((0,), (1,)), "symmetrized": ((0,), (1,))}


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
        object.__setattr__(self, "total_shots", _check_count(self.total_shots, "total_shots"))
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        _uint32_words(self.rng_seed, "rng_seed")
        if not isinstance(self.unfold, UnfoldConfig):
            raise ValidationError(f"unfold must be an UnfoldConfig, got {self.unfold!r}")
        if not 0.0 < _check_real(self.pilot_fraction, "pilot_fraction") < 1.0:
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


def _indices(repetitions):
    """The repetition indices, refused unless they are one flat sequence.

    A ``range``, what ``ensemble_run`` passes, is flat and is returned as it
    is: making it an array would cost a cell of 40 repetitions about 3 us.
    """
    if isinstance(repetitions, range):
        return repetitions
    paths = np.asarray(repetitions)
    if paths.ndim != 1:
        raise ValidationError(f"repetitions must be a 1-D sequence of indices, got shape "
                              f"{paths.shape}")
    return paths


def stream_words(plans, repetitions):
    """The ``PCG64`` state words of :func:`run_plan`'s streams, for many plans at once.

    Returns one ``(len(keys), len(repetitions), 4)`` uint64 block per plan,
    row ``[j, i]`` the state of ``rng_stream(plan.rng_seed, repetitions[i],
    spawn_key=keys[j])`` for the plan's strategy's keys.  Plans of the same
    keys go to one :func:`~readout_rebalance.core._seed_states` call, which
    hashes them in a few calls of the package's one seed hash, and the
    repetition indices are checked there before anything is hashed.  They
    must be one flat sequence, one run each, or ``ValidationError`` is
    raised first.
    """
    paths = np.asarray(_indices(repetitions))[:, None]
    by_keys = {}
    for at, plan in enumerate(plans):
        by_keys.setdefault(_SPAWN_KEYS[plan.strategy], []).append(at)
    words = [None] * len(plans)
    for keys, members in by_keys.items():
        states = _seed_states([plans[at].rng_seed for at in members], paths, *keys)
        for at, block in zip(members, states.reshape(len(members), len(keys), len(paths), 4)):
            words[at] = block
    return words


def run_plan(true_dist, response, plan, repetitions, words=None):
    """Run a plan once per repetition index and correct all the runs in one batch.

    This is the engine behind every strategy, from a single run to a whole
    ensemble, and with :func:`stream_words` the one place that picks random
    streams.  Run r is a list
    of readout segments, each a flip mask and a shot count drawn from one
    stream ``rng_stream(plan.rng_seed, r, spawn_key=key)``:

    - nominal: ``[(0, N)]`` with key ``()``;
    - symmetrized: ``[(0, N // 2), (full, N - N // 2)]`` with keys ``(0,)``
      and ``(1,)``, the two children numpy's ``spawn`` makes of the nominal
      stream;
    - rebalanced: a pilot of ``plan.pilot_shots`` with key ``(0,)`` chooses
      the mask, then ``[(mask, N - pilot)]`` with key ``(1,)``.

    ``words`` holds the streams' ``PCG64`` state words, the block
    :func:`stream_words` makes for this plan and these repetitions; without
    it the call makes its own, one call of the package's one seed hash,
    which the tests hold to numpy's own seed sequence word for word.  The
    plan checked its seed when it was made; the repetition indices must be
    one flat sequence, with or without ``words``, each between 0 and
    2**32 - 1, so that it is one entropy word, and ``ensemble_run`` passes
    at most 2**16 indices.  Anything else, and words of another shape or
    dtype, raise ``ValidationError`` before a stream is built.

    Each segment is one :func:`sample_measured` call for every run.  The
    segments are stacked as the columns of one counts array and unfolded in
    one batch in the physical basis; each segment is then un-flipped by its
    own mask, one integer or one per run, and the segments are summed in
    place.  Returns ``(corrected, masks)``: the corrected histograms as the
    columns of a ``(dim, len(repetitions))`` array, and the flip mask of each
    run as an integer array (``None`` for nominal).
    """
    repetitions = _indices(repetitions)
    reps, shots = len(repetitions), plan.total_shots
    if words is None:
        [words] = stream_words([plan], repetitions)
    shape = (len(_SPAWN_KEYS[plan.strategy]), reps, 4)
    got = (words.dtype, words.shape) if isinstance(words, np.ndarray) else type(words)
    if got != (np.uint64, shape):
        raise ValidationError(f"stream words must be a uint64 array of shape {shape}, got {got}")
    streams = _generators(words)
    if plan.strategy == "nominal":
        masks, segments = None, [(0, shots, streams[0])]
    elif plan.strategy == "symmetrized":
        full = response.dim - 1
        masks = np.full(reps, full)
        segments = [(0, shots // 2, streams[0]), (full, shots - shots // 2, streams[1])]
    else:
        pilots = sample_measured(true_dist, response, plan.pilot_shots, streams[0])
        masks = choose_flip_mask(pilots)
        segments = [(masks, shots - plan.pilot_shots, streams[1])]
    # the stacked counts live only through the unfold
    unfolded = apply_unfold(
        np.concatenate([sample_measured(true_dist, response, n, s, m) for m, n, s in segments],
                       axis=1),
        response, plan.unfold,
    )
    unflipped = (xor_permute(unfolded[:, at * reps:(at + 1) * reps], mask)
                 for at, (mask, _, _) in enumerate(segments))
    corrected = next(unflipped)
    for segment in unflipped:
        corrected += segment
    return corrected, masks
