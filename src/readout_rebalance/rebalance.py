"""Measurement strategies: nominal, rebalanced, and symmetrized readout.

Rebalancing spends a small pilot fraction of the shot budget to estimate
per-qubit marginals, flips every qubit that is mostly excited with an X gate
before measurement, corrects readout errors in the physical basis, and
finally undoes the flips classically.  Fewer physical qubits then sit in the
error-prone excited state while every observable keeps its value.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ValidationError, _check_count, _check_real, _generators, _path_entries, _seed_states,
    _uint32_words, qubit_marginals, xor_permute,
)
from .noise import sample_measured
from .unfold import UnfoldConfig, apply_unfold

STRATEGIES = ("nominal", "rebalanced", "symmetrized")

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
# Most streams of one seed-hash call.  With two spawn keys a column cost 1.5 us
# in a call of 80 columns, 0.12 us at 2,000, 0.14-0.15 us at 4,000-16,000 and
# 0.19 us at 128,000 (2-core x86 host, numpy 2.4), so seeds are batched only
# up to here.
_MAX_HASH_COLUMNS = 2 ** 11


@dataclass(frozen=True)
class MeasurementPlan:
    """Shot budget and strategy for one measurement run.

    The strategy splits the budget into readout streams, :attr:`stream_shots`, of a
    shot or more each.  A rebalanced plan's first is its mask-choosing pilot,
    ``pilot_fraction`` of the budget, which is left out of the returned histogram.
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
        if min(self.stream_shots) < 1:
            raise ValidationError(f"every readout stream needs a shot, got {self.stream_shots}; "
                                  "change total_shots or pilot_fraction")

    @property
    def pilot_shots(self):
        return int(round(float(self.pilot_fraction) * self.total_shots))

    @property
    def stream_shots(self):
        """The shots of each readout stream of one run, in draw order: all N for nominal,
        the pilot and the rest for rebalanced, ``N // 2`` and the rest for symmetrized."""
        if self.strategy == "nominal":
            return (self.total_shots,)
        first = self.pilot_shots if self.strategy == "rebalanced" else self.total_shots // 2
        return first, self.total_shots - first


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
    """The repetition indices, refused unless they are one flat sequence of at
    most ``_MAX_CELL_REPETITIONS`` path entries, each between 0 and 2**32 - 1.

    A ``range``, what ``ensemble_run`` passes, is checked by its ends and
    returned as it is: making it an array, or checking it as one, would cost
    a cell of 40 repetitions about 3 us.
    """
    if not isinstance(repetitions, range):
        repetitions = np.asarray(repetitions)
        if repetitions.ndim != 1:
            raise ValidationError(f"repetitions must be a 1-D sequence of indices, got shape "
                                  f"{repetitions.shape}")
    paths = _path_entries(repetitions)
    _check_count(len(paths), "the number of repetition indices", 0, _MAX_CELL_REPETITIONS)
    return paths


def _seed_blocks(seeds, paths, *keys):
    """Each seed's ``(len(keys), len(paths), 4)`` ``_seed_states`` words in turn, whole seeds
    hashed together in calls of at most ``_MAX_HASH_COLUMNS`` streams and a bigger seed
    alone, in slices of its paths; each call is made when its first seed is read."""
    n_keys = max(len(keys), 1)
    per_call = max(_MAX_HASH_COLUMNS // max(n_keys * len(paths), 1), 1)
    per_slice = max(_MAX_HASH_COLUMNS // n_keys, 1)
    for at in range(0, len(seeds), per_call):
        batch = seeds[at:at + per_call]
        states = np.empty((len(batch), n_keys, len(paths), 4), dtype=np.uint64)
        for first in range(0, max(len(paths), 1), per_slice):
            part = states[:, :, first:first + per_slice]
            part[...] = _seed_states(batch, paths[first:first + per_slice], *keys).reshape(part.shape)
        yield from states


def stream_words(plans, repetitions):
    """The ``PCG64`` state words of :func:`run_plan`'s streams, for many plans at once.

    Returns an iterator over one ``(len(plan.stream_shots), len(repetitions), 4)``
    uint64 block per plan, row ``[j, i]`` the state of stream j of run
    ``repetitions[i]``.  The keys follow from the stream count by numpy's
    spawn rule: one stream is the root stream ``rng_stream(plan.rng_seed, r)``
    of key ``()``, and k streams are its k ``spawn`` children, of keys
    ``(0,)`` to ``(k - 1,)``.  Plans of as many streams share the calls of
    :func:`_seed_blocks`.  The repetition indices must be one flat sequence,
    one run each, of at most 2**16 integers between 0 and 2**32 - 1, or
    ``ValidationError`` is raised before anything is hashed.
    """
    paths = np.asarray(_indices(repetitions))[:, None]
    by_count = {}
    for plan in plans:
        by_count.setdefault(len(plan.stream_shots), []).append(plan.rng_seed)
    # one stream takes the root key, the _seed_states default
    blocks = {count: _seed_blocks(seeds, paths, *[(k,) for k in range(count) if count > 1])
              for count, seeds in by_count.items()}
    return (next(blocks[len(plan.stream_shots)]) for plan in plans)


def cell_streams(seed, rows, plans, repetitions):
    """Each ``(row, plan, words)`` cell of the ``rows`` sequence and ``plans``, row by row: the
    plan seeded with word 0 of the path ``(row index, STRATEGIES.index(plan.strategy))``, so that
    it draws alike in any list of strategies, and its ``stream_words`` block, hashed as the cell
    is read.  Bad rows or repetitions (0 to 2**16) are refused before anything is hashed."""
    repetitions = _check_count(repetitions, "repetitions", least=0, most=_MAX_CELL_REPETITIONS)
    if not isinstance(rows, Sequence):
        raise ValidationError(f"rows must be a sequence, got {rows!r}")
    paths = [(at, STRATEGIES.index(plan.strategy)) for at in range(len(rows)) for plan in plans]
    seeds = next(_seed_blocks([seed], np.array(paths, np.int64).reshape(-1, 2)))[0, :, 0].tolist()
    cells = [replace(plan, rng_seed=s) for plan, s in zip(plans * len(rows), seeds)]
    return zip((r for r in rows for _ in plans), cells, stream_words(cells, range(repetitions)))


def run_plan(true_dist, response, plan, repetitions, words=None):
    """Run a plan once per repetition index and correct all the runs in one batch.

    This is the engine behind every strategy, from a single run to a whole
    ensemble.  Its streams follow from the plan's seed, which ``run``
    derives per cell, and their state words from :func:`stream_words`.
    Run r draws ``plan.stream_shots[j]`` shots from its stream j, keyed as
    :func:`stream_words` says.  Each stream is a readout segment of one flip
    mask: nominal's one stream and symmetrized's first are read unflipped,
    symmetrized's second with every qubit flipped.  Rebalanced's first
    stream is the pilot, which chooses the mask of the second and is not
    kept.

    ``words`` holds the streams' ``PCG64`` state words, the block
    :func:`stream_words` makes for this plan and these repetitions, which
    hashes them when none is handed in.  The plan checked its seed when it
    was made; the repetition indices must be one flat sequence, with or
    without ``words``, of at most 2**16 entries between 0 and 2**32 - 1, and
    their counts array within ``_MAX_CELL_BYTES``, for any caller.  Anything
    else, and words of another shape or dtype, raise ``ValidationError``
    before a stream is hashed or built.

    Each segment is one :func:`sample_measured` call for every run.  The
    segments are stacked as the columns of one counts array and unfolded in
    one batch in the physical basis; each segment is then un-flipped by its
    own mask, one integer or one per run, and the segments are summed in
    place.  Returns ``(corrected, masks)``: the corrected histograms as the
    columns of a ``(dim, len(repetitions))`` array, and the flip mask of each
    run as an integer array (``None`` for nominal).
    """
    repetitions = _indices(repetitions)
    reps, shots = len(repetitions), plan.stream_shots
    cell_bytes = 8 * response.dim * reps
    if cell_bytes > _MAX_CELL_BYTES:
        raise ValidationError(f"{reps} repetitions over {response.dim} states need a counts "
                              f"array of {cell_bytes:,} bytes, above the limit of "
                              f"{_MAX_CELL_BYTES:,} bytes per ensemble cell")
    if words is None:
        words = next(stream_words([plan], repetitions))
    shape = (len(shots), reps, 4)
    got = (words.dtype, words.shape) if isinstance(words, np.ndarray) else type(words)
    if got != (np.uint64, shape):
        raise ValidationError(f"stream words must be a uint64 array of shape {shape}, got {got}")
    streams = _generators(words)
    if plan.strategy == "rebalanced":
        masks = choose_flip_mask(sample_measured(true_dist, response, shots[0], streams[0]))
        segments = [(masks, shots[1], streams[1])]
    else:
        segments = list(zip((0, response.dim - 1), shots, streams))
        masks = np.full(reps, response.dim - 1) if len(segments) > 1 else None
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
