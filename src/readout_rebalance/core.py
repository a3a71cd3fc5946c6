"""Shared data types and array arithmetic for multi-qubit readout studies.

Index convention used everywhere in this package: a basis state of an
n-qubit register is the integer whose bit i is the measured value of
qubit i, with qubit 0 as the least significant bit.  Counts are float
arrays of shape ``(2**n,)`` for one histogram or ``(2**n, k)`` for k
histograms side by side, and a flip mask is the integer whose bit i marks
qubit i.  The "base-10 observable" below is then simply the counts-weighted
mean of the state index.
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

# absolute tolerance for probability normalization; all distributions in
# this package are built analytically, so anything looser hides bugs
PROB_SUM_ATOL = 1e-12
# the largest shot count numpy draws a multinomial sample of (an int64)
_MAX_SHOTS = np.iinfo(np.int64).max
# Widest register of a state or a dense response matrix: 11 qubits, 8 * 4**11
# bytes = 32 MiB.  Checking a dense matrix peaks at twice that; an inverted one
# keeps its 32 MiB inverse, and each SVD, inversion and IBU product holds more
# copies, while 16 qubits would take 32 GiB per copy.  A tensor model keeps
# only its factors (two 16x16 ones at wide_8q's 8 qubits, 4 KiB) and forms the
# dense matrix only if its entries are read.
_MAX_QUBITS = 11


class ValidationError(ValueError):
    """Bad argument or violated invariant."""


class DimensionError(ValidationError):
    """Mismatched register widths or out-of-range state index."""


class NumericalError(RuntimeError):
    """Numerical failure: singular/ill-conditioned matrix, degenerate support."""


class CalibrationFileError(ValueError):
    """Malformed or inconsistent calibration file content."""


def _read_json(path):
    """A JSON file's value; any fault of its text is a :class:`CalibrationFileError`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise CalibrationFileError(f"{path}: not valid JSON ({exc})") from exc


def _check_count(value, name, least=1, most=_MAX_SHOTS):
    """``int(value)`` of an integer (not a bool) between ``least`` and ``most``.

    The one rule for every integer: counts, iterations, widths, state indices and seeds.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        raise ValidationError(f"{name} must lie between {least} and {most}")
    return int(value)


def _check_real(value, name):
    """``value`` itself if a real number (not a bool); ``float()`` would overflow on a huge int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return value


# numpy's seed-sequence hash (O'Neill's seed_seq_fe): a pool of four uint32
# words, mixed with these constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# Most columns of one seed-hash call.  With two spawn keys a column cost 1.5 us
# in a call of 80 columns, 0.12 us at 2,000, 0.14-0.15 us at 4,000-16,000 and
# 0.19 us at 128,000 (2-core x86 host, numpy 2.4), so seeds are batched only
# up to here.
_MAX_HASH_COLUMNS = 2 ** 11


def _uint32_words(value, name):
    """The 32-bit words of a non-negative integer, least significant first (0 is one word)."""
    value = _check_count(value, name, least=0, most=math.inf)
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _chain(init, mult, n):
    """numpy's running hash constants ``init * mult**i`` for i < n, as uint32 products wrap."""
    return np.cumprod(np.r_[init, np.full(n - 1, mult)].astype(np.uint32), dtype=np.uint32)


@functools.lru_cache(maxsize=16)
def _hash_constants(n_words):
    """Read-only ``(pre, post)``: numpy's hash constant before and after each of its steps.

    One ``(4, 1)`` row per ``(4, k)`` array step of the hash of ``n_words``
    words: the pool's first hash, a mix of each pool word into the other
    three (its own slot unused), one mix per further word, then
    ``generate_state``'s two passes over the pool.
    """
    dst, src = np.arange(_POOL_SIZE), np.arange(_POOL_SIZE)[:, None]
    further = np.arange(_POOL_SIZE, n_words)[:, None]
    at = np.concatenate([dst[None], 4 + 3 * src + dst - (dst > src), 4 * further + dst])
    a, b = _chain(_INIT_A, _MULT_A, 4 * n_words + 2), _chain(_INIT_B, _MULT_B, 9)
    pre = np.concatenate([a[at], b[:8].reshape(2, 4)])[..., None]
    post = np.concatenate([a[at + 1], b[1:].reshape(2, 4)])[..., None]
    pre.flags.writeable = post.flags.writeable = False
    return pre, post


def _hash(values, pre, post):
    """numpy's seed-hash step; uint32 arrays wrap on overflow as its C code does."""
    values = (values ^ pre) * post
    return values ^ (values >> 16)


def _mix(x, y):
    """numpy's seed-hash mix of pool words ``x`` with hashed words ``y``."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _state_words(entropy):
    """numpy's ``generate_state(4, np.uint64)`` for every column of ``entropy``.

    ``entropy`` is a ``(words, k)`` uint32 array: each column is the
    assembled entropy of one seed sequence, zero-padded to at least the
    pool size.  Returns the ``(k, 4)`` uint64 state words.  Each of numpy's
    loops over pool words is one array step.  This is the package's one seed hash.
    """
    pre, post = _hash_constants(len(entropy))
    pool = _hash(entropy[:_POOL_SIZE], pre[0], post[0])
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], pre[1 + src], post[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    # entropy beyond the pool is mixed into every pool word
    for row, word in enumerate(entropy[_POOL_SIZE:], 1 + _POOL_SIZE):
        pool = _mix(pool, _hash(word, pre[row], post[row]))
    # generate_state cycles twice through the pool for eight uint32 words
    state = _hash(pool, pre[-2:], post[-2:]).reshape(2 * _POOL_SIZE, -1)
    # pairs of uint32 words read as little-endian uint64, as numpy does
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_states(seeds, paths, *spawn_keys):
    """State words of the seed sequence of each seed, each index path and each spawn key.

    ``seeds`` is one seed or a sequence of them, and ``paths`` is a
    ``(k, depth)`` integer array, one index path per row.  Row
    ``(s * n_keys + j) * k + i`` of the result is numpy's
    ``generate_state(4, np.uint64)`` of entropy ``[seeds[s], *paths[i]]``
    and spawn key j (``()`` if none is given): the state that seeds a
    ``PCG64``, whose word 0 is also the integer seed of a child.  One seed
    gives the rows of ``s = 0``.  This is the package's one entropy
    assembly, done as numpy does it: the seed's 32-bit words, one word per
    path entry, zero-padded to the pool size before a non-empty spawn key.
    Seeds of the same word count are hashed together, in
    :func:`_state_words` calls of at most ``_MAX_HASH_COLUMNS`` columns;
    a seed with more streams than that is hashed alone.  The seed and key
    entries may be any non-negative integers and a path entry must fit in
    one word; else ``ValidationError`` is raised before anything is hashed.
    The keys share the entropy rows, so they must have the same number of
    32-bit words, as the keys of one strategy do.
    """
    if np.ndim(seeds) == 0:
        seeds = [seeds]
    runs = [_uint32_words(seed, "rng seed") for seed in seeds]
    keys = np.array([[w for e in key for w in _uint32_words(e, "spawn key entries")]
                     for key in spawn_keys or [()]], dtype=np.uint32)
    paths = np.asarray(paths)
    if paths.size and not (
        paths.dtype.kind in "iu" and 0 <= paths.min() <= paths.max() <= _MASK32
    ):
        raise ValidationError(
            f"path entries must be integers between 0 and {_MASK32}, "
            f"got {paths.min()!r} to {paths.max()!r}"
        )
    (k, depth), (n_keys, width) = paths.shape, keys.shape
    states = np.empty((len(runs), n_keys * k, 4), dtype=np.uint64)
    by_words = {}
    for s, run in enumerate(runs):
        by_words.setdefault(len(run), []).append(s)
    per_call = max(_MAX_HASH_COLUMNS // max(n_keys * k, 1), 1)
    for n_words, members in by_words.items():
        # the seed's words and the path, then the spawn key after zero padding to the pool
        start = max(n_words + depth, _POOL_SIZE) if width else n_words + depth
        for at in range(0, len(members), per_call):
            batch = members[at:at + per_call]
            entropy = np.zeros((max(start + width, _POOL_SIZE), len(batch), n_keys, k),
                               dtype=np.uint32)
            entropy[:n_words] = np.array([runs[s] for s in batch], dtype=np.uint32).T[
                ..., None, None]
            entropy[n_words:n_words + depth] = paths.T[:, None, None]
            entropy[start:start + width] = keys.T[:, None, :, None]
            states[batch] = _state_words(entropy.reshape(len(entropy), -1)).reshape(
                len(batch), n_keys * k, 4)
    return states.reshape(-1, 4)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Seed source of one ``PCG64`` whose four uint64 state words are known."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly these: four uint64 words
        return self.words


def _generators(words):
    """``numpy.random.Generator``s of a ``(keys, k, 4)`` block of state words, one list per key."""
    return [[np.random.Generator(np.random.PCG64(_StateWords(row))) for row in of_key]
            for of_key in words]


def rng_stream(seed, *path, spawn_key=()):
    """Deterministic ``numpy.random.Generator`` from a seed and an index path.

    It draws what numpy's default generator draws from the seed sequence
    of entropy ``[seed, *path]`` and this spawn key, through the package's
    one seed hash (see :func:`_seed_states`).  The stream cannot ``spawn``;
    ``spawn_key=(k,)`` gives child k, the one numpy's ``spawn`` returns at
    index k.
    The seed sequence pads its entropy with zero words, so paths that
    differ only by trailing zeros give the same stream: ``rng_stream(seed)``
    and ``rng_stream(seed, 0)`` draw alike.  Other paths give independent
    streams.
    """
    return _generators(_seed_states(seed, [path], spawn_key).reshape(1, 1, 4))[0][0]


def bit_table(n_qubits):
    """``(n_qubits, 2**n_qubits)`` array whose entry ``[i, s]`` is bit i of state s."""
    return (np.arange(2 ** n_qubits) >> np.arange(n_qubits)[:, None]) & 1


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Normalized probability mass function over 2^n basis states, n read from len(probs)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise DimensionError(f"probs must be 1-D, got shape {probs.shape}")
        _width(probs, "probs")
        probs.flags.writeable = False
        # written so that NaN fails the test as well
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValidationError("probabilities must be finite and lie in [0, 1]")
        if abs(probs.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValidationError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within {PROB_SUM_ATOL}"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def n_qubits(self):
        return len(self.probs).bit_length() - 1


@dataclass(frozen=True)
class QubitNoiseParams:
    """Asymmetric per-qubit readout error pair.

    eps01 = Pr(measure 1 | true 0), eps10 = Pr(measure 0 | true 1), each a
    real number in [0, 1] (not a string or a bool).  Decay during
    measurement makes eps10 the dominant term on real devices.
    """

    eps01: float
    eps10: float

    def __post_init__(self):
        for name, p in (("eps01", self.eps01), ("eps10", self.eps10)):
            if not 0.0 <= _check_real(p, name) <= 1.0:
                raise ValidationError(f"{name} = {p} outside [0, 1]")
            object.__setattr__(self, name, float(p))


def _width(counts, name="counts"):
    """``(counts, n)``: a ``(2**n,)`` or ``(2**n, k)`` float array and its qubit count."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim not in (1, 2):
        raise DimensionError(f"{name} must have shape (2**n,) or (2**n, k), got {counts.shape}")
    dim = len(counts)
    if dim < 2 or dim & (dim - 1):
        raise DimensionError(
            f"{name} must have a power-of-two length of at least 2, got shape {counts.shape}"
        )
    return counts, dim.bit_length() - 1


def _counts(counts):
    """``_width(counts)`` of measured counts, refused unless every count is finite.

    The one finiteness check of the functions that reduce or unfold counts:
    a NaN or inf count would come out of them as NaN estimates or a flip
    mask of 0, with a ``RuntimeWarning`` at most.
    """
    counts, n = _width(counts)
    if not np.isfinite(counts).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(counts))[0])
        raise ValidationError(f"counts must be finite, got {counts[at]!r} at index {at}")
    return counts, n


def _totals(counts, what):
    totals = counts.sum(axis=0)
    if np.any(totals <= 0):
        raise ValidationError(f"{what} undefined for an empty histogram")
    return totals


@functools.lru_cache(maxsize=16)
def _states(n_qubits):
    """Read-only ``np.arange(2**n_qubits)``, the state indices of an n-qubit register."""
    states = np.arange(2 ** n_qubits)
    states.flags.writeable = False
    return states


def xor_permute(values, masks):
    """Relabel states by XOR with a flip mask: output[s] = values[s ^ mask].

    ``masks`` is one integer mask for the whole array, or one mask per column
    of a ``(2**n, k)`` array.  This is the classical post-processing that
    undoes pre-measurement X gates.  It is an involution, and every column
    keeps its total exactly because entries are only permuted.  A scalar
    mask moves whole rows.
    """
    values, n = _width(values)
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iu" or masks.ndim > 1:
        raise ValidationError(f"flip masks must be one integer or one per column, got {masks!r}")
    if masks.ndim == 1 and values.shape[1:] != masks.shape:
        raise DimensionError(f"{masks.size} flip masks for counts of shape {values.shape}")
    # one min and one max check the range (no masks read 0 for both); the
    # elementwise test runs only to name the first mask outside it
    lo, hi = (int(masks),) * 2 if masks.ndim == 0 else (masks.min(initial=0), masks.max(initial=0))
    if not 0 <= lo <= hi < 2 ** n:
        outside = (masks < 0) | (masks >= 2 ** n)
        raise DimensionError(f"flip mask {masks[outside].flat[0]} does not fit in {n} qubits")
    states = _states(n)
    if masks.ndim == 0:
        return values[states ^ int(masks)]
    # int64 ^ uint64 has no integer loop: index with the checked masks as intp
    return values[states[:, None] ^ masks.astype(np.intp, copy=False), np.arange(masks.size)]


def qubit_marginals(counts):
    """Per-qubit probability of reading 1, i.e. the mean value of each qubit.

    Shape ``(n,)`` for one histogram, ``(n, k)`` for the k columns of a
    ``(2**n, k)`` array.  One ``bits @ counts`` gives every qubit's count of
    1s in every column.
    """
    counts, n = _counts(counts)
    return (bit_table(n) @ counts) / _totals(counts, "qubit marginals")


def observable_base10(counts):
    """Counts-weighted mean of the state index, per column.

    Equals sum_i 2^i <s_i>: the bitstring read as a base-2 integer,
    averaged over the histogram.
    """
    counts, n = _counts(counts)
    return np.arange(2 ** n) @ counts / _totals(counts, "base-10 observable")


def counts_in_state(counts, state):
    """Counts (or probability) recorded for one basis state, per column."""
    counts, n = _width(counts)
    state = _check_count(state, "state", least=0, most=math.inf)
    if state >= 2 ** n:
        raise DimensionError(f"state index {state} out of range for {n} qubits")
    return counts[state]
