"""Shared data types and array arithmetic for multi-qubit readout studies.

Index convention used everywhere in this package: a basis state of an
n-qubit register is the integer whose bit i is the measured value of
qubit i, with qubit 0 as the least significant bit.  Counts are float
arrays of shape ``(2**n,)`` for one histogram or ``(2**n, k)`` for k
histograms side by side, and a flip mask is the integer whose bit i marks
qubit i.  The "base-10 observable" below is then simply the counts-weighted
mean of the state index.
"""

import json
from dataclasses import dataclass

import numpy as np

# absolute tolerance for probability normalization; all distributions in
# this package are built analytically, so anything looser hides bugs
PROB_SUM_ATOL = 1e-12
# the largest shot count numpy draws a multinomial sample of (an int64)
_MAX_SHOTS = np.iinfo(np.int64).max


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


def _check_shots(shots, name, least=1):
    """``int(shots)``, refused unless between ``least`` and ``_MAX_SHOTS``."""
    shots = int(shots)
    if not least <= shots <= _MAX_SHOTS:
        raise ValidationError(f"{name} must lie between {least} and {_MAX_SHOTS}")
    return shots


def _seed_sequence(seed, *path, spawn_key=()):
    """``SeedSequence`` of a non-negative seed, index path and spawn key."""
    entropy = [int(seed)] + [int(p) for p in path]
    if any(e < 0 for e in entropy):
        raise ValidationError(f"rng seed and path entries must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy, spawn_key=spawn_key)


def rng_stream(seed, *path):
    """Deterministic ``numpy.random.Generator`` from a seed and an index path.

    ``rng_stream(seed, rep)`` is the stream for repetition ``rep`` regardless
    of scheduling, so repetitions can run in any order.  Paths that differ
    other than by trailing zeros give independent streams: ``SeedSequence``
    pads its entropy with zero words, so ``rng_stream(seed)`` and
    ``rng_stream(seed, 0)`` are the same stream, draw for draw.
    """
    return np.random.default_rng(_seed_sequence(seed, *path))


def bit_table(n_qubits):
    """``(n_qubits, 2**n_qubits)`` array whose entry ``[i, s]`` is bit i of state s."""
    return (np.arange(2 ** n_qubits) >> np.arange(n_qubits)[:, None]) & 1


@dataclass(frozen=True)
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

    eps01 = Pr(measure 1 | true 0), eps10 = Pr(measure 0 | true 1).  Decay
    during measurement makes eps10 the dominant term on real devices.
    """

    eps01: float
    eps10: float

    def __post_init__(self):
        for name, p in (("eps01", self.eps01), ("eps10", self.eps10)):
            if not 0.0 <= float(p) <= 1.0:
                raise ValidationError(f"{name} = {p} outside [0, 1]")
        object.__setattr__(self, "eps01", float(self.eps01))
        object.__setattr__(self, "eps10", float(self.eps10))


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


def _totals(counts, what):
    totals = counts.sum(axis=0)
    if np.any(totals <= 0):
        raise ValidationError(f"{what} undefined for an empty histogram")
    return totals


def xor_permute(values, masks):
    """Relabel states by XOR with a flip mask: output[s] = values[s ^ mask].

    ``masks`` is one integer mask for the whole array, or one mask per column
    of a ``(2**n, k)`` array.  This is the classical post-processing that
    undoes pre-measurement X gates.  It is an involution, and every column
    keeps its total exactly because entries are only permuted.
    """
    values, n = _width(values)
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iu" or masks.ndim > 1:
        raise ValidationError(f"flip masks must be one integer or one per column, got {masks!r}")
    if masks.ndim == 1 and values.shape[1:] != masks.shape:
        raise DimensionError(f"{masks.size} flip masks for counts of shape {values.shape}")
    outside = (masks < 0) | (masks >= 2 ** n)
    if np.any(outside):
        raise DimensionError(f"flip mask {masks[outside].flat[0]} does not fit in {n} qubits")
    states = np.arange(2 ** n)
    if masks.ndim == 0:
        return values[states ^ masks]
    return values[states[:, None] ^ masks, np.arange(masks.size)]


def qubit_marginals(counts):
    """Per-qubit probability of reading 1, i.e. the mean value of each qubit.

    Shape ``(n,)`` for one histogram, ``(n, k)`` for the k columns of a
    ``(2**n, k)`` array.  One ``bits @ counts`` gives every qubit's count of
    1s in every column.
    """
    counts, n = _width(counts)
    return (bit_table(n) @ counts) / _totals(counts, "qubit marginals")


def observable_base10(counts):
    """Counts-weighted mean of the state index, per column.

    Equals sum_i 2^i <s_i>: the bitstring read as a base-2 integer,
    averaged over the histogram.
    """
    counts, n = _width(counts)
    return np.arange(2 ** n) @ counts / _totals(counts, "base-10 observable")


def counts_in_state(counts, state):
    """Counts (or probability) recorded for one basis state, per column."""
    counts, n = _width(counts)
    state = int(state)
    if not 0 <= state < 2 ** n:
        raise DimensionError(f"state index {state} out of range for {n} qubits")
    return counts[state]
