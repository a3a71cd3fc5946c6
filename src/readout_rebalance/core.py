"""Shared data types and histogram arithmetic for multi-qubit readout studies.

Index convention used everywhere in this package: a basis state of an
n-qubit register is the integer whose bit i is the measured value of
qubit i, with qubit 0 as the least significant bit.  The "base-10
observable" below is then simply the counts-weighted mean of the state
index.
"""

import numpy as np
from dataclasses import dataclass

# absolute tolerance for probability normalization; all distributions in
# this package are built analytically, so anything looser hides bugs
PROB_SUM_ATOL = 1e-12


class ValidationError(ValueError):
    """Bad argument or violated invariant."""


class DimensionError(ValidationError):
    """Mismatched register widths or out-of-range state index."""


class NumericalError(RuntimeError):
    """Numerical failure: singular/ill-conditioned matrix, degenerate support."""


class CalibrationFileError(ValueError):
    """Malformed or inconsistent calibration file content."""


def _seed_sequence(seed, *path):
    """``SeedSequence`` of a non-negative seed and index path."""
    entropy = [int(seed)] + [int(p) for p in path]
    if any(e < 0 for e in entropy):
        raise ValidationError(f"rng seed and path entries must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy)


def rng_stream(seed, *path):
    """Deterministic ``numpy.random.Generator`` from a seed and an index path.

    Streams with different paths are statistically independent, so ensemble
    repetitions and Monte Carlo trials can be parallelized without any
    run-order dependence: ``rng_stream(seed, rep)`` is the stream for
    repetition ``rep`` regardless of scheduling.
    """
    return np.random.default_rng(_seed_sequence(seed, *path))


def as_generator(rng):
    """``rng`` itself when it is a Generator, else ``rng_stream(rng)``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return rng_stream(rng)


def bit_table(n_qubits):
    """``(n_qubits, 2**n_qubits)`` array whose entry ``[i, s]`` is bit i of state s."""
    return (np.arange(2 ** n_qubits) >> np.arange(n_qubits)[:, None]) & 1


def _as_readonly_float_array(values, n_qubits, what):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != 2 ** n_qubits:
        raise DimensionError(
            f"{what} must have length 2**{n_qubits} = {2 ** n_qubits}, got shape {arr.shape}"
        )
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CountsHistogram:
    """Occupation counts over all 2^n basis states of an n-qubit register.

    Raw (sampled) histograms hold nonnegative integers; corrected histograms
    are real-valued and may contain negative entries (matrix inversion can
    produce them).  The array is frozen after construction so instances can
    be shared across threads.
    """

    n_qubits: int
    counts: np.ndarray

    def __post_init__(self):
        if int(self.n_qubits) < 1:
            raise ValidationError("n_qubits must be >= 1")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(
            self, "counts", _as_readonly_float_array(self.counts, self.n_qubits, "counts")
        )

    @property
    def total(self):
        # always recomputed, never cached
        return float(self.counts.sum())


@dataclass(frozen=True)
class ProbDist:
    """Normalized probability mass function over 2^n basis states."""

    n_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        if int(self.n_qubits) < 1:
            raise ValidationError("n_qubits must be >= 1")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        probs = _as_readonly_float_array(self.probs, self.n_qubits, "probs")
        # written so that NaN fails the test as well
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValidationError("probabilities must be finite and lie in [0, 1]")
        if abs(probs.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValidationError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within {PROB_SUM_ATOL}"
            )
        object.__setattr__(self, "probs", probs)

    def to_histogram(self, total):
        """Expected (non-sampled) histogram with the given total."""
        return CountsHistogram(self.n_qubits, self.probs * float(total))


@dataclass(frozen=True)
class FlipMask:
    """n-bit XOR pattern marking which qubits get a pre-measurement X gate.

    Acts on state indices by XOR, hence applying the same mask twice is the
    identity.
    """

    n_qubits: int
    mask: int

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "mask", int(self.mask))
        if self.n_qubits < 1:
            raise ValidationError("n_qubits must be >= 1")
        if not 0 <= self.mask < 2 ** self.n_qubits:
            raise DimensionError(
                f"mask {self.mask:#b} does not fit in {self.n_qubits} qubits"
            )

    @classmethod
    def identity(cls, n_qubits):
        return cls(n_qubits, 0)

    @classmethod
    def full(cls, n_qubits):
        return cls(n_qubits, 2 ** n_qubits - 1)

    def bitstring(self):
        """Mask as a bitstring with qubit n-1 leftmost, matching ket notation."""
        return format(self.mask, f"0{self.n_qubits}b")


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


def _check_width(h, f):
    if f.n_qubits != h.n_qubits:
        raise DimensionError(
            f"mask width {f.n_qubits} does not match histogram width {h.n_qubits}"
        )


def xor_permute(h, f):
    """Relabel states by XOR with a flip mask: output[s] = input[s ^ f].

    This is the classical post-processing that undoes pre-measurement X
    gates.  Works on histograms and probability distributions alike and is
    an involution; totals are preserved exactly because entries are only
    permuted.
    """
    _check_width(h, f)
    idx = np.arange(2 ** h.n_qubits) ^ f.mask
    if isinstance(h, ProbDist):
        return ProbDist(h.n_qubits, h.probs[idx])
    return CountsHistogram(h.n_qubits, h.counts[idx])


def _weights(h):
    if isinstance(h, ProbDist):
        return h.probs, 1.0
    total = h.total
    return h.counts, total


def qubit_marginals(h):
    """Per-qubit probability of reading 1, i.e. the mean value of each qubit."""
    values, total = _weights(h)
    if total <= 0:
        raise ValidationError("qubit marginals undefined for an empty histogram")
    return bit_table(h.n_qubits) @ values / total


def observable_base10(h):
    """Counts-weighted mean of the state index.

    Equals sum_i 2^i <s_i>: the bitstring read as a base-2 integer,
    averaged over the histogram.
    """
    values, total = _weights(h)
    if isinstance(h, CountsHistogram) and total <= 0:
        raise ValidationError("base-10 observable undefined for an empty histogram")
    return float(values @ np.arange(2 ** h.n_qubits)) / (total if total else 1.0)


def counts_in_state(h, state):
    """Counts (or probability) recorded for one basis state."""
    values, _ = _weights(h)
    state = int(state)
    if not 0 <= state < 2 ** h.n_qubits:
        raise DimensionError(
            f"state index {state} out of range for {h.n_qubits} qubits"
        )
    return float(values[state])
