"""Response matrices: construction, calibration-style estimation, sampling, I/O.

The response matrix R is column-stochastic with R[m][t] = Pr(measured = m |
true = t).  A measured distribution is R @ t for a true distribution t.
"""

import json
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .core import (
    CalibrationFileError, DimensionError, QubitNoiseParams, ValidationError, _check_shots,
    _read_json, _width, rng_stream,
)

COLUMN_SUM_ATOL = 1e-9
# looser on load so externally measured calibration data with finite-shot
# noise is still accepted
LOAD_COLUMN_SUM_ATOL = 1e-6

# Committed default 5-qubit asymmetric model.  Chosen once inside the bands
# eps10 in [0.03, 0.08] and eps01 in [0.002, 0.01], increasing with qubit
# index, and frozen so benchmark numbers are stable across machines.  The
# strong eps10/eps01 asymmetry reproduces the usual hardware behaviour:
# bitstrings with more 1s are read out correctly less often.
DEFAULT_EPS10 = (0.065, 0.069, 0.073, 0.077, 0.080)
DEFAULT_EPS01 = (0.0020, 0.0024, 0.0028, 0.0032, 0.0036)

# Widest register given a dense response matrix: 11 qubits, 8 * 4**11 bytes =
# 32 MiB.  Building peaks at twice the matrix and each solve, SVD and IBU
# product holds more copies, while 16 qubits would take 32 GiB per copy.
# wide_8q's 8 qubits take 0.5 MiB.
_MAX_DENSE_QUBITS = 11


def _check_dense(n_qubits):
    """Refuse a width above ``_MAX_DENSE_QUBITS``, before any matrix or ``2**n``
    is made: a width read from a file may be any integer."""
    if n_qubits > _MAX_DENSE_QUBITS:
        raise ValidationError(
            f"a dense {n_qubits}-qubit response matrix exceeds the limit of "
            f"{_MAX_DENSE_QUBITS} qubits (32 MiB)"
        )


@dataclass(frozen=True)
class ResponseMatrix:
    """2^n x 2^n column-stochastic readout transition matrix, n read from len(entries)."""

    entries: np.ndarray
    column_sum_atol: float = COLUMN_SUM_ATOL

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError(f"entries must be a square matrix, got shape {entries.shape}")
        _width(entries, "entries")
        # written so that NaN fails the test as well
        outside = ~((entries >= 0.0) & (entries <= 1.0))
        if np.any(outside):
            m, t = np.argwhere(outside)[0]
            raise ValidationError(
                f"entry at row {m}, column {t} is {entries[m, t]!r}, outside [0, 1]"
            )
        sums = entries.sum(axis=0)
        off = np.abs(sums - 1.0)
        if np.any(off > self.column_sum_atol):
            col = int(np.argmax(off))
            raise ValidationError(
                f"column {col} sums to {sums[col]!r}, expected 1 within {self.column_sum_atol}"
            )
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @cached_property
    def condition_number(self):
        """2-norm condition number (ratio of extreme singular values).

        Computed by an SVD on first use and kept: the entries never change,
        and construction should not pay for an SVD nobody asks for.
        """
        return float(np.linalg.cond(self.entries))

    @property
    def dim(self):
        return len(self.entries)

    @property
    def n_qubits(self):
        return self.dim.bit_length() - 1


def single_qubit_channel(params):
    """2x2 transition matrix [[p(0|0), p(0|1)], [p(1|0), p(1|1)]]."""
    return np.array(
        [
            [1.0 - params.eps01, params.eps10],
            [params.eps01, 1.0 - params.eps10],
        ]
    )


def build_tensor_response(params):
    """Tensor-product response matrix for independent per-qubit errors.

    Qubit 0 is the least significant index bit, so the full matrix is the
    Kronecker product with qubit n-1 outermost.
    """
    params = list(params)
    if not params:
        raise ValidationError("need at least one qubit")
    _check_dense(len(params))
    mats = [single_qubit_channel(p) for p in params]
    return ResponseMatrix(reduce(np.kron, reversed(mats)))


def estimate_response(true_response, shots_per_state, seed):
    """Finite-shot calibration estimate of a response matrix.

    Prepares each basis state ``shots_per_state`` times (a multinomial draw
    from the corresponding column) and records empirical frequencies, the
    way calibration circuits estimate R on hardware, drawing from
    ``rng_stream(seed)``.  Columns of the result sum to one by construction.
    """
    shots = _check_shots(shots_per_state, "shots_per_state")
    # row t of p is column t of R: one multinomial draw per prepared state
    p = true_response.entries.T
    draws = rng_stream(seed).multinomial(shots, p / p.sum(axis=1, keepdims=True))
    return ResponseMatrix(draws.T / shots)


def sample_measured(true_dist, response, shots, streams):
    """Noisy measured histograms: one multinomial draw from R @ t per stream.

    Column j of the returned ``(dim, len(streams))`` float array holds
    ``shots`` draws made with ``streams[j]``; zero shots draw nothing.  The
    folded distribution is computed once for all columns.  Works for
    arbitrary (non-tensor) response matrices, and fixed seeds give
    bit-reproducible histograms.
    """
    if true_dist.n_qubits != response.n_qubits:
        raise DimensionError("distribution width does not match response matrix")
    shots = _check_shots(shots, "shots", least=0)
    folded = response.entries @ true_dist.probs
    measured = folded / folded.sum()
    counts = np.zeros((response.dim, len(streams)))
    if shots > 0:
        for j, stream in enumerate(streams):
            counts[:, j] = stream.multinomial(shots, measured)
    return counts


def diag_by_zero_count(response):
    """Mean correct-readout probability grouped by number of 0s in the state.

    Returns {k: mean of R[s][s] over states s with exactly k zero bits}.
    On asymmetric models this rises with k: states with more 1s are misread
    more often.
    """
    n = response.n_qubits
    diag = np.diag(response.entries)
    zeros = np.array([n - bin(s).count("1") for s in range(response.dim)])
    return {k: float(diag[zeros == k].mean()) for k in range(n + 1)}


def save_response(response, path):
    """Write a response matrix as JSON with full round-trip precision."""
    payload = {"n_qubits": response.n_qubits, "entries": response.entries.tolist()}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_response(path):
    """Load a response matrix written by :func:`save_response`.

    Column sums are checked at the looser tolerance ``LOAD_COLUMN_SUM_ATOL``.
    Every content fault, including entries that are not numbers, NaN or out
    of range, is reported as a :class:`CalibrationFileError` naming the file
    and, where there is one, the offending location.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or "n_qubits" not in payload or "entries" not in payload:
        raise CalibrationFileError(f"{path}: expected keys 'n_qubits' and 'entries'")
    n = payload["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CalibrationFileError(f"{path}: n_qubits must be a positive integer")
    try:
        _check_dense(n)
    except ValidationError as exc:
        raise CalibrationFileError(f"{path}: {exc}") from exc
    dim = 2 ** n
    try:
        arr = np.asarray(payload["entries"])
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.shape != (dim, dim):
        raise CalibrationFileError(
            f"{path}: entries must be a {dim}x{dim} array for n_qubits = {n}"
        )
    if arr.dtype.kind not in "iuf":
        raise CalibrationFileError(f"{path}: entries must all be numbers")
    try:
        return ResponseMatrix(arr, column_sum_atol=LOAD_COLUMN_SUM_ATOL)
    except ValidationError as exc:
        raise CalibrationFileError(f"{path}: {exc}") from exc


def default_qubit_params():
    """The committed per-qubit error pairs behind :func:`default_response`."""
    return [QubitNoiseParams(e01, e10) for e01, e10 in zip(DEFAULT_EPS01, DEFAULT_EPS10)]


def default_response():
    """The committed 5-qubit asymmetric response matrix, built from its parameters."""
    return build_tensor_response(default_qubit_params())
