"""Response matrices: construction, application, calibration-style
estimation, sampling, I/O.

The response matrix R is column-stochastic with R[m][t] = Pr(measured = m |
true = t).  A measured distribution is R @ t for a true distribution t.
"""

import json
import math
from functools import cached_property, reduce
from itertools import repeat

import numpy as np

from .core import (
    CalibrationFileError, DimensionError, QubitNoiseParams, ValidationError, _MAX_QUBITS,
    _check_count, _check_real, _read_json, _width, bit_table, rng_stream, xor_permute,
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

# Narrowest register whose products with R run on Kronecker factors.  At 5
# qubits a dense 32x32 product is faster: the hi x lo split took 1.0-1.9x its
# time (_kron_apply, one BLAS thread, 40-200 columns, 2-core x86 host).  At 6
# qubits the split took 0.5-1.0x, but moving the threshold would change the
# last bits of 6-qubit outputs, and no benchmark workload has 6 qubits.
_MIN_FACTORED_QUBITS = 7


def _check_dense(n_qubits):
    """Refuse a width above ``_MAX_QUBITS`` before any matrix or ``2**n`` is made."""
    if n_qubits > _MAX_QUBITS:
        raise ValidationError(
            f"a dense {n_qubits}-qubit response matrix exceeds the limit of "
            f"{_MAX_QUBITS} qubits (32 MiB)"
        )


class ResponseMatrix:
    """2^n x 2^n column-stochastic readout transition matrix R.

    R is held as ``kron_factors``, its Kronecker factors, outermost first,
    read-only and set when it is made; :func:`_kron_apply` applies them,
    for sampling and unfolding alike.  ``ResponseMatrix(entries,
    column_sum_atol)`` checks and keeps a dense matrix, n read from
    ``len(entries)``, which is its own one factor, ``(entries,)``.  A
    tensor model, which only :func:`build_tensor_response` makes, keeps its
    per-qubit pairs and the factors built from them: from 7 qubits up
    ``(hi, lo)``, each the fold of its own pairs, ``hi`` on the high
    ``ceil(n/2)`` qubits and ``lo`` on the low ``floor(n/2)``; below, the
    one fold of all its pairs, where dense products are as fast.  It forms
    its dense :attr:`entries` only when something reads them.  Either kind
    is read-only and compares and hashes by identity.
    """

    # the per-qubit pairs of a tensor model, which its factors and entries
    # are built from and save_response writes; None for a dense matrix
    qubit_params = None

    def __init__(self, entries, column_sum_atol=COLUMN_SUM_ATOL):
        # C order whatever the input's, so that products with R round alike
        # for every layout of the same entries
        entries = np.array(entries, dtype=np.float64, order="C")
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
        # written so that NaN fails the test as well
        if not 0.0 <= _check_real(column_sum_atol, "column_sum_atol") < np.inf:
            raise ValidationError(
                f"column_sum_atol must be finite and non-negative, got {column_sum_atol!r}"
            )
        sums = entries.sum(axis=0)
        off = np.abs(sums - 1.0)
        if np.any(off > column_sum_atol):
            col = int(np.argmax(off))
            raise ValidationError(
                f"column {col} sums to {sums[col]!r}, expected 1 within {column_sum_atol}"
            )
        entries.flags.writeable = False
        vars(self).update(entries=entries, kron_factors=(entries,), column_sum_atol=column_sum_atol)

    def __setattr__(self, name, value):
        raise AttributeError(f"a ResponseMatrix is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a ResponseMatrix is read-only: cannot delete {name!r}")

    @cached_property
    def entries(self):
        """R's dense 2^n x 2^n array, read-only.

        A dense matrix holds it from construction.  A tensor model forms it
        on first read and keeps it: below 7 qubits it is the one factor
        itself, else the left fold :func:`_kron_channels` of all its pairs,
        so either way it is bit for bit the fold of its pairs.
        """
        if len(self.kron_factors) == 1:
            return self.kron_factors[0]
        entries = _kron_channels(self.qubit_params)
        entries.flags.writeable = False
        return entries

    @cached_property
    def condition_number(self):
        """2-norm condition number (ratio of extreme singular values).

        The product of the condition numbers of :attr:`kron_factors`, each
        by an SVD, which is exact: the singular values of a Kronecker
        product are the products of the factors' singular values.  Computed
        on first use and kept: the entries never change, and construction
        should not pay for an SVD nobody asks for.
        """
        # Python floats, so that a product past the largest double is inf
        # without numpy's overflow warning
        return math.prod(float(np.linalg.cond(f)) for f in self.kron_factors)

    @cached_property
    def inverse_factors(self):
        """The inverses of :attr:`kron_factors`, in their order.

        R^-1 is the Kronecker product of its factors' inverses, so
        :func:`_kron_apply` applies it as it applies R.  Found on first use
        and kept, like :attr:`condition_number`, and read-only, like the
        factors.  Raises ``np.linalg.LinAlgError`` for a singular factor.
        """
        inverses = tuple(np.linalg.inv(f) for f in self.kron_factors)
        for inverse in inverses:
            # kept with the matrix: a write would reach every later unfold
            inverse.flags.writeable = False
        return inverses

    @property
    def dim(self):
        return math.prod(len(f) for f in self.kron_factors)

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


def _kron_apply(factors, x):
    """``np.kron(*factors) @ x``, without forming the Kronecker product.

    ``x`` is ``(dim,)`` or ``(dim, k)``; viewed as ``(len(f0), len(f1), ..., k)``,
    each factor acts, broadcast, on its own axis, outermost first, as
    :attr:`ResponseMatrix.kron_factors` orders them.
    """
    if len(factors) == 1:
        return factors[0] @ x
    y, lead = x, 1
    for f in factors:
        y = f @ y.reshape(lead, len(f), -1)
        lead *= len(f)
    return y.reshape(x.shape)


def _kron_channels(params):
    """Kronecker product of the qubits' channels, the last qubit outermost."""
    return reduce(np.kron, [single_qubit_channel(p) for p in reversed(params)])


def build_tensor_response(params):
    """Tensor-product response matrix for independent per-qubit errors.

    Qubit 0 is the least significant index bit, so the full matrix is the
    Kronecker product with qubit n-1 outermost.  The model keeps its pairs
    and the ``kron_factors`` built here from them; its dense
    :attr:`~ResponseMatrix.entries` are formed only if something reads
    them.  Both skip the dense checks, which a Kronecker product of checked
    column-stochastic 2x2 channels passes by construction.
    """
    params = tuple(params)
    if not params:
        raise ValidationError("need at least one qubit")
    for i, p in enumerate(params):
        if not isinstance(p, QubitNoiseParams):
            raise ValidationError(f"qubit {i}: expected QubitNoiseParams, got {p!r}")
    _check_dense(len(params))
    if len(params) < _MIN_FACTORED_QUBITS:
        factors = (_kron_channels(params),)
    else:
        half = len(params) // 2
        factors = _kron_channels(params[half:]), _kron_channels(params[:half])
    for factor in factors:
        # kept with the matrix: a write would reach every later unfold
        factor.flags.writeable = False
    response = object.__new__(ResponseMatrix)
    vars(response).update(
        qubit_params=params, kron_factors=factors, column_sum_atol=COLUMN_SUM_ATOL)
    return response


def estimate_response(true_response, shots_per_state, seed):
    """Finite-shot calibration estimate of a response matrix.

    Prepares each basis state ``shots_per_state`` times (a multinomial draw
    from the corresponding column) and records empirical frequencies, the
    way calibration circuits estimate R on hardware, drawing from
    ``rng_stream(seed)``.  Columns of the result sum to one by construction.
    """
    shots = _check_count(shots_per_state, "shots_per_state")
    # row t of p is column t of R: one multinomial draw per prepared state
    p = true_response.entries.T
    draws = rng_stream(seed).multinomial(shots, p / p.sum(axis=1, keepdims=True))
    return ResponseMatrix(draws.T / shots)


def sample_measured(true_dist, response, shots, streams, masks=0):
    """Noisy measured histograms of one readout segment, one column per stream.

    Column j of the returned ``(dim, len(streams))`` float array holds
    ``shots`` draws made with ``streams[j]`` from ``R @ p[s ^ masks[j]]``:
    the truth read out after X gates on the qubits of its flip mask.
    ``masks`` is one integer for every column or one per stream, and each
    distinct mask is folded once, through R's :attr:`~ResponseMatrix.kron_factors`.
    Zero shots draw zeros and leave the streams untouched.  Works for
    arbitrary (non-tensor) response matrices, and fixed seeds give
    bit-reproducible histograms.
    """
    if true_dist.n_qubits != response.n_qubits:
        raise DimensionError("distribution width does not match response matrix")
    shots = _check_count(shots, "shots", least=0)
    masks = np.asarray(masks)
    if masks.shape not in ((), (len(streams),)):
        raise DimensionError(f"flip masks of shape {masks.shape} for {len(streams)} streams")
    keys, scalar = masks.tolist(), masks.ndim == 0
    measured = {}
    for m in {keys} if scalar else set(keys):
        folded = _kron_apply(response.kron_factors, xor_permute(true_dist.probs, m))
        measured[m] = folded / folded.sum()
    # a scalar mask draws every stream from its one fold, without a lookup per stream
    probs = repeat(measured[keys]) if scalar else map(measured.__getitem__, keys)
    counts = np.empty((response.dim, len(streams)))
    for j, (stream, p) in enumerate(zip(streams, probs)):
        counts[:, j] = stream.multinomial(shots, p)
    return counts


def diag_by_zero_count(response):
    """Mean correct-readout probability grouped by number of 0s in the state.

    Returns {k: mean of R[s][s] over states s with exactly k zero bits}.
    On asymmetric models this rises with k: states with more 1s are misread
    more often.  A tensor model's diagonal is the fold of its channels'
    diagonals in :func:`_kron_channels`' order, bit for bit its entries'
    diagonal, without forming the entries.
    """
    n, pairs = response.n_qubits, response.qubit_params
    diagonal = response.entries.diagonal() if pairs is None else reduce(
        np.kron, [single_qubit_channel(p).diagonal() for p in reversed(pairs)])
    zeros = n - bit_table(n).sum(axis=0)
    return {k: float(diagonal[zeros == k].mean()) for k in range(n + 1)}


def save_response(response, path):
    """Write a response matrix as JSON with full round-trip precision.

    A matrix made by :func:`build_tensor_response` is written as its
    per-qubit ``eps01`` and ``eps10`` lists, qubit 0 first: 2n numbers in
    place of 4**n entries.  Any other is written as its ``entries``.
    """
    if response.qubit_params is None:
        payload = {"n_qubits": response.n_qubits, "entries": response.entries.tolist()}
    else:
        payload = {
            "n_qubits": response.n_qubits,
            "eps01": [float(p.eps01) for p in response.qubit_params],
            "eps10": [float(p.eps10) for p in response.qubit_params],
        }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_response(path):
    """Load a response matrix written by :func:`save_response`.

    A file of ``eps01`` and ``eps10`` lists is rebuilt by
    :func:`build_tensor_response`, so it loads to the very matrix that was
    saved, however wide.  A file of ``entries`` is checked at the looser
    column-sum tolerance ``LOAD_COLUMN_SUM_ATOL``.
    Every content fault, including values that are not numbers, NaN or out
    of range, is reported as a :class:`CalibrationFileError` naming the file
    and, where there is one, the offending location.
    """
    payload = _read_json(path)
    tensor = (
        isinstance(payload, dict) and "entries" not in payload
        and ("eps01" in payload or "eps10" in payload)
    )
    keys = ("n_qubits", "eps01", "eps10") if tensor else ("n_qubits", "entries")
    if not isinstance(payload, dict) or any(k not in payload for k in keys):
        expected = "'n_qubits', 'eps01' and 'eps10'" if tensor else "'n_qubits' and 'entries'"
        raise CalibrationFileError(f"{path}: expected keys {expected}")
    try:
        n = _check_count(payload["n_qubits"], "n_qubits")
        _check_dense(n)
    except ValidationError as exc:
        raise CalibrationFileError(f"{path}: {exc}") from exc
    if tensor:
        values, shape, what = [payload["eps01"], payload["eps10"]], (2, n), "eps01 and eps10"
        shape_text = f"eps01 and eps10 must each list {n} values"
    else:
        values, shape, what = payload["entries"], (2**n, 2**n), "entries"
        shape_text = f"entries must be a {2**n}x{2**n} array"
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.shape != shape:
        raise CalibrationFileError(f"{path}: {shape_text} for n_qubits = {n}")
    if arr.dtype.kind not in "iuf":
        raise CalibrationFileError(f"{path}: {what} must all be numbers")
    try:
        if tensor:
            return build_tensor_response(QubitNoiseParams(*pair) for pair in arr.T)
        return ResponseMatrix(arr, column_sum_atol=LOAD_COLUMN_SUM_ATOL)
    except ValidationError as exc:
        raise CalibrationFileError(f"{path}: {exc}") from exc


def default_qubit_params():
    """The committed per-qubit error pairs behind :func:`default_response`."""
    return [QubitNoiseParams(e01, e10) for e01, e10 in zip(DEFAULT_EPS01, DEFAULT_EPS10)]


def default_response():
    """The committed 5-qubit asymmetric response matrix, built from its parameters."""
    return build_tensor_response(default_qubit_params())
