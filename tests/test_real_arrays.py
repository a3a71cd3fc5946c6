"""Every real-array argument goes through one rule, ``core._real``: bool,
integer, float and float-convertible object entries become float64, and
complex or text entries raise a ``ValidationError`` naming the argument,
where numpy would drop imaginary parts with only a warning or parse text.
One width bound, ``core._MAX_QUBITS``, holds for probabilities, response
entries and counts alike."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from readout_rebalance.analytics import ensemble_run, linear_order_reconstruct
from readout_rebalance.core import (
    DimensionError,
    ProbDist,
    ValidationError,
    counts_in_state,
    observable_base10,
    qubit_marginals,
    xor_permute,
)
from readout_rebalance.noise import ResponseMatrix
from readout_rebalance.rebalance import MeasurementPlan, choose_flip_mask
from readout_rebalance.states import inverted_w_dist
from readout_rebalance.unfold import (
    UnfoldConfig,
    apply_unfold,
    ibu_unfold,
    matrix_inverse_unfold,
)

from conftest import make_response


def not_real(shape):
    """Six arrays of ``shape`` whose entries are not all real numbers, by name."""
    size = int(np.prod(shape))
    first_complex = [1j] + [0.0] * (size - 1)
    return {
        "complex": (np.arange(size) + 1j).reshape(shape),
        "zero-imag": (np.arange(size) * (1 + 0j)).reshape(shape),
        "list": np.reshape(first_complex, shape).tolist(),
        "object": np.array(first_complex, dtype=object).reshape(shape),
        "text": np.reshape(["1"] * (size - 1) + ["one"], shape).tolist(),
        "numeric-text": np.reshape(["1"] * size, shape).tolist(),
    }


def fresh_response():
    """A 5-qubit tensor model that has found neither its inverse nor its condition number."""
    return make_response([0.002, 0.003, 0.004, 0.005, 0.006], [0.06, 0.065, 0.07, 0.075, 0.08])


def no_run(*args):
    raise AssertionError("run_plan reached")


# (call, the argument it names, the shape it reads): every public function that
# takes a real array, the array passed as x
REAL_ARRAY_ARGUMENTS = {
    "ProbDist": (lambda x, R: ProbDist(x), "probs", (32,)),
    "ResponseMatrix": (lambda x, R: ResponseMatrix(x), "entries", (32, 32)),
    "qubit_marginals": (lambda x, R: qubit_marginals(x), "counts", (32, 3)),
    # pilot histograms are counts, and the flip rule names them so in every message
    "choose_flip_mask": (lambda x, R: choose_flip_mask(x), "counts", (32, 3)),
    # xor_permute's values are named counts, as in its shape messages
    "xor_permute": (lambda x, R: xor_permute(x, 3), "counts", (32,)),
    "observable_base10": (lambda x, R: observable_base10(x), "counts", (32,)),
    "counts_in_state": (lambda x, R: counts_in_state(x, 3), "counts", (32,)),
    "apply_unfold": (lambda x, R: apply_unfold(x, R, UnfoldConfig("matrix_inversion")),
                     "counts", (32, 3)),
    "matrix_inverse_unfold": (lambda x, R: matrix_inverse_unfold(x, R), "counts", (32,)),
    "ibu_unfold": (lambda x, R: ibu_unfold(x, R), "counts", (32, 3)),
    "linear_order_reconstruct": (lambda x, R: linear_order_reconstruct(x, 0.1, 0.1),
                                 "measured_counts", (5, 4)),
    "ensemble_run": (lambda x, R: ensemble_run(inverted_w_dist(5), R,
                                               MeasurementPlan(500, rng_seed=1), x, 5),
                     "observable weights", (32,)),
}


@pytest.mark.parametrize("kind", list(not_real((2,))))
@pytest.mark.parametrize("function", list(REAL_ARRAY_ARGUMENTS))
def test_every_real_array_refuses_complex_and_text_entries(monkeypatch, function, kind):
    import readout_rebalance.analytics as analytics

    call, name, shape = REAL_ARRAY_ARGUMENTS[function]
    monkeypatch.setattr(analytics, "run_plan", no_run)
    R = fresh_response()
    with pytest.raises(ValidationError, match=f"^{name} must be real numbers, got "):
        call(not_real(shape)[kind], R)
    # refused before any inversion
    assert "inverse_factors" not in vars(R) and "condition_number" not in vars(R)


@pytest.mark.parametrize("call, name", [
    (lambda: ProbDist([0.5, 0.5 + 0.3j]), "probs"),
    (lambda: ProbDist(["0.5", "0.5"]), "probs"),
    (lambda: ProbDist("abcd"), "probs"),
    (lambda: ProbDist([[0.5], [0.5, 0.0]]), "probs"),
    (lambda: ResponseMatrix("ab"), "entries"),
    (lambda: qubit_marginals("abcd"), "counts"),
    (lambda: apply_unfold(["a"] * 32, fresh_response(), UnfoldConfig("matrix_inversion")),
     "counts"),
    (lambda: linear_order_reconstruct([1, 2, 3, 4 + 9j], 0.1, 0.1), "measured_counts"),
    (lambda: observable_base10(np.array([1.0, "2", 3.0, 4.0], dtype=object)), "counts"),
    (lambda: observable_base10(np.array([1.0, {}, 3.0, 4.0], dtype=object)), "counts"),
    (lambda: observable_base10(np.array([np.complex64(1), 0, 0, 0], dtype=object)), "counts"),
    (lambda: observable_base10(np.array(["2026-01-01"] * 4, dtype="datetime64[D]")), "counts"),
], ids=["complex-probs", "text-probs", "a-string", "ragged", "a-string-matrix", "a-string-counts",
        "text-counts", "complex-measured", "object-text", "object-dict", "object-numpy-complex",
        "datetime"])
def test_what_numpy_would_parse_or_truncate_is_refused(call, name):
    # each was once accepted with the imaginary part dropped, parsed, or a bare ValueError
    with pytest.raises(ValidationError, match=f"^{name} must be real numbers, got "):
        call()


def test_probs_entries_and_counts_wider_than_11_qubits_are_refused():
    message = r"the width of {} must lie between 1 and 11, got 12"
    with pytest.raises(DimensionError, match=message.format("probs")):
        ProbDist(np.full(2 ** 12, 2.0 ** -12))
    # a zero-stride 4096 x 4096 view: refused before its 128 MiB copy is made
    with pytest.raises(DimensionError, match=message.format("entries")):
        ResponseMatrix(np.broadcast_to(np.float64(0.0), (2 ** 12, 2 ** 12)))
    for reduce in (qubit_marginals, observable_base10, lambda c: xor_permute(c, 0),
                   lambda c: counts_in_state(c, 0)):
        with pytest.raises(DimensionError, match=message.format("counts")):
            reduce(np.ones((2 ** 12, 2)))
    # 11 qubits is the widest accepted
    assert ProbDist(np.full(2 ** 11, 2.0 ** -11)).n_qubits == 11
    assert observable_base10(np.ones(2 ** 11)) == (2 ** 11 - 1) / 2


@pytest.mark.parametrize("convert", [
    lambda a: a.astype(np.float32),
    lambda a: a.astype(np.int64),
    lambda a: a.astype(np.uint8),
    lambda a: a.astype(object),
    lambda a: np.array([Fraction(int(v)) for v in a.flat], dtype=object).reshape(a.shape),
    lambda a: np.array([Decimal(int(v)) for v in a.flat], dtype=object).reshape(a.shape),
    lambda a: a.tolist(),
    lambda a: a.astype(">f8"),
], ids=["float32", "int64", "uint8", "object", "fraction", "decimal", "list", "big-endian"])
def test_real_entries_of_every_kind_give_the_float64_results(committed_response, convert):
    counts = np.array([[40, 3, 0, 7], [1, 30, 2, 0], [0, 2, 25, 1], [9, 0, 1, 50]] * 8,
                      dtype=np.float64)
    x = convert(counts)
    for function in (qubit_marginals, choose_flip_mask, observable_base10,
                     lambda c: xor_permute(c, np.arange(4)),
                     lambda c: counts_in_state(c, 5),
                     lambda c: apply_unfold(c, committed_response, UnfoldConfig()),
                     lambda c: linear_order_reconstruct(c, 0.1, 0.05)):
        assert np.array_equal(function(x), function(counts))


def test_bool_and_object_inputs_build_the_same_types():
    # a weight vector such as np.arange(32) == 31 stays valid, as do bool probabilities
    assert np.array_equal(ProbDist([False, True]).probs, [0.0, 1.0])
    assert np.array_equal(ProbDist(np.array([Fraction(1, 4), 0.75], dtype=object)).probs,
                          [0.25, 0.75])
    R = ResponseMatrix([[1, 0], [0, 1]])
    assert R.entries.dtype == np.float64 and np.array_equal(R.entries, np.eye(2))
    # an object None converts to NaN, and the range check refuses it, as before
    with pytest.raises(ValidationError, match="finite and lie in"):
        ProbDist(np.array([None, 1.0], dtype=object))


def test_an_ensemble_takes_bool_weights_as_their_float_values(committed_response):
    plan = MeasurementPlan(500, rng_seed=3)
    t = inverted_w_dist(5)
    flags = ensemble_run(t, committed_response, plan, np.arange(32) == 31, 5)
    floats = ensemble_run(t, committed_response, plan, (np.arange(32) == 31) * 1.0, 5)
    assert (flags.mean, flags.std) == (floats.mean, floats.std)


def test_a_float64_array_passes_as_it_is():
    from readout_rebalance.core import _real

    counts = np.ones((4, 3))
    assert _real(counts, "counts") is counts
    # the caller's array keeps its own flag: the data types hold copies
    probs = np.array([0.25, 0.75])
    ProbDist(probs)
    entries = np.eye(2)
    ResponseMatrix(entries)
    assert probs.flags.writeable and entries.flags.writeable
