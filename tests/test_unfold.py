import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from readout_rebalance.core import NumericalError, ProbDist, ValidationError
from readout_rebalance.noise import ResponseMatrix
from readout_rebalance.states import grover_dist, inverted_w_dist
from readout_rebalance.unfold import (
    DEFAULT_MAX_CONDITION,
    UnfoldConfig,
    apply_unfold,
    condition_report,
    ibu_unfold,
    matrix_inverse_unfold,
)

from conftest import make_response


def tv_distance(h, dist):
    p = h / h.sum()
    return 0.5 * np.abs(p - dist.probs).sum()


def test_unfold_config_validation():
    UnfoldConfig()
    UnfoldConfig(method="matrix_inversion")
    with pytest.raises(ValidationError):
        UnfoldConfig(method="neural")
    with pytest.raises(ValidationError):
        UnfoldConfig(ibu_iterations=0)


def test_inversion_identity():
    R = make_response([0, 0], [0, 0])
    m = np.array([5.0, 7.0, 1.0, 3.0])
    out = matrix_inverse_unfold(m, R)
    assert np.allclose(out, m, atol=1e-12)


def test_inversion_algebraic_round_trip(committed_response):
    t = inverted_w_dist(5)
    m = committed_response.entries @ (t.probs * 1e6)
    out = matrix_inverse_unfold(m, committed_response)
    assert tv_distance(out, t) < 1e-10
    assert out.sum() == pytest.approx(1e6, rel=1e-9)


def test_inversion_linear_order_two_qubit():
    # pure measured |11>: the reconstructed count is the measured count
    # scaled by 1/((1-q0)(1-q1)) = 1 + q0 + q1 + O(q^2)
    q0, q1 = 0.05, 0.03
    R = make_response([0.0, 0.0], [q0, q1])
    M = 10000.0
    m = np.array([0.0, 0.0, 0.0, M])
    out = matrix_inverse_unfold(m, R)
    linear = (1 + q0 + q1) * M
    assert abs(out[3] - linear) <= 2 * (q0 + q1) ** 2 * M
    assert out[3] == pytest.approx(M / ((1 - q0) * (1 - q1)), rel=1e-12)


def test_inversion_can_return_negative_entries():
    q = 0.2
    R = make_response([0.0], [q])
    # all counts in |1> is impossible for the exact channel, so the
    # reconstruction overshoots and |0> goes negative
    m = np.array([0.0, 1000.0])
    out = matrix_inverse_unfold(m, R)
    assert out[0] < 0
    assert out.sum() == pytest.approx(1000.0, rel=1e-12)


def test_inversion_rejects_singular_matrix():
    R = ResponseMatrix([[0.5, 0.5], [0.5, 0.5]])
    m = np.array([10.0, 20.0])
    with pytest.raises(NumericalError):
        matrix_inverse_unfold(m, R)


def test_inversion_condition_bound():
    # finite and solvable, but conditioned beyond the bound: the refusal
    # comes from the bound, not from singularity
    R = make_response([0.5], [0.5 - 1e-13])
    cond = condition_report(R)
    assert np.isfinite(cond) and cond > DEFAULT_MAX_CONDITION
    np.linalg.solve(R.entries, [5.0, 5.0])
    m = np.array([5.0, 5.0])
    with pytest.raises(NumericalError, match="condition number"):
        matrix_inverse_unfold(m, R)


def test_ibu_identity_fixed_point():
    # in [5, 0, 1, 3] the empty bin folds to exactly 0 from the second step on
    R = make_response([0, 0], [0, 0])
    for m in (np.array([5.0, 7.0, 1.0, 3.0]), np.array([5.0, 0.0, 1.0, 3.0])):
        for iterations in (1, 17, 100):
            out = ibu_unfold(m, R, iterations=iterations)
            assert np.allclose(out, m, atol=1e-9)
            assert np.all(out[m == 0] == 0.0)


def test_ibu_uniform_fixed_point_symmetric_channel():
    # symmetric single-qubit flip noise keeps the uniform distribution uniform
    R = make_response([0.1, 0.1], [0.1, 0.1])
    m = np.array([25.0, 25.0, 25.0, 25.0])
    out = ibu_unfold(m, R, iterations=1)
    assert np.allclose(out, 25.0, atol=1e-9)


def test_ibu_recovers_interior_distribution(committed_response):
    # strictly positive truth converges to machine precision in 100 steps
    rng = np.random.default_rng(3)
    for _ in range(5):
        probs = 0.5 * rng.dirichlet(np.ones(32)) + 0.5 / 32
        t = ProbDist(probs)
        m = committed_response.entries @ (probs * 1e6)
        out = ibu_unfold(m, committed_response, iterations=100)
        assert tv_distance(out, t) < 1e-6


def test_ibu_agrees_with_inversion_on_interior_truth(committed_response):
    rng = np.random.default_rng(4)
    probs = 0.5 * rng.dirichlet(np.ones(32)) + 0.5 / 32
    m = committed_response.entries @ (probs * 1e6)
    via_ibu = ibu_unfold(m, committed_response, iterations=100)
    via_inv = matrix_inverse_unfold(m, committed_response)
    assert 0.5 * np.abs(via_ibu - via_inv).sum() / 1e6 < 1e-6


def test_ibu_total_preservation_and_nonnegativity(committed_response, rng):
    counts = rng.integers(0, 200, size=32).astype(float)
    out = ibu_unfold(counts, committed_response, iterations=100)
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(counts.sum(), rel=1e-9)


def test_ibu_scale_invariance(committed_response, rng):
    counts = rng.integers(1, 100, size=32).astype(float)
    base = ibu_unfold(counts, committed_response, iterations=40)
    scaled = ibu_unfold(7.5 * counts, committed_response, iterations=40)
    assert np.allclose(scaled, 7.5 * base, rtol=1e-10)


def test_ibu_degenerate_support():
    # outcome 1 is unreachable from any true state but has counts
    R = ResponseMatrix([[1.0, 1.0], [0.0, 0.0]])
    m = np.array([0.0, 5.0])
    with pytest.raises(NumericalError, match="bin 1 "):
        ibu_unfold(m, R)


def guarded_ibu(counts, R, iterations):
    """Dense IBU that rebuilds its zero-support guard on every iteration: the
    reference that ``ibu_unfold``'s floored fold must match bit for bit."""
    t = np.ones_like(counts) * (counts.sum(axis=0) / R.dim)
    for i in range(iterations):
        folded = R.entries @ t
        empty = folded <= 0.0
        if i == 0 and np.any(empty & (counts > 0)):
            j = int(np.argwhere(empty & (counts > 0))[0][0])
            raise NumericalError(
                f"measured bin {j} has counts but zero folded support; "
                "degenerate response/prior combination"
            )
        ratio = np.divide(counts, folded, out=np.zeros_like(t), where=~empty)
        t = t * (R.entries.T @ ratio)
    return t


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 3), columns=st.integers(0, 3), iterations=st.integers(1, 59),
       data=st.data())
def test_ibu_matches_the_guard_rebuilt_each_iteration(n, columns, iterations, data):
    # bit-identical results and the same refusals, on sparse R and counts
    # with empty bins; columns == 0 draws one histogram of shape (dim,)
    dim = 2 ** n
    # zero entries, and about one row in four unreachable
    weights = data.draw(arrays(np.int64, (dim, dim), elements=st.sampled_from([0, 0, 1, 3])))
    unreachable = data.draw(arrays(bool, dim, elements=st.sampled_from([False] * 3 + [True])))
    weights[unreachable] = 0
    assume(weights.sum(axis=0).all())
    R = ResponseMatrix(weights / weights.sum(axis=0))
    shape = (dim, columns) if columns else (dim,)
    counts = data.draw(arrays(np.int64, shape, elements=st.sampled_from([0, 0, 1, 50])))
    counts = counts.astype(float)
    assume(counts.sum(axis=0).all())

    def outcome(unfold):
        try:
            return unfold(counts, R, iterations)
        except NumericalError as exc:
            return str(exc)

    fixed, guarded = outcome(ibu_unfold), outcome(guarded_ibu)
    if isinstance(guarded, str):
        assert fixed == guarded
    else:
        assert np.array_equal(fixed, guarded)


def test_ibu_input_validation(committed_response):
    with pytest.raises(ValidationError):
        ibu_unfold(np.zeros(32), committed_response)
    bad = np.ones(32)
    bad[3] = -1.0
    with pytest.raises(ValidationError):
        ibu_unfold(bad, committed_response)
    with pytest.raises(ValidationError):
        ibu_unfold(np.ones(32), committed_response, iterations=0)


def test_ibu_iterations_bounded_with_one_message(committed_response):
    # refused before the first iteration, by the same rule as the config's
    counts = np.ones(32)
    for iterations in (0, 10 ** 5 + 1, 10 ** 10, 2.5, True):
        with pytest.raises(ValidationError) as from_function:
            ibu_unfold(counts, committed_response, iterations=iterations)
        with pytest.raises(ValidationError) as from_config:
            UnfoldConfig(ibu_iterations=iterations)
        assert str(from_function.value) == str(from_config.value)
        expected = "between 1 and 100000" if type(iterations) is int else "must be an integer"
        assert expected in str(from_function.value)


def test_condition_identity():
    R = make_response([0, 0], [0, 0])
    assert condition_report(R) == pytest.approx(1.0, abs=1e-12)


def test_condition_single_qubit_closed_form():
    # singular values of [[1, q], [0, 1-q]] from the 2x2 Gram matrix
    for q in (0.05, 0.2, 0.5, 0.8):
        R = make_response([0.0], [q])
        gram_trace = 1 + q ** 2 + (1 - q) ** 2
        det = (1 - q) ** 2
        lam_max = (gram_trace + np.sqrt(gram_trace ** 2 - 4 * det)) / 2
        lam_min = (gram_trace - np.sqrt(gram_trace ** 2 - 4 * det)) / 2
        expected = np.sqrt(lam_max / lam_min)
        assert condition_report(R) == pytest.approx(expected, rel=1e-9)


def test_condition_grows_with_q():
    values = [condition_report(make_response([0.0], [q])) for q in (0.1, 0.3, 0.6, 0.9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_condition_tensor_power():
    # singular values of a Kronecker product are products of singular values
    single = condition_report(make_response([0.01], [0.1]))
    for n in (2, 3, 4):
        tensor = condition_report(make_response([0.01] * n, [0.1] * n))
        assert tensor == pytest.approx(single ** n, rel=1e-8)


def test_apply_unfold_dispatch(committed_response):
    t = grover_dist(5, 31, 1)
    m = committed_response.entries @ (t.probs * 1e5)
    inv = apply_unfold(m, committed_response, UnfoldConfig(method="matrix_inversion"))
    ibu = apply_unfold(m, committed_response, UnfoldConfig(method="ibu", ibu_iterations=100))
    assert tv_distance(inv, t) < 1e-9
    assert tv_distance(ibu, t) < 1e-5  # no zero bins, so IBU converges fast


def test_condition_number_computed_once_per_matrix(monkeypatch):
    R = make_response([0.01, 0.02], [0.05, 0.07])
    calls = []
    svd_cond = np.linalg.cond

    def counting_cond(a):
        calls.append(1)
        return svd_cond(a)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    first = condition_report(R)
    m = np.array([40.0, 30.0, 20.0, 10.0])
    matrix_inverse_unfold(m, R)
    second = condition_report(R)
    assert second == first == pytest.approx(svd_cond(R.entries), rel=1e-15)
    assert len(calls) == 1
    # a fresh matrix computes its own value
    condition_report(make_response([0.01, 0.02], [0.05, 0.07]))
    assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 8])
def test_inverse_factors_computed_once_per_matrix(monkeypatch, n):
    # dense at 2 qubits, two factors at 8: each factor is inverted once, by
    # the first inversion, and later ones multiply by the kept inverses
    eps01, eps10 = np.linspace(0.002, 0.004, n), np.linspace(0.06, 0.08, n)
    R = make_response(eps01, eps10)
    calls = []
    lu_inv = np.linalg.inv

    def counting_inv(a):
        calls.append(1)
        return lu_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    m = np.arange(1.0, 2 ** n + 1)
    first, *rest = [matrix_inverse_unfold(m, R) for _ in range(3)]
    assert all(np.array_equal(first, again) for again in rest)
    assert len(calls) == len(R.kron_factors) == (1 if n == 2 else 2)
    # a fresh matrix inverts its own factors
    matrix_inverse_unfold(m, make_response(eps01, eps10))
    assert len(calls) == 2 * len(R.kron_factors)
