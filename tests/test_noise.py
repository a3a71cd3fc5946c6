import hashlib
import json

import numpy as np
import pytest

from readout_rebalance.core import (
    CalibrationFileError,
    DimensionError,
    ProbDist,
    QubitNoiseParams,
    ValidationError,
    rng_stream,
)
from readout_rebalance.noise import (
    DEFAULT_EPS01,
    DEFAULT_EPS10,
    ResponseMatrix,
    build_tensor_response,
    default_qubit_params,
    default_response,
    diag_by_zero_count,
    estimate_response,
    load_response,
    sample_measured,
    save_response,
)

from conftest import make_response


def test_identity_for_noiseless_qubits():
    R = make_response([0, 0, 0], [0, 0, 0])
    assert np.array_equal(R.entries, np.eye(8))


def test_single_qubit_decay_column():
    q = 0.1
    R = make_response([0.0], [q])
    # true |1> is read as 0 with probability q
    assert np.allclose(R.entries[:, 1], [q, 1 - q])
    assert np.allclose(R.entries[:, 0], [1.0, 0.0])


def test_two_qubit_tensor_by_hand():
    q0, q1 = 0.1, 0.2
    R = make_response([0.0, 0.0], [q0, q1])
    # expand the product by hand for the t = |11> = index 3 column
    assert R.entries[3, 3] == pytest.approx((1 - q0) * (1 - q1))
    assert R.entries[1, 3] == pytest.approx((1 - q0) * q1)  # qubit 1 decays
    assert R.entries[2, 3] == pytest.approx(q0 * (1 - q1))  # qubit 0 decays
    assert R.entries[0, 3] == pytest.approx(q0 * q1)


def test_column_stochastic_validation():
    with pytest.raises(ValidationError):
        ResponseMatrix([[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        ResponseMatrix([[1.2, 0.0], [-0.2, 1.0]])


@pytest.mark.parametrize("atol", [np.nan, np.inf, -1e-9, "1e-9"])
def test_column_sum_tolerance_must_be_finite_and_non_negative(atol):
    message = "a real number" if isinstance(atol, str) else "finite and non-negative"
    with pytest.raises(ValidationError, match=f"column_sum_atol must be {message}"):
        ResponseMatrix(np.full((4, 4), 0.5), column_sum_atol=atol)
    with pytest.raises(ValidationError, match="column_sum_atol"):
        ResponseMatrix(np.eye(4), column_sum_atol=atol)


def test_response_matrix_width_is_read_from_the_array():
    R = ResponseMatrix(np.eye(8))
    assert (R.n_qubits, R.dim) == (3, 8)
    with pytest.raises(DimensionError, match="entries must be a square matrix"):
        ResponseMatrix(np.full((4, 2), 0.25))
    with pytest.raises(DimensionError, match="entries must be a square matrix"):
        ResponseMatrix([1.0, 0.0])
    for dim in (1, 3):
        with pytest.raises(DimensionError, match="entries must have a power-of-two length"):
            ResponseMatrix(np.eye(dim))


def test_response_matrix_rejects_nan():
    with pytest.raises(ValidationError, match="row 0, column 0"):
        ResponseMatrix([[np.nan, 0.0], [np.nan, 1.0]])


def test_array_holding_values_compare_and_hash_by_identity():
    # equal values, on which a generated __eq__ over the arrays would raise
    a, b = default_response(), default_response()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    p, q = ProbDist([0.5, 0.5]), ProbDist([0.5, 0.5])
    assert p == p and p != q
    assert len({p, q, p}) == 2
    # the cached properties still fill in and stay
    assert a.kron_factors is a.kron_factors
    assert len(a.kron_factors) == 1 and a.kron_factors[0] is a.entries
    assert a.condition_number == float(np.linalg.cond(a.entries))


def test_eps01_zero_keeps_ground_state_exact():
    R = make_response([0.0] * 3, [0.05, 0.1, 0.2])
    assert R.entries[0, 0] == 1.0
    assert np.all(R.entries[1:, 0] == 0.0)


def test_qubit_relabeling_permutes_matrix():
    params = [QubitNoiseParams(0.01, 0.05), QubitNoiseParams(0.02, 0.1), QubitNoiseParams(0.0, 0.2)]
    R = build_tensor_response(params)
    R_swapped = build_tensor_response([params[1], params[0], params[2]])
    # swapping qubits 0 and 1 permutes indices by swapping their bits
    def swap01(s):
        b0, b1 = s & 1, (s >> 1) & 1
        return (s & ~0b11) | (b0 << 1) | b1
    perm = np.array([swap01(s) for s in range(8)])
    assert np.allclose(R_swapped.entries, R.entries[np.ix_(perm, perm)])


def test_estimate_identity_is_exact():
    R = make_response([0, 0], [0, 0])
    est = estimate_response(R, 50, 1)
    assert np.array_equal(est.entries, np.eye(4))


def test_estimate_binomial_error_single_qubit():
    R = make_response([0.0], [0.1])
    est = estimate_response(R, 10 ** 6, 42)
    # binomial standard error sqrt(p q / N) = 3e-4, so 0.001 is > 3 sigma
    assert abs(est.entries[0, 1] - 0.1) < 0.001


def test_estimate_error_scales_as_inverse_sqrt_shots():
    R = make_response([0.01, 0.02], [0.08, 0.05])
    def rms(shots, seed):
        est = estimate_response(R, shots, seed)
        return np.sqrt(np.mean((est.entries - R.entries) ** 2))
    lo = np.mean([rms(1000, s) for s in range(10)])
    hi = np.mean([rms(16000, s) for s in range(10, 20)])
    # 16x the shots should shrink the error by about 4
    assert 2.5 < lo / hi < 6.0


def test_estimate_matches_one_draw_per_column():
    # reference: one multinomial draw per prepared state, in column order,
    # from default_rng(seed), which is rng_stream(seed); the batched draw
    # makes the same draws
    R = build_tensor_response(default_qubit_params())
    for seed in (0, 5, 123):
        gen = np.random.default_rng(seed)
        ref = np.empty((R.dim, R.dim))
        for t in range(R.dim):
            p = np.clip(R.entries[:, t], 0.0, None)
            ref[:, t] = gen.multinomial(1000, p / p.sum()) / 1000
        est = estimate_response(R, 1000, seed)
        assert np.array_equal(est.entries, ref)


def test_estimate_columns_sum_to_one():
    R = make_response([0.01, 0.0], [0.1, 0.2])
    est = estimate_response(R, 37, 3)
    assert np.allclose(est.entries.sum(axis=0), 1.0, atol=1e-12)
    with pytest.raises(ValidationError):
        estimate_response(R, 0, 1)


def test_sample_measured_identity_point_mass():
    R = make_response([0, 0], [0, 0])
    t = ProbDist([0, 0, 1.0, 0])
    h = sample_measured(t, R, 500, [rng_stream(0)])[:, 0]
    assert h[2] == 500
    assert h.sum() == 500
    assert np.all(h >= 0) and np.array_equal(h, np.round(h))


def test_sample_measured_zero_shots():
    R = make_response([0.0], [0.1])
    h = sample_measured(ProbDist([0.5, 0.5]), R, 0, [rng_stream(0)])[:, 0]
    assert np.array_equal(h, [0.0, 0.0])


def test_sample_measured_expected_fraction():
    q0, q1 = 0.1, 0.2
    R = make_response([0.0, 0.0], [q0, q1])
    t = ProbDist([0, 0, 0, 1.0])
    shots = 200000
    h = sample_measured(t, R, shots, [rng_stream(11)])[:, 0]
    p = (1 - q0) * (1 - q1)
    se = np.sqrt(p * (1 - p) * shots)
    assert abs(h[3] - p * shots) < 4 * se


def test_sample_measured_seed_reproducible():
    R = make_response([0.01, 0.02], [0.1, 0.05])
    t = ProbDist([0.4, 0.3, 0.2, 0.1])
    a = sample_measured(t, R, 1000, [rng_stream(77)])
    b = sample_measured(t, R, 1000, [rng_stream(77)])
    assert np.array_equal(a, b)


def test_sample_measured_dimension_mismatch():
    R = make_response([0.0], [0.1])
    with pytest.raises(DimensionError):
        sample_measured(ProbDist([0.25] * 4), R, 10, [rng_stream(0)])


def test_diag_by_zero_count_identity():
    R = make_response([0, 0, 0], [0, 0, 0])
    assert diag_by_zero_count(R) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_diag_by_zero_count_two_qubit_exact():
    q = 0.1
    R = make_response([0.0, 0.0], [q, q])
    diag = diag_by_zero_count(R)
    assert diag[2] == pytest.approx(1.0)
    assert diag[1] == pytest.approx(1 - q)
    assert diag[0] == pytest.approx((1 - q) ** 2)


def test_diag_by_zero_count_monotone_for_asymmetric_models(rng):
    # exhaustive diagonal scan oracle: any model with eps10 > eps01 on every
    # qubit must be non-decreasing in the number of zeros
    for _ in range(20):
        n = int(rng.integers(2, 6))
        eps10 = rng.uniform(0.03, 0.2, size=n)
        eps01 = rng.uniform(0.0, 0.02, size=n)
        R = make_response(eps01, eps10)
        diag = diag_by_zero_count(R)
        values = [diag[k] for k in range(n + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [1, 6, 7, 11])
def test_diag_by_zero_count_of_a_tensor_model_leaves_its_entries_unformed(rng, n):
    # the fold of the channels' diagonals is the dense diagonal bit for bit,
    # at 11 qubits without the 32 MiB matrix
    R = make_response(rng.uniform(0.0, 0.02, size=n), rng.uniform(0.03, 0.2, size=n))
    diag = diag_by_zero_count(R)
    assert "entries" not in vars(R)
    zeros = n - np.array([bin(s).count("1") for s in range(2 ** n)])
    dense = ResponseMatrix(R.entries).entries.diagonal()
    assert diag == {k: float(dense[zeros == k].mean()) for k in range(n + 1)}


def test_save_load_round_trip(tmp_path):
    R = make_response([0.013, 0.0021], [0.071, 0.069])
    path = tmp_path / "cal.json"
    save_response(R, path)
    loaded = load_response(path)
    assert loaded.n_qubits == 2
    assert np.array_equal(loaded.entries, R.entries)
    assert path.read_text().endswith("\n")


def test_load_rejects_bad_column_sum(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"n_qubits": 1, "entries": [[0.9, 0.0], [0.0, 1.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(CalibrationFileError, match="column 0"):
        load_response(path)


def test_load_tolerates_small_column_noise(tmp_path):
    path = tmp_path / "noisy.json"
    payload = {"n_qubits": 1, "entries": [[1.0 + 5e-7, 0.1], [0.0, 0.9]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(CalibrationFileError):
        load_response(path)  # entry > 1 is still rejected
    payload = {"n_qubits": 1, "entries": [[1.0, 0.1], [5e-7, 0.9]]}
    path.write_text(json.dumps(payload))
    loaded = load_response(path)
    assert loaded.entries[1, 0] == 5e-7


def test_load_rejects_wrong_dimension(tmp_path):
    path = tmp_path / "dim.json"
    payload = {"n_qubits": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(CalibrationFileError, match="4x4"):
        load_response(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all{{{")
    with pytest.raises(CalibrationFileError, match="not valid JSON"):
        load_response(path)


def test_load_rejects_out_of_range_entry(tmp_path):
    path = tmp_path / "range.json"
    payload = {"n_qubits": 1, "entries": [[1.5, 0.0], [-0.5, 1.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(CalibrationFileError, match="row"):
        load_response(path)


def test_committed_default_matches_generating_params(committed_response):
    # built from DEFAULT_EPS10/DEFAULT_EPS01, the default's entries are those
    # of the calibration file the package once shipped, written as entries
    text = json.dumps({"n_qubits": 5, "entries": committed_response.entries.tolist()}) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "39044d5286180764a0700568e991e713750707dd444c2519b0a933c4a585d75a"
    assert committed_response.n_qubits == 5
    assert len(DEFAULT_EPS10) == len(DEFAULT_EPS01) == 5
    # the committed draw stays inside the documented bands
    assert all(0.03 <= q <= 0.08 for q in DEFAULT_EPS10)
    assert all(0.002 <= e <= 0.01 for e in DEFAULT_EPS01)


@pytest.mark.parametrize("n", [0, 12])
def test_dense_tensor_response_is_capped(n):
    # 12 qubits would be a 128 MiB dense matrix; refused before any np.kron
    with pytest.raises(ValidationError, match="the number of qubits must lie between 1 and 11"):
        build_tensor_response([QubitNoiseParams(0.01, 0.05)] * n)


@pytest.mark.parametrize("entry", [(0.01, 0.05), [0.01, 0.05], None, "ab"])
def test_tensor_model_refuses_an_entry_that_is_not_a_qubit_pair(entry):
    # refused when the model is made, not when its factors or entries are
    with pytest.raises(ValidationError, match="qubit 1: expected QubitNoiseParams"):
        build_tensor_response([QubitNoiseParams(0.01, 0.05), entry])


@pytest.mark.parametrize("make", [default_response, lambda: ResponseMatrix(np.eye(4))])
def test_response_matrix_is_read_only(make):
    # its kept factors, inverses and condition number rely on it
    R = make()
    for name in ("entries", "kron_factors", "qubit_params", "column_sum_atol"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(R, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(R, name)


@pytest.mark.parametrize("n", [12, 20000])
def test_load_refuses_a_width_beyond_the_dense_cap(tmp_path, n):
    # refused before 2**n is taken; 20000 qubits once ended in a ValueError
    # from printing a 6000-digit dimension
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n_qubits": n, "entries": [[1]]}))
    with pytest.raises(CalibrationFileError) as info:
        load_response(path)
    assert str(info.value) == f"{path}: n_qubits must lie between 1 and 11"


def test_committed_default_is_strongly_asymmetric(committed_response):
    diag = diag_by_zero_count(committed_response)
    values = [diag[k] for k in range(6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_load_rejects_nan_entry(tmp_path):
    path = tmp_path / "nan.json"
    payload = {"n_qubits": 1, "entries": [[float("nan"), 0.0], [1.0, 1.0]]}
    path.write_text(json.dumps(payload))  # written as a bare NaN token
    with pytest.raises(CalibrationFileError, match="row 0, column 0"):
        load_response(path)


@pytest.mark.parametrize(
    "entries, match",
    [
        ([1, 2], "2x2"),
        ([[1.0, 0.0], [0.0]], "2x2"),
        ([["x", 0], [0, 1]], "numbers"),
        ([[True, False], [False, True]], "numbers"),
    ],
)
def test_load_rejects_malformed_entries(tmp_path, entries, match):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"n_qubits": 1, "entries": entries}))
    with pytest.raises(CalibrationFileError, match=match):
        load_response(path)


@pytest.mark.parametrize("n", [1, 5, 8])
def test_tensor_model_is_saved_as_its_qubit_pairs(tmp_path, n):
    eps01, eps10 = np.linspace(0.002, 0.0036, n).tolist(), np.linspace(0.065, 0.08, n).tolist()
    R = make_response(eps01, eps10)
    path = tmp_path / "cal.json"
    save_response(R, path)
    assert json.loads(path.read_text()) == {"n_qubits": n, "eps01": eps01, "eps10": eps10}
    loaded = load_response(path)
    assert np.array_equal(loaded.entries, R.entries)
    assert loaded.qubit_params == R.qubit_params


def test_tensor_model_written_as_entries_loads_to_the_same_matrix(tmp_path):
    # the form every tensor model was written in before the qubit pairs
    R = make_response([0.002] * 8, [0.07] * 8)
    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"n_qubits": 8, "entries": R.entries.tolist()}))
    loaded = load_response(path)
    assert np.array_equal(loaded.entries, R.entries)
    assert loaded.qubit_params is None
    # with no pairs to build factors from, it unfolds densely
    assert len(loaded.kron_factors) == 1 and loaded.kron_factors[0] is loaded.entries


def test_estimated_matrix_is_saved_as_entries(tmp_path, committed_response):
    estimated = estimate_response(committed_response, shots_per_state=100, seed=3)
    assert estimated.qubit_params is None
    path = tmp_path / "cal.json"
    save_response(estimated, path)
    assert set(json.loads(path.read_text())) == {"n_qubits", "entries"}
    assert np.array_equal(load_response(path).entries, estimated.entries)


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"n_qubits": 2, "eps01": [0.01, 0.02]}, "expected keys 'n_qubits', 'eps01' and 'eps10'"),
        ({"n_qubits": 2, "eps01": [0.01], "eps10": [0.07]}, "each list 2 values"),
        ({"n_qubits": 2, "eps01": [0.01, 0.02], "eps10": [0.07]}, "each list 2 values"),
        ({"n_qubits": 1, "eps01": ["0.01"], "eps10": [0.07]}, "numbers"),
        ({"n_qubits": 1, "eps01": [True], "eps10": [False]}, "numbers"),
        ({"n_qubits": 1, "eps01": [0.01], "eps10": [1.5]}, r"eps10 = 1.5 outside \[0, 1\]"),
        ({"n_qubits": 1, "eps01": [float("nan")], "eps10": [0.07]}, "eps01 = nan outside"),
        ({"n_qubits": 12, "eps01": [0.01] * 12, "eps10": [0.07] * 12},
         "n_qubits must lie between 1 and 11"),
    ],
)
def test_load_rejects_malformed_qubit_pairs(tmp_path, payload, match):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CalibrationFileError, match=match) as info:
        load_response(path)
    assert str(info.value).startswith(f"{path}: ")
