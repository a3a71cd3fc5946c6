import json

import numpy as np
import pytest

from readout_rebalance.core import (
    CalibrationFileError,
    DimensionError,
    ProbDist,
    QubitNoiseParams,
    ValidationError,
)
from readout_rebalance.noise import (
    DEFAULT_EPS01,
    DEFAULT_EPS10,
    ResponseMatrix,
    build_tensor_response,
    default_qubit_params,
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
    assert np.allclose(R.column(1), [q, 1 - q])
    assert np.allclose(R.column(0), [1.0, 0.0])


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
        ResponseMatrix(1, [[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        ResponseMatrix(1, [[1.2, 0.0], [-0.2, 1.0]])


def test_response_matrix_rejects_nan():
    with pytest.raises(ValidationError, match="row 0, column 0"):
        ResponseMatrix(1, [[np.nan, 0.0], [np.nan, 1.0]])


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
    # from the same generator; the batched draw makes the same draws
    R = build_tensor_response(default_qubit_params())
    for seed in (0, 5, 123):
        gen = np.random.default_rng(seed)
        ref = np.empty((R.dim, R.dim))
        for t in range(R.dim):
            p = np.clip(R.column(t), 0.0, None)
            ref[:, t] = gen.multinomial(1000, p / p.sum()) / 1000
        est = estimate_response(R, 1000, np.random.default_rng(seed))
        assert np.array_equal(est.entries, ref)


def test_estimate_columns_sum_to_one():
    R = make_response([0.01, 0.0], [0.1, 0.2])
    est = estimate_response(R, 37, 3)
    assert np.allclose(est.entries.sum(axis=0), 1.0, atol=1e-12)
    with pytest.raises(ValidationError):
        estimate_response(R, 0, 1)


def test_sample_measured_identity_point_mass():
    R = make_response([0, 0], [0, 0])
    t = ProbDist(2, [0, 0, 1.0, 0])
    h = sample_measured(t, R, 500, 0)
    assert h.counts[2] == 500
    assert h.total == 500
    assert np.all(h.counts >= 0) and np.array_equal(h.counts, np.round(h.counts))


def test_sample_measured_zero_shots():
    R = make_response([0.0], [0.1])
    h = sample_measured(ProbDist(1, [0.5, 0.5]), R, 0, 0)
    assert np.array_equal(h.counts, [0.0, 0.0])


def test_sample_measured_expected_fraction():
    q0, q1 = 0.1, 0.2
    R = make_response([0.0, 0.0], [q0, q1])
    t = ProbDist(2, [0, 0, 0, 1.0])
    shots = 200000
    h = sample_measured(t, R, shots, 11)
    p = (1 - q0) * (1 - q1)
    se = np.sqrt(p * (1 - p) * shots)
    assert abs(h.counts[3] - p * shots) < 4 * se


def test_sample_measured_seed_reproducible():
    R = make_response([0.01, 0.02], [0.1, 0.05])
    t = ProbDist(2, [0.4, 0.3, 0.2, 0.1])
    a = sample_measured(t, R, 1000, 77)
    b = sample_measured(t, R, 1000, 77)
    assert np.array_equal(a.counts, b.counts)


def test_sample_measured_dimension_mismatch():
    R = make_response([0.0], [0.1])
    with pytest.raises(DimensionError):
        sample_measured(ProbDist(2, [0.25] * 4), R, 10, 0)


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
    rebuilt = build_tensor_response(default_qubit_params())
    assert np.array_equal(committed_response.entries, rebuilt.entries)
    assert committed_response.n_qubits == 5
    assert len(DEFAULT_EPS10) == len(DEFAULT_EPS01) == 5
    # the committed draw stays inside the documented bands
    assert all(0.03 <= q <= 0.08 for q in DEFAULT_EPS10)
    assert all(0.002 <= e <= 0.01 for e in DEFAULT_EPS01)


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
