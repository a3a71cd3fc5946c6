"""Tests of the benchmark itself: tracer arithmetic, the closed-form oracle,
metric names, and a short run of every workload.

Run from the repository root:  python -m pytest perfbench/tests
"""

import itertools
import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    ns = types.SimpleNamespace()

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        ns.inner()
        clock.now += 1.0
        ns.inner()
        clock.now += 1.0

    ns.inner = tr.wrap("inner", inner)
    ns.outer = tr.wrap("outer", outer)
    ns.outer()

    assert tr.stats["inner"].calls == 2
    assert tr.stats["inner"].total == 6.0
    assert tr.stats["inner"].self_time == 6.0
    assert tr.stats["outer"].total == 9.0
    assert tr.stats["outer"].self_time == 3.0
    # self times of one call tree add up to its root span
    assert tr.self_total == tr.stats["outer"].total


def test_span_records_a_raising_call_and_reraises():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise ValueError("no")

    wrapped = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.stats["boom"].calls == 1 and tr.stats["boom"].self_time == 2.0
    assert tr._stack == []


def test_install_wraps_every_binding_and_uninstall_restores():
    package = workloads.import_package()
    originals = {
        (layer, name): getattr(module, name)
        for layer, module in package.items()
        for name in ("rng_stream", "sample_measured", "ensemble_run")
        if hasattr(module, name)
    }
    tr = tracer.Tracer()
    tr.install(package)
    try:
        for (layer, name), fn in originals.items():
            assert getattr(package[layer], name) is not fn, (layer, name)
        assert tr.missing == []
    finally:
        tr.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(package[layer], name) is fn


def test_missing_name_is_reported_absent_not_fatal():
    package = workloads.import_package()
    stripped = dict(package)
    stripped["rebalance"] = types.SimpleNamespace(
        **{k: v for k, v in vars(package["rebalance"]).items() if k != "run_plan"}
    )
    tr = tracer.Tracer()
    tr.install(stripped)
    tr.uninstall()
    assert "rebalance.run_plan" in tr.missing
    assert "rebalance.run_plan" in tr.absent()
    metrics = tr.metrics(passes=1)
    assert metrics["rebalance.run_plan.calls"] == 0
    assert metrics["rebalance.run_plan.us_p99"] == 0.0


def _multinomial_outcomes(shots, probs):
    """Every outcome of Multinomial(shots, probs) with its probability."""
    k = len(probs)
    for cut in itertools.combinations(range(shots + k - 1), k - 1):
        bounds = (-1,) + cut + (shots + k - 1,)
        counts = np.array([bounds[i + 1] - bounds[i] - 1 for i in range(k)])
        coef = math.factorial(shots)
        for c in counts:
            coef //= math.factorial(int(c))
        yield counts, coef * float(np.prod(np.asarray(probs) ** counts))


def _brute_force(R, probs, weights, segments):
    """Exact mean and variance of sum over segments of weights . unflipped R^-1 m."""
    Rinv = np.linalg.inv(R)
    states = np.arange(len(probs))
    per_segment = []
    for mask, shots in segments:
        idx = states ^ mask
        dist = []
        for counts, prob in _multinomial_outcomes(shots, R @ probs[idx]):
            corrected = (Rinv @ counts)[idx]  # un-flip: out[s] = in[s ^ mask]
            dist.append((float(weights @ corrected), prob))
        per_segment.append(dist)
    mean = second = 0.0
    for combo in itertools.product(*per_segment):
        value = sum(v for v, _ in combo)
        prob = math.prod(p for _, p in combo)
        mean += prob * value
        second += prob * value**2
    return mean, second - mean**2


@pytest.mark.parametrize("segments", [[(0, 6)], [(0, 3), (3, 4)], [(2, 5)]])
def test_closed_form_matches_enumeration_at_two_qubits(segments):
    R = np.kron(
        np.array([[0.99, 0.07], [0.01, 0.93]]),
        np.array([[0.995, 0.05], [0.005, 0.95]]),
    )
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    weights = np.arange(4.0)
    mean, var = gates.linear_unfold_moments(R, probs, weights, segments)
    bf_mean, bf_var = _brute_force(R, probs, weights, segments)
    assert mean == pytest.approx(bf_mean, rel=1e-10)
    assert var == pytest.approx(bf_var, rel=1e-9)
    assert mean == pytest.approx(sum(n for _, n in segments) * (weights @ probs))


def test_gate_rejects_shifted_mean_and_wrong_std():
    package = workloads.import_package()
    R = package["noise"].default_response()
    dist = package["states"].inverted_w_dist(5)
    row = (dist.probs, np.arange(32.0), 1.0)
    _, var = gates.linear_unfold_moments(R.entries, dist.probs, row[1], [(0, 100_000)])
    sigma = math.sqrt(var) / 100_000
    result = package["analytics"].EnsembleResult
    exact = 24.8
    ok = result(100, exact + sigma / 10, sigma, sigma / 14, "nominal", "base10_mean")
    assert gates.check_cell(ok, row, R, 100_000, "matrix_inversion") == []
    shifted = result(100, exact + sigma, sigma, sigma / 14, "nominal", "base10_mean")
    assert gates.check_cell(shifted, row, R, 100_000, "matrix_inversion")
    wide = result(100, exact, 2 * sigma, sigma / 7, "nominal", "base10_mean")
    assert gates.check_cell(wide, row, R, 100_000, "matrix_inversion")


def test_raising_cell_is_recorded_and_the_pass_continues(tmp_path):
    package = workloads.import_package()
    harness, core = package["harness"], package["core"]
    original = harness.ensemble_run

    def flaky(*args, **kwargs):
        if args[2].strategy == "rebalanced":
            raise core.NumericalError("singular on purpose")
        return original(*args, **kwargs)

    harness.ensemble_run = flaky
    inputs = workloads.build_inputs(
        package, workloads.WORKLOADS["ensemble_ibu"], 1, str(tmp_path), 4
    )
    log = workloads.CellLog(package)
    log.install()
    try:
        done = workloads.run_pass(package, inputs, log)
    finally:
        log.uninstall()
        harness.ensemble_run = original
    assert len(log.failures) == 2  # one rebalanced cell per experiment
    assert all("singular on purpose" in msg for msg in log.failures.values())
    assert done.by_strategy["rebalanced"][0] == 0
    assert done.by_strategy["nominal"][0] == 8
    assert workloads.check_outputs(package, inputs, done) == {}


def test_benchmark_spec_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    metrics, report = workloads.run_workload(
        name, seed=5, seconds=0.0, trace=trace, out_dir=str(tmp_path),
        repetitions=12, setups=1,
    )
    assert report["correct"], report
    assert report["failed"] == 0 and report["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in listed)
    assert all(math.isfinite(v) for v in metrics.values())
    if trace:
        assert metrics["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.1)
        if name == "sweep_inversion":
            # the condition number is recomputed on every inversion
            assert metrics["unfold.condition_report.calls_per_matrix"] == (
                metrics["unfold.condition_report.calls"]
            ) > 1


def test_same_seed_gives_identical_output_bytes(tmp_path):
    runs = [
        workloads.run_workload(
            "ensemble_ibu", seed=9, seconds=0.0, trace=False,
            out_dir=str(tmp_path / str(i)), repetitions=5, setups=1,
        )[1]["output_sha256"]
        for i in range(2)
    ]
    assert runs[0] == runs[1]


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "wide_8q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
