import json
import types
import typing
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readout_rebalance.analytics import TwoQubitModel, appendix_a_variances
from readout_rebalance.core import ValidationError
from readout_rebalance.harness import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXPERIMENTS,
    ExperimentConfig,
    build_parser,
    default_sweep_mus,
    main,
    run_experiment,
)
from readout_rebalance.noise import load_response, save_response
from readout_rebalance.rebalance import STRATEGIES

from conftest import make_response


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_default_sweep_includes_pinned_means():
    mus = default_sweep_mus()
    assert -0.11 in mus and 0.78 in mus
    assert -1.0 in mus and 1.0 in mus
    assert len(mus) == 23


def test_calibrate_identity_diagnostics(tmp_path):
    code = main([
        "calibrate", "--eps10", "0,0,0", "--eps01", "0,0,0",
        "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "diagnostics_by_zero_count.csv")
    assert [float(r["mean_correct_probability"]) for r in rows] == [1.0] * 4


def test_calibrate_default_model_monotone(tmp_path):
    code = main(["calibrate", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "diagnostics_by_zero_count.csv")
    values = [float(r["mean_correct_probability"]) for r in rows]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert (tmp_path / "calibration.json").exists()


def test_calibrate_estimated_matrix(tmp_path):
    code = main([
        "calibrate", "--eps10", "0.1", "--eps01", "0.01",
        "--shots-per-state", "1000", "--rng-seed", "3",
        "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "calibration.json").read_text())
    arr = np.asarray(payload["entries"])
    assert np.allclose(arr.sum(axis=0), 1.0, atol=1e-12)
    # finite-shot estimate, not the exact matrix
    assert arr[0, 1] != 0.1


def test_calibrate_malformed_input_no_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out_dir = tmp_path / "out"
    code = main(["calibrate", "--input", str(bad), "--output-dir", str(out_dir)])
    assert code == EXIT_IO
    assert not out_dir.exists()


def test_run_identity_noise_fractions_near_one(tmp_path):
    code = main([
        "run", "--experiment", "inverted_w",
        "--eps10", "0,0,0,0,0", "--eps01", "0,0,0,0,0",
        "--shots", "2000", "--repetitions", "400",
        "--unfold-method", "matrix_inversion",
        "--rng-seed", "1", "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    for row in read_csv(tmp_path / "summary.csv"):
        frac = float(row["shots_equivalent_fraction"])
        # rebalanced keeps 90% of the budget (pilot shots are discarded),
        # so its noiseless fraction sits at 1/0.9, not exactly 1
        expected = 1 / 0.9 if row["strategy"] == "rebalanced" else 1.0
        assert abs(frac - expected) < 0.35, row


def test_run_emits_consistent_fractions(tmp_path):
    code = main([
        "run", "--experiment", "grover",
        "--shots", "2000", "--repetitions", "60",
        "--rng-seed", "2", "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "summary.csv")
    by_strategy = {r["strategy"]: r for r in rows}
    nominal_std = float(by_strategy["nominal"]["std"])
    for row in rows:
        # the emitted fraction must equal the ratio of stds in the same file
        recomputed = (float(row["std"]) / nominal_std) ** 2
        assert float(row["shots_equivalent_fraction"]) == recomputed


def test_run_gaussian_sweep_outputs(tmp_path):
    code = main([
        "run", "--experiment", "gaussian_sweep",
        "--mus=-0.5,0.0,0.5",
        "--shots", "1000", "--repetitions", "30",
        "--strategies", "nominal,rebalanced",
        "--rng-seed", "3", "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    curves = read_csv(tmp_path / "sweep_curves.csv")
    assert len(curves) == 6  # 3 means x 2 strategies
    assert {row["mu"] for row in curves} == {"-0.5", "0.0", "0.5"}
    ensemble = read_csv(tmp_path / "ensemble.csv")
    assert all(row["experiment"] == "gaussian" for row in ensemble)


def test_run_deterministic_outputs(tmp_path):
    args = [
        "run", "--experiment", "inverted_w",
        "--shots", "1000", "--repetitions", "25",
        "--rng-seed", "9",
    ]
    code = main(args + ["--output-dir", str(tmp_path / "a")])
    assert code == EXIT_OK
    code = main(args + ["--output-dir", str(tmp_path / "b")])
    assert code == EXIT_OK
    for name in ("ensemble.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_hash_tracks_semantic_changes(tmp_path):
    base = [
        "run", "--experiment", "inverted_w",
        "--shots", "1000", "--repetitions", "20", "--rng-seed", "4",
    ]
    main(base + ["--output-dir", str(tmp_path / "a")])
    main(base + ["--output-dir", str(tmp_path / "b")])
    main([
        "run", "--experiment", "inverted_w",
        "--shots", "1001", "--repetitions", "20", "--rng-seed", "4",
        "--output-dir", str(tmp_path / "c"),
    ])
    load = lambda d: json.loads((tmp_path / d / "manifest.json").read_text())
    ha, hb, hc = (load(d)["config_hash"] for d in "abc")
    # the output directory moves no result, so it leaves the hash alone
    assert ha == hb
    assert ha != hc
    assert len({ExperimentConfig(output_dir=d).config_hash() for d in "ab"}) == 1
    # but the manifest still records it, and every other field
    ca, cb, cc = (load(d)["config"] for d in "abc")
    assert ca.pop("output_dir") == str(tmp_path / "a")
    for c in (cb, cc):
        c.pop("output_dir")
    assert ca == cb
    assert ca != cc


def test_manifest_records_seed_and_negative_flags(tmp_path):
    main([
        "run", "--experiment", "inverted_w",
        "--shots", "500", "--repetitions", "30",
        "--unfold-method", "matrix_inversion",
        "--rng-seed", "12", "--output-dir", str(tmp_path),
    ])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["rng_seed"] == 12
    flags = manifest["negative_run_counts"]
    assert set(flags) == {f"inverted_w/{s}" for s in ("nominal", "rebalanced", "symmetrized")}
    # sparse truth at low shots: inversion goes negative in some runs
    assert any(v > 0 for v in flags.values())


def test_run_config_file_with_flag_override(tmp_path):
    config = {
        "experiment": "grover",
        "shots": 800,
        "repetitions": 20,
        "rng_seed": 6,
        "output_dir": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--shots", "900"])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "from_config" / "manifest.json").read_text())
    assert manifest["config"]["shots"] == 900
    assert manifest["config"]["repetitions"] == 20


def test_run_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "grover", "shotz": 100}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_VALIDATION


def test_exit_code_missing_calibration_file(tmp_path):
    code = main([
        "run", "--experiment", "grover",
        "--calibration-file", str(tmp_path / "nope.json"),
        "--shots", "100", "--repetitions", "5",
        "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_IO


def test_exit_code_bad_strategy(tmp_path):
    code = main([
        "run", "--experiment", "grover", "--strategies", "nominal,psychic",
        "--shots", "100", "--repetitions", "5",
        "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_VALIDATION


def test_exit_code_singular_matrix(tmp_path):
    from readout_rebalance.noise import ResponseMatrix

    # a legal column-stochastic but singular matrix: both columns equal; and
    # an 8-qubit tensor model, unfolded through its factors, whose qubit 3
    # reads out at random (eps01 + eps10 = 1)
    singular = ResponseMatrix([[0.5, 0.5], [0.5, 0.5]])
    wide = make_response([0.003] * 3 + [0.4] + [0.003] * 4, [0.07] * 3 + [0.6] + [0.07] * 4)
    assert len(wide.kron_factors) == 2
    for R in (singular, wide):
        path = tmp_path / f"singular-{R.n_qubits}.json"
        save_response(R, path)
        code = main([
            "run", "--experiment", "grover",
            "--calibration-file", str(path),
            "--unfold-method", "matrix_inversion",
            "--shots", "100", "--repetitions", "5",
            "--output-dir", str(tmp_path / f"out-{R.n_qubits}"),
        ])
        assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("method", ["ibu", "matrix_inversion"])
def test_a_tensor_model_runs_alike_from_either_file_form(tmp_path, method):
    # calibrate --eps10/--eps01 writes the qubit pairs; a file of the same
    # model's entries, as written before, holds no pairs, so it unfolds
    # densely, and its outputs differ from the factored ones by rounding only
    eps = ["--eps10", ",".join(["0.07"] * 8), "--eps01", ",".join(["0.003"] * 8)]
    assert main(["calibrate", *eps, "--output-dir", str(tmp_path)]) == EXIT_OK
    pairs = tmp_path / "calibration.json"
    assert set(json.loads(pairs.read_text())) == {"n_qubits", "eps01", "eps10"}
    entries = tmp_path / "entries.json"
    entries.write_text(json.dumps(
        {"n_qubits": 8, "entries": load_response(pairs).entries.tolist()}
    ))
    assert len(load_response(pairs).kron_factors) == 2
    assert len(load_response(entries).kron_factors) == 1
    outputs = []
    for path in (pairs, entries):
        out = tmp_path / f"out-{path.stem}"
        assert main([
            "run", "--experiment", "inverted_w", "--calibration-file", str(path),
            "--unfold-method", method, "--shots", "2000", "--repetitions", "4",
            "--output-dir", str(out),
        ]) == EXIT_OK
        rows = read_csv(out / "ensemble.csv")
        outputs.append(np.array([[float(r["mean"]), float(r["std"])] for r in rows]))
    np.testing.assert_allclose(outputs[1], outputs[0], rtol=1e-12, atol=0)


def test_run_failure_removes_partial_outputs(tmp_path, monkeypatch):
    # force a failure at manifest-writing time and check the CSVs are gone
    import readout_rebalance.harness as harness

    original = harness._write_json

    def boom(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "_write_json", boom)
    out = tmp_path / "out"
    code = main([
        "run", "--experiment", "inverted_w",
        "--shots", "300", "--repetitions", "5",
        "--rng-seed", "2", "--output-dir", str(out),
    ])
    assert code == EXIT_IO
    assert not out.exists()


def test_failure_removes_only_the_directories_it_created(tmp_path):
    # makedirs creates new/deeper; the file then cannot be opened in sub/
    code = main([
        "calibrate", "--output-name", "sub/x.json",
        "--output-dir", str(tmp_path / "new" / "deeper"),
    ])
    assert code == EXIT_IO
    assert not (tmp_path / "new").exists()
    # an empty directory that was there before the command stays
    kept = tmp_path / "kept"
    kept.mkdir()
    code = main(["calibrate", "--output-name", "sub/x.json", "--output-dir", str(kept)])
    assert code == EXIT_IO
    assert kept.is_dir() and not list(kept.iterdir())


def test_appendix_a_cli_default_splits(tmp_path):
    code = main([
        "appendix-a", "--q0", "0.05", "--q1", "0.03", "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "appendix_a_comparison.csv")
    assert list(rows[0]) == [
        "split", "state", "variant", "analytic_variance", "exact_variance", "gap",
    ]
    # 3 splits x 2 variants x 4 states
    assert len(rows) == 24
    for r in rows:
        assert float(r["gap"]) == float(r["analytic_variance"]) - float(r["exact_variance"])
    # the mirror form lies within the truncation scale (q0 + q1)^2 N everywhere
    mirror_rows = [r for r in rows if r["variant"] == "mirror_symmetric"]
    assert all(abs(float(r["gap"])) <= 0.08 ** 2 * 100000 for r in mirror_rows)
    pure00 = [r for r in rows if r["split"] == "pure_00"]
    assert all(float(r["exact_variance"]) == float(r["gap"]) == 0.0 for r in pure00)


def test_appendix_a_cli_noiseless_all_pass(tmp_path):
    # without noise both forms are the multinomial variances, exactly
    code = main(["appendix-a", "--q0", "0", "--q1", "0", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "appendix_a_comparison.csv")
    assert all(
        abs(float(r["gap"])) <= 1e-12 * float(r["exact_variance"]) for r in rows
    )


def test_appendix_a_cli_custom_counts(tmp_path):
    code = main([
        "appendix-a", "--q0", "0.05", "--q1", "0.03",
        "--counts", "0,0,0,100000", "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "appendix_a_comparison.csv")
    assert len(rows) == 8
    assert all(r["split"] == "split_0" for r in rows)


def test_appendix_a_cli_splits_keep_their_own_counts(tmp_path):
    # two splits of different totals: neither is rescaled to the other's total
    splits = {"split_0": (100, 0, 0, 0), "split_1": (1000, 1000, 1000, 1000)}
    code = main([
        "appendix-a", "--q0", "0.05", "--q1", "0.03",
        "--counts", "100,0,0,0", "--counts", "1000,1000,1000,1000",
        "--output-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "appendix_a_comparison.csv")
    for name, counts in splits.items():
        model = TwoQubitModel(0.05, 0.03, *counts)
        for variant in ("as_printed", "mirror_symmetric"):
            analytic = [
                float(r["analytic_variance"])
                for r in rows if r["split"] == name and r["variant"] == variant
            ]
            assert analytic == list(appendix_a_variances(model)[variant])


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["run", "--experiment", "inverted_w", "--shots", "300",
                      "--repetitions", "5"], "summary.csv", id="run"),
        pytest.param(["calibrate"], "diagnostics_by_zero_count.csv", id="calibrate"),
        pytest.param(["appendix-a"], "appendix_a_comparison.csv", id="appendix-a"),
    ],
)
def test_failure_partway_through_a_file_leaves_nothing(tmp_path, monkeypatch, argv, name):
    # the CSV named ``name`` fails after its header and first row are written
    import readout_rebalance.harness as harness

    original = harness._write_csv

    def first_row_then_fail(rows):
        yield next(iter(rows))
        raise OSError("disk full")

    def partial(path, header, rows):
        if path.endswith(name):
            rows = first_row_then_fail(rows)
        original(path, header, rows)

    monkeypatch.setattr(harness, "_write_csv", partial)
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == EXIT_IO
    assert not out.exists()


def test_run_flags_are_the_config_fields():
    # every ExperimentConfig field is read from the run flag of the same name
    args = build_parser().parse_args(["run"])
    dests = set(vars(args)) - {"command", "func"}
    assert dests == set(ExperimentConfig.__dataclass_fields__) | {"config"}


def list_entry(annotation):
    """The entry kind of a list annotation, ``| None`` or not; None for a scalar."""
    if isinstance(annotation, types.UnionType):
        annotation = typing.get_args(annotation)[0]
    entry = typing.get_args(annotation)
    return entry[0] if entry else None


def test_argparse_converts_every_list_flag():
    # one parse path: each list flag's argparse type turns its text into a
    # list, so the commands receive values, never text to parse
    parser = build_parser()
    listed = [f for f in fields(ExperimentConfig) if list_entry(f.type)]
    assert {f.name for f in listed} == {"eps10", "eps01", "strategies", "mus"}
    for f in listed:
        kind = list_entry(f.type)
        args = parser.parse_args(["run", "--" + f.name.replace("_", "-"), "1,2"])
        value = getattr(args, f.name)
        assert value == [kind("1"), kind("2")]
        assert all(type(v) is kind for v in value)
    args = parser.parse_args(["calibrate", "--eps10", "0.05,1", "--eps01", "0.01,0"])
    assert (args.eps10, args.eps01) == ([0.05, 1.0], [0.01, 0.0])
    assert all(type(v) is float for v in args.eps10 + args.eps01)
    args = parser.parse_args(["appendix-a", "--counts", "1,2,3,4", "--counts", "5,6,7,8"])
    assert args.counts == [[1, 2, 3, 4], [5, 6, 7, 8]]
    # a value may start with a minus sign: a list, a leading point, an exponent
    args = parser.parse_args(["run", "--mus", "-.5,-1e-3", "--eps10", "-1E+2"])
    assert (args.mus, args.eps10) == ([-0.5, -1e-3], [-100.0])


@pytest.mark.parametrize("mus", ["-1,0.5", "-1e0,5e-1"])
def test_list_flag_value_may_start_with_a_minus_sign(tmp_path, mus):
    # "--mus -1,0.5" once exited 1 with "expected one argument": argparse
    # took the value for an option string.  "--mus=-1,0.5" always worked.
    run = ["run", "--experiment", "gaussian_sweep", "--shots", "200", "--repetitions", "5"]
    assert main(run + ["--mus", mus, "--output-dir", str(tmp_path / "spaced")]) == EXIT_OK
    assert main(run + ["--mus=-1,0.5", "--output-dir", str(tmp_path / "joined")]) == EXIT_OK
    curves = [(tmp_path / d / "sweep_curves.csv").read_bytes() for d in ("spaced", "joined")]
    assert curves[0] == curves[1]


def test_experiment_config_validation():
    from readout_rebalance.core import ValidationError

    with pytest.raises(ValidationError):
        ExperimentConfig(experiment="warp_drive").validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(eps10=[0.1], eps01=None).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(eps10=[0.1, 0.2], eps01=[0.01]).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(repetitions=1).validate()
    # appendix-a is its own subcommand, not a run experiment
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="appendix_a"))
    # a field holds JSON's kinds only, as the manifest records it: a value
    # json.dumps cannot write is refused here, not by config_hash later
    for name, value in [("rng_seed", np.int64(3)), ("shots", np.int64(100)),
                        ("sigma", np.float32(0.1)), ("pilot_fraction", Fraction(1, 10))]:
        with pytest.raises(ValidationError, match=name):
            ExperimentConfig(**{name: value}).validate()
    # np.float64 is a float
    config = ExperimentConfig(mus=[np.float64(0.1)])
    config.validate()
    assert config.config_hash() == ExperimentConfig(mus=[0.1]).config_hash()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# values of each kind near its edges (small counts, int64 and float overflow,
# the names the str fields accept), so that generated configs also get past
# the kind checks to the plan checks behind them
KIND_VALUES = {
    int: st.integers(-2, 10) | st.sampled_from([2 ** 63, 10 ** 400]),
    float: st.floats() | st.sampled_from([0.5, 0.9, 10 ** 400]),
    str: st.sampled_from(EXPERIMENTS + STRATEGIES + ("ibu", "matrix_inversion")),
}


def of_kind(annotation):
    """Values of an ``ExperimentConfig`` annotation's kind, or any JSON value."""
    entry = typing.get_args(annotation)
    if isinstance(annotation, types.UnionType):
        return st.none() | of_kind(entry[0])
    if entry:
        return st.lists(of_kind(entry[0]), max_size=3) | JSON_VALUES
    return KIND_VALUES[annotation] | JSON_VALUES


CONFIGS = st.lists(st.sampled_from(fields(ExperimentConfig)), max_size=4, unique=True).flatmap(
    lambda chosen: st.fixed_dictionaries({f.name: of_kind(f.type) for f in chosen})
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(CONFIGS)
def test_any_json_config_validates_or_raises_validation_error(settings_):
    # a config file can hold any JSON value in any field; one that validates
    # can be hashed for the manifest
    config = ExperimentConfig(**settings_)
    try:
        config.validate()
    except ValidationError:
        return
    assert len(config.config_hash()) == 64


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "readout_rebalance", "calibrate",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "calibration.json").exists()


def test_csv_files_newline_terminated(tmp_path):
    main([
        "run", "--experiment", "inverted_w",
        "--shots", "300", "--repetitions", "5",
        "--rng-seed", "2", "--output-dir", str(tmp_path),
    ])
    for name in ("ensemble.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / name).read_bytes().endswith(b"\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus", "0.1,zz"],
                     EXIT_VALIDATION, id="mus"),
        # factor condition numbers 1.4e261 and 6.8e116: their product is
        # inf, refused without numpy's overflow warning
        pytest.param(["run", "--eps10", "0.5,0.5,0.5,0.5,0.5,0.5,0.5",
                      "--eps01", "0.5,0.5,0.5,0.5,0.5,0.5,0.5",
                      "--unfold-method", "matrix_inversion",
                      "--shots", "100", "--repetitions", "2"],
                     EXIT_NUMERICAL, id="run-condition-number-past-the-largest-double"),
        pytest.param(["run", "--eps10", "0.07,zz", "--eps01", "0.01,0.01"],
                     EXIT_VALIDATION, id="eps10"),
        pytest.param(["run", "--eps10", "0.07,0.07", "--eps01", "zz,0.01"],
                     EXIT_VALIDATION, id="eps01"),
        pytest.param(["calibrate", "--eps10", "0.07", "--eps01", "x"],
                     EXIT_VALIDATION, id="calibrate-eps01"),
        pytest.param(["calibrate", "--input", {"n_qubits": 1, "entries": [[1, 0], [0, 1]]},
                      "--eps10", "0.1", "--eps01", "0.01"],
                     EXIT_VALIDATION, id="calibrate-file-and-eps"),
        pytest.param(["run", "--experiment", "inverted_w", "--rng-seed", "-1"],
                     EXIT_VALIDATION, id="run-negative-seed"),
        pytest.param(["appendix-a", "--rng-seed", "-1"], EXIT_VALIDATION,
                     id="appendix-a-negative-seed"),
        pytest.param(["appendix-a", "--counts", "a,b,c,d"], EXIT_VALIDATION, id="counts"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--sigma", "nan"],
                     EXIT_VALIDATION, id="sigma-nan"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--sigma", "inf"],
                     EXIT_VALIDATION, id="sigma-inf"),
        pytest.param(["run", "--experiment", "appendix_a"], EXIT_VALIDATION,
                     id="experiment-appendix-a"),
        pytest.param(["run", "--config", {"experiment": "appendix_a"}], EXIT_VALIDATION,
                     id="config-experiment-appendix-a"),
        pytest.param(["run", "--config", {"shots": "abc"}], EXIT_VALIDATION, id="config-shots"),
        pytest.param(["run", "--config", {"shots": 300.9}], EXIT_VALIDATION,
                     id="config-shots-fraction"),
        pytest.param(["run", "--config", {"repetitions": 2.7}], EXIT_VALIDATION,
                     id="config-repetitions-fraction"),
        pytest.param(["run", "--config", {"rng_seed": True}], EXIT_VALIDATION,
                     id="config-rng-seed-bool"),
        pytest.param(["run", "--config", {"mus": "0.1"}], EXIT_VALIDATION, id="config-mus"),
        pytest.param(["run", "--config", {"experiment": "gaussian_sweep", "sigma": True}],
                     EXIT_VALIDATION, id="config-sigma-bool"),
        pytest.param(["run", "--config", {"experiment": "gaussian_sweep", "mus": [True, False]}],
                     EXIT_VALIDATION, id="config-mus-bool"),
        pytest.param(["run", "--config", {"experiment": "gaussian_sweep", "sigma": "0.1"}],
                     EXIT_VALIDATION, id="config-sigma-string"),
        pytest.param(["run", "--config", {"strategies": 5}], EXIT_VALIDATION,
                     id="config-strategies"),
        pytest.param(["run", "--config", {"calibration_file": 5}], EXIT_VALIDATION,
                     id="config-calibration-file"),
        pytest.param(["run", "--calibration-file", {"n_qubits": 1, "entries": [1, 2]}],
                     EXIT_IO, id="calibration-flat"),
        pytest.param(["run", "--calibration-file",
                      {"n_qubits": 1, "entries": [["x", 0], [0, 1]]}],
                     EXIT_IO, id="calibration-string"),
        pytest.param(["run", "--calibration-file",
                      {"n_qubits": 1, "entries": [[float("nan"), 0], [1, 1]]}],
                     EXIT_IO, id="calibration-nan"),
        pytest.param(["run", "--calibration-file",
                      {"n_qubits": True, "entries": [[1, 0], [0, 1]]}],
                     EXIT_IO, id="calibration-n-qubits-bool"),
        pytest.param(["run", "--calibration-file",
                      {"n_qubits": 2.5, "entries": [[1, 0], [0, 1]]}],
                     EXIT_IO, id="calibration-n-qubits-fraction"),
        pytest.param(["run", "--calibration-file", {"n_qubits": 2, "eps01": [0], "eps10": [0]}],
                     EXIT_IO, id="calibration-eps-short"),
        pytest.param(["run", "--calibration-file", {"n_qubits": 1, "eps01": [2], "eps10": [0]}],
                     EXIT_IO, id="calibration-eps-out-of-range"),
        # a list flag given empty text is an error, not a request for the default
        pytest.param(["run", "--eps10", "", "--eps01", "", "--shots", "200",
                      "--repetitions", "5"], EXIT_VALIDATION, id="run-eps-empty"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus", "", "--shots", "200",
                      "--repetitions", "5"], EXIT_VALIDATION, id="run-mus-empty"),
        pytest.param(["run", "--strategies", "", "--shots", "200", "--repetitions", "5"],
                     EXIT_VALIDATION, id="run-strategies-empty"),
        # splits that round to, or are given as, zero true counts
        pytest.param(["appendix-a", "--total", "0"], EXIT_VALIDATION, id="appendix-a-total-0"),
        pytest.param(["appendix-a", "--total", "1"], EXIT_VALIDATION, id="appendix-a-total-1"),
        pytest.param(["appendix-a", "--counts", "0,0,0,0"], EXIT_VALIDATION,
                     id="appendix-a-counts-zero"),
        # empty lists and repeated strategies fail from a config file as from a flag
        pytest.param(["run", "--config", {"strategies": [], "shots": 200, "repetitions": 5}],
                     EXIT_VALIDATION, id="config-strategies-empty"),
        pytest.param(["run", "--config", {"experiment": "gaussian_sweep", "mus": [],
                                          "shots": 200, "repetitions": 5}],
                     EXIT_VALIDATION, id="config-mus-empty"),
        pytest.param(["run", "--config", {"strategies": ["nominal", "nominal"],
                                          "shots": 200, "repetitions": 5}],
                     EXIT_VALIDATION, id="config-strategies-duplicate"),
        pytest.param(["run", "--config", {"ibu_iterations": 0, "shots": 200, "repetitions": 5}],
                     EXIT_VALIDATION, id="config-ibu-iterations-0"),
        # the pilot takes both shots, leaving the main segment none
        pytest.param(["run", "--shots", "2", "--pilot-fraction", "0.9",
                      "--unfold-method", "matrix_inversion", "--strategies", "nominal,rebalanced",
                      "--repetitions", "5"], EXIT_VALIDATION, id="run-pilot-empty-main"),
        pytest.param(["run", "--shots", "100000000000000000000", "--repetitions", "5"],
                     EXIT_VALIDATION, id="run-shots-beyond-int64"),
        pytest.param(["run", "--config", {"pilot_fraction": 10 ** 400}], EXIT_VALIDATION,
                     id="config-pilot-fraction-huge"),
        pytest.param(["calibrate", "--output-name", "sub/x.json"], EXIT_IO,
                     id="calibrate-output-name-in-missing-dir"),
        # refused before a stream is built: 2**5 x 10**9 float64 counts are 256 GB
        pytest.param(["run", "--repetitions", "1000000000", "--shots", "2", "--strategies",
                      "nominal", "--unfold-method", "matrix_inversion"], EXIT_VALIDATION,
                     id="run-repetitions-beyond-cell-limit"),
        # bad state settings are reported before the calibration file is read
        pytest.param(["run", "--experiment", "grover", "--grover-iterations", "-1",
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-grover-iterations-negative-before-file"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--sigma", "-1",
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-sigma-negative-before-file"),
        # 4 x 2**19 float64 counts are exactly 16 MiB, but 2**19 repetitions
        # would hold about 0.5 GB of Generators
        pytest.param(["run", "--experiment", "inverted_w", "--eps10", "0.05,0.06",
                      "--eps01", "0.01,0.01", "--repetitions", "524288", "--shots", "2",
                      "--strategies", "nominal", "--unfold-method", "matrix_inversion"],
                     EXIT_VALIDATION, id="run-repetitions-beyond-generator-limit"),
        # a dense 16-qubit response matrix is 32 GiB: refused before it is built
        pytest.param(["run", "--eps10", ",".join(["0.05"] * 16),
                      "--eps01", ",".join(["0.01"] * 16)], EXIT_VALIDATION,
                     id="run-tensor-too-wide"),
        pytest.param(["calibrate", "--eps10", ",".join(["0.05"] * 16),
                      "--eps01", ",".join(["0.01"] * 16)], EXIT_VALIDATION,
                     id="calibrate-tensor-too-wide"),
        # refused before 2**n is taken, as the tensor builder refuses 12 qubits
        pytest.param(["run", "--calibration-file", {"n_qubits": 12, "entries": [[1]]}],
                     EXIT_IO, id="calibration-beyond-dense-cap"),
        pytest.param(["run", "--calibration-file", {"n_qubits": 20000, "entries": [[1]]}],
                     EXIT_IO, id="calibration-n-qubits-huge"),
        # every digitized Gaussian weight underflows to 0
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus", "40", "--sigma", "0.01"],
                     EXIT_VALIDATION, id="run-gaussian-far-mean"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--sigma", "1e-5"],
                     EXIT_VALIDATION, id="run-gaussian-narrow-sigma"),
        # JSON that json.load refuses with a ValueError or RecursionError
        pytest.param(["run", "--config", b'{"shots": 1' + b"0" * 5000 + b"}"],
                     EXIT_IO, id="config-integer-5000-digits"),
        pytest.param(["run", "--calibration-file",
                      b'{"n_qubits": 1, "entries": [[1, ' + b"1" * 5000 + b"], [0, 1]]}"],
                     EXIT_IO, id="calibration-integer-5000-digits"),
        pytest.param(["run", "--config", b"[" * 100000 + b"]" * 100000],
                     EXIT_IO, id="config-nested-100000"),
        pytest.param(["run", "--calibration-file", b"[" * 100000 + b"]" * 100000],
                     EXIT_IO, id="calibration-nested-100000"),
        pytest.param(["run", "--calibration-file", b"\xff\xfe{}"], EXIT_IO,
                     id="calibration-not-utf8"),
        # shot counts beyond int64, which numpy's multinomial cannot draw
        pytest.param(["calibrate", "--shots-per-state", "100000000000000000000"],
                     EXIT_VALIDATION, id="calibrate-shots-beyond-int64"),
        pytest.param(["appendix-a", "--total", "100000000000000000000"],
                     EXIT_VALIDATION, id="appendix-a-total-beyond-int64"),
        # appendix-a computes its variances exactly and draws nothing
        pytest.param(["appendix-a", "--trials", "200", "--rng-seed", "1"], EXIT_VALIDATION,
                     id="appendix-a-sampling-flags-unrecognized"),
        pytest.param(["run", "--repetitions", "70000", "--calibration-file", "nope.json"],
                     EXIT_VALIDATION, id="run-repetitions-beyond-limit-before-file"),
        # Gaussians whose density float64 cannot evaluate
        pytest.param(["run", "--experiment", "gaussian_sweep", "--sigma", "1e200"],
                     EXIT_VALIDATION, id="run-gaussian-sigma-squared-overflows"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus", "1e200"],
                     EXIT_VALIDATION, id="run-gaussian-mean-squared-overflows"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus=-1", "--sigma", "1e-200"],
                     EXIT_VALIDATION, id="run-gaussian-sigma-squared-underflows"),
        # a Grover count float64 cannot hold, and an IBU loop of about a month,
        # both refused before the calibration file is read
        pytest.param(["run", "--experiment", "grover", "--grover-iterations", "9" * 400,
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-grover-iterations-400-digits-before-file"),
        # one past the last k whose target probability float64 keeps accurate
        pytest.param(["run", "--experiment", "grover", "--grover-iterations", "10001",
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-grover-iterations-beyond-limit-before-file"),
        pytest.param(["run", "--ibu-iterations", "10000000000", "--repetitions", "2",
                      "--shots", "100", "--strategies", "nominal",
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-ibu-iterations-beyond-limit-before-file"),
        # 2**10 x 2049 float64 counts are 8 kB above the 16 MiB a cell may hold
        pytest.param(["run", "--eps10", ",".join(["0.05"] * 10),
                      "--eps01", ",".join(["0.01"] * 10), "--repetitions", "2049"],
                     EXIT_VALIDATION, id="run-cell-bytes-beyond-limit"),
        pytest.param(["run", "--config", b"[1, 2]"], EXIT_IO, id="config-json-array"),
        pytest.param(["run", "--calibration-file", {"n_qubits": 1}], EXIT_IO,
                     id="calibration-without-entries"),
        pytest.param(["appendix-a", "--counts", "1,2,3"], EXIT_VALIDATION,
                     id="appendix-a-counts-three"),
        # means compared by value, refused before the calibration file is read
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus", "0.5,0.5,0.3",
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-mus-repeat-before-file"),
        pytest.param(["run", "--experiment", "gaussian_sweep", "--mus=0.0,-0.0",
                      "--calibration-file", "nope.json"], EXIT_VALIDATION,
                     id="run-mus-signed-zeros-repeat"),
        pytest.param(["run", "--config", {"experiment": "gaussian_sweep", "mus": [0, 0.0],
                                          "calibration_file": "nope.json"}],
                     EXIT_VALIDATION, id="config-mus-int-and-float-repeat"),
        # a bad seed or shot count is refused before the input file is read
        pytest.param(["run", "--rng-seed", "-1", "--calibration-file", "nope.json"],
                     EXIT_VALIDATION, id="run-negative-seed-before-file"),
        pytest.param(["calibrate", "--input", "nope.json", "--shots-per-state", "-5"],
                     EXIT_VALIDATION, id="calibrate-negative-shots-before-file"),
        pytest.param(["calibrate", "--input", "nope.json", "--shots-per-state", "10",
                      "--rng-seed", "-1"], EXIT_VALIDATION,
                     id="calibrate-negative-seed-before-file"),
        # checked like every config field, whether or not a draw uses it
        pytest.param(["calibrate", "--rng-seed", "-1"], EXIT_VALIDATION,
                     id="calibrate-negative-seed-unused"),
        # open() refuses a NUL with a plain ValueError: every path flag refuses it first
        pytest.param(["calibrate", "--output-dir", "a\0b"], EXIT_VALIDATION,
                     id="calibrate-output-dir-nul"),
        pytest.param(["calibrate", "--input", "a\0b.json"], EXIT_VALIDATION,
                     id="calibrate-input-nul"),
        pytest.param(["calibrate", "--output-name", "a\0b.json"], EXIT_VALIDATION,
                     id="calibrate-output-name-nul"),
        pytest.param(["run", "--config", "a\0b.json"], EXIT_VALIDATION, id="run-config-nul"),
        pytest.param(["appendix-a", "--output-dir", "a\0b"], EXIT_VALIDATION,
                     id="appendix-a-output-dir-nul"),
        # the calibration would be replaced by the diagnostics written after it
        pytest.param(["calibrate", "--output-name", "diagnostics_by_zero_count.csv"],
                     EXIT_VALIDATION, id="calibrate-output-name-of-diagnostics"),
        pytest.param(["calibrate", "--output-name", "./diagnostics_by_zero_count.csv"],
                     EXIT_VALIDATION, id="calibrate-output-name-of-diagnostics-dotted"),
    ],
)
def test_malformed_input_exit_codes(tmp_path, capsys, argv, code):
    # a dict argument is written to a JSON file, a bytes argument as it is,
    # and the file's path passed instead
    path = tmp_path / "input.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, bytes)):
            path.write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    out_dir = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out_dir)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("field", ["calibration_file", "output_dir"])
def test_a_nul_in_a_config_path_is_a_validation_error(tmp_path, monkeypatch, capsys, field):
    # open() raises a plain ValueError for such a path; the config check
    # refuses it first, before any file is read or directory made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({field: "a\u0000b", "shots": 200,
                                                      "repetitions": 5}))
    assert main(["run", "--config", "config.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {field} must not contain a NUL character\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_a_nul_in_a_path_flag_leaves_no_new_directory(tmp_path, capsys):
    # the output directory was once made before the NUL name failed, and kept
    out = tmp_path / "new"
    argv = ["calibrate", "--output-name", "x\0y.json", "--output-dir", str(out)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (
        "error: argument --output-name: must not contain a NUL character, got 'x\\x00y.json'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("total, counts, least", [
    ("-5", [], 1), ("100000000000000000000", [], 1), ("0", [], 1),
    ("-5", ["--counts", "1,2,3,4"], 0), ("100000000000000000000", ["--counts", "1,2,3,4"], 0),
])
def test_appendix_a_names_a_total_it_cannot_split(tmp_path, capsys, total, counts, least):
    # refused as the flag the user typed, not as the model whose split counts it
    # gave: a total of 0 splits into empty models; unused beside --counts, 0 is fine
    out_dir = tmp_path / "out"
    argv = ["appendix-a", "--total", total, *counts, "--output-dir", str(out_dir)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: total must lie between {least} and 9223372036854775807\n"
    assert not out_dir.exists()


def test_appendix_a_takes_a_total_of_0_beside_its_counts(tmp_path):
    argv = ["appendix-a", "--total", "0", "--counts", "1,2,3,4", "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "appendix_a_comparison.csv").exists()


@pytest.mark.parametrize("source", ["eps", "file"])
def test_inverted_w_names_a_1_qubit_model(tmp_path, capsys, source):
    # the state builder would name its own n, a parameter no flag sets
    path = tmp_path / "one.json"
    save_response(make_response([0.01], [0.1]), path)
    flags = (["--eps10", "0.1", "--eps01", "0.01"] if source == "eps"
             else ["--calibration-file", str(path)])
    out_dir = tmp_path / "out"
    argv = ["run", "--experiment", "inverted_w", *flags, "--shots", "200", "--repetitions", "5",
            "--output-dir", str(out_dir)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: inverted_w needs a model of at least 2 qubits, got 1\n"
    assert not out_dir.exists()


def test_appendix_a_takes_five_flags_and_no_sampling_flags(tmp_path, capsys):
    args = build_parser().parse_args(["appendix-a"])
    assert set(vars(args)) - {"command", "func"} == {"q0", "q1", "total", "counts", "output_dir"}
    argv = ["appendix-a", "--trials", "200", "--rng-seed", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: unrecognized arguments: --trials 200 --rng-seed 1\n"
    assert not list(tmp_path.iterdir())
