"""Command-line harness wiring states, noise models, strategies and analytics
into reproducible benchmark experiments with machine-readable outputs.

Subcommands
-----------
calibrate   build (or finite-shot estimate) a response matrix, write it as
            JSON and emit the correct-readout-by-zero-count diagnostics CSV
run         execute a benchmark experiment across strategies and write
            ensemble CSVs, a summary with shots-equivalent fractions, sweep
            curves (gaussian), and a JSON run manifest
appendix-a  compare the analytic two-qubit variance formulas against the
            Monte Carlo oracle and write the comparison table

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error,
3 numerical failure.
"""

import argparse
import hashlib
import json
import numbers
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .core import (
    CalibrationFileError,
    NumericalError,
    ValidationError,
    counts_in_state,
    observable_base10,
)
from .noise import (
    QubitNoiseParams,
    build_tensor_response,
    default_response,
    diag_by_zero_count,
    estimate_response,
    load_response,
    save_response,
)
from .states import gaussian_dist, grover_dist, inverted_w_dist
from .rebalance import STRATEGIES, MeasurementPlan
from .unfold import UnfoldConfig
from .analytics import (
    TwoQubitModel,
    appendix_a_variances,
    ensemble_run,
    monte_carlo_variance_oracle,
    shots_equivalent_fraction,
)

EXPERIMENTS = ("inverted_w", "grover", "gaussian_sweep")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _parse_list(text, kind, flag):
    """Comma-separated values of one type given to a command-line flag."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(
            f"{flag} expects comma-separated {kind.__name__} values, got {text!r}"
        ) from exc


def _check_float(name, value):
    try:
        float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a float, got {value!r}") from exc


def _check_integer(name, value):
    # bool is an int subclass, and int() would truncate 300.9 to 300
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def default_sweep_mus():
    """21 evenly spaced means from -1 to 1 plus the two pinned values."""
    mus = {round(float(x), 10) for x in np.linspace(-1.0, 1.0, 21)}
    mus |= {-0.11, 0.78}
    return sorted(mus)


@dataclass
class ExperimentConfig:
    experiment: str = "inverted_w"
    calibration_file: str | None = None  # None -> committed default model
    eps10: list | None = None  # tensor params as an alternative noise source
    eps01: list | None = None
    shots: int = 100000
    repetitions: int = 1000
    strategies: tuple = STRATEGIES
    unfold_method: str = "ibu"
    ibu_iterations: int = 100
    pilot_fraction: float = 0.1
    rng_seed: int = 0
    output_dir: str = "results"
    mus: list | None = None  # gaussian sweep means; None -> default sweep
    sigma: float = 0.1
    grover_iterations: int = 1

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}, expected one of {EXPERIMENTS}"
            )
        # config files can hold values of any JSON type
        if not isinstance(self.strategies, (list, tuple)):
            raise ValidationError(f"strategies must be a list, got {self.strategies!r}")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValidationError(f"unknown strategy {s!r}")
        if not isinstance(self.output_dir, str):
            raise ValidationError(f"output_dir must be a path, got {self.output_dir!r}")
        if not isinstance(self.calibration_file, (str, type(None))):
            raise ValidationError(
                f"calibration_file must be a path, got {self.calibration_file!r}"
            )
        for name in ("shots", "repetitions", "ibu_iterations", "rng_seed", "grover_iterations"):
            _check_integer(name, getattr(self, name))
        for name in ("pilot_fraction", "sigma"):
            _check_float(name, getattr(self, name))
        for name in ("eps10", "eps01", "mus"):
            values = getattr(self, name)
            if values is None:
                continue
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"{name} must be a list of numbers, got {values!r}")
            for value in values:
                _check_float(name, value)
        if int(self.shots) < 2:
            raise ValidationError("shots must be >= 2")
        if int(self.repetitions) < 2:
            raise ValidationError("repetitions must be >= 2")
        if (self.eps10 is None) != (self.eps01 is None):
            raise ValidationError("eps10 and eps01 must be given together")
        if self.eps10 is not None and len(self.eps10) != len(self.eps01):
            raise ValidationError("eps10 and eps01 must list the same number of qubits")
        if self.calibration_file is not None and self.eps10 is not None:
            raise ValidationError("give either a calibration file or tensor params, not both")

    def semantic_dict(self):
        d = asdict(self)
        d["strategies"] = list(self.strategies)
        return d

    def config_hash(self):
        canon = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def response_matrix(self):
        if self.calibration_file is not None:
            return load_response(self.calibration_file)
        if self.eps10 is not None:
            params = [QubitNoiseParams(a, b) for a, b in zip(self.eps01, self.eps10)]
            return build_tensor_response(params)
        return default_response()

    def unfold_config(self):
        return UnfoldConfig(method=self.unfold_method, ibu_iterations=self.ibu_iterations)


def load_config_file(path):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CalibrationFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise CalibrationFileError(f"{path}: config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _row_seed(base_seed, *path):
    """Distinct deterministic integer seed for one ensemble row."""
    ss = np.random.SeedSequence([int(base_seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _experiment_rows(config, response):
    """(label, mu, distribution, observable, observable_label) per benchmark row."""
    n = response.n_qubits
    if config.experiment == "inverted_w":
        return [("inverted_w", None, inverted_w_dist(n), observable_base10, "base10_mean")]
    if config.experiment == "grover":
        target = 2 ** n - 1
        dist = grover_dist(n, target, config.grover_iterations)
        shots = int(config.shots)

        def target_counts(hist):
            # scale to the full budget so strategies with different kept
            # totals estimate the same quantity
            return counts_in_state(hist, target) / hist.total * shots

        return [("grover", None, dist, target_counts, "target_counts_per_budget")]
    mus = config.mus if config.mus is not None else default_sweep_mus()
    rows = []
    for mu in mus:
        dist = gaussian_dist(mu, config.sigma, n)
        rows.append(("gaussian", float(mu), dist, observable_base10, "base10_mean"))
    return rows


def run_experiment(config):
    """Execute one experiment config; returns (ensemble rows, manifest dict)."""
    config.validate()
    response = config.response_matrix()
    rows = _experiment_rows(config, response)
    unfold_cfg = config.unfold_config()

    results = []
    negative_flags = {}
    for row_idx, (label, mu, dist, observable, obs_label) in enumerate(rows):
        for strat_idx, strategy in enumerate(config.strategies):
            plan = MeasurementPlan(
                total_shots=int(config.shots),
                strategy=strategy,
                pilot_fraction=config.pilot_fraction,
                unfold=unfold_cfg,
                rng_seed=_row_seed(config.rng_seed, row_idx, strat_idx),
            )
            res = ensemble_run(
                dist, response, plan, observable, int(config.repetitions),
                observable_label=obs_label,
            )
            results.append((label, mu, res))
            key = label if mu is None else f"{label}@mu={mu!r}"
            negative_flags[f"{key}/{strategy}"] = res.negative_runs

    manifest = {
        "rng_seed": int(config.rng_seed),
        "config_hash": config.config_hash(),
        "config": config.semantic_dict(),
        "negative_run_counts": negative_flags,
    }
    return results, manifest


def write_run_outputs(config, results, manifest):
    """Write ensemble/summary/sweep CSVs plus the manifest.

    Nothing is left behind on failure: any file already written gets
    removed before the error propagates.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    written = []
    try:
        ensemble_path = os.path.join(config.output_dir, "ensemble.csv")
        header = [
            "experiment", "strategy", "mu", "mean", "std", "std_err",
            "shots", "repetitions", "flip_mask_mode",
        ]
        rows = []
        for label, mu, res in results:
            mask = "" if res.flip_mask_mode is None else format(res.flip_mask_mode, "b")
            rows.append([
                label, res.strategy, mu, res.mean, res.std, res.std_err_of_std,
                config.shots, res.repetitions, mask,
            ])
        _write_csv(ensemble_path, header, rows)
        written.append(ensemble_path)

        # nominal std per benchmark row keys the shots-equivalent fractions
        nominal_std = {
            (label, mu): res.std
            for label, mu, res in results
            if res.strategy == "nominal"
        }
        summary_path = os.path.join(config.output_dir, "summary.csv")
        srows = []
        for label, mu, res in results:
            sn = nominal_std.get((label, mu))
            frac = "" if sn is None else shots_equivalent_fraction(res.std, sn)
            srows.append([label, mu, res.strategy, res.std, sn, frac])
        _write_csv(
            summary_path,
            ["experiment", "mu", "strategy", "std", "std_nominal", "shots_equivalent_fraction"],
            srows,
        )
        written.append(summary_path)

        if config.experiment == "gaussian_sweep":
            sweep_path = os.path.join(config.output_dir, "sweep_curves.csv")
            curows = [
                [mu, res.strategy, res.mean, res.std, res.std_err_of_std]
                for label, mu, res in results
            ]
            _write_csv(sweep_path, ["mu", "strategy", "mean", "std", "std_err"], curows)
            written.append(sweep_path)

        manifest_path = os.path.join(config.output_dir, "manifest.json")
        _write_json(manifest_path, manifest)
        written.append(manifest_path)
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return written


APPENDIX_A_DEFAULT_SPLITS = (
    ("pure_11", (0, 0, 0, 1.0)),
    ("pure_00", (1.0, 0, 0, 0)),
    ("uniform", (0.25, 0.25, 0.25, 0.25)),
)


def appendix_a_table(q0, q1, total, splits, trials, rng_seed):
    """Analytic-vs-empirical variance comparison rows for the CLI and tests.

    Tolerance per row: max(3 * bootstrap error, (q0+q1)^2 * N), the second
    term covering the linear-order truncation of the analytic formulas.
    """
    rows = []
    header = [
        "split", "state", "variant", "analytic_variance", "empirical_variance",
        "bootstrap_err", "tolerance", "passes",
    ]
    states = ("00", "01", "10", "11")
    for split_idx, (split_name, fractions) in enumerate(splits):
        counts = [int(round(f * total)) for f in fractions]
        model = TwoQubitModel(q0, q1, *counts)
        oracle = monte_carlo_variance_oracle(
            model, trials, _row_seed(rng_seed, split_idx)
        )
        truncation = (q0 + q1) ** 2 * model.total
        tol = np.maximum(3.0 * oracle.variance_std_errors, truncation)
        for variant in ("as_printed", "mirror_symmetric"):
            analytic = appendix_a_variances(model, variant)
            for s, a, e, b, t in zip(
                states, analytic, oracle.variances, oracle.variance_std_errors, tol
            ):
                rows.append([
                    split_name, s, variant, float(a), float(e), float(b), float(t),
                    bool(abs(a - e) <= t),
                ])
    return header, rows


def cmd_calibrate(args):
    if args.input is not None:
        true_response = load_response(args.input)
    elif args.eps10 is not None or args.eps01 is not None:
        if args.eps10 is None or args.eps01 is None:
            raise ValidationError("--eps10 and --eps01 must be given together")
        e10 = _parse_list(args.eps10, float, "--eps10")
        e01 = _parse_list(args.eps01, float, "--eps01")
        if len(e10) != len(e01):
            raise ValidationError("--eps10 and --eps01 must list the same number of qubits")
        true_response = build_tensor_response(
            [QubitNoiseParams(a, b) for a, b in zip(e01, e10)]
        )
    else:
        true_response = default_response()

    if args.shots_per_state:
        response = estimate_response(true_response, args.shots_per_state, args.rng_seed)
    else:
        response = true_response

    os.makedirs(args.output_dir, exist_ok=True)
    matrix_path = os.path.join(args.output_dir, args.output_name)
    diag_path = os.path.join(args.output_dir, "diagnostics_by_zero_count.csv")
    save_response(response, matrix_path)
    try:
        diag = diag_by_zero_count(response)
        _write_csv(
            diag_path,
            ["zeros_in_bitstring", "mean_correct_probability"],
            [[k, v] for k, v in sorted(diag.items())],
        )
    except BaseException:
        for path in (matrix_path,):
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    print(f"wrote {matrix_path}")
    print(f"wrote {diag_path}")
    return EXIT_OK


def cmd_run(args):
    overrides = {
        k: v
        for k, v in {
            "experiment": args.experiment,
            "calibration_file": args.calibration_file,
            "eps10": _parse_list(args.eps10, float, "--eps10") if args.eps10 else None,
            "eps01": _parse_list(args.eps01, float, "--eps01") if args.eps01 else None,
            "shots": args.shots,
            "repetitions": args.repetitions,
            "strategies": tuple(args.strategies.split(",")) if args.strategies else None,
            "unfold_method": args.unfold_method,
            "ibu_iterations": args.ibu_iterations,
            "pilot_fraction": args.pilot_fraction,
            "rng_seed": args.rng_seed,
            "output_dir": args.output_dir,
            "mus": _parse_list(args.mus, float, "--mus") if args.mus else None,
            "sigma": args.sigma,
            "grover_iterations": args.grover_iterations,
        }.items()
        if v is not None
    }
    base = load_config_file(args.config) if args.config else {}
    repetitions_explicit = args.repetitions is not None or "repetitions" in base
    base.update(overrides)
    config = ExperimentConfig(**base)
    if args.fast and not repetitions_explicit:
        config.repetitions = 100
    config.validate()

    results, manifest = run_experiment(config)
    written = write_run_outputs(config, results, manifest)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_appendix_a(args):
    if args.counts:
        parsed = [_parse_list(spec, int, "--counts") for spec in args.counts]
        splits = []
        for i, parts in enumerate(parsed):
            if len(parts) != 4:
                raise ValidationError("--counts needs four comma-separated integers")
            total = sum(parts)
            if total < 1:
                raise ValidationError("--counts must sum to a positive total")
            splits.append((f"split_{i}", tuple(p / total for p in parts)))
        total = sum(parsed[0])
    else:
        splits = APPENDIX_A_DEFAULT_SPLITS
        total = args.total
    header, rows = appendix_a_table(
        args.q0, args.q1, total, splits, args.trials, args.rng_seed
    )
    os.makedirs(args.output_dir, exist_ok=True)
    path = os.path.join(args.output_dir, "appendix_a_comparison.csv")
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path instead so exit codes stay meaningful
    def error(self, message):
        raise ValidationError(message)


def build_parser():
    parser = _Parser(
        prog="readout-rebalance",
        description="Readout rebalancing benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="build or estimate a response matrix")
    cal.add_argument("--eps10", help="comma-separated Pr(1->0) per qubit")
    cal.add_argument("--eps01", help="comma-separated Pr(0->1) per qubit")
    cal.add_argument("--input", help="existing response matrix JSON to re-estimate")
    cal.add_argument("--shots-per-state", type=int, default=0,
                     help="finite-shot estimation; 0 keeps the exact matrix")
    cal.add_argument("--rng-seed", type=int, default=0)
    cal.add_argument("--output-dir", default="results")
    cal.add_argument("--output-name", default="calibration.json")
    cal.set_defaults(func=cmd_calibrate)

    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--experiment", choices=EXPERIMENTS)
    run.add_argument("--calibration-file")
    run.add_argument("--eps10", help="comma-separated Pr(1->0) per qubit (tensor model)")
    run.add_argument("--eps01", help="comma-separated Pr(0->1) per qubit (tensor model)")
    run.add_argument("--shots", type=int)
    run.add_argument("--repetitions", type=int)
    run.add_argument("--strategies", help="comma-separated subset of nominal,rebalanced,symmetrized")
    run.add_argument("--unfold-method", choices=("ibu", "matrix_inversion"))
    run.add_argument("--ibu-iterations", type=int)
    run.add_argument("--pilot-fraction", type=float)
    run.add_argument("--rng-seed", type=int)
    run.add_argument("--output-dir")
    run.add_argument("--mus", help="comma-separated gaussian sweep means")
    run.add_argument("--sigma", type=float)
    run.add_argument("--grover-iterations", type=int)
    run.add_argument("--fast", action="store_true",
                     help="CI mode: 100 repetitions unless set explicitly")
    run.set_defaults(func=cmd_run)

    app = sub.add_parser("appendix-a", help="two-qubit analytic vs Monte Carlo variances")
    app.add_argument("--q0", type=float, default=0.05)
    app.add_argument("--q1", type=float, default=0.03)
    app.add_argument("--total", type=int, default=100000)
    app.add_argument("--trials", type=int, default=10000)
    app.add_argument("--counts", action="append",
                     help="N00,N01,N10,N11 true-count split (repeatable)")
    app.add_argument("--rng-seed", type=int, default=0)
    app.add_argument("--output-dir", default="results")
    app.set_defaults(func=cmd_appendix_a)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CalibrationFileError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
