"""Command-line harness wiring states, noise models, strategies and analytics
into reproducible benchmark experiments with machine-readable outputs.

Subcommands
-----------
calibrate   build (or finite-shot estimate) a response matrix, write it as
            JSON and emit the correct-readout-by-zero-count diagnostics CSV
run         execute a benchmark experiment across strategies and write
            ensemble CSVs, a summary with shots-equivalent fractions, sweep
            curves (gaussian), and a JSON run manifest
appendix-a  compare the analytic two-qubit variance formulas with the
            exact variances and write the comparison table

argparse parses every flag of every subcommand, and the commands receive
typed values.  Each ``run`` flag is made from the ``ExperimentConfig`` field
of the same name and parsed by its annotation.  A list flag (a list field's
``run`` flag, ``calibrate --eps10`` and ``--eps01``, ``appendix-a --counts``)
takes comma-separated text, parsed whenever given, empty text included.  A
path flag refuses a NUL character.  Bad values are refused before any file is
read.  On failure no subcommand leaves an output file or a new empty
directory behind.

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error,
3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import re
import sys
import types
import typing
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace
from operator import itemgetter

import numpy as np

from .core import (
    CalibrationFileError, NumericalError, ValidationError, _check_count, _read_json, _uint32_words,
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
from .states import (
    _check_gaussian,
    _check_grover_iterations,
    gaussian_dist,
    grover_dist,
    inverted_w_dist,
)
from .rebalance import STRATEGIES, MeasurementPlan, cell_streams
from .unfold import DEFAULT_IBU_ITERATIONS, UnfoldConfig
from .analytics import (
    TwoQubitModel,
    _check_repetitions,
    appendix_a_exact_variances,
    appendix_a_variances,
    ensemble_run,
    shots_equivalent_fraction,
)

EXPERIMENTS = ("inverted_w", "grover", "gaussian_sweep")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _list_of(kind):
    """The argparse ``type`` of a list flag: comma-separated ``kind`` values."""
    def parse(text):
        try:
            return [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects comma-separated {kind.__name__} values, got {text!r}"
            ) from None
    return parse


def _path(text):
    """The argparse ``type`` of a path flag: open() refuses a NUL character
    with a plain ValueError, so the flag refuses it first."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"must not contain a NUL character, got {text!r}")
    return text


# the ExperimentConfig fields that name a file or directory
_PATH_FIELDS = ("calibration_file", "output_dir")


# the instances a scalar kind accepts, the kinds JSON holds, since the
# manifest records the config as JSON: bool (an int subclass) is refused
# apart, int() would truncate 300.9 to 300, and "0.1" is not a number
_SCALARS = {int: int, float: (int, float), str: str}


def _kind(annotation):
    """``(kind, optional)``: a field annotation without ``| None``, and whether it had it."""
    if isinstance(annotation, types.UnionType):
        return typing.get_args(annotation)[0], True
    return annotation, False


def _holds(kind, value):
    """Whether ``value`` is an int, float or str, or a non-empty list (or tuple) of one."""
    entry = typing.get_args(kind)
    if entry:
        listed = isinstance(value, (list, tuple)) and len(value) > 0
        return listed and all(_holds(entry[0], v) for v in value)
    return isinstance(value, _SCALARS[kind]) and not isinstance(value, bool)


def _help(default, text):
    """A field default together with the help text of its ``run`` flag."""
    return field(default=default, metadata={"help": text})


def default_sweep_mus():
    """21 evenly spaced means from -1 to 1 plus the two pinned values."""
    mus = {round(float(x), 10) for x in np.linspace(-1.0, 1.0, 21)}
    mus |= {-0.11, 0.78}
    return sorted(mus)


def _sweep_mus(config):
    """The gaussian sweep means of a config: ``mus``, or the default sweep for None."""
    return default_sweep_mus() if config.mus is None else config.mus


def _check_noise_source(calibration_file, eps10, eps01):
    if (eps10 is None) != (eps01 is None):
        raise ValidationError("eps10 and eps01 must be given together")
    if eps10 is not None and len(eps10) != len(eps01):
        raise ValidationError("eps10 and eps01 must list the same number of qubits")
    if calibration_file is not None and eps10 is not None:
        raise ValidationError("give either a calibration file or tensor params, not both")


def _noise_response(calibration_file, eps10, eps01):
    """Response matrix of one noise source: a calibration file, per-qubit
    eps10/eps01 lists, or (when neither is given) the committed default."""
    _check_noise_source(calibration_file, eps10, eps01)
    if calibration_file is not None:
        return load_response(calibration_file)
    if eps10 is not None:
        return build_tensor_response([QubitNoiseParams(a, b) for a, b in zip(eps01, eps10)])
    return default_response()


@dataclass
class ExperimentConfig:
    """Settings of one ``run``.  Each field is also the ``run`` flag of the
    same name, and its annotation is the one declaration of what it holds:
    int, float, str, list[float] or list[str], each optionally ``| None``."""

    experiment: str = "inverted_w"
    calibration_file: str | None = None  # None -> committed default model
    # tensor params as an alternative noise source
    eps10: list[float] | None = _help(None, "comma-separated Pr(1->0) per qubit (tensor model)")
    eps01: list[float] | None = _help(None, "comma-separated Pr(0->1) per qubit (tensor model)")
    shots: int = 100000
    repetitions: int = 1000
    strategies: list[str] = _help(
        STRATEGIES, "comma-separated subset of nominal,rebalanced,symmetrized"
    )
    unfold_method: str = UnfoldConfig.method
    ibu_iterations: int = DEFAULT_IBU_ITERATIONS
    pilot_fraction: float = MeasurementPlan.pilot_fraction
    rng_seed: int = 0
    output_dir: str = "results"
    # None -> default sweep
    mus: list[float] | None = _help(None, "comma-separated gaussian sweep means")
    sigma: float = 0.1
    grover_iterations: int = 1

    def validate(self):
        """Check every field against its annotation, then build the unfold
        config and one plan per strategy, so their checks run here too.
        Returns the plans, unseeded, in strategy order."""
        # config files can hold values of any JSON type
        for f in fields(self):
            kind, optional = _kind(f.type)
            value = getattr(self, f.name)
            if not (optional and value is None or _holds(kind, value)):
                expected = f"non-empty {kind}" if typing.get_args(kind) else kind.__name__
                raise ValidationError(f"{f.name} must be {expected}, got {value!r}")
        # as _path refuses it in a flag, for a config file's values
        for name in _PATH_FIELDS:
            if "\0" in (getattr(self, name) or ""):
                raise ValidationError(f"{name} must not contain a NUL character")
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}, expected one of {EXPERIMENTS}"
            )
        # compared by value, so 0 and 0.0 (or 0.0 and -0.0) are one mean
        for name in ("strategies", "mus"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                raise ValidationError(f"{name} must not repeat, got {list(values)}")
        _check_count(self.shots, "shots", least=2)
        _check_repetitions(self.repetitions)
        _uint32_words(self.rng_seed, "rng_seed")
        # the state builders' own checks, before any file is read
        _check_grover_iterations(self.grover_iterations)
        for mu in _sweep_mus(self):
            _check_gaussian(mu, self.sigma)
        _check_noise_source(self.calibration_file, self.eps10, self.eps01)
        unfold = UnfoldConfig(method=self.unfold_method, ibu_iterations=self.ibu_iterations)
        return [
            MeasurementPlan(self.shots, strategy, self.pilot_fraction, unfold)
            for strategy in self.strategies
        ]

    def config_hash(self):
        """sha256 of every field but ``output_dir``, which moves no result."""
        canon = json.dumps(asdict(replace(self, output_dir=None)), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def response_matrix(self):
        return _noise_response(self.calibration_file, self.eps10, self.eps01)


def load_config_file(path):
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise CalibrationFileError(f"{path}: config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _formatted(rows):
    """Each row's values as the text :func:`_write_csv` writes."""
    return ([_fmt(v) for v in row] for row in rows)


def _write_csv(path, header, rows):
    """A CSV of rows of strings, each value already formatted by :func:`_fmt`."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Outputs:
    """The output files of one command, written inside a ``with`` block.

    ``path(name)`` records a file's path before the caller opens it, and
    refuses a name that one already recorded: a second write would replace
    the first file.  If the block fails, every recorded path is removed, a
    partly written file included, then every directory the command created
    while it is empty, and the error propagates.
    """

    def __init__(self, directory):
        # the directories makedirs is about to create, deepest first
        self.created = []
        head = os.path.abspath(directory)
        while not os.path.exists(head):
            self.created.append(head)
            head = os.path.dirname(head)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.paths = []

    def path(self, name):
        path = os.path.join(self.directory, name)
        if os.path.normpath(path) in map(os.path.normpath, self.paths):
            raise ValidationError(f"{path} would be written twice")
        self.paths.append(path)
        return path

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for path in self.paths:
                with suppress(OSError):
                    os.unlink(path)
            for directory in self.created:
                with suppress(OSError):
                    os.rmdir(directory)


def _experiment_rows(config, response):
    """(label, mu, distribution, observable weights, observable_label) per
    benchmark row."""
    n = response.n_qubits
    states = np.arange(2 ** n)
    if config.experiment == "inverted_w":
        if n < 2:
            raise ValidationError(f"inverted_w needs a model of at least 2 qubits, got {n}")
        return [("inverted_w", None, inverted_w_dist(n), states, "base10_mean")]
    if config.experiment == "grover":
        target = 2 ** n - 1
        dist = grover_dist(n, target, config.grover_iterations)
        # target counts scaled to the full budget, so strategies with
        # different kept totals estimate the same quantity
        weights = config.shots * (states == target)
        return [("grover", None, dist, weights, "target_counts_per_budget")]
    rows = []
    for mu in _sweep_mus(config):
        dist = gaussian_dist(mu, config.sigma, n)
        rows.append(("gaussian", float(mu), dist, states, "base10_mean"))
    return rows


def run_experiment(config):
    """Execute one experiment config; returns (ensemble rows, manifest dict)."""
    plans = config.validate()
    response = config.response_matrix()
    rows = _experiment_rows(config, response)

    results = []
    negative_flags = {}
    for (label, mu, dist, observable, obs_label), plan, words in cell_streams(
            config.rng_seed, rows, plans, config.repetitions):
        res = ensemble_run(
            dist, response, plan, observable, config.repetitions,
            observable_label=obs_label, words=words,
        )
        results.append((label, mu, res))
        key = label if mu is None else f"{label}@mu={mu!r}"
        negative_flags[f"{key}/{plan.strategy}"] = res.negative_runs

    manifest = {
        "rng_seed": config.rng_seed,
        "config_hash": config.config_hash(),
        "config": asdict(config),
        "negative_run_counts": negative_flags,
    }
    return results, manifest


# each run CSV: its name, the experiments that write it, and its columns,
# keys of the cell records that write_run_outputs builds
_RUN_CSVS = (
    ("ensemble.csv", EXPERIMENTS, ("experiment", "strategy", "mu", "mean", "std", "std_err",
                                   "shots", "repetitions", "flip_mask_mode")),
    ("summary.csv", EXPERIMENTS,
     ("experiment", "mu", "strategy", "std", "std_nominal", "shots_equivalent_fraction")),
    ("sweep_curves.csv", ("gaussian_sweep",), ("mu", "strategy", "mean", "std", "std_err")),
)


def write_run_outputs(config, results, manifest):
    """Write the ``_RUN_CSVS`` of the config's experiment, one line per cell
    in the order of ``results``, then the manifest; returns their paths.
    Nothing is left behind on failure.  ``std_nominal`` is the std of the
    row's nominal cell, and ``shots_equivalent_fraction`` is written only
    where that std and the cell's own are both positive."""
    # a row is its (label, mu), since validate refuses repeated means
    nominal_std = {(label, mu): res.std for label, mu, res in results if res.strategy == "nominal"}
    records = []
    for label, mu, res in results:
        sn, mask = nominal_std.get((label, mu)), res.flip_mask_mode
        frac = shots_equivalent_fraction(res.std, sn) if sn and res.std else None
        # each value formatted once, for every CSV that writes it
        records.append({key: _fmt(value) for key, value in (
            ("experiment", label), ("strategy", res.strategy), ("mu", mu), ("mean", res.mean),
            ("std", res.std), ("std_err", res.std_err_of_std), ("shots", config.shots),
            ("repetitions", res.repetitions), ("std_nominal", sn),
            ("shots_equivalent_fraction", frac),
            ("flip_mask_mode", None if mask is None else format(mask, "b")),
        )})
    with _Outputs(config.output_dir) as out:
        for name, experiments, columns in _RUN_CSVS:
            if config.experiment in experiments:
                _write_csv(out.path(name), columns, map(itemgetter(*columns), records))
        _write_json(out.path("manifest.json"), manifest)
    return out.paths


APPENDIX_A_DEFAULT_SPLITS = (
    ("pure_11", (0, 0, 0, 1.0)),
    ("pure_00", (1.0, 0, 0, 0)),
    ("uniform", (0.25, 0.25, 0.25, 0.25)),
)


def appendix_a_table(q0, q1, splits):
    """Analytic-vs-exact variance comparison rows for ``appendix-a``.

    ``splits`` holds ``(name, (n00, n01, n10, n11))`` pairs of true counts.
    ``gap`` is the analytic variance minus the exact one: the O(q^2)
    truncation of a formula, or the error of a misprinted term.
    """
    header = ["split", "state", "variant", "analytic_variance", "exact_variance", "gap"]
    rows = []
    for split_name, counts in splits:
        model = TwoQubitModel(q0, q1, *counts)
        exact = appendix_a_exact_variances(model)
        for variant, analytic in appendix_a_variances(model).items():
            for s, a, e in zip(("00", "01", "10", "11"), analytic, exact):
                rows.append([split_name, s, variant, float(a), float(e), float(a - e)])
    return header, rows


def cmd_calibrate(args):
    # checked, used or not, before the input file is read
    _uint32_words(args.rng_seed, "rng_seed")
    if args.shots_per_state:
        _check_count(args.shots_per_state, "shots_per_state")
    response = _noise_response(args.input, args.eps10, args.eps01)
    if args.shots_per_state:
        response = estimate_response(response, args.shots_per_state, args.rng_seed)
    diag = diag_by_zero_count(response)
    with _Outputs(args.output_dir) as out:
        save_response(response, out.path(args.output_name))
        _write_csv(
            out.path("diagnostics_by_zero_count.csv"),
            ["zeros_in_bitstring", "mean_correct_probability"],
            _formatted(sorted(diag.items())),
        )
    return out.paths


def cmd_run(args):
    settings = load_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            settings[f.name] = getattr(args, f.name)
    config = ExperimentConfig(**settings)
    results, manifest = run_experiment(config)
    return write_run_outputs(config, results, manifest)


def cmd_appendix_a(args):
    # checked, used or not, and named as the flag; a total of 0 leaves every default split empty
    _check_count(args.total, "total", least=0 if args.counts else 1)
    if args.counts:
        if any(len(counts) != 4 for counts in args.counts):
            raise ValidationError("--counts needs four comma-separated integers")
        splits = [(f"split_{i}", counts) for i, counts in enumerate(args.counts)]
    else:
        splits = [
            (name, [round(f * args.total) for f in fractions])
            for name, fractions in APPENDIX_A_DEFAULT_SPLITS
        ]
    header, rows = appendix_a_table(args.q0, args.q1, splits)
    with _Outputs(args.output_dir) as out:
        _write_csv(out.path("appendix_a_comparison.csv"), header, _formatted(rows))
    return out.paths


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only a plain negative number for a value, not a
        # list such as "-1,0.5" or a number such as "-1e-3"
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.,eE+-]*$")

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
    cal.add_argument("--eps10", type=_list_of(float), help="comma-separated Pr(1->0) per qubit")
    cal.add_argument("--eps01", type=_list_of(float), help="comma-separated Pr(0->1) per qubit")
    cal.add_argument("--input", type=_path, help="existing response matrix JSON to re-estimate")
    cal.add_argument("--shots-per-state", type=int, default=0,
                     help="finite-shot estimation; 0 keeps the exact matrix")
    cal.add_argument("--rng-seed", type=int, default=0)
    cal.add_argument("--output-dir", type=_path, default="results")
    cal.add_argument("--output-name", type=_path, default="calibration.json")
    cal.set_defaults(func=cmd_calibrate)

    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--config", type=_path, help="JSON config file; flags override its fields")
    for f in fields(ExperimentConfig):
        kind = _kind(f.type)[0]
        entry = typing.get_args(kind)
        parse = _list_of(entry[0]) if entry else _path if f.name in _PATH_FIELDS else kind
        run.add_argument("--" + f.name.replace("_", "-"), type=parse, help=f.metadata.get("help"))
    run.set_defaults(func=cmd_run)

    app = sub.add_parser("appendix-a", help="two-qubit analytic vs exact variances")
    app.add_argument("--q0", type=float, default=0.05)
    app.add_argument("--q1", type=float, default=0.03)
    app.add_argument("--total", type=int, default=100000)
    app.add_argument("--counts", action="append", type=_list_of(int),
                     help="N00,N01,N10,N11 true-count split (repeatable)")
    app.add_argument("--output-dir", type=_path, default="results")
    app.set_defaults(func=cmd_appendix_a)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for path in args.func(args):
            print(f"wrote {path}")
        return EXIT_OK
    except (CalibrationFileError, OSError) as exc:
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
