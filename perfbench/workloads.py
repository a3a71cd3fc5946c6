"""Workloads and the measurement loop of the ensemble-throughput benchmark.

The package is driven only through the path ``readout-rebalance run`` takes:
``harness.run_experiment`` followed by ``harness.write_run_outputs``, one
call pair per experiment config.  One harness pass runs every config of a
workload once.  Every pass of a run uses the same seed, so every pass does
the same work and must write byte-identical CSVs.

A cell is one (row, strategy) ensemble, i.e. one call of the name
``harness.ensemble_run``.  The benchmark wraps that name with one clock pair
per cell (the cells last 10 ms or more), which splits pass time by strategy,
probes the host's speed between cells, and records a cell that raises
``ValidationError`` or ``NumericalError`` instead of aborting the workload.
Probe time is taken out of the pass time.
"""

import hashlib
import importlib
import math
import os
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import gates
import reference
from tracer import LAYERS, Tracer, arg

PACKAGE = "readout_rebalance"
SHOTS = 100_000
STRATEGIES = ("nominal", "rebalanced", "symmetrized")
# timed passes per phase, whatever --seconds says
MIN_PASSES = 2
# set-ups per run; setup_s is their median
SETUPS = 9
# set-up is Python work (imports, JSON), so every workload probes it with
# the plumbing kernel
SETUP_PROBE = ("plumbing", 30)
HASHED_OUTPUTS = ("ensemble.csv", "summary.csv")


@dataclass(frozen=True)
class Workload:
    """One set of inputs: the experiment configs a harness pass runs."""

    name: str
    repetitions: int
    # ExperimentConfig fields per config of a pass
    runs: tuple
    # host-speed probe: a reference kernel that does the same kind of work,
    # sized to about 5% of a cell (see reference.py)
    kernel: str
    probe_units: int
    # per-qubit (eps01, eps10) of a tensor model written with save_response
    # and read back through run --calibration-file; None -> committed model
    tensor_model: tuple | None = None


def _spaced(lo, hi, n):
    return tuple(float(x) for x in np.linspace(lo, hi, n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # IBU is about 1.0 of the 1.2 ms a repetition costs
            name="ensemble_ibu",
            repetitions=100,
            kernel="ibu",
            probe_units=6,
            runs=(
                {"experiment": "inverted_w", "unfold_method": "ibu"},
                {"experiment": "grover", "unfold_method": "ibu"},
            ),
        ),
        Workload(
            # per-repetition plumbing and the condition check dominate; means
            # near 0 put pilot marginals near 0.5, so masks vary
            name="sweep_inversion",
            repetitions=40,
            kernel="plumbing",
            probe_units=6,
            runs=({"experiment": "gaussian_sweep", "unfold_method": "matrix_inversion"},),
        ),
        Workload(
            # dense 256x256 linear algebra dominates; the calibration file is
            # the calibrate, then run --calibration-file path
            name="wide_8q",
            repetitions=20,
            kernel="dense",
            probe_units=1,
            runs=(
                {"experiment": "inverted_w", "unfold_method": "matrix_inversion"},
                {"experiment": "inverted_w", "unfold_method": "ibu"},
            ),
            tensor_model=tuple(
                zip(_spaced(0.0020, 0.0036, 8), _spaced(0.065, 0.080, 8))
            ),
        ),
    )
}


def import_package():
    """Import the package afresh; returns ``{layer: module}``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


@dataclass
class Inputs:
    """Configs of one pass, with the response matrix each one resolves to."""

    configs: list
    responses: list
    calibration_roundtrip_ok: bool = True


def build_inputs(package, workload, seed, out_dir, repetitions):
    """Everything a pass needs, made from the seed through public names."""
    harness, noise = package["harness"], package["noise"]
    base = {
        "shots": SHOTS,
        "repetitions": repetitions,
        "strategies": STRATEGIES,
        "ibu_iterations": 100,
        "rng_seed": seed,
    }
    written = None
    if workload.tensor_model is not None:
        params = [package["core"].QubitNoiseParams(e01, e10) for e01, e10 in workload.tensor_model]
        written = noise.build_tensor_response(params)
        base["calibration_file"] = os.path.join(out_dir, "calibration.json")
        noise.save_response(written, base["calibration_file"])
    configs, responses = [], []
    for i, run in enumerate(workload.runs):
        config = harness.ExperimentConfig(
            **base, **run, output_dir=os.path.join(out_dir, f"run{i}")
        )
        config.validate()
        configs.append(config)
        responses.append(config.response_matrix())
    ok = written is None or all(
        np.array_equal(r.entries, written.entries) for r in responses
    )
    return Inputs(configs, responses, ok)


class CellLog:
    """Wraps ``harness.ensemble_run``: per-cell time, strategy and failure."""

    def __init__(self, package):
        self.package = package
        self.cells = []
        self.failures = {}
        # host-speed probe run before each cell when set; its (seconds,
        # slowdown) samples land in ``probes``
        self.probe = None
        self.probes = []
        self._original = None

    def install(self):
        harness, core = self.package["harness"], self.package["core"]
        original = self._original = harness.ensemble_run
        errors = (core.ValidationError, core.NumericalError)
        result_type = self.package["analytics"].EnsembleResult

        def cell(*args, **kwargs):
            if self.probe is not None:
                self.probes.append(self.probe())
            plan = arg(args, kwargs, 2, "plan")
            repetitions = int(arg(args, kwargs, 4, "repetitions"))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except errors as exc:
                label = kwargs.get("observable_label") or "observable"
                key = (plan.unfold.method, label, plan.strategy, plan.rng_seed)
                self.failures[key] = f"{type(exc).__name__}: {exc}"
                self.cells.append((plan.strategy, 0, perf_counter() - start))
                nan = float("nan")
                return result_type(repetitions, nan, nan, nan, plan.strategy, label)
            self.cells.append((plan.strategy, repetitions, perf_counter() - start))
            return result

        harness.ensemble_run = cell

    def uninstall(self):
        self.package["harness"].ensemble_run = self._original


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Pass:
    seconds: float
    reps: int
    by_strategy: dict
    results: list
    hashes: list
    # mean host slowdown over the probes taken during the pass
    slowdown: float = float("nan")


def run_pass(package, inputs, log):
    """One harness pass over every config; timed end to end, less probes."""
    harness = package["harness"]
    del log.cells[:], log.probes[:]
    start = perf_counter()
    results = []
    for config in inputs.configs:
        res, manifest = harness.run_experiment(config)
        harness.write_run_outputs(config, res, manifest)
        results.append(res)
    seconds = perf_counter() - start - sum(s for s, _ in log.probes)
    by_strategy = {}
    for strategy, reps, dt in log.cells:
        done, spent = by_strategy.get(strategy, (0, 0.0))
        by_strategy[strategy] = (done + reps, spent + dt)
    hashes = [
        {name: _sha256(os.path.join(c.output_dir, name)) for name in HASHED_OUTPUTS}
        for c in inputs.configs
    ]
    reps = sum(r for r, _ in by_strategy.values())
    return Pass(seconds, reps, by_strategy, results, hashes)


def run_phase(package, inputs, log, seconds, probe):
    """Timed passes until ``seconds`` have gone by (at least MIN_PASSES).

    The host is probed before each cell and between passes.
    """
    log.probe = probe
    passes = []
    start = perf_counter()
    before = probe()
    try:
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            done = run_pass(package, inputs, log)
            after = probe()
            done.slowdown = statistics.fmean(
                [before[1], after[1]] + [s for _, s in log.probes]
            )
            passes.append(done)
            before = after
    finally:
        log.probe = None
    return passes


@contextmanager
def traced_by(tracer, package, log):
    """Install the tracer under the cell log, which stays the outer wrapper."""
    log.uninstall()
    tracer.install(package)
    log.install()
    try:
        yield
    finally:
        log.uninstall()
        tracer.uninstall()
        log.install()


def run_traced_phase(package, inputs, log, seconds, probe, tracer):
    """Alternate untraced and traced passes for ``seconds``.

    Alternating puts both kinds under the same host conditions.  The host is
    probed only between passes: a probe inside a traced pass would count as
    harness self time.  Returns ``(untraced, traced)`` passes.
    """
    untraced, traced = [], []
    start = perf_counter()
    before = probe()
    while len(traced) < MIN_PASSES or perf_counter() - start < seconds:
        for passes in (untraced, traced):
            with traced_by(tracer, package, log) if passes is traced else nullcontext():
                done = run_pass(package, inputs, log)
            after = probe()
            done.slowdown = (before[1] + after[1]) / 2.0
            passes.append(done)
            before = after
    return untraced, traced


def check_outputs(package, inputs, first):
    """Gate failures of one pass: ``{cell: [messages]}``."""
    failures = {}
    for config, response, results in zip(inputs.configs, inputs.responses, first.results):
        rows = gates.expected_rows(package["harness"], package["states"], config, response)
        for label, mu, res in results:
            key = (config.experiment, config.unfold_method, label, mu, res.strategy)
            if math.isnan(res.mean):
                continue  # raised; recorded by the cell log
            row = rows.get((label, None if mu is None else float(mu)))
            if row is None:
                failures[key] = ["row not among the expected benchmark rows"]
                continue
            found = gates.check_cell(res, row, response, config.shots, config.unfold_method)
            if found:
                failures[key] = found
    return failures


def _median(values):
    return float(statistics.median(values))


def _rate(done, spent):
    return done / spent if spent > 0 else 0.0


def reps_per_s(passes, strategy=None):
    """Median over passes of repetitions per second at reference speed."""
    return _median([
        _rate(*(p.by_strategy.get(strategy, (0, 0.0)) if strategy else (p.reps, p.seconds)))
        * p.slowdown
        for p in passes
    ])


def end_to_end(passes, setups):
    metrics = {"reps_per_s": reps_per_s(passes)}
    for strategy in STRATEGIES:
        metrics[f"reps_per_s.{strategy}"] = reps_per_s(passes, strategy)
    metrics["setup_s"] = _median([t / slowdown for t, slowdown in setups])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def run_workload(name, seed, seconds, trace, out_dir, repetitions=None, setups=SETUPS):
    """Set up, warm up, measure and check one workload.

    Returns ``(metrics, report)``: ``metrics`` holds the end-to-end figures
    (``trace`` false) or the per-layer ones (``trace`` true); ``report``
    holds the counts, failures, output hashes and workload parameters.
    """
    workload = WORKLOADS[name]
    reps = int(repetitions or workload.repetitions)
    os.makedirs(out_dir, exist_ok=True)

    def probe():
        return reference.probe(workload.kernel, workload.probe_units)

    setup_times = []  # (seconds, mean slowdown of the probes around it)
    for _ in range(max(int(setups), 1)):
        before = reference.probe(*SETUP_PROBE)
        start = perf_counter()
        package = import_package()
        inputs = build_inputs(package, workload, seed, out_dir, reps)
        took = perf_counter() - start
        setup_times.append((took, (before[1] + reference.probe(*SETUP_PROBE)[1]) / 2.0))

    log = CellLog(package)
    log.install()
    try:
        warm = run_pass(package, inputs, log)
        gate_failures = check_outputs(package, inputs, warm)
        if trace:
            tracer = Tracer()
            with traced_by(tracer, package, log):
                # traced set-up, for the calibration write and read spans
                inputs = build_inputs(package, workload, seed, out_dir, reps)
            self_before = tracer.self_total
            untraced, traced = run_traced_phase(package, inputs, log, seconds, probe, tracer)
            passes = untraced + traced
            metrics = tracer.metrics(len(traced))
            traced_s = sum(p.seconds for p in traced)
            metrics["trace.overhead_frac"] = reps_per_s(untraced) / reps_per_s(traced) - 1.0
            metrics["trace.self_sum_frac"] = (tracer.self_total - self_before) / traced_s
            absent = tracer.absent()
        else:
            passes = run_phase(package, inputs, log, seconds, probe)
            metrics = end_to_end(passes, setup_times)
            absent = []
    finally:
        log.uninstall()

    mismatched = sorted({
        f"{inputs.configs[i].experiment}/{inputs.configs[i].unfold_method}/{out}"
        for p in passes for i, h in enumerate(p.hashes)
        for out in HASHED_OUTPUTS if h[out] != warm.hashes[i][out]
    })
    cells = sum(len(r) for r in warm.results)
    failed_keys = {str(k) for k in gate_failures} | {str(k) for k in log.failures}
    report = {
        "attempted": cells,
        "failed": len(failed_keys),
        "error_rate": len(failed_keys) / cells if cells else 1.0,
        "calibration_roundtrip_ok": inputs.calibration_roundtrip_ok,
        "gate_failures": {str(k): v for k, v in gate_failures.items()},
        "raised": {str(k): v for k, v in log.failures.items()},
        "output_sha256": {
            f"{c.experiment}/{c.unfold_method}": h for c, h in zip(inputs.configs, warm.hashes)
        },
        "output_mismatch": mismatched,
        "passes": len(passes),
        "wall_clock": {
            "reps_per_s": _median([_rate(p.reps, p.seconds) for p in passes]),
            "setup_s": _median([t for t, _ in setup_times]),
            "host_slowdown": _median([p.slowdown for p in passes]),
        },
        "absent_spans": absent,
        "workload": {
            "name": name,
            "shots": SHOTS,
            "repetitions": reps,
            "strategies": list(STRATEGIES),
            "runs": [dict(r) for r in workload.runs],
            "tensor_model": workload.tensor_model,
            "probe": {"kernel": workload.kernel, "units": workload.probe_units},
            "setups": len(setup_times),
            "min_passes": MIN_PASSES,
        },
    }
    report["correct"] = (
        report["failed"] == 0 and not mismatched and inputs.calibration_roundtrip_ok
    )
    return metrics, report
