"""The layout of ``run``'s output files.

Each CSV has a fixed header and one line per cell: the benchmark rows in
order, and within a row the strategies in ``STRATEGIES`` order when the run
takes the default strategy list.  The files
are checked against each other: a summary line against the ensemble line of
the same cell, and each fraction against the stds written next to it.
"""

import math
import re

import pytest

from readout_rebalance.harness import EXIT_OK, EXPERIMENTS, main
from readout_rebalance.rebalance import STRATEGIES

HEADERS = {
    "ensemble.csv": "experiment,strategy,mu,mean,std,std_err,shots,repetitions,flip_mask_mode",
    "summary.csv": "experiment,mu,strategy,std,std_nominal,shots_equivalent_fraction",
    "sweep_curves.csv": "mu,strategy,mean,std,std_err",
}
SHOTS, REPETITIONS = 500, 12
SWEEP_MUS = ["-0.5", "0.0", "0.78"]
# (label, mu column) of each benchmark row, in row order
ROWS = {
    "inverted_w": [("inverted_w", "")],
    "grover": [("grover", "")],
    "gaussian_sweep": [("gaussian", mu) for mu in SWEEP_MUS],
}


def read_lines(path):
    header, *lines = path.read_text().splitlines()
    return header, [dict(zip(header.split(","), line.split(","))) for line in lines]


def run(out_dir, *flags):
    argv = ["run", *flags, "--rng-seed", "3", "--output-dir", str(out_dir)]
    assert main(argv) == EXIT_OK
    return out_dir


@pytest.fixture(scope="module", params=EXPERIMENTS)
def outputs(request, tmp_path_factory):
    """``(experiment, output directory)`` of a small run with every strategy."""
    experiment = request.param
    flags = ["--experiment", experiment, "--shots", str(SHOTS), "--repetitions", str(REPETITIONS),
             "--unfold-method", "matrix_inversion"]
    if experiment == "gaussian_sweep":
        flags.append("--mus=" + ",".join(SWEEP_MUS))
    return experiment, run(tmp_path_factory.mktemp(experiment), *flags)


def test_files_and_headers(outputs):
    experiment, out = outputs
    expected = {"ensemble.csv", "summary.csv", "manifest.json"}
    if experiment == "gaussian_sweep":
        expected.add("sweep_curves.csv")
    assert {p.name for p in out.iterdir()} == expected
    for name in expected - {"manifest.json"}:
        assert read_lines(out / name)[0] == HEADERS[name]


def test_one_line_per_cell_in_row_order(outputs):
    experiment, out = outputs
    cells = [(label, mu, s) for label, mu in ROWS[experiment] for s in STRATEGIES]
    for name in ("ensemble.csv", "summary.csv"):
        lines = read_lines(out / name)[1]
        assert [(r["experiment"], r["mu"], r["strategy"]) for r in lines] == cells, name
    if experiment == "gaussian_sweep":
        lines = read_lines(out / "sweep_curves.csv")[1]
        assert [(r["mu"], r["strategy"]) for r in lines] == [(mu, s) for _, mu, s in cells]


def test_ensemble_columns(outputs):
    _, out = outputs
    for line in read_lines(out / "ensemble.csv")[1]:
        assert int(line["shots"]) == SHOTS
        assert int(line["repetitions"]) == REPETITIONS
        std = float(line["std"])
        assert float(line["std_err"]) == std / math.sqrt(2 * (REPETITIONS - 1))
        mask = line["flip_mask_mode"]
        if line["strategy"] == "nominal":
            assert mask == ""
        else:
            assert re.fullmatch("[01]+", mask), line


def test_summary_and_curves_agree_with_the_ensemble(outputs):
    experiment, out = outputs
    ensemble = read_lines(out / "ensemble.csv")[1]
    summary = read_lines(out / "summary.csv")[1]
    nominal = {
        (r["experiment"], r["mu"]): r["std"] for r in ensemble if r["strategy"] == "nominal"
    }
    for cell, line in zip(ensemble, summary):
        assert line["std"] == cell["std"]
        assert line["std_nominal"] == nominal[(cell["experiment"], cell["mu"])]
        std, std_nominal = float(line["std"]), float(line["std_nominal"])
        assert float(line["shots_equivalent_fraction"]) == (std / std_nominal) ** 2
    if experiment == "gaussian_sweep":
        for cell, line in zip(ensemble, read_lines(out / "sweep_curves.csv")[1]):
            for column in ("mean", "std", "std_err"):
                assert line[column] == cell[column]


def test_no_nominal_strategy_leaves_the_fraction_empty(tmp_path):
    out = run(
        tmp_path, "--experiment", "grover", "--strategies", "rebalanced,symmetrized",
        "--shots", str(SHOTS), "--repetitions", str(REPETITIONS),
    )
    for line in read_lines(out / "summary.csv")[1]:
        assert line["std_nominal"] == line["shots_equivalent_fraction"] == ""


def test_zero_nominal_std_writes_every_file(tmp_path):
    # noiseless readout of a point mass: every cell reads the same value
    out = run(
        tmp_path, "--experiment", "gaussian_sweep", "--mus=-1.0", "--sigma", "0.001",
        "--eps10", "0,0", "--eps01", "0,0", "--repetitions", "5", "--shots", "100",
        "--unfold-method", "matrix_inversion",
    )
    names = {"ensemble.csv", "summary.csv", "sweep_curves.csv", "manifest.json"}
    assert {p.name for p in out.iterdir()} == names
    summary = read_lines(out / "summary.csv")[1]
    assert [line["strategy"] for line in summary] == list(STRATEGIES)
    for line in summary:
        assert line["std_nominal"] == "0.0"
        assert line["shots_equivalent_fraction"] == ""


def test_zero_strategy_std_leaves_only_its_fraction_empty(tmp_path):
    # readout that only decays: rebalancing flips |11> to |00>, which reads
    # out exactly, while the nominal cell sees the decay
    out = run(
        tmp_path, "--experiment", "gaussian_sweep", "--mus", "1.0", "--sigma", "0.001",
        "--eps10", "0.05,0.05", "--eps01", "0,0", "--repetitions", "5", "--shots", "100",
        "--unfold-method", "matrix_inversion",
    )
    summary = {line["strategy"]: line for line in read_lines(out / "summary.csv")[1]}
    assert float(summary["rebalanced"]["std"]) == 0.0
    assert summary["rebalanced"]["shots_equivalent_fraction"] == ""
    assert float(summary["nominal"]["std_nominal"]) > 0
    assert float(summary["nominal"]["shots_equivalent_fraction"]) == 1.0
    assert float(summary["symmetrized"]["shots_equivalent_fraction"]) > 0
