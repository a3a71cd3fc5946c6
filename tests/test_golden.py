"""Fixed-seed outputs of the command line, held to committed sha256 hashes.

Each command runs in-process through ``harness.main`` from a scratch working
directory, writing into a fixed relative ``--output-dir`` (``manifest.json``
records it), and every file it writes must hash to its entry in
``golden.json``.  Each script of ``demos/`` runs in a subprocess from a
scratch directory, and its standard output must hash to its entry too.  The
hashes pin every random stream, unfold and written digit, so a change that
should move no result can show that it moved none.
They depend on numpy and the BLAS it was built with, which the file records.

Regenerate the file (only when a change is meant to move results) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from readout_rebalance.harness import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# wide_8q's 8-qubit tensor model: eps01 from 0.0020 to 0.0036, eps10 from
# 0.065 to 0.080, evenly spaced
EPS_8Q = [
    "--eps01", "0.002,0.0022285714285714287,0.002457142857142857,0.0026857142857142856,"
    "0.0029142857142857143,0.0031428571428571426,0.0033714285714285712,0.0036",
    "--eps10", "0.065,0.06714285714285714,0.06928571428571428,0.07142857142857142,"
    "0.07357142857142858,0.07571428571428572,0.07785714285714286,0.08",
]
UNFOLDERS = ("matrix_inversion", "ibu")

# output directory -> the command that writes it
COMMANDS = {
    **{
        f"{experiment}_{method}": ["run", "--experiment", experiment, "--unfold-method", method]
        for experiment in ("inverted_w", "grover") for method in UNFOLDERS
    },
    **{
        f"gaussian_sweep_{method}": ["run", "--experiment", "gaussian_sweep",
                                     "--unfold-method", method, "--repetitions", "100"]
        for method in UNFOLDERS
    },
    **{
        f"wide_8q_{method}": ["run", *EPS_8Q, "--unfold-method", method, "--repetitions", "50"]
        for method in UNFOLDERS
    },
    "calibrate_5q": ["calibrate"],
    "calibrate_5q_shots": ["calibrate", "--shots-per-state", "2000"],
    "calibrate_8q": ["calibrate", *EPS_8Q],
    "calibrate_8q_shots": ["calibrate", *EPS_8Q, "--shots-per-state", "2000"],
    "appendix_a": ["appendix-a"],
}


def numpy_build():
    """numpy's version and the BLAS it was built with, on which the hashes depend."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def output_hashes(name):
    """Run one command from the working directory; sha256 of each file it wrote."""
    assert main([*COMMANDS[name], "--output-dir", name]) == EXIT_OK
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(name).iterdir())
    }


def stdout_hash(demo):
    """Run one demo script from the working directory; sha256 of its standard output."""
    proc = subprocess.run(
        [sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, check=True, timeout=120,
    )
    return {f"demos/{demo.stem}.stdout": hashlib.sha256(proc.stdout).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def check_hashes(got, prefix, golden):
    want = {key: h for key, h in golden["sha256"].items() if key.startswith(prefix)}
    mismatched = [
        f"{key}: sha256 {got.get(key)} != golden {want.get(key)}"
        for key in sorted(set(got) | set(want)) if got.get(key) != want.get(key)
    ]
    recorded = {key: golden[key] for key in numpy_build()}
    assert not mismatched, (
        "outputs differ from tests/golden.json:\n  " + "\n  ".join(mismatched)
        + f"\nhashes recorded on {recorded}, this run on {numpy_build()}"
    )


@pytest.mark.parametrize("name", COMMANDS)
def test_outputs_match_their_golden_hashes(name, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_hashes(output_hashes(name), name + "/", golden)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_its_golden_hash(demo, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_hashes(stdout_hash(demo), f"demos/{demo.stem}.", golden)


if __name__ == "__main__":
    hashes = {}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name in COMMANDS:
            hashes.update(output_hashes(name))
        for demo in DEMOS:
            hashes.update(stdout_hash(demo))
    GOLDEN.write_text(json.dumps({**numpy_build(), "sha256": hashes}, indent=2) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
