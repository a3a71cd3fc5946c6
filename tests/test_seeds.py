"""The package's one seed hash against numpy's own ``SeedSequence``.

Every random number the package draws starts from ``core._state_words``:
the streams of ``run_plan``, ``estimate_response`` and the Monte Carlo
oracle, and the integer seeds of ``run`` cells and ``appendix-a`` splits.
numpy's ``SeedSequence`` appears here only, as the reference.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readout_rebalance import core
from readout_rebalance.core import ValidationError, rng_stream
from readout_rebalance.harness import EXIT_OK, ExperimentConfig, main, run_experiment

MULTI_WORD_SEED = str(2 ** 96 + 5)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2 ** 128 - 1),
    depth=st.integers(0, 3),
    key=st.lists(st.integers(0, 2 ** 64), max_size=2).map(tuple),
    data=st.data(),
)
def test_state_words_match_numpys_seed_sequence(seed, depth, key, data):
    # any seed, a path of one-word entries and a spawn key: each row of the
    # package's state words is numpy's own generate_state(4, uint64)
    word = st.integers(0, 2 ** 32 - 1)
    paths = data.draw(st.lists(st.lists(word, min_size=depth, max_size=depth),
                               min_size=1, max_size=4))
    words = core._seed_states(seed, paths, key)
    assert words.dtype == np.uint64 and words.shape == (len(paths), 4)
    for path, row in zip(paths, words):
        expected = np.random.SeedSequence([seed, *path], spawn_key=key)
        assert row.tolist() == expected.generate_state(4, np.uint64).tolist()


def unreachable(*args):
    raise AssertionError("a bit generator was built")


@pytest.mark.parametrize("seed, path, key", [
    (-1, (), ()),
    (-1, (3,), ()),
    (0, (-1,), ()),
    (0, (2 ** 32,), ()),
    (0, (1, 2 ** 70), ()),
    (0, (1.5,), ()),
    (0, (), (-1,)),
])
def test_streams_it_cannot_derive_are_refused_first(monkeypatch, seed, path, key):
    # a negative seed, path entry or key entry would wrap in a uint32 cast, and
    # a path entry of 2**32 or more would need a second entropy word
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    with pytest.raises(ValidationError):
        rng_stream(seed, *path, spawn_key=key)
    with pytest.raises(ValidationError):
        core._seed_states(seed, [path], key)


def test_no_paths_hash_to_no_state_words():
    assert core._seed_states(5, np.zeros((0, 2), dtype=np.int64)).shape == (0, 4)
    assert core.rng_streams(5, []) == []


def test_cell_seeds_refuse_a_negative_seed(monkeypatch):
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(rng_seed=-1, shots=100, repetitions=2))


def reference_state_words(entropy):
    """``_state_words`` computed by numpy's ``SeedSequence``, one column at a time."""
    return np.array([
        np.random.SeedSequence([int(w) for w in column]).generate_state(4, np.uint64)
        for column in entropy.T
    ]).reshape(-1, 4)


COMMANDS = {
    "run_ibu": [
        "run", "--shots", "2000", "--repetitions", "20", "--ibu-iterations", "30",
        "--rng-seed", MULTI_WORD_SEED, "--output-dir", "out",
    ],
    "run_sweep": [
        "run", "--experiment", "gaussian_sweep", "--mus=-0.11,0.5",
        "--unfold-method", "matrix_inversion", "--shots", "2000", "--repetitions", "20",
        "--rng-seed", MULTI_WORD_SEED, "--output-dir", "out",
    ],
    "calibrate": [
        "calibrate", "--shots-per-state", "500", "--rng-seed", MULTI_WORD_SEED,
        "--output-dir", "out",
    ],
    "appendix_a": [
        "appendix-a", "--total", "1000", "--trials", "500", "--rng-seed", MULTI_WORD_SEED,
        "--output-dir", "out",
    ],
}


def output_hashes(directory):
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_are_numpys_seed_sequence_byte_for_byte(tmp_path, monkeypatch, command):
    # every output file is the same when each column of the package's hash is
    # computed by numpy's SeedSequence instead
    def run_in(name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(COMMANDS[command]) == EXIT_OK
        return output_hashes(tmp_path / name)

    plain = run_in("plain")
    calls = []

    def counted(entropy):
        calls.append(entropy.shape[1])
        return reference_state_words(entropy)

    monkeypatch.setattr(core, "_state_words", counted)
    reference = run_in("reference")
    assert calls
    assert plain and plain == reference


def ensemble_lines(directory, strategies):
    assert main([
        "run", "--experiment", "gaussian_sweep", "--mus=-0.11,0.5",
        "--unfold-method", "matrix_inversion", "--shots", "2000", "--repetitions", "20",
        "--strategies", strategies, "--rng-seed", "5", "--output-dir", str(directory),
    ]) == EXIT_OK
    lines = (directory / "ensemble.csv").read_text().splitlines()[1:]
    # experiment, strategy, mu lead each line
    return {tuple(line.split(",")[:3]): line for line in lines}


@pytest.mark.parametrize("strategies", [
    "rebalanced", "symmetrized,nominal", "symmetrized,rebalanced,nominal",
])
def test_a_cells_numbers_do_not_depend_on_the_strategy_list(tmp_path, strategies):
    full = ensemble_lines(tmp_path / "full", "nominal,rebalanced,symmetrized")
    part = ensemble_lines(tmp_path / "part", strategies)
    assert len(part) == 2 * len(strategies.split(","))
    assert all(full[cell] == line for cell, line in part.items())
