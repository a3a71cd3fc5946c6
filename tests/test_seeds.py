"""The package's one seed hash against numpy's own ``SeedSequence``.

Every random number the package draws starts from ``core._state_words``:
the streams of ``run_plan`` and ``estimate_response``, and the integer
seeds of ``run`` cells.  ``rebalance.stream_words`` hashes the streams of
many plans at once, and each plan's words are those of its own hash.
numpy's ``SeedSequence`` appears here only, as the reference.
"""

import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readout_rebalance import core
from readout_rebalance.core import ValidationError, rng_stream
from readout_rebalance.noise import default_response, estimate_response
from readout_rebalance.harness import EXIT_OK, ExperimentConfig, main, run_experiment
from readout_rebalance.analytics import ensemble_run
from readout_rebalance.rebalance import STRATEGIES, MeasurementPlan, run_plan, stream_words
from readout_rebalance.states import inverted_w_dist

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


def of_words(words):
    """Integers of exactly ``words`` 32-bit words (0 counts as one word)."""
    return st.integers(0 if words == 1 else 2 ** (32 * words - 32), 2 ** (32 * words) - 1)


@settings(max_examples=150, deadline=None)
@given(
    # a one-word seed is padded to the pool before the key, longer ones less or not at all
    seed=st.sampled_from([1, 2, 3, 5]).flatmap(of_words),
    repetitions=st.lists(st.integers(0, 2 ** 32 - 1), max_size=3),
    entry_words=st.lists(st.integers(1, 2), max_size=2),
    n_keys=st.integers(1, 3),
    data=st.data(),
)
def test_streams_of_several_keys_are_each_keys_own_streams(seed, repetitions, entry_words,
                                                          n_keys, data):
    # one hash call builds every key's streams: each draws what rng_stream
    # draws for its key, from numpy's own state words
    keys = [tuple(data.draw(of_words(w)) for w in entry_words) for _ in range(n_keys)]
    hashed = []

    def state_words(entropy):
        hashed.append(entropy.shape)
        return real_state_words(entropy)

    real_state_words = core._state_words
    with mock.patch.object(core, "_state_words", state_words):
        states = core._seed_states(seed, np.reshape(repetitions, (-1, 1)), *keys)
    streams = core._generators(states.reshape(len(keys), len(repetitions), 4))
    assert len(hashed) == 1 and hashed[0][1] == len(keys) * len(repetitions)
    assert [len(of_key) for of_key in streams] == [len(repetitions)] * len(keys)
    for key, of_key in zip(keys, streams):
        for r, stream in zip(repetitions, of_key):
            expected = np.random.SeedSequence([seed, r], spawn_key=key)
            words = stream.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert words.tolist() == expected.generate_state(4, np.uint64).tolist()
            assert np.array_equal(stream.random(4), rng_stream(seed, r, spawn_key=key).random(4))


@pytest.mark.parametrize("n_words", [4, 5, 6, 9])
def test_hash_constants_are_numpys_running_constants(n_words):
    # the tabulated constants, read in numpy's order (a source pool word's
    # own slot is skipped), are the chain init * mult**i step by step
    def chain(init, mult, steps):
        values = [init]
        for _ in range(steps):
            values.append(values[-1] * mult % 2 ** 32)
        return values

    pre, post = core._hash_constants(n_words)
    assert pre.dtype == post.dtype == np.uint32 and pre.shape == (n_words + 3, 4, 1)
    assert not pre.flags.writeable and not post.flags.writeable
    used = [(row, d) for row in range(n_words + 1) for d in range(4) if row - 1 != d]
    a = chain(core._INIT_A, core._MULT_A, 4 * n_words)
    assert [int(pre[row, d, 0]) for row, d in used] == a[:-1]
    assert [int(post[row, d, 0]) for row, d in used] == a[1:]
    b = chain(core._INIT_B, core._MULT_B, 8)
    assert pre[-2:].ravel().tolist() == b[:-1] and post[-2:].ravel().tolist() == b[1:]


def count_hash_calls(monkeypatch):
    calls = []
    real = core._state_words

    def counted(entropy):
        calls.append(entropy.shape[1])
        return real(entropy)

    monkeypatch.setattr(core, "_state_words", counted)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_plan_call_hashes_once(monkeypatch, committed_response, strategy):
    # nominal streams use key (), rebalanced and symmetrized keys (0,) and (1,)
    calls = count_hash_calls(monkeypatch)
    plan = MeasurementPlan(total_shots=1000, strategy=strategy, rng_seed=11)
    run_plan(inverted_w_dist(5), committed_response, plan, range(7))
    assert calls == [7 if strategy == "nominal" else 14]


def test_a_run_hashes_once_for_the_cell_seeds_and_once_per_key_set(monkeypatch):
    calls = count_hash_calls(monkeypatch)
    config = ExperimentConfig(experiment="gaussian_sweep", mus=[-0.5, 0.0, 0.5], shots=500,
                              repetitions=4, unfold_method="matrix_inversion")
    results, _ = run_experiment(config)
    assert len(results) == 3 * len(STRATEGIES)
    # the 9 cell seeds, then the streams of the 3 nominal cells (key ()) and of
    # the 6 others (keys (0,) and (1,)); every cell seed here has two words
    assert calls == [9, 3 * 4, 6 * 2 * 4]


def plan_words(plan, repetitions):
    """The state words of one plan's streams, from its own ``_seed_states`` call."""
    keys = [()] if plan.strategy == "nominal" else [(0,), (1,)]
    paths = np.asarray(repetitions).reshape(-1, 1)
    return core._seed_states(plan.rng_seed, paths, *keys).reshape(len(keys), len(paths), 4)


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.tuples(st.sampled_from(STRATEGIES), st.integers(1, 3).flatmap(of_words)),
                   max_size=8),
    first=st.integers(0, 2 ** 32 - 50),
    reps=st.integers(0, 40),
)
def test_stream_words_are_each_plans_own_words(cells, first, reps):
    # mixed strategies, seeds of 1 to 3 words, indices from anywhere in range
    plans = [MeasurementPlan(total_shots=100, strategy=strategy, rng_seed=seed)
             for strategy, seed in cells]
    repetitions = range(first, first + reps)
    words = stream_words(plans, repetitions)
    assert len(words) == len(plans)
    for plan, block in zip(plans, words):
        assert block.dtype == np.uint64
        assert np.array_equal(block, plan_words(plan, repetitions))


@pytest.mark.parametrize("strategies, reps, expected_calls", [
    # 30 cells of 80 streams: 25 fit under the 2**11 columns of one call
    (["symmetrized", "rebalanced"] * 15, 40, [25 * 80, 5 * 80]),
    # a cell of more streams than that is hashed alone
    (["nominal"] * 3, 2100, [2100] * 3),
])
def test_stream_words_batch_at_most_2_11_columns_per_hash_call(
        monkeypatch, strategies, reps, expected_calls):
    plans = [MeasurementPlan(total_shots=100, strategy=strategy, rng_seed=2 ** 40 + i)
             for i, strategy in enumerate(strategies)]
    calls = count_hash_calls(monkeypatch)
    words = stream_words(plans, range(7, 7 + reps))
    assert calls == expected_calls
    monkeypatch.undo()
    for plan, block in zip(plans, words):
        assert np.array_equal(block, plan_words(plan, range(7, 7 + reps)))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ensemble_run_with_handed_words_equals_its_own(committed_response, strategy):
    plan = MeasurementPlan(total_shots=1000, strategy=strategy, rng_seed=2 ** 33 + 1)
    truth, observable = inverted_w_dist(5), np.arange(32.0)
    [words] = stream_words([plan], range(6))
    alone = ensemble_run(truth, committed_response, plan, observable, 6)
    assert ensemble_run(truth, committed_response, plan, observable, 6, words=words) == alone


@pytest.mark.parametrize("strategy, words", [
    ("nominal", np.zeros((2, 5, 4), dtype=np.uint64)),
    ("symmetrized", np.zeros((1, 5, 4), dtype=np.uint64)),
    ("rebalanced", np.zeros((2, 4, 4), dtype=np.uint64)),
    ("nominal", np.zeros((1, 5, 2), dtype=np.uint64)),
    ("nominal", np.zeros((1, 5, 4), dtype=np.int64)),
    ("nominal", np.zeros((5, 4), dtype=np.uint64)),
    ("nominal", [[[0] * 4] * 5]),
])
def test_wrong_words_are_refused_first(monkeypatch, committed_response, strategy, words):
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    monkeypatch.setattr(core, "_state_words", unreachable)
    plan = MeasurementPlan(total_shots=1000, strategy=strategy)
    with pytest.raises(ValidationError, match="stream words"):
        run_plan(inverted_w_dist(5), committed_response, plan, range(5), words)
    with pytest.raises(ValidationError, match="stream words"):
        ensemble_run(inverted_w_dist(5), committed_response, plan, np.arange(32.0), 5,
                     words=words)


@pytest.mark.parametrize("repetitions", [[[1, 2]], [[1], [2]], np.zeros((3, 1), dtype=int)])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_repetitions_that_are_not_flat_are_refused_first(monkeypatch, committed_response,
                                                         strategy, repetitions):
    # run_plan counts one run per entry of its repetitions, and the words of
    # flattened ones would not fit that count
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    monkeypatch.setattr(core, "_state_words", unreachable)
    plan = MeasurementPlan(total_shots=1000, strategy=strategy)
    with pytest.raises(ValidationError, match="repetitions"):
        stream_words([plan], repetitions)
    with pytest.raises(ValidationError, match="repetitions"):
        run_plan(inverted_w_dist(5), committed_response, plan, repetitions)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_number_in_place_of_the_indices_is_refused_first(monkeypatch, committed_response,
                                                           strategy):
    # run_plan(t, R, plan, 4): an int has no len(), and it is refused as
    # stream_words refuses it, whether or not the words are handed in
    plan = MeasurementPlan(total_shots=1000, strategy=strategy)
    [words] = stream_words([plan], range(4))
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    monkeypatch.setattr(core, "_state_words", unreachable)
    for handed in (None, words):
        with pytest.raises(ValidationError, match=r"repetitions must be a 1-D .* shape \(\)"):
            run_plan(inverted_w_dist(5), committed_response, plan, 4, handed)


@pytest.mark.parametrize("seed, path, key", [
    (-1, (), ()),
    (-1, (3,), ()),
    (0, (-1,), ()),
    (0, (2 ** 32,), ()),
    (0, (1, 2 ** 70), ()),
    (0, (1.5,), ()),
    (0, (), (-1,)),
    (1.5, (), ()),
    (True, (), ()),
    (0, (), (1.5,)),
])
def test_streams_it_cannot_derive_are_refused_first(monkeypatch, seed, path, key):
    # a negative seed, path entry or key entry would wrap in a uint32 cast, and
    # a path entry of 2**32 or more would need a second entropy word
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    with pytest.raises(ValidationError):
        rng_stream(seed, *path, spawn_key=key)
    with pytest.raises(ValidationError):
        core._seed_states(seed, [path], key)


@pytest.mark.parametrize("seed", [2.5, True, -1])
def test_calibration_draws_refuse_a_seed_first(monkeypatch, seed):
    # int() would draw seed 2.5 as seed 2
    monkeypatch.setattr(np.random, "PCG64", unreachable)
    with pytest.raises(ValidationError, match="rng seed must"):
        estimate_response(default_response(), 100, seed)


def test_no_paths_hash_to_no_state_words():
    assert core._seed_states(5, np.zeros((0, 2), dtype=np.int64)).shape == (0, 4)
    [words] = stream_words([MeasurementPlan(100, rng_seed=5)], [])
    assert words.shape == (1, 0, 4) and core._generators(words) == [[]]


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
