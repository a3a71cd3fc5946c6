"""Randomized invariant suites, >= 200 cases each.

Each suite draws fresh inputs from a fixed-seed generator, so failures
reproduce exactly.  Cases are kept small (up to 6 qubits) to stay fast.
"""

import numpy as np

from readout_rebalance.core import (
    ProbDist,
    qubit_marginals,
    xor_permute,
)
from readout_rebalance.noise import (
    QubitNoiseParams,
    ResponseMatrix,
    build_tensor_response,
    estimate_response,
)
from readout_rebalance.rebalance import MeasurementPlan, run_plan
from readout_rebalance.unfold import UnfoldConfig, ibu_unfold, matrix_inverse_unfold

CASES = 200


def random_tensor_response(rng, n):
    eps10 = rng.uniform(0.0, 0.2, size=n)
    eps01 = rng.uniform(0.0, 0.05, size=n)
    return build_tensor_response(
        [QubitNoiseParams(a, b) for a, b in zip(eps01, eps10)]
    )


def test_xor_permute_is_involution_and_preserves_counts():
    rng = np.random.default_rng(101)
    for _ in range(CASES):
        n = int(rng.integers(1, 8))
        counts = rng.integers(0, 1000, size=2 ** n).astype(float)
        mask = int(rng.integers(0, 2 ** n))
        once = xor_permute(counts, mask)
        twice = xor_permute(once, mask)
        assert np.array_equal(twice, counts)
        assert once.sum() == counts.sum()
        assert sorted(once) == sorted(counts)


def test_marginal_flip_property():
    rng = np.random.default_rng(102)
    for _ in range(CASES):
        n = int(rng.integers(1, 7))
        counts = rng.integers(1, 500, size=2 ** n).astype(float)
        mask = int(rng.integers(0, 2 ** n))
        before = qubit_marginals(counts)
        after = qubit_marginals(xor_permute(counts, mask))
        for i in range(n):
            if (mask >> i) & 1:
                assert np.isclose(after[i], 1.0 - before[i], atol=1e-12)
            else:
                assert np.isclose(after[i], before[i], atol=1e-12)


def test_estimated_matrices_stay_column_stochastic():
    rng = np.random.default_rng(103)
    for case in range(CASES):
        n = int(rng.integers(1, 5))
        R = random_tensor_response(rng, n)
        est = estimate_response(R, int(rng.integers(1, 200)), case)
        assert np.all(est.entries >= 0.0)
        assert np.all(est.entries <= 1.0)
        assert np.allclose(est.entries.sum(axis=0), 1.0, atol=1e-12)


def test_ibu_preserves_total_and_nonnegativity():
    rng = np.random.default_rng(104)
    for _ in range(CASES):
        n = int(rng.integers(1, 5))
        R = random_tensor_response(rng, n)
        counts = rng.integers(0, 300, size=2 ** n).astype(float)
        if counts.sum() == 0:
            counts[0] = 1.0
        out = ibu_unfold(counts, R, iterations=int(rng.integers(1, 40)))
        assert np.all(out >= 0.0)
        assert abs(out.sum() - counts.sum()) <= 1e-9 * counts.sum()


def test_unfold_then_xor_matches_conjugated_response():
    rng = np.random.default_rng(105)
    for _ in range(CASES):
        n = int(rng.integers(1, 5))
        dim = 2 ** n
        R = random_tensor_response(rng, n)
        mask = int(rng.integers(0, dim))
        idx = np.arange(dim) ^ mask
        conjugated = ResponseMatrix(R.entries[np.ix_(idx, idx)])
        counts = rng.integers(0, 400, size=dim).astype(float)
        counts[int(rng.integers(0, dim))] += 1  # keep the total positive
        m_phys = counts
        m_logical = xor_permute(m_phys, mask)
        scale = m_phys.sum()

        inv_a = xor_permute(matrix_inverse_unfold(m_phys, R), mask)
        inv_b = matrix_inverse_unfold(m_logical, conjugated)
        # exact up to linear-solver rounding
        assert np.allclose(inv_a, inv_b, atol=1e-9 * scale)

        ibu_a = xor_permute(ibu_unfold(m_phys, R, 25), mask)
        ibu_b = ibu_unfold(m_logical, conjugated, 25)
        assert np.allclose(ibu_a, ibu_b, atol=1e-9 * scale)


def test_seeded_runs_are_deterministic():
    rng = np.random.default_rng(106)
    strategies = ("nominal", "rebalanced", "symmetrized")
    for case in range(CASES):
        n = 3
        R = random_tensor_response(rng, n)
        probs = rng.dirichlet(np.ones(2 ** n))
        t = ProbDist(probs)
        method = "matrix_inversion" if case % 2 else "ibu"
        plan = MeasurementPlan(
            total_shots=int(rng.integers(20, 500)),
            strategy=strategies[case % 3],
            unfold=UnfoldConfig(method=method, ibu_iterations=10),
            rng_seed=int(rng.integers(0, 10 ** 6)),
        )
        first, mask_a = run_plan(t, R, plan, [0])
        second, mask_b = run_plan(t, R, plan, [0])
        assert np.array_equal(first, second)
        if mask_a is not None:
            assert np.array_equal(mask_a, mask_b)
