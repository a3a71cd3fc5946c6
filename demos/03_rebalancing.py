"""Head-to-head precision benchmark: nominal vs symmetrized vs rebalanced.

Runs reduced-scale ensembles (200 repetitions of 20k shots; the shipped
harness defaults are 1000 x 100k) for the three benchmark states and prints
the per-strategy spread of the observable plus the shots-equivalent
fraction: how many measurements each method needs to match the nominal
precision.
"""

import numpy as np

from readout_rebalance import (
    MeasurementPlan,
    UnfoldConfig,
    default_response,
    ensemble_run,
    gaussian_dist,
    grover_dist,
    inverted_w_dist,
    shots_equivalent_fraction,
)

R = default_response()
SHOTS = 20_000
REPS = 200
UNFOLD = UnfoldConfig(method="matrix_inversion")  # linear, exactly unbiased

# observables as per-state weights: a run's value is weights . h / h.sum()
BASE10 = np.arange(32)  # the base-10 mean of the state index
GROVER_TARGET_COUNTS = SHOTS * (BASE10 == 31)  # |11111> counts per full budget

BENCHMARKS = [
    ("inverted W", inverted_w_dist(5), BASE10),
    ("Grover (1 iter)", grover_dist(5, 31, 1), GROVER_TARGET_COUNTS),
    ("Gaussian mu=+0.78", gaussian_dist(0.78, 0.1, 5), BASE10),
    ("Gaussian mu=-0.78", gaussian_dist(-0.78, 0.1, 5), BASE10),
]

for b_idx, (name, dist, observable) in enumerate(BENCHMARKS):
    print(f"\n=== {name} ===")
    results = {}
    for s_idx, strategy in enumerate(("nominal", "symmetrized", "rebalanced")):
        plan = MeasurementPlan(
            total_shots=SHOTS, strategy=strategy, unfold=UNFOLD,
            rng_seed=900 + 10 * b_idx + s_idx,
        )
        res = ensemble_run(dist, R, plan, observable, REPS)
        results[strategy] = res
        mask = "" if res.flip_mask_mode is None else f"  mask {res.flip_mask_mode:05b}"
        print(f"  {strategy:12s} mean {res.mean:12.4f}   std {res.std:10.5f}"
              f" +- {res.std_err_of_std:.5f}{mask}")
    nominal = results["nominal"].std
    for strategy in ("symmetrized", "rebalanced"):
        frac = shots_equivalent_fraction(results[strategy].std, nominal)
        print(f"  -> {strategy} needs {frac:.0%} of the nominal shots for equal precision")

print("""
Reading the table: the three estimators agree on the mean (the correction
is unbiased) but differ in spread.  Rebalancing wins where the state parks
many qubits in |1> (inverted W, Grover's |11111>, the right-shifted
Gaussian) and buys nothing on the left-shifted Gaussian, where the nominal
circuit already lives near |00000> and the pilot budget is pure cost.
""")
