"""Readout-error correction on a noisy inverted-W measurement.

Samples the 5-qubit inverted W state through the committed noise model and
corrects the histogram two ways: matrix inversion and iterative Bayesian
unfolding.  Shows what each does to the empty bins and to the base-10
observable.
"""

import numpy as np

from readout_rebalance import (
    condition_report,
    default_response,
    ibu_unfold,
    inverted_w_dist,
    matrix_inverse_unfold,
    observable_base10,
    rng_stream,
    sample_measured,
)

R = default_response()
truth = inverted_w_dist(5)
shots = 100_000

print(f"true state: 1/5 on each of |01111>, |10111>, |11011>, |11101>, |11110>")
print(f"exact base-10 observable: {observable_base10(truth.probs):.4f}")
print(f"response matrix condition number: {condition_report(R):.3f} (mild)")

measured = sample_measured(truth, R, shots, [rng_stream(11)])[:, 0]
print(f"\nmeasured {shots} shots: observable drops to "
      f"{observable_base10(measured):.4f} because decays shift counts toward"
      " lower indices")
support = {31 ^ (1 << i) for i in range(5)}
leaked = sum(c for s, c in enumerate(measured) if s not in support)
print(f"counts leaked outside the true support: {leaked:.0f} ({leaked / shots:.1%})")

inverted = matrix_inverse_unfold(measured, R)
ibu = ibu_unfold(measured, R, iterations=100)

print("\nafter correction:")
print(f"  matrix inversion: observable {observable_base10(inverted):.4f}, "
      f"min bin {inverted.min():9.1f} (negative bins allowed)")
print(f"  IBU, 100 iters:   observable {observable_base10(ibu):.4f}, "
      f"min bin {ibu.min():9.1e} (nonnegative by construction)")
print(f"  totals preserved: {inverted.sum():.1f} / {ibu.sum():.1f}")

# noiseless sanity check: folding the exact truth and unfolding returns it
exact_measured = truth.probs * shots
folded = R.entries @ exact_measured
roundtrip = matrix_inverse_unfold(folded, R)
tv = 0.5 * np.abs(roundtrip - exact_measured).sum() / shots
print(f"\nnoiseless round trip through inversion: total variation {tv:.2e}")
ibu_roundtrip = ibu_unfold(folded, R, iterations=100)
tv_ibu = 0.5 * np.abs(ibu_roundtrip - exact_measured).sum() / shots
print(f"noiseless round trip through IBU-100:   total variation {tv_ibu:.2e}")
print("(IBU approaches exact zeros only ~1/iterations, hence the gap)")
