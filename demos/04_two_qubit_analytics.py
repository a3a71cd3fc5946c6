"""The two-qubit variance story, analytically and exactly.

For a decay-only channel the corrected counts are unbiased but carry extra
variance that is linear in the decay rates and in the counts of the states
feeding the migration.  This demo evaluates those closed-form variances,
sets them against the exact variance of the linear reconstruction, and
shows the exact value settling the ambiguous 10-state term (the two
candidate forms differ once q0 != q1).  Nothing is sampled.
"""

import numpy as np

from readout_rebalance import (
    TwoQubitModel,
    appendix_a_exact_variances,
    appendix_a_expectations,
    appendix_a_variances,
)

STATES = ("00", "01", "10", "11")


def show(model):
    q0, q1 = model.q0, model.q1
    print(f"\nq0={q0}, q1={q1}, true counts {tuple(int(x) for x in model.true_counts())}")
    expect = appendix_a_expectations(model)
    print("  expected measured counts:", np.round(expect, 1))
    exact = appendix_a_exact_variances(model)
    analytic = appendix_a_variances(model)
    printed, mirror = analytic["as_printed"], analytic["mirror_symmetric"]
    print(f"  {'state':5s} {'exact':>12s} {'as_printed':>12s} {'gap':>9s} "
          f"{'mirror':>12s} {'gap':>9s}")
    for i, s in enumerate(STATES):
        print(f"  |{s}> {exact[i]:12.1f} {printed[i]:12.1f} {printed[i] - exact[i]:9.1f} "
              f"{mirror[i]:12.1f} {mirror[i] - exact[i]:9.1f}")
    print(f"  linear-order truncation scale (q0+q1)^2 N = {(q0 + q1) ** 2 * model.total:.1f}")


N = 100_000

print("pure excited state: correction noise (q0+q1)*N on top of nothing")
show(TwoQubitModel(0.05, 0.03, 0, 0, 0, N))

print("\npure ground state: the channel never touches it, variance exactly 0")
show(TwoQubitModel(0.05, 0.03, N, 0, 0, 0))

print("\nuniform quarters with strongly asymmetric rates: the two candidate")
print("forms of the 10-state term disagree, and the exact variance picks a side")
show(TwoQubitModel(0.10, 0.0, N // 4, N // 4, N // 4, N // 4))

print("""
With q1 = 0 the as-printed 10-row term vanishes while the mirror form keeps
q0*N10; the exact variance lies near the mirror value, whose gap stays within
the truncation scale where the printed one misses by about q0*N10.  The
10-state excess variance is q0*N10 + q1*N11: its own decay channel plus the
feed from |11>.
""")
