"""Readout rebalancing for simulated multi-qubit measurements.

Asymmetric readout noise makes excited states costly to measure: counts
leak out of them and readout-error correction hands the counts back with
extra variance.  This package models that noise with column-stochastic
response matrices, corrects it by matrix inversion or iterative Bayesian
unfolding, and implements the rebalancing trick of flipping mostly-excited
qubits before measurement (undoing the flips classically afterwards) so the
corrected statistics come out tighter.  An ensemble harness quantifies the
gain against nominal and symmetrized readout.
"""

from .core import (
    CalibrationFileError,
    DimensionError,
    NumericalError,
    ProbDist,
    QubitNoiseParams,
    ValidationError,
    counts_in_state,
    observable_base10,
    qubit_marginals,
    rng_stream,
    xor_permute,
)
from .noise import (
    ResponseMatrix,
    build_tensor_response,
    default_qubit_params,
    default_response,
    diag_by_zero_count,
    estimate_response,
    load_response,
    sample_measured,
    save_response,
)
from .states import gaussian_dist, gaussian_grid, grover_dist, inverted_w_dist
from .unfold import (
    UnfoldConfig,
    apply_unfold,
    condition_report,
    ibu_unfold,
    matrix_inverse_unfold,
)
from .rebalance import (
    MeasurementPlan,
    choose_flip_mask,
    run_plan,
)
from .analytics import (
    EnsembleResult,
    TwoQubitModel,
    appendix_a_exact_variances,
    appendix_a_expectations,
    appendix_a_variances,
    ensemble_run,
    shots_equivalent_fraction,
    std_err_of_std,
)

__version__ = "0.1.0"
