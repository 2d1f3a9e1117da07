"""ratioreg: density-ratio estimation by spectral regularization in an RKHS.

Estimates the ratio beta = dq/dp of two probability densities from two
i.i.d. samples, one from each, by regularizing the empirical covariance
operator of a reproducing kernel.  Ships the iterated shifted-inversion
scheme (with its classical single-step special case), a general
spectral-filter fitting path, the quasi-optimality rule for choosing the
regularization strength, capacity diagnostics (pointwise regularized
leverage, effective dimension, the balance point), and a replication
study on a pair of Gaussians with known ground truth.
"""

from .capacity import (CapacityProfile, capacity_profile, christoffel,
                       default_probe_grid, effective_dimension,
                       find_lambda_star, n_inf_estimate)
from .errors import InputError, NumericalError
from .estimator import (IteratedLadder, RatioModel, evaluate, evaluate_batch,
                        fit_iterated_lavrentiev, fit_iterated_lavrentiev_ladder,
                        fit_spectral, load_model, save_model)
from .experiment import (CellResult, ExperimentReport, RateRecord, SimConfig,
                         fit_log_slope, msd, run_rate_study, run_study,
                         sample_normal, true_beta)
from .kernel import (GramSystem, KernelSpec, SampleSet, assemble_gram, kernel_matrix,
                     load_samples_csv, save_samples_csv)
from .regularization import (RegScheme, SchemeCheckReport, check_scheme_constants,
                             filter_value, iterated_lavrentiev, lavrentiev,
                             residual_value, spectral_cutoff)
from .selection import (LambdaGrid, SelectionTrace, lambda_mn, quasi_optimality,
                        rms_norm)

__version__ = "0.1.0"

__all__ = [
    "CapacityProfile", "CellResult", "ExperimentReport", "GramSystem",
    "InputError", "IteratedLadder", "KernelSpec", "LambdaGrid", "NumericalError",
    "RateRecord", "RatioModel", "RegScheme", "SampleSet", "SchemeCheckReport",
    "SelectionTrace", "SimConfig", "assemble_gram", "capacity_profile",
    "check_scheme_constants", "christoffel", "default_probe_grid",
    "effective_dimension", "evaluate", "evaluate_batch",
    "find_lambda_star", "fit_iterated_lavrentiev", "fit_iterated_lavrentiev_ladder",
    "fit_log_slope", "fit_spectral",
    "iterated_lavrentiev", "kernel_matrix", "lambda_mn", "lavrentiev", "load_model",
    "load_samples_csv", "msd", "n_inf_estimate",
    "quasi_optimality", "residual_value", "rms_norm",
    "run_rate_study", "run_study", "sample_normal", "save_model", "save_samples_csv",
    "spectral_cutoff", "true_beta", "filter_value",
]
