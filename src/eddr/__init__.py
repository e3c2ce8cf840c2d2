"""Bias-corrected Euclidean distance discriminant rule for high-dimensional data.

The package provides the two-group rule itself, consistent estimators of
the spectral (tr Sigma^i / p) and signal-strength (delta' Sigma^i delta)
functionals that govern its error, the limiting normal law of the
conditional misclassification error, two cut-off calibration policies
(expected-error and confidence-bound), an exact Wishart-moment oracle
used for verification, and a reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .calibration import (
    CutoffRequest,
    CutoffResult,
    CutoffVariant,
    calibrate,
    gamma_logit,
    gamma_normal,
    m1_cutoff,
    m2_cutoff,
)
from .core import (
    PI1,
    PI2,
    Dims,
    TwoSampleSummary,
    cholesky,
    classify,
    discriminant_score,
    pooled_summary,
    std_normal_cdf,
    std_normal_quantile,
)
from .error_model import (
    AsymptoticLaw,
    LimitParams,
    asymptotic_law,
    estimator_covariance,
    expected_error,
    h_u,
    h_uv,
    h_v,
    limit_values,
    statistic_covariance,
)
from .estimators import (
    Estimates,
    estimate_all,
    estimate_low,
)
from .exceptions import (
    CalibrationInfeasibleError,
    DataFormatError,
    DimensionError,
    EddrError,
    NotPositiveDefiniteError,
    ScoreOverflowError,
    SimulationError,
)
from .simulate import (
    SimConfig,
    SimResult,
    TrialRecord,
    attained_confidence_level,
    attained_error_rate,
    band_sigma,
    make_population,
    run_simulation,
    run_trial,
)
from .wishart import (
    MomentQuery,
    all_moments,
    quad_moment_mean,
    quad_moment_product,
    sample_wishart,
    var_a1,
    var_a2,
    var_delta1,
)
