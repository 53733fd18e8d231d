"""Periodic stationary Gaussian processes via trigonometric series.

Covariogram and coefficient representations, sample-path synthesis,
regularity prediction and estimation, Brownian bridge constructions,
and maximum-likelihood fitting of the power-law coefficient family.
"""

from .core import (
    AliasingError,
    Covariogram,
    DegenerateDataError,
    GridPath,
    ParametricModel,
    PathEnsemble,
    RegularityReport,
    SpectralCoefficients,
    SpectrumError,
    TailDecay,
    h_norm,
    validate_coefficients,
)
from .dft import HarmonicDecomposition, analyze
from .synthesis import (
    RngStream,
    empirical_covariogram,
    sample_ensemble,
    sample_path,
    truncation_index,
)
from .spectral import coeffs_to_covariogram, covariogram_to_coeffs, empirical_coeffs
from .regularity import (
    estimate_holder,
    fit_decay,
    predict_regularity,
    structure_function,
)
from .bridge import (
    bridge_ensemble,
    bridge_path,
    centered_bridge_coefficients,
    decomposition_check,
    plain_bridge_path,
    proof_identity,
)
from .fit import FitResult, fit_mle, goodness_of_fit, model_coefficients

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "Covariogram",
    "DegenerateDataError",
    "FitResult",
    "GridPath",
    "HarmonicDecomposition",
    "ParametricModel",
    "PathEnsemble",
    "RegularityReport",
    "RngStream",
    "SpectralCoefficients",
    "SpectrumError",
    "TailDecay",
    "analyze",
    "bridge_ensemble",
    "bridge_path",
    "centered_bridge_coefficients",
    "coeffs_to_covariogram",
    "covariogram_to_coeffs",
    "decomposition_check",
    "empirical_coeffs",
    "empirical_covariogram",
    "estimate_holder",
    "fit_decay",
    "fit_mle",
    "goodness_of_fit",
    "h_norm",
    "model_coefficients",
    "plain_bridge_path",
    "predict_regularity",
    "proof_identity",
    "sample_ensemble",
    "sample_path",
    "structure_function",
    "truncation_index",
    "validate_coefficients",
]
