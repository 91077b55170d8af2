"""Lead-lag factor model of correlation-matrix eigenvalues across time scales.

The package simulates return panels in which assets respond to common factor
shocks with exponentially decaying lead-lag weights, derives the resulting
covariance/correlation matrices and their spectra in closed form, solves the
general one- and multi-factor eigenvalue problems numerically, and fits the
two-parameter eigenvalue-versus-scale formula to empirical or simulated
curves.
"""

from .errors import ConvergenceError, DataError, ValidationError
from .fitting import EigenCurve, FitResult, fit_eigencurve, relaxation_time
from .model import ModelSpec, ReturnPanel, simulate_panel, stationary_burn_in
from .moments import (ScaleMatrix, aggregate_returns, attenuation,
                      factor_variance_sum, sample_correlation,
                      sample_covariance, theoretical_correlation,
                      theoretical_covariance)
from .panel_io import load_curves, load_fits, load_panel, save_curves, save_fits
from .pipeline import (DYADIC_TAUS, eigencurves_from_model,
                       eigencurves_from_panel, fit_curves, reproduce_report)
from .spectral import (LoadingMatrix, Spectrum,
                       correlation_loading, dense_eigenvalues,
                       factor_eigencurve, factor_eigenvalues,
                       gram_eigenvalues, loading_matrix, loading_vector,
                       secular_eigenvalues, secular_function)
from .svgplot import render_eigencurve

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DataError", "ValidationError",
    "ModelSpec", "ReturnPanel", "simulate_panel", "stationary_burn_in",
    "ScaleMatrix", "factor_variance_sum", "attenuation",
    "theoretical_covariance", "theoretical_correlation", "aggregate_returns",
    "sample_covariance", "sample_correlation",
    "LoadingMatrix", "Spectrum",
    "correlation_loading", "loading_vector", "loading_matrix",
    "secular_function", "secular_eigenvalues", "factor_eigenvalues",
    "gram_eigenvalues", "factor_eigencurve", "dense_eigenvalues",
    "EigenCurve", "FitResult", "fit_eigencurve", "relaxation_time",
    "load_panel", "save_curves", "load_curves", "save_fits", "load_fits",
    "DYADIC_TAUS", "eigencurves_from_model", "eigencurves_from_panel", "fit_curves",
    "reproduce_report",
    "render_eigencurve",
    "__version__",
]
