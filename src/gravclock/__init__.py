"""Spontaneous emission of spatially superposed clock states in uniform
gravity: closed-form rates and line shapes, plus a mode-comb oracle that
checks the exponential decay law from the raw amplitude equations."""

from .analytic import (KhandelwalParams, decay_rates, gammaq_closed_grid,
                       khandelwal_tcoh_full, khandelwal_tcoh_reduced,
                       quantum_correction, spectrum, survival_probability,
                       total_rate)
from .experiments import (LineCase, SweepSpec, figure1_default_panels,
                          figure2_default_cases, figure2_lines,
                          optimal_state_scan, term_magnitude_report)
from .model import (C_LIGHT, EPS0, HBAR, STANDARD_GRAVITY,
                    ConfigurationError, DimensionlessScales, HeightDensity,
                    HorizonError, MixtureSpec, SuperpositionSpec,
                    gamma0_from_dipole)
from .numerics import (AccuracyError, ModeGrid, OracleRun, line_fwhm,
                       line_peak, oracle_spectrum, ww_simulate)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT", "EPS0", "HBAR", "STANDARD_GRAVITY",
    "AccuracyError", "ConfigurationError", "DimensionlessScales",
    "HeightDensity", "HorizonError", "KhandelwalParams", "LineCase",
    "MixtureSpec", "ModeGrid", "OracleRun", "SuperpositionSpec", "SweepSpec",
    "decay_rates", "figure1_default_panels", "figure2_default_cases",
    "figure2_lines", "gamma0_from_dipole", "gammaq_closed_grid",
    "khandelwal_tcoh_full", "khandelwal_tcoh_reduced", "line_fwhm",
    "line_peak", "optimal_state_scan", "oracle_spectrum",
    "quantum_correction", "spectrum", "survival_probability",
    "term_magnitude_report", "total_rate", "ww_simulate",
]
