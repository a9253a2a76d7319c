"""Numerical laboratory for the fractional propagator with concave phase.

The package evaluates e^{it(-Delta)^{m/2}} with m in (0, 1) on band-limited
data as a frequency-side oscillatory integral, and turns the asymptotic
statements about its maximal functions (pointwise-convergence thresholds,
divergence-set dimension bounds, kernel envelopes, sharpness examples) into
finite scale-ladder experiments with fitted slopes.
"""

from .counterexamples import (cantor_data, cantor_selectors, h_N_eval, h_N_invert,
                              knapp_curve, knapp_vertical_spatial,
                              knapp_vertical_temporal, matched_point_curve,
                              matching_order, taylor_coeffs)
from .exponents import (KAPPA_INF, dim_bound_curve, dim_bound_lines,
                        dim_bound_vertical, s_star_curve, s_star_lines,
                        s_star_vertical, summary_dim_bound, summary_thresholds,
                        threshold_lines, threshold_vertical)
from .experiments import RunConfig, ScalingExperiment, run_experiment
from .fitting import LogLogFit, fit_loglog
from .geometry import (AlphaMeasure, CantorSet, Curve, bilinear_form_check,
                       cantor_level, covering_number, curve_eval, frostman_bound,
                       frostman_constant, lq_mu_norm, minkowski_dimension)
from .maximal import GridSpec, maximal_in_time, maximal_over_lines
from .phase import (EnvelopeParams, check_kernel_envelope, envelope_J_curve,
                    envelope_J_vertical, phase_derivative_min,
                    sample_derivative_constants, split_vertical)
from .quadrature import (InvalidIntegrandError, QuadratureError, ResolutionLimitError,
                         ToleranceNotMetError, integrate, oracle_integrate,
                         two_phase_batch)
from .spectral import (BUMP, BUMP_SUPPORT, FourierDatum, bump_profile, kernel_K,
                       kernel_grid, propagate, propagate_grid, sobolev_norm)

__version__ = "0.1.0"
