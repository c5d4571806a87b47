"""Isotropic Brownian flow toolkit.

Builds flow models from finite spectral measures, verifies the
covariance and squeeze-functional identities by independent quadrature,
and runs seeded Monte-Carlo experiments on ball squeezing, drift
tracking, Lyapunov exponents, and curve-length decay.
"""

from ._version import __version__
from .spectral import (SpectralMeasure, MeasureError, KernelEvaluationError,
                       total_mass, moment, integrate, normalize_potential,
                       normalize_solenoidal)
from .covariance import (IbfModel, FlowConstants, ModelError, make_model,
                         b_scalar, covariance_scalars, covariance_tensor,
                         tensor_field, flow_constants, psd_probe)
from .bessel import bessel_j, bessel_j_ratio
from .rkhs import (SphereRule, ConditionReport, bessel_zeros, check_condition,
                   sphere_rule, mean_inward_field, squeeze_functional)
from .field_sampler import (DriftField, CovarianceFactorError,
                            DriftEvaluationError, eval_drift, drift_linear,
                            drift_radial_rkhs, drift_custom_table,
                            kernel_rows, pivoted_cholesky_batch)
from .flow_engine import (PointCloud, ExperimentResult,
                          LyapunovResult, TrackingResult, PairCollapseError,
                          euler_flow, ode_flow, containment, diameter,
                          curve_length, squeeze_experiment, lyapunov_estimate,
                          tilted_tracking_error, length_decay_experiment,
                          boundary_shell, wilson_interval)

__all__ = [name for name in dir() if not name.startswith("_")]
