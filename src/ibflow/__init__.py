"""Isotropic Brownian flow toolkit.

Builds flow models from finite spectral measures, verifies the
covariance and squeeze-functional identities by independent quadrature,
and runs seeded Monte-Carlo experiments on ball squeezing, drift
tracking, Lyapunov exponents, and curve-length decay.
"""

import os as _os

# One BLAS thread per process unless the caller set the count: a step's
# matrices are tiny, and a second BLAS thread burns a core without
# shortening the run. BLAS reads these when numpy is first imported,
# which has to come after this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from ._version import __version__
from .spectral import (SpectralMeasure, MeasureError, total_mass, moment,
                       normalize_potential, normalize_solenoidal)
from .covariance import (IbfModel, FlowConstants, ModelError, make_model,
                         b_scalar, covariance_scalars, flow_constants)
from .bessel import bessel_j, bessel_j_ratio
from .rkhs import (ConditionReport, bessel_zeros, check_condition,
                   inward_profile, squeeze_functional)
from .field_sampler import (CovarianceFactorError, eval_drift, drift_linear,
                            drift_radial_rkhs, drift_custom_table,
                            kernel_rows, pivoted_cholesky_batch)
from .flow_engine import (ExperimentResult, PairCollapseError, ode_flow,
                          step_count, diameter, curve_length,
                          squeeze_experiment, lyapunov_estimate,
                          tracking_experiment, length_decay_experiment,
                          boundary_shell, wilson_interval)

__all__ = [name for name in dir() if not name.startswith("_")]
