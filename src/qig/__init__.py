"""Monotone metric tensors, gradient flows and group actions on the qubit.

The faithful qubit states form the open Bloch ball.  This package evaluates
the family of monotone metric tensors on it, the fundamental (rotation) and
gradient vector fields of expectation-value functions, the radial ODE whose
constant solutions classify the metrics admitting a group action, and the
explicit SL(2, C) / cotangent-group actions themselves, with numerical
verification of every piece.
"""

import os as _os

# QIG_THREADS caps BLAS parallelism.  BLAS reads its thread variables once,
# when numpy loads, so they are set here, before any submodule imports numpy.
if _os.environ.get("QIG_THREADS"):
    _os.environ.setdefault("OMP_NUM_THREADS", _os.environ["QIG_THREADS"])
    _os.environ.setdefault("MKL_NUM_THREADS", _os.environ["QIG_THREADS"])

from . import errors
from .flow_engine import Trajectory, compare_flow_to_orbit, integrate_flow, orbit_curve
from .group_actions import (CotangentGroupElement, SLGroupElement, action_alpha_a,
                            action_bkm, cotangent_multiply, sl_from_generators)
from .metric_family import (MetricAtPoint, MonotoneFunctionSpec, big_f, bkm,
                            bures_helstrom, check_petz_symmetry, custom,
                            derivative_limit_at_zero, f_eval, family_a, family_b,
                            g_from_f, inverse_metric, metric_cartesian,
                            metric_spherical, rld, scan_monotonicity,
                            spec_from_name, wigner_yanase)
from .ode_classifier import (Exclusion, OdeClassification, SingularityList,
                             classify, singularities, solve_branch)
from .state_space import (QubitState, SphericalPoint, TracelessObservable,
                          su2_bracket)
from .vector_fields import (TangentVector, VectorField, fundamental_field,
                            gradient_field_closed, gradient_field_from_metric,
                            lie_bracket_numeric, rescaled_gradient_field,
                            verify_commutator_relations)

__version__ = "0.1.0"
