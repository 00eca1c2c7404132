"""One table per kind of input check: every count and every positive
parameter of the library is checked by the same rule, and its error names
the parameter and the value."""

import math

import pytest

from qig.errors import DomainError
from qig.flow_engine import integrate_flow, orbit_curve
from qig.group_actions import (action_alpha_a, alpha_subgroup, bkm_subgroup,
                               generator_of_action, sl_identity,
                               transitivity_probe, verify_alpha_action,
                               verify_bkm_action)
from qig.metric_family import bures_helstrom, family_a, family_b, scan_monotonicity
from qig.ode_classifier import singularities
from qig.state_space import TracelessObservable, state_from_bloch
from qig.vector_fields import fundamental_field, rescaled_gradient_field

A_OBS = TracelessObservable(0.4, -0.3, 0.6)
ZERO = TracelessObservable(0.0, 0.0, 0.0)
START = state_from_bloch(0.25, -0.15, 0.35)

# (site, name in the message, smallest valid value, call with the count)
_COUNTS = [
    ("integrate_flow.steps", "steps", 1,
     lambda n: integrate_flow(fundamental_field(A_OBS), START, 1.0, n)),
    ("orbit_curve.samples", "samples", 1,
     lambda n: orbit_curve(alpha_subgroup(1.0, ZERO, A_OBS), START, 1.0, n)),
    ("verify_alpha_action.samples", "samples", 1,
     lambda n: verify_alpha_action(2.0, samples=n)),
    ("verify_alpha_action.seed", "seed", 0,
     lambda n: verify_alpha_action(2.0, samples=3, seed=n)),
    ("verify_bkm_action.samples", "samples", 1, lambda n: verify_bkm_action(samples=n)),
    ("verify_bkm_action.seed", "seed", 0,
     lambda n: verify_bkm_action(samples=3, seed=n)),
    ("transitivity_probe.samples", "samples", 1, lambda n: transitivity_probe(samples=n)),
    ("transitivity_probe.seed", "seed", 0,
     lambda n: transitivity_probe(samples=3, seed=n)),
    ("scan_monotonicity.samples", "samples", 1,
     lambda n: scan_monotonicity([bures_helstrom()], samples=n)),
    ("scan_monotonicity.seed", "seed", 0,
     lambda n: scan_monotonicity([bures_helstrom()], samples=3, seed=n)),
    ("scan_monotonicity.sizes", "matrix size", 1,
     lambda n: scan_monotonicity([bures_helstrom()], sizes=(2, n), samples=3)),
    ("singularities.max_count", "max_count", 1,
     lambda n: singularities(1.0, 0.0, max_count=n)),
]
_BAD_COUNTS = [0, -1, 1.5, True, math.nan, "3", 2.0, None]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,minimum,call,value", [
    pytest.param(name, minimum, call, value, id=f"{site}={value!r}")
    for site, name, minimum, call in _COUNTS for value in _BAD_COUNTS
    if not (type(value) is int and value >= minimum)])  # 0 is a valid seed
def test_count_rejected(name, minimum, call, value):
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == f"{name} = {value!r} is not an integer >= {minimum}"


# (site, owner and name in the message, call with the parameter)
_POSITIVES = [
    ("family_a.A", "family_a: A", family_a),
    ("family_b.B", "family_b: B", lambda b: family_b(b, 0.0)),
    ("action_alpha_a.A", "alpha_A: A",
     lambda a: action_alpha_a(a, sl_identity(), START)),
    ("alpha_subgroup.A", "alpha_A: A", lambda a: alpha_subgroup(a, A_OBS, ZERO)),
    ("rescaled_gradient_field.A", "family_a: A",
     lambda a: rescaled_gradient_field(A_OBS, a)),
    ("generator_of_action.t_step", "generator_of_action: t_step",
     lambda h: generator_of_action(bkm_subgroup(A_OBS, ZERO), START, h)),
    ("singularities.B", "family_b: B", lambda b: singularities(b, 0.0)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("named,call,value", [
    pytest.param(named, call, value, id=f"{site}={value!r}")
    for site, named, call in _POSITIVES
    for value in (0, -1.0, -1e-4, math.nan, math.inf, -math.inf)])
def test_positive_parameter_rejected(named, call, value):
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == f"{named} = {value!r} is not finite and > 0"
