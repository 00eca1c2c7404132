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
from qig.metric_family import (big_f, bkm, bures_helstrom, check_petz_symmetry,
                               derivative_limit_at_zero, f_eval, family_a,
                               family_b, g_derivative, g_from_f,
                               metric_cartesian, scan_monotonicity,
                               spec_from_name)
from qig.ode_classifier import classify, singularities
from qig.state_space import (SphericalPoint, TracelessObservable,
                             state_from_bloch)
from qig.vector_fields import (fundamental_field, lie_bracket_numeric,
                               rescaled_gradient_field)

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
    ("lie_bracket_numeric.h", "lie_bracket_numeric: h",
     lambda h: lie_bracket_numeric(fundamental_field(A_OBS),
                                   fundamental_field(ZERO), [0.1, 0.2, 0.3], h=h)),
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


# (site, call, its whole message): a value of the wrong type, or a sequence
# with nothing in it, is named as it was passed.
_WRONG_TYPES = [
    ("scan_monotonicity.specs=bkm()", lambda: scan_monotonicity(bkm(), samples=3),
     "specs = MonotoneFunctionSpec(kind='bkm', name='bkm') is not a sequence "
     "of specs"),
    ("scan_monotonicity.specs=[]", lambda: scan_monotonicity([]),
     "specs = [] has no spec"),
    ("scan_monotonicity.specs=[bkm(), 'bkm']",
     lambda: scan_monotonicity([bkm(), "bkm"], samples=3),
     "spec = 'bkm' is not a MonotoneFunctionSpec"),
    ("scan_monotonicity.sizes=3", lambda: scan_monotonicity([bkm()], sizes=3),
     "sizes = 3 is not a sequence of matrix sizes"),
    ("scan_monotonicity.sizes='12'",
     lambda: scan_monotonicity([bkm()], sizes="12"),
     "sizes = '12' is not a sequence of matrix sizes"),
    ("f_eval.t='x'", lambda: f_eval(bkm(), "x"), "t = 'x' is not real"),
    ("f_eval.t=0.5j", lambda: f_eval(bkm(), 0.5j), "t = 0.5j is not real"),
    ("f_eval.t=ragged", lambda: f_eval(bkm(), [0.5, [0.5]]),
     "t = [0.5, [0.5]] is not real"),
    ("classify.grid='abc'", lambda: classify(bkm(), "abc"),
     "classification grid = 'abc' is not real"),
    ("g_from_f.r='x'", lambda: g_from_f(bkm(), "x"), "r = 'x' is not real"),
    ("g_derivative.r='x'", lambda: g_derivative(bkm(), "x"), "r = 'x' is not real"),
    ("big_f.r=None", lambda: big_f(bkm(), None), "r = None is not real"),
    ("metric_cartesian.y='x'", lambda: metric_cartesian(bkm(), 0.1, "x", 0.2),
     "coordinate = 'x' is not real"),
    ("check_petz_symmetry.grid='x'", lambda: check_petz_symmetry(bkm(), "x"),
     "symmetry grid = 'x' is not real"),
    ("derivative_limit_at_zero.A='x'", lambda: derivative_limit_at_zero("x"),
     "derivative limit requires A > 1, got 'x'"),
    ("state_from_bloch.x='x'", lambda: state_from_bloch("x", 0.0, 0.0),
     "Bloch point = ('x', 0.0, 0.0) is not real"),
    ("family_b.c='x'", lambda: family_b(1.0, "x"), "family_b: c = 'x' is not finite"),
    ("family_b.c=nan", lambda: family_b(1.0, math.nan),
     "family_b: c = nan is not finite"),
    ("integrate_flow.t_end='x'",
     lambda: integrate_flow(fundamental_field(A_OBS), START, "x", 10),
     "t_end = 'x' is not finite"),
    ("orbit_curve.t_end=inf",
     lambda: orbit_curve(alpha_subgroup(1.0, ZERO, A_OBS), START, math.inf, 3),
     "t_end = inf is not finite"),
    ("lie_bracket_numeric.h='x'",
     lambda: lie_bracket_numeric(fundamental_field(A_OBS), fundamental_field(ZERO),
                                 [0.1, 0.2, 0.3], h="x"),
     "lie_bracket_numeric: h = 'x' is not finite and > 0"),
    ("lie_bracket_numeric.p='x'",
     lambda: lie_bracket_numeric(fundamental_field(A_OBS), fundamental_field(ZERO),
                                 "x"),
     "points = 'x' is not real"),
    ("TracelessObservable.a1='x'", lambda: TracelessObservable("x", 0, 0),
     "a1 = 'x' is not a real number"),
    ("SphericalPoint.r='x'", lambda: SphericalPoint("x", 1.0, 1.0),
     "r = 'x' is not a real number"),
    ("spec_from_name.name=3", lambda: spec_from_name(3), "unknown spec name 3"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,message", [
    pytest.param(call, message, id=site) for site, call, message in _WRONG_TYPES])
def test_wrong_type_rejected(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
