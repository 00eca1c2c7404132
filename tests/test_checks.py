"""One table per kind of input check: every count and every positive
parameter of the library is checked by the same rule, and its error names
the parameter and the value."""

import math

import numpy as np
import pytest

from qig.errors import DomainError
from qig.flow_engine import compare_flow_to_orbit, integrate_flow, orbit_curve
from qig.group_actions import (CotangentGroupElement, SLGroupElement, Subgroup,
                               action_alpha_a, action_bkm, alpha_subgroup,
                               bkm_subgroup, generator_of_action,
                               sl_from_generators, sl_identity,
                               transitivity_probe, verify_alpha_action,
                               verify_bkm_action)
from qig.metric_family import (big_f, bkm, bures_helstrom, check_petz_symmetry,
                               custom, derivative_limit_at_zero, f_eval,
                               family_a, family_b, finite_f, g_derivative,
                               g_from_f, inverse_metric, metric_cartesian,
                               metric_spherical, scan_monotonicity,
                               spec_from_name)
from qig.ode_classifier import classify, singularities
from qig.state_space import (QubitState, SphericalPoint, TracelessObservable,
                             su2_bracket)
from qig.vector_fields import (VectorField, fundamental_field,
                               gradient_field_closed,
                               gradient_field_from_metric, lie_bracket_numeric,
                               rescaled_gradient_field,
                               verify_commutator_relations)

A_OBS = TracelessObservable(0.4, -0.3, 0.6)
ZERO = TracelessObservable(0.0, 0.0, 0.0)
START = QubitState(0.25, -0.15, 0.35)

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
    ("singularities.B", "family_b: B", lambda b: singularities(b, 0.0)),
    ("lie_bracket_numeric.h", "lie_bracket_numeric: h",
     lambda h: lie_bracket_numeric(fundamental_field(A_OBS),
                                   fundamental_field(ZERO), [0.1, 0.2, 0.3], h=h)),
    ("gradient_field_closed.scale", "gradient_field_closed: scale",
     lambda s: gradient_field_closed(A_OBS, bkm(), s)),
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
    ("QubitState.x='x'", lambda: QubitState("x", 0.0, 0.0),
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
    ("CotangentGroupElement.unitary=eye(3)",
     lambda: CotangentGroupElement(np.eye(3), ZERO),
     "unitary = array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]) "
     "is not a 2x2 matrix"),
    ("CotangentGroupElement.unitary='x'", lambda: CotangentGroupElement("x", ZERO),
     "unitary = 'x' is not a 2x2 matrix"),
    ("CotangentGroupElement.a=(0, 0, 0)",
     lambda: CotangentGroupElement(np.eye(2), (0, 0, 0)),
     "a = (0, 0, 0) is not a TracelessObservable"),
    ("Subgroup.images=3", lambda: Subgroup(3), "images = 3 is not callable"),
    ("VectorField.cartesian=3", lambda: VectorField(3), "cartesian = 3 is not callable"),
    ("custom.name=3", lambda: custom(lambda t: t, 3), "name = 3 is not a string"),
    ("custom.f=3", lambda: custom(3, "c"), "f = 3 is not a Callable"),
    ("SLGroupElement.matrix=ragged", lambda: SLGroupElement([[1, 0], [0]]),
     "matrix = [[1, 0], [0]] is not a 2x2 matrix"),
    ("SLGroupElement.matrix=strings",
     lambda: SLGroupElement(np.array([["a", "b"], ["c", "d"]])),
     "matrix = array([['a', 'b'],\n       ['c', 'd']], dtype='<U1') "
     "is not a 2x2 matrix"),
    ("CotangentGroupElement.unitary=ragged",
     lambda: CotangentGroupElement([[1, 0], [0]], ZERO),
     "unitary = [[1, 0], [0]] is not a 2x2 matrix"),
    ("CotangentGroupElement.unitary=strings",
     lambda: CotangentGroupElement([["a", "b"], ["c", "d"]], ZERO),
     "unitary = [['a', 'b'], ['c', 'd']] is not a 2x2 matrix"),
    ("action_alpha_a.g=eye(2)", lambda: action_alpha_a(2.0, np.eye(2), START),
     "g = array([[1., 0.],\n       [0., 1.]]) is not a SLGroupElement"),
    ("action_alpha_a.rho=(0.1, 0, 0)",
     lambda: action_alpha_a(2.0, sl_identity(), (0.1, 0, 0)),
     "rho = (0.1, 0, 0) is not a QubitState"),
    ("action_bkm.h=eye(2)", lambda: action_bkm(np.eye(2), START),
     "h = array([[1., 0.],\n       [0., 1.]]) is not a CotangentGroupElement"),
    ("action_bkm.rho=(0.1, 0, 0)",
     lambda: action_bkm(CotangentGroupElement(np.eye(2), ZERO), (0.1, 0, 0)),
     "rho = (0.1, 0, 0) is not a QubitState"),
    ("metric_spherical.p=(0.5, 1, 1)", lambda: metric_spherical(bkm(), (0.5, 1, 1)),
     "p = (0.5, 1, 1) is not a SphericalPoint"),
    ("generator_of_action.subgroup=3", lambda: generator_of_action(3, START),
     "subgroup = 3 is not a Subgroup"),
    ("orbit_curve.subgroup=3", lambda: orbit_curve(3, START, 1.0, 10),
     "subgroup = 3 is not a Subgroup"),
    ("integrate_flow.vfield=3", lambda: integrate_flow(3, START, 1.0, 10),
     "vfield = 3 is not a VectorField"),
    ("integrate_flow.start=(0.1, 0, 0)",
     lambda: integrate_flow(fundamental_field(A_OBS), (0.1, 0, 0), 1.0, 10),
     "start = (0.1, 0, 0) is not a QubitState"),
    ("compare_flow_to_orbit.subgroup=3",
     lambda: compare_flow_to_orbit(fundamental_field(A_OBS), 3, START, 1.0, 10),
     "subgroup = 3 is not a Subgroup"),
    ("f_eval.spec='bh'", lambda: f_eval("bh", 0.5),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("big_f.spec='bh'", lambda: big_f("bh", 0.5),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("metric_cartesian.spec='bh'", lambda: metric_cartesian("bh", 0.1, 0.2, 0.3),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("metric_spherical.spec='bh'",
     lambda: metric_spherical("bh", SphericalPoint(0.5, 1.0, 1.0)),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("classify.spec='bh'", lambda: classify("bh", np.linspace(0.05, 0.95, 20)),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("verify_commutator_relations.spec='bh'",
     lambda: verify_commutator_relations("bh", [[0.1, 0.2, 0.3]]),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("gradient_field_closed.spec='bh'", lambda: gradient_field_closed(A_OBS, "bh"),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("gradient_field_closed.a=(1, 0, 0)",
     lambda: gradient_field_closed((1, 0, 0), bkm()),
     "a = (1, 0, 0) is not a TracelessObservable"),
    ("fundamental_field.b=(1, 0, 0)", lambda: fundamental_field((1, 0, 0)),
     "b = (1, 0, 0) is not a TracelessObservable"),
    ("inverse_metric.m=eye(3)", lambda: inverse_metric(np.eye(3)),
     "m = array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]) "
     "is not a MetricAtPoint"),
    ("su2_bracket.a=(1, 0, 0)", lambda: su2_bracket((1, 0, 0), (0, 1, 0)),
     "a = (1, 0, 0) is not a TracelessObservable"),
    ("su2_bracket.b=(0, 1, 0)", lambda: su2_bracket(A_OBS, (0, 1, 0)),
     "b = (0, 1, 0) is not a TracelessObservable"),
    ("lie_bracket_numeric.v_field=3",
     lambda: lie_bracket_numeric(3, 3, [0.1, 0.2, 0.3]),
     "v_field = 3 is not a VectorField"),
    ("lie_bracket_numeric.w_field=3",
     lambda: lie_bracket_numeric(fundamental_field(A_OBS), 3, [0.1, 0.2, 0.3]),
     "w_field = 3 is not a VectorField"),
    ("g_from_f.spec='bh'", lambda: g_from_f("bh", 0.5),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("g_derivative.spec='bh'", lambda: g_derivative("bh", 0.5),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("finite_f.spec='bh'", lambda: finite_f("bh", 0.5),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("check_petz_symmetry.spec='bh'", lambda: check_petz_symmetry("bh", [0.5]),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("alpha_subgroup.a=(1, 0, 0)", lambda: alpha_subgroup(1.0, (1, 0, 0), ZERO),
     "a = (1, 0, 0) is not a TracelessObservable"),
    ("alpha_subgroup.b=(0, 1, 0)", lambda: alpha_subgroup(1.0, A_OBS, (0, 1, 0)),
     "b = (0, 1, 0) is not a TracelessObservable"),
    ("bkm_subgroup.a=(1, 0, 0)", lambda: bkm_subgroup((1, 0, 0), ZERO),
     "a = (1, 0, 0) is not a TracelessObservable"),
    ("bkm_subgroup.b=(0, 1, 0)", lambda: bkm_subgroup(A_OBS, (0, 1, 0)),
     "b = (0, 1, 0) is not a TracelessObservable"),
    ("sl_from_generators.a=(1, 0, 0)", lambda: sl_from_generators((1, 0, 0), ZERO),
     "a = (1, 0, 0) is not a TracelessObservable"),
    ("sl_from_generators.b=(0, 1, 0)", lambda: sl_from_generators(A_OBS, (0, 1, 0)),
     "b = (0, 1, 0) is not a TracelessObservable"),
    ("gradient_field_from_metric.a=(1, 0, 0)",
     lambda: gradient_field_from_metric((1, 0, 0), bkm()),
     "a = (1, 0, 0) is not a TracelessObservable"),
    ("gradient_field_from_metric.spec='bh'",
     lambda: gradient_field_from_metric(A_OBS, "bh"),
     "spec = 'bh' is not a MonotoneFunctionSpec"),
    ("VectorField.at_spherical.p=(0.5, 1, 1)",
     lambda: fundamental_field(A_OBS).at_spherical((0.5, 1, 1)),
     "p = (0.5, 1, 1) is not a SphericalPoint"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,message", [
    pytest.param(call, message, id=site) for site, call, message in _WRONG_TYPES])
def test_wrong_type_rejected(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
