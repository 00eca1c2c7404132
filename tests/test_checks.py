"""One table per kind of input check: every count and every positive
parameter of the library is checked by the same rule, and its error names
the parameter and the value.  The wrong-type cases of every record
parameter of a public function or method are generated."""

import importlib
import inspect
import math
import typing

import numpy as np
import pytest

from qig.errors import DomainError
from qig.flow_engine import integrate_flow, orbit_curve
from qig.group_actions import (CotangentGroupElement, SLGroupElement, Subgroup,
                               action_alpha_a, alpha_subgroup, sl_identity,
                               transitivity_probe, verify_alpha_action,
                               verify_bkm_action)
from qig.metric_family import (MetricAtPoint, MonotoneFunctionSpec, big_f, bkm,
                               bures_helstrom, check_petz_symmetry,
                               custom, derivative_limit_at_zero, f_eval,
                               family_a, family_b, g_derivative, g_from_f,
                               metric_cartesian, scan_monotonicity,
                               spec_from_name)
from qig.ode_classifier import classify, singularities
from qig.state_space import (QubitState, Record, SphericalPoint,
                             TracelessObservable)
from qig.vector_fields import (VectorField, fundamental_field,
                               gradient_field_closed, lie_bracket_numeric,
                               rescaled_gradient_field)
from test_api import _modules, _public_defs

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
# with nothing in it, is named as it was passed.  _WRONG_RECORDS below adds
# a case for each wrong value of each record parameter of a public function
# or method, generated from the signatures.
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
]


# One valid instance of each record class that a public parameter names or
# that owns a public method with a record parameter, and a valid value of
# each other parameter without a default, by its name.
_INSTANCES = {type(record): record for record in (
    A_OBS, START, SphericalPoint(0.5, 1.0, 1.0), bkm(), fundamental_field(A_OBS),
    sl_identity(), CotangentGroupElement(np.eye(2), ZERO),
    alpha_subgroup(1.0, ZERO, A_OBS),
    integrate_flow(fundamental_field(A_OBS), START, 1.0, 3))}
_VALID = {"a_const": 2.0, "t_end": 1.0, "steps": 3, "samples": 3, "t": 0.5,
          "r": 0.5, "x": 0.1, "y": 0.2, "z": 0.3, "p": [0.1, 0.2, 0.3],
          "points": [[0.1, 0.2, 0.3]], "grid": np.linspace(0.05, 0.95, 20),
          "rho": START, "unitary": np.eye(2)}
# Wrong values for every record parameter and, per record class, the raw
# data a caller may pass in its place: a spec name, a Bloch, chart or Pauli
# triple, a matrix, or a number for a record that wraps a function.
_WRONG = ("x", (0.1, 0.0, 0.0), None)
_RAW = {MonotoneFunctionSpec: ["bh"], QubitState: [(0.1, 0, 0)],
        SphericalPoint: [(0.5, 1, 1)],
        TracelessObservable: [(1, 0, 0), (0, 1, 0), (0, 0, 0)],
        SLGroupElement: [np.eye(2)], CotangentGroupElement: [np.eye(2)],
        MetricAtPoint: [np.eye(3)], Subgroup: [3], VectorField: [3]}


def _record_parameters():
    """(site, owner class or None, function, parameter, record class) of each
    parameter of a public function or method whose type hint is a Record
    subclass; the site is [class.]function, or the class for __init__."""
    for module, tree in _modules():
        namespace = importlib.import_module(f"qig.{module}")
        for owner, fn in _public_defs(tree):
            cls = getattr(namespace, owner) if owner else None
            func = getattr(cls or namespace, fn.name)
            hints = typing.get_type_hints(getattr(func, "fget", func))
            for param, hint in hints.items():
                if (param != "return" and isinstance(hint, type)
                        and issubclass(hint, Record)):
                    site = owner if fn.name == "__init__" else ".".join(
                        filter(None, (owner, fn.name)))
                    yield site, cls, func, param, hint


def _call_with(site, owner, func, param, value):
    """A call of func with value as param and a valid value for each other
    parameter without a default; one without a valid value fails by name."""
    def call():
        if owner is None or func.__name__ == "__init__":
            target = owner or func
        elif owner in _INSTANCES:
            target = getattr(_INSTANCES[owner], func.__name__)
        else:
            pytest.fail(f"{owner.__name__} has no instance in _INSTANCES")
        hints, kwargs = typing.get_type_hints(func), {}
        for name, parameter in inspect.signature(target).parameters.items():
            if name == param:
                kwargs[name] = value
            elif parameter.default is not parameter.empty:
                continue
            elif hints.get(name) in _INSTANCES:
                kwargs[name] = _INSTANCES[hints[name]]
            elif name in _VALID:
                kwargs[name] = _VALID[name]
            else:
                pytest.fail(f"{site}.{name} has no valid value")
        return target(**kwargs)
    return call


_RECORD_PARAMETERS = list(_record_parameters())
_WRONG_RECORDS = [
    (f"{site}.{param}=" + (f"eye({len(value)})" if isinstance(value, np.ndarray)
                           else repr(value)),
     _call_with(site, owner, func, param, value),
     f"{param} = {value!r} is not a {cls.__name__}")
    for site, owner, func, param, cls in _RECORD_PARAMETERS
    for value in _WRONG + tuple(_RAW.get(cls, ()))]


def test_record_parameters_are_found():
    # 43 when the generated cases were written; a walk that comes back
    # short would leave parameters unguarded without a failing case.
    assert len(_RECORD_PARAMETERS) >= 43


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,message", [
    pytest.param(call, message, id=site)
    for site, call, message in _WRONG_TYPES + _WRONG_RECORDS])
def test_wrong_type_rejected(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
