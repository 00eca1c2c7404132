"""The input contract of every public callable of qig, from one rule table.

The walk visits each parameter of each public function or method.  One whose
type hint is a record class takes that class's rule; another its rule from
_OVERRIDES by site, else from _RULES by name.  A rule holds a valid value,
the wrong values it rejects with their whole messages, and a strategy of
in-range and full-range values.  Each wrong value must raise DomainError with
its message (test_*_rejected); test_library_fuzz.py draws every parameter of
every public callable from its strategy or its wrong values.  A parameter
with no rule needs a hand row in _WRONG_TYPES and a strategy in _DRAWS, or a
reason in test_api._UNCHECKED.
"""

import importlib
import inspect
import math
import typing

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qig.errors import DomainError
from qig.flow_engine import integrate_flow
from qig.group_actions import (CotangentGroupElement, SLGroupElement, Subgroup,
                               alpha_subgroup, bkm_subgroup, sl_from_generators,
                               sl_identity, verify_bkm_action)
from qig.metric_family import (MetricAtPoint, MonotoneFunctionSpec, bkm,
                               bures_helstrom, custom, derivative_limit_at_zero,
                               family_a, family_b, inverse_metric, metric_cartesian,
                               metric_spherical, rld, scan_monotonicity,
                               spec_from_name, wigner_yanase)
from qig.ode_classifier import classify, singularities, solve_branch
from qig.state_space import (QubitState, Record, SphericalPoint,
                             TracelessObservable, complex_matrix_from_json)
from qig.vector_fields import (VectorField, fundamental_field, gradient_field_closed,
                               gradient_field_from_metric, rescaled_gradient_field)
from qig.verify import SUITE_IDS, sub_seed
from test_api import _modules, _public_defs, _unchecked

A_OBS = TracelessObservable(0.4, -0.3, 0.6)
ZERO = TracelessObservable(0.0, 0.0, 0.0)
START = QubitState(0.25, -0.15, 0.35)
TRAJECTORY = integrate_flow(fundamental_field(A_OBS), START, 1.0, 3)

# Strategies: interior values, the boundary, the center, subnormal, huge and
# non-finite; the shapes of stacks, of coordinates and of grids.
_VALUES = st.floats(-0.6, 0.6) | st.floats() | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1.0 - 1e-12, 0.999999999, 1e-300, 5e-324, 1e308, -1e308,
     math.nan, math.inf, -math.inf])
_SCALARS = st.floats(-5.0, 5.0) | st.sampled_from(
    [0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, math.nan, math.inf, -math.inf])
_STACK_SHAPES = [(3,), (1, 3), (4, 3), (2, 2, 3), (0, 3), (0,), (), (2,), (4,), (3, 2),
                 (2, 3, 1)]
_COORD_SHAPES = [(), (1,), (2,), (3,), (0,), (2, 1)]
_GRID_SHAPES = [(20,), (25,), (4, 5), (19,), (0,), ()]


def _arrays(shapes, values=_VALUES):
    return hnp.arrays(float, st.sampled_from(shapes), elements=values)


_FINITE = st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([5e-324, 1e-300, 1e308, -1e308]))
_OBSERVABLES = st.builds(TracelessObservable, _FINITE, _FINITE, _FINITE)
_SMALL = st.builds(TracelessObservable, *[st.floats(-3.0, 3.0)] * 3)
_SL = st.one_of(st.builds(lambda a, b: sl_from_generators(a, b).matrix, _SMALL, _SMALL),
                st.sampled_from([1e-150, 1e-8, 0.5, 3.0, 1e8, 1e150]).map(
                    lambda x: np.diag([x, 1.0 / x]).astype(complex)))
_SU2 = _SMALL.map(lambda b: sl_from_generators(ZERO, b).matrix)
_UNITARY_STACKS = _SU2 | st.lists(_SU2, min_size=1, max_size=3).map(np.array)
_WRONG_MATRICES = _arrays([(2, 2), (3, 3), (2,), (4, 2, 2), (2, 2, 2)])
_SPECS = st.sampled_from([bkm(), bures_helstrom(), wigner_yanase(), rld(), family_a(2.0),
                          family_a(1e-300), family_a(1e300), family_b(1.0, 0.0),
                          custom(np.sqrt, "sqrt"), custom(lambda t: t * 0 + 1e308, "huge")])
_FIELD_KINDS = [lambda a, spec: fundamental_field(a), gradient_field_closed,
                gradient_field_from_metric, lambda a, spec: rescaled_gradient_field(a, 2.0)]
_CALLABLES = st.sampled_from([np.negative, np.sqrt, np.add])
_REPORTS = [verify_bkm_action(samples=2), singularities(1.0), solve_branch(-1.0),
            scan_monotonicity([bkm()], sizes=(2,), samples=2)[0], TRAJECTORY,
            classify(bkm(), np.linspace(0.05, 0.95, 20)),
            fundamental_field(A_OBS).at_cartesian([0.1, 0.2, 0.3])]
_METRICS = st.sampled_from([metric_cartesian(bkm(), 0.3, -0.2, 0.1),
                            metric_cartesian(family_a(1e300), [0.1, 0.5], 0.2, 0.0),
                            metric_spherical(bkm(), SphericalPoint(0.5, 1.0, 1.0))])
_NEAR = 1.0 - 1e-8  # a radius near the sphere
# Per record class, its instances: valid ones at the edges of their domain,
# and for a metric any stack of matrices a caller may pass.
_RECORDS = {
    **{type(report): st.just(report) for report in _REPORTS},
    MonotoneFunctionSpec: _SPECS, TracelessObservable: _OBSERVABLES,
    QubitState: st.builds(QubitState, *[st.floats(-0.5, 0.5)] * 3) | st.sampled_from(
        [QubitState(*v) for v in ((0, 0, 0), (1e-300, 0, 0), (0, 0, -_NEAR),
                                  (0.6 * _NEAR, 0, 0.8 * _NEAR))]),
    SphericalPoint: st.builds(
        SphericalPoint, st.sampled_from([2e-9, 0.5, 1 - 1e-12]) | st.floats(0.01, 0.99),
        st.sampled_from([1e-4, math.pi - 1e-4]) | st.floats(0.1, 3.0),
        st.sampled_from([0.0, 1e300]) | st.floats(-7.0, 7.0)),
    SLGroupElement: _SL.map(SLGroupElement),
    CotangentGroupElement: st.builds(CotangentGroupElement, _SU2, _OBSERVABLES),
    MetricAtPoint: _METRICS | st.integers(0, 3).flatmap(
        lambda n: hnp.arrays(float, (n, 3, 3), elements=_VALUES).map(
            lambda m: MetricAtPoint("cartesian", m, (np.linspace(0.1, 0.5, n), 0.0, 0.0)))),
    Subgroup: st.builds(alpha_subgroup, st.sampled_from([0.25, 1.0, 2.0, 1e-300, 1e300]),
                        _OBSERVABLES, _OBSERVABLES) | st.builds(bkm_subgroup, _OBSERVABLES,
                                                                _OBSERVABLES),
    VectorField: st.builds(lambda kind, a, spec: kind(a, spec),
                           st.sampled_from(_FIELD_KINDS), _OBSERVABLES, _SPECS),
}

# A rule is (valid value, cases, strategy): cases(function, parameter) lists
# the (test, id "name=value", wrong value, whole message) of each wrong value.


def _array(noun: str, valid, draws):
    """An array the check names "is not {noun}"; a noun with a shape or
    "number" in it gets a value of the wrong shape too."""
    wrong = [("'x'", "x"), ("None", None), ("ragged", [[1, 0], [0]]),
             ("strings", [["a", "b"], ["c", "d"]])]
    wrong += [("0.5j", 0.5j)] if "real" in noun else []
    wrong += [("[0.1,0.2]", [0.1, 0.2])] if noun not in ("real", "complex") else []
    return valid, lambda fn, param: [
        ("type", f"{param}={label}", value, f"{param} = {value!r} is not {noun}")
        for label, value in wrong], draws


_BAD_COUNTS = [0, -1, 1.5, True, math.nan, "3", 2.0, None]


def _count(minimum: int, item: str | None = None, most: int = 6):
    """An integer >= minimum, drawn up to most; with item, each item of a
    sequence, so named."""
    draws = st.integers(minimum - 2, most)
    return (3 if item is None else (3,)), lambda fn, param: [
        ("count", f"{param}={value!r}", value if item is None else (value,),
         f"{item or param} = {value!r} is not an integer >= {minimum}")
        for value in _BAD_COUNTS if not (type(value) is int and value >= minimum)
    ], draws if item is None else st.lists(draws, max_size=3)


_POSITIVES = st.one_of(st.floats(1e-6, 8.0), _SCALARS, st.just(5e-324))


def _positive(owner: str | None = None, name: str | None = None, draws=_POSITIVES):
    """A finite value > 0, named "{owner}: {name}" (the function and the
    parameter by default); the id names it by name."""
    return 2.0, lambda fn, param: [
        ("positive" if value != "x" else "type", f"{name or param}={value!r}", value,
         f"{owner or fn}: {name or param} = {value!r} is not finite and > 0")
        for value in (0, -1.0, -1e-4, math.nan, math.inf, -math.inf, "x")], draws


def _finite(named: str | None = None, valid=1.0, draws=_SCALARS):
    """A finite real number, named named (the parameter by default)."""
    return valid, lambda fn, param: [
        ("type", f"{param}={value!r}", value, f"{named or param} = {value!r} is not finite")
        for value in ("x", math.nan, math.inf, -math.inf, None)], draws


def _typed(noun: str, valid, draws):
    """A value of a kind, a string or a callable: 3 "is not {noun}"."""
    return valid, lambda fn, param: [
        ("type", f"{param}=3", 3, f"{param} = 3 is not {noun}")], draws


_STACK = [[0.1, 0.2, 0.3]]
_REAL = _array("real", 0.5, _arrays(_COORD_SHAPES))
_NUMBER = _array("a real number", 0.2, _VALUES)
_RULES = {
    "t": _REAL, "r": _REAL, "times": _REAL,
    "grid": _array("real", np.linspace(0.05, 0.95, 20), st.one_of(
        _arrays(_GRID_SHAPES), st.sampled_from(_GRID_SHAPES).map(
            lambda s: np.linspace(0.05, 0.95, math.prod(s)).reshape(s)))),
    **dict.fromkeys(["x", "y", "z", "theta", "phi", "a1", "a2", "a3"], _NUMBER),
    **dict.fromkeys(["p", "v", "rho", "points"], _array(
        "a real array of shape (..., 3)", _STACK, _arrays(_STACK_SHAPES))),
    **dict.fromkeys(["matrix", "unitary"], _array(
        "a complex array of shape (2, 2)", np.eye(2), _SL | _WRONG_MATRICES)),
    **dict.fromkeys(["u1", "u2"], _array("a complex array of shape (..., 2, 2)",
                                         np.eye(2), _UNITARY_STACKS | _WRONG_MATRICES)),
    **dict.fromkeys(["steps", "samples", "max_count"], _count(1)),
    "seed": _count(0, most=2 ** 40),
    "a_const": _positive("family_a", "A"), "b_const": _positive("family_b", "B"),
    "h": _positive(draws=st.floats(1e-6, 1e-2) | _POSITIVES),
    **dict.fromkeys(["scale", "tol"], _positive()),
    "c": _finite("family_b: c", 0.0),
    "t_end": _finite(draws=st.floats(-3.0, 3.0) | st.sampled_from(
        [0.0, 1e3, 1e308, -1e308, math.nan, math.inf])),
    **dict.fromkeys(["kind", "name"], _typed("a string", "c", st.sampled_from(
        ["bkm", "fa", "fb", "c", ""]))),
    **dict.fromkeys(["f_raw", "cartesian", "point", "images"],
                    _typed("callable", np.negative, _CALLABLES)),
    **dict.fromkeys(["f_float", "g_pair"],
                    _typed("callable or None", None, _CALLABLES | st.none())),
}
# Sites, [class.]function.parameter, where a name means something else.
_OVERRIDES = {
    **dict.fromkeys([f"metric_cartesian.{n}" for n in "xyz"], _REAL),
    "SphericalPoint.r": _array("a real number", 0.5, _VALUES),
    "TracelessObservable.from_coeffs.c": _array(
        "a real array of shape (3,)", [0.1, 0.2, 0.3],
        _arrays([(3,), (4,), (1,), (0,), (1, 3)]) | st.lists(_VALUES, max_size=5)),
    **dict.fromkeys(["cotangent_multiply.a1", "cotangent_multiply.a2"],
                    _array("a real array of shape (..., 3)", _STACK,
                           _arrays([(3,), (1, 3), (3, 3), (2, 1, 3), (2,)]))),
    **dict.fromkeys([f"{fn}.a_const" for fn in ("action_alpha_a", "alpha_subgroup",
                                                "verify_alpha_action")],
                    _positive("alpha_A", "A")),
    "solve_branch.a_const": _finite("A"),
    "scan_monotonicity.sizes": _count(1, "matrix size"),
}

# The cases no rule states, each with its id [class.]function.parameter=value,
# its call and its whole message.
_WRONG_TYPES = [
    ("scan_monotonicity.specs=bkm()", lambda: scan_monotonicity(bkm(), samples=3),
     "specs = MonotoneFunctionSpec(kind='bkm', name='bkm') is not a sequence "
     "of specs"),
    ("scan_monotonicity.specs=[]", lambda: scan_monotonicity([]), "specs = [] has no spec"),
    ("scan_monotonicity.specs=[bkm(), 'bkm']",
     lambda: scan_monotonicity([bkm(), "bkm"], samples=3),
     "spec = 'bkm' is not a MonotoneFunctionSpec"),
    ("scan_monotonicity.sizes=3", lambda: scan_monotonicity([bkm()], sizes=3),
     "sizes = 3 is not a sequence of matrix sizes"),
    ("scan_monotonicity.sizes='12'", lambda: scan_monotonicity([bkm()], sizes="12"),
     "sizes = '12' is not a sequence of matrix sizes"),
    ("derivative_limit_at_zero.A='x'", lambda: derivative_limit_at_zero("x"),
     "derivative limit requires A > 1, got 'x'"),
    ("spec_from_name.name=3", lambda: spec_from_name(3), "unknown spec name 3"),
    ("custom.f=3", lambda: custom(3, "c"), "f = 3 is not a Callable"),
    ("sub_seed.suite='nope'", lambda: sub_seed(0, "nope"),
     "suite = 'nope' is not one of ['actions', 'commutators', 'fconstancy', 'flows', "
     "'generators', 'monotone', 'poles']"),
    ("complex_matrix_from_json.data=[1, 2, 3, 4]",
     lambda: complex_matrix_from_json([1, 2, 3, 4]),
     "data = [1, 2, 3, 4] is not a real array of shape (..., 2)"),
    ("SLGroupElement.from_json.data={}", lambda: SLGroupElement.from_json({}),
     "data = {} has no 'sl_matrix'"),
    ("inverse_metric.m.matrix='x'",
     lambda: inverse_metric(MetricAtPoint("cartesian", "x", (0.1, 0.0, 0.0))),
     "matrix = 'x' is not a real array of shape (..., 3, 3)"),
]
# The wire format of a 2x2 complex matrix: row-major [re, im] pairs.
_JSON = _SL.map(lambda m: [[v.real, v.imag] for v in m.ravel().tolist()])
# The fuzz's strategy of each parameter with no rule, by site or by name.
_DRAWS = {
    "specs": st.lists(_SPECS, max_size=3) | st.sampled_from([bkm(), [bkm(), "bkm"]]),
    "suite": st.sampled_from(sorted(SUITE_IDS) + ["nope", 3]),
    "f": st.sampled_from([np.sqrt, np.negative, lambda t: "x", 3]),
    "complex_matrix_from_json.data": _JSON | st.sampled_from(
        [[1, 2, 3, 4], [[1, 0], [0, 0], [1, 0]], [[1, 0, 0]] * 4, "x", {}, None]),
    "SLGroupElement.from_json.data": _JSON.map(lambda m: {"sl_matrix": m})
    | st.sampled_from([{}, [], "x", {"sl_matrix": [1, 2, 3, 4]}]),
}


# One valid instance of each record class that a public parameter names or
# that owns a public method with a parameter, and a valid value of each
# parameter with no rule, by its name.
_INSTANCES = {type(record): record for record in (
    A_OBS, START, SphericalPoint(0.5, 1.0, 1.0), bkm(), fundamental_field(A_OBS),
    sl_identity(), CotangentGroupElement(np.eye(2), ZERO),
    alpha_subgroup(1.0, ZERO, A_OBS), TRAJECTORY)}
_VALID = {"specs": [bures_helstrom()], "suite": "poles", "f": np.sqrt}
# Per record class, the raw data a caller may pass in its place: a spec
# name, a Bloch, chart or Pauli triple, a matrix, or a number for a record
# that wraps a function.
_RAW = {MonotoneFunctionSpec: ["bh"], QubitState: [(0.1, 0, 0)],
        SphericalPoint: [(0.5, 1, 1)],
        TracelessObservable: [(1, 0, 0), (0, 1, 0), (0, 0, 0)],
        SLGroupElement: [np.eye(2)], CotangentGroupElement: [np.eye(2)],
        MetricAtPoint: [np.eye(3)], Subgroup: [3], VectorField: [3]}


def _record_class(hint):
    """The record class a hint names, alone or or-ed with None."""
    for cls in typing.get_args(hint) or (hint,):
        if isinstance(cls, type) and issubclass(cls, Record):
            return cls
    return None


def _rule(site, param, hint):
    """The rule of a parameter: that of the record class its hint names,
    else the one for its site, else the one for its name, else None."""
    cls = _record_class(hint)
    if cls is None:
        return _OVERRIDES.get(f"{site}.{param}", _RULES.get(param))
    wrong = ["x", (0.1, 0.0, 0.0)] + [None] * (hint is cls) + _RAW.get(cls, [])
    return _INSTANCES.get(cls), lambda fn, param: [
        ("type", f"{param}=" + (f"eye({len(value)})" if isinstance(value, np.ndarray)
                                else repr(value)),
         value, f"{param} = {value!r} is not a {cls.__name__}") for value in wrong
    ], _RECORDS.get(cls)


def _callables():
    """(module.[class.]function, site, owner class or None, name, function)
    of each public function, method or property; the site is
    [class.]function, with the class alone for __init__."""
    for module, tree in _modules():
        namespace = importlib.import_module(f"qig.{module}")
        for owner, fn in _public_defs(tree):
            cls = getattr(namespace, owner) if owner else None
            site = owner if fn.name == "__init__" else ".".join(
                filter(None, (owner, fn.name)))
            yield (".".join(filter(None, (module, owner, fn.name))), site, cls, fn.name,
                   getattr(cls or namespace, fn.name))


def _parameters():
    """(module.[class.]function.parameter, site, owner class or None,
    function, parameter, type hint) of each parameter of a public callable."""
    for qualname, site, cls, _, func in _callables():
        func = getattr(func, "fget", func)
        hints = typing.get_type_hints(func)
        for param in inspect.signature(func).parameters:
            if param != "self":
                yield f"{qualname}.{param}", site, cls, func, param, hints.get(param)


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
            elif parameter.default is parameter.empty:
                rule = _rule(site, name, hints.get(name))
                kwargs[name] = rule[0] if rule else _VALID.get(name)
                if kwargs[name] is None:
                    pytest.fail(f"{site}.{name} has no valid value")
        return target(**kwargs)
    return call


def _generate(parameters):
    """(id, message, call) of each case, by test, and the qualified names of
    the parameters that nothing covers."""
    cases, uncovered = {"type": [], "count": [], "positive": []}, []
    for qualname, site, owner, func, param, hint in parameters:
        rule = _rule(site, param, hint)
        if _unchecked(qualname):
            continue
        if rule:
            for test, case, value, message in rule[1](func.__name__, param):
                cases[test].append((f"{site}.{case}", message,
                                    _call_with(site, owner, func, param, value)))
        elif not any(row[0].startswith(f"{site}.{param}=") for row in _WRONG_TYPES):
            uncovered.append(qualname)
    cases["type"] += [(site, message, call) for site, call, message in _WRONG_TYPES]
    return cases, uncovered


_PARAMETERS = list(_parameters())
_CASES, _UNCOVERED = _generate(_PARAMETERS)


def test_every_public_parameter_is_covered():
    # A new public parameter needs a rule, a hand row or an _UNCHECKED entry.
    assert _UNCOVERED == []


def test_record_parameters_are_found():
    # 43 when the generated cases were written; a walk that comes back
    # short would leave parameters unguarded without a failing case.
    assert sum(_record_class(p[-1]) is not None for p in _PARAMETERS) >= 43


def _parametrize(test: str):
    return pytest.mark.parametrize("call,message", [
        pytest.param(call, message, id=site) for site, message, call in _CASES[test]])


def _rejected(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.filterwarnings("error")
@_parametrize("count")
def test_count_rejected(call, message):
    _rejected(call, message)


@pytest.mark.filterwarnings("error")
@_parametrize("positive")
def test_positive_parameter_rejected(call, message):
    _rejected(call, message)


@pytest.mark.filterwarnings("error")
@_parametrize("type")
def test_wrong_type_rejected(call, message):
    _rejected(call, message)
