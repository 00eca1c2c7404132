"""Generated wrong-input cases for every public parameter of qig.

The walk visits each parameter of each public function or method.  One whose
type hint is a record class gets that class's wrong-type cases; another takes
its rule from _OVERRIDES by site, else from _RULES by name: an array of a
shape and dtype, a count with its minimum, a positive or a finite value.
Each case expects DomainError with its whole message.  A parameter with no
rule, no hand row in _WRONG_TYPES and no entry with its reason in
test_api._UNCHECKED fails the walk.
"""

import importlib
import inspect
import math
import typing

import numpy as np
import pytest

from qig.errors import DomainError
from qig.flow_engine import integrate_flow
from qig.group_actions import (CotangentGroupElement, SLGroupElement, Subgroup,
                               alpha_subgroup, sl_identity)
from qig.metric_family import (MetricAtPoint, MonotoneFunctionSpec, bkm,
                               bures_helstrom, custom, derivative_limit_at_zero,
                               scan_monotonicity, spec_from_name)
from qig.state_space import (QubitState, Record, SphericalPoint,
                             TracelessObservable)
from qig.vector_fields import VectorField, fundamental_field
from qig.verify import sub_seed
from test_api import _modules, _public_defs, _unchecked

A_OBS = TracelessObservable(0.4, -0.3, 0.6)
ZERO = TracelessObservable(0.0, 0.0, 0.0)
START = QubitState(0.25, -0.15, 0.35)

# A rule is (valid value, cases): cases(function, parameter) lists the
# (test, id "name=value", wrong value, whole message) of each wrong value.


def _array(noun: str, valid):
    """An array the check names "is not {noun}"; a noun with a shape or
    "number" in it gets a value of the wrong shape too."""
    wrong = [("'x'", "x"), ("None", None), ("ragged", [[1, 0], [0]]),
             ("strings", [["a", "b"], ["c", "d"]])]
    wrong += [("0.5j", 0.5j)] if "real" in noun else []
    wrong += [("[0.1,0.2]", [0.1, 0.2])] if noun not in ("real", "complex") else []
    return valid, lambda fn, param: [
        ("type", f"{param}={label}", value, f"{param} = {value!r} is not {noun}")
        for label, value in wrong]


_BAD_COUNTS = [0, -1, 1.5, True, math.nan, "3", 2.0, None]


def _count(minimum: int, item: str | None = None):
    """An integer >= minimum; with item, each item of a sequence, so named."""
    return (3 if item is None else (3,)), lambda fn, param: [
        ("count", f"{param}={value!r}", value if item is None else (value,),
         f"{item or param} = {value!r} is not an integer >= {minimum}")
        for value in _BAD_COUNTS if not (type(value) is int and value >= minimum)]


def _positive(owner: str | None = None, name: str | None = None):
    """A finite value > 0, named "{owner}: {name}" (the function and the
    parameter by default); the id names it by name."""
    return 2.0, lambda fn, param: [
        ("positive" if value != "x" else "type", f"{name or param}={value!r}", value,
         f"{owner or fn}: {name or param} = {value!r} is not finite and > 0")
        for value in (0, -1.0, -1e-4, math.nan, math.inf, -math.inf, "x")]


def _finite(named: str | None = None, valid=1.0):
    """A finite real number, named named (the parameter by default)."""
    return valid, lambda fn, param: [
        ("type", f"{param}={value!r}", value, f"{named or param} = {value!r} is not finite")
        for value in ("x", math.nan, math.inf, -math.inf, None)]


_STACK = [[0.1, 0.2, 0.3]]
_REAL = _array("real", 0.5)
_NUMBER = _array("a real number", 0.2)
_RULES = {
    "t": _REAL, "r": _REAL, "times": _REAL,
    "grid": _array("real", np.linspace(0.05, 0.95, 20)),
    **dict.fromkeys(["x", "y", "z", "theta", "phi", "a1", "a2", "a3"], _NUMBER),
    **dict.fromkeys(["p", "v", "rho", "points"],
                    _array("a real array of shape (..., 3)", _STACK)),
    **dict.fromkeys(["matrix", "unitary", "m"],
                    _array("a complex array of shape (2, 2)", np.eye(2))),
    **dict.fromkeys(["u1", "u2"], _array("a complex array of shape (..., 2, 2)", np.eye(2))),
    **dict.fromkeys(["steps", "samples", "max_count"], _count(1)),
    "seed": _count(0),
    "a_const": _positive("family_a", "A"), "b_const": _positive("family_b", "B"),
    **dict.fromkeys(["h", "scale", "tol"], _positive()),
    "c": _finite("family_b: c", 0.0), "t_end": _finite(),
}
# Sites, [class.]function.parameter, where a name means something else.
_OVERRIDES = {
    **dict.fromkeys([f"metric_cartesian.{n}" for n in "xyz"], _REAL),
    "SphericalPoint.r": _array("a real number", 0.5),
    "TracelessObservable.from_coeffs.c": _array("a real array of shape (3,)",
                                                [0.1, 0.2, 0.3]),
    **dict.fromkeys(["cotangent_multiply.a1", "cotangent_multiply.a2"],
                    _array("a real array of shape (..., 3)", _STACK)),
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
    ("derivative_limit_at_zero.A='x'", lambda: derivative_limit_at_zero("x"),
     "derivative limit requires A > 1, got 'x'"),
    ("spec_from_name.name=3", lambda: spec_from_name(3), "unknown spec name 3"),
    ("Subgroup.images=3", lambda: Subgroup(3), "images = 3 is not callable"),
    ("VectorField.cartesian=3", lambda: VectorField(3), "cartesian = 3 is not callable"),
    ("VectorField.point=3", lambda: VectorField(np.negative, 3),
     "point = 3 is not callable"),
    ("custom.name=3", lambda: custom(lambda t: t, 3), "name = 3 is not a string"),
    ("custom.f=3", lambda: custom(3, "c"), "f = 3 is not a Callable"),
    ("sub_seed.suite='nope'", lambda: sub_seed(0, "nope"),
     "suite = 'nope' is not one of ['actions', 'commutators', 'fconstancy', 'flows', "
     "'generators', 'monotone', 'poles']"),
]


# One valid instance of each record class that a public parameter names or
# that owns a public method with a parameter, and a valid value of each
# parameter with no rule, by its name.
_INSTANCES = {type(record): record for record in (
    A_OBS, START, SphericalPoint(0.5, 1.0, 1.0), bkm(), fundamental_field(A_OBS),
    sl_identity(), CotangentGroupElement(np.eye(2), ZERO),
    alpha_subgroup(1.0, ZERO, A_OBS),
    integrate_flow(fundamental_field(A_OBS), START, 1.0, 3))}
_VALID = {"specs": [bures_helstrom()], "suite": "poles"}
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
         value, f"{param} = {value!r} is not a {cls.__name__}") for value in wrong]


def _parameters():
    """(qualified name, site, owner class or None, function, parameter, type
    hint) of each parameter of a public function or method; the qualified
    name is module.[class.]function.parameter as in test_api, the site
    [class.]function, with the class alone for __init__."""
    for module, tree in _modules():
        namespace = importlib.import_module(f"qig.{module}")
        for owner, fn in _public_defs(tree):
            cls = getattr(namespace, owner) if owner else None
            func = getattr(cls or namespace, fn.name)
            hints = typing.get_type_hints(getattr(func, "fget", func))
            site = owner if fn.name == "__init__" else ".".join(
                filter(None, (owner, fn.name)))
            for param in inspect.signature(getattr(func, "fget", func)).parameters:
                if param != "self":
                    yield (".".join(filter(None, (module, owner, fn.name, param))),
                           site, cls, func, param, hints.get(param))


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
