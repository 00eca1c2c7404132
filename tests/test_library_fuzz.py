"""Adversarial input through the public library API, in process.

Each public function, constructor, record method and property of qig is
called with every parameter drawn from its rule in test_checks.py: in-range
and full-range values (subnormal, huge, NaN and infinite), wrong shapes and
the wrong values its cases list.  Under -W error the call returns a result
whose floats are all finite and that meets its check in _POST, or raises a
QigError: never another exception and never a warning.  A callable stays
out only with a reason in _UNFUZZED.  The callables that had a fuzzer of
their own keep its test name (_named); test_public_callable_fuzz runs the
rest.  _PROBES pins the calls the fuzz found, each with its whole error.
"""

import functools
import inspect
import pathlib
import re
import shutil
import subprocess
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qig.errors import DomainError, InputError, NumericError, QigError
from qig.flow_engine import orbit_curve
from qig.group_actions import (SLGroupElement, action_alpha_a, bkm_subgroup,
                               cotangent_multiply, sl_from_generators)
from qig.metric_family import (MetricAtPoint, bkm, bures_helstrom, check_petz_symmetry,
                               custom, family_b, finite_f, g_derivative, g_from_f,
                               inverse_metric, metric_cartesian, scan_monotonicity,
                               wigner_yanase)
from qig.ode_classifier import Exclusion, classify
from qig.state_space import (QubitState, Record, TracelessObservable,
                             complex_matrix_from_json, complex_matrix_to_json, su2_bracket)
from qig.vector_fields import verify_commutator_relations
from qig.verify import SUITE_IDS
from test_api import _CHECKS, _unchecked
from test_checks import _DRAWS, _METRICS, _RECORDS, _VALUES, _callables, _rule

pytestmark = pytest.mark.filterwarnings("error")

# module.[class.]function -> why the fuzz leaves it out.
_UNFUZZED = {
    "cli": "the command line: test_cli.py fuzzes its flags",
    **dict.fromkeys([f"verify.suite_{name}" for name in SUITE_IDS],
                    "fixed draws of up to 0.4 s; test_acceptance.py runs every suite"),
    "state_space.Record.__init__": "the record base: the fuzz builds each subclass",
    **dict.fromkeys(_CHECKS, "a check, or a kernel on arrays that qig has checked or "
                             "made: the fuzz reaches it through its callers"),
    "flow_engine.csv_table": "writes the columns of Trajectory.to_csv, which is fuzzed",
}
# Examples per site where not 20: the counts the sites' own fuzzers drew.
_EXAMPLES = {**dict.fromkeys(["metric_cartesian", "VectorField.at_cartesian",
                              "integrate_flow", "orbit_curve", "action_alpha_a",
                              "action_bkm", "solve_branch", "singularities"], 50),
             **dict.fromkeys(["inverse_metric", "lie_bracket_numeric", "classify"], 40),
             "TracelessObservable.from_coeffs": 60, "cotangent_multiply": 60,
             "scan_monotonicity": 30}


def _poles(poles, count):
    ts, rs = np.array(poles.t_values), np.array(poles.r_values)
    return (len(ts) == len(rs) == count and (0.0 < ts).all() and (ts <= 1.0).all()
            and (np.diff(ts) < 0.0).all() and np.array_equal(rs, (1.0 - ts) / (1.0 + ts)))


def _inverts(m: MetricAtPoint) -> bool:
    """Whether inverse_metric(m) has finite floats and m's shape, or raises QigError."""
    try:
        inverse = inverse_metric(m)
    except QigError:
        return True
    return inverse.matrix.shape == m.matrix.shape and _finite_floats(inverse)


# Per site, what a result must meet beyond finite floats, given the call's
# keyword arguments: shapes that broadcast, a symmetric metric that inverts,
# a grid read flat, one report per spec, a trajectory inside the ball, sorted
# poles.
_POST = {
    "metric_cartesian": lambda out, kw: (
        out.matrix.shape == np.broadcast_shapes(*(np.shape(kw[c]) for c in "xyz")) + (3, 3)
        and np.array_equal(out.matrix, out.matrix.swapaxes(-1, -2)) and _inverts(out)),
    "inverse_metric": lambda out, kw: out.matrix.shape == np.shape(kw["m"].matrix),
    "VectorField.at_cartesian": lambda out, kw: out.components.shape == np.shape(kw["v"]),
    "lie_bracket_numeric": lambda out, kw: out.components.shape == np.shape(kw["p"]),
    **dict.fromkeys(["integrate_flow", "orbit_curve"], lambda out, kw: (
        out.points.shape == (kw.get("steps", kw.get("samples")) + 1, 3)
        and (out.radii < 1.0).all())),
    "cotangent_multiply": lambda out, kw: (
        out[0].shape == np.broadcast_shapes(np.shape(kw["u1"]), np.shape(kw["u2"]))
        and out[1].shape == np.broadcast_shapes(np.shape(kw["a1"]), np.shape(kw["a2"]),
                                                np.shape(kw["u1"])[:-2] + (3,))),
    "classify": lambda out, kw: (
        len(out.values) == np.size(kw["grid"])
        and out.branch in ("bkm_a0", "family_a_pos", "family_b_neg", "none")),
    "scan_monotonicity": lambda out, kw: [rep.spec for rep in out] == [
        spec.name for spec in kw["specs"]],
    "singularities": lambda out, kw: _poles(out, kw.get("max_count", 10)),
    "solve_branch": lambda out, kw: not isinstance(out, Exclusion) or _poles(out.poles, 10),
}


def _finite_floats(out) -> bool:
    """Whether every float of a result is finite, those in a record's fields
    and in the items of a tuple, list or dict included."""
    if isinstance(out, Record):
        out = [getattr(out, name) for name in out.__slots__]
    if isinstance(out, (list, tuple, dict)):
        return all(map(_finite_floats, out.values() if isinstance(out, dict) else out))
    return np.asarray(out).dtype.kind not in "fc" or bool(np.isfinite(out).all())


@st.composite
def _calls(draw, site, owner, name, func):
    """(target, keyword arguments) of a call of a public callable, a method
    of a drawn record for a method, each argument drawn from its rule."""
    target = owner if name == "__init__" else func
    if owner and name != "__init__" and not isinstance(inspect.getattr_static(owner, name),
                                                       staticmethod):
        record = draw(_METRICS if owner is MetricAtPoint else _RECORDS[owner])
        if isinstance(func, property):
            return functools.partial(getattr, record, name), {}
        target = getattr(record, name)
    hints, kwargs = typing.get_type_hints(func), {}
    for param, parameter in inspect.signature(target).parameters.items():
        rule = _rule(site, param, hints.get(param))
        draws = _DRAWS.get(f"{site}.{param}", _DRAWS.get(param)) if rule is None else (
            rule[2] | st.sampled_from([case[2] for case in rule[1](name, param)]))
        if draws is not None:
            kwargs[param] = draw(draws, label=param)
        elif parameter.default is parameter.empty:
            raise AssertionError(f"{site}.{param} has no strategy")
    return target, kwargs


# module.[class.]function -> (site, owner class or None, name, function).
_FUZZED = {c[0]: c[1:] for c in _callables() if not _unchecked(c[0], _UNFUZZED)}


def _fuzz(qualname: str) -> None:
    site, owner, name, func = _FUZZED[qualname]

    @settings(max_examples=_EXAMPLES.get(site, 20), deadline=None)
    @given(_calls(site, owner, name, func))
    def call(target_and_kwargs):
        target, kwargs = target_and_kwargs
        try:
            out = target(**kwargs)
        except QigError:
            return
        assert _finite_floats(out), out
        assert _POST.get(site, lambda out, kw: True)(out, kwargs), out

    call()


_NAMED = []


def _named(qualname: str):
    """The fuzz of one callable as a test of its own; the parametrized fuzz
    leaves it out."""
    _NAMED.append(qualname)
    return lambda: _fuzz(qualname)


test_metric_cartesian_and_inverse = _named("metric_family.metric_cartesian")
test_inverse_metric_of_arbitrary_stacks = _named("metric_family.inverse_metric")
test_scan_monotonicity = _named("metric_family.scan_monotonicity")
test_field_at_cartesian = _named("vector_fields.VectorField.at_cartesian")
test_lie_bracket_numeric = _named("vector_fields.lie_bracket_numeric")
test_integrate_flow = _named("flow_engine.integrate_flow")
test_orbit_curve = _named("flow_engine.orbit_curve")
test_observable_from_coeffs = _named("state_space.TracelessObservable.from_coeffs")
test_action_alpha_a = _named("group_actions.action_alpha_a")
test_action_bkm = _named("group_actions.action_bkm")
test_cotangent_multiply = _named("group_actions.cotangent_multiply")
test_classify = _named("ode_classifier.classify")
test_solve_branch = _named("ode_classifier.solve_branch")
test_singularities = _named("ode_classifier.singularities")


@pytest.mark.parametrize("qualname", [q for q in _FUZZED if q not in _NAMED])
def test_public_callable_fuzz(qualname):
    _fuzz(qualname)


# Each argument of cotangent_multiply and the core shape it must end in.
_CORES = {"u1": (2, 2), "a1": (3,), "u2": (2, 2), "a2": (3,)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([(), (3,), (2, 2), (3, 3), (4, 2, 2), (4, 3),
                                 (5, 3), (2, 2, 2)]), min_size=4, max_size=4),
       st.data())
def test_cotangent_multiply_of_any_shapes(shapes, data):
    # Arrays of any shape in every place at once: a DomainError names an
    # argument that does not end in its core shape.
    args = {name: data.draw(hnp.arrays(float, shape, elements=_VALUES))
            for name, shape in zip(_CORES, shapes)}
    wrong = [name for name, core in _CORES.items()
             if args[name].shape[-len(core):] != core]
    try:
        cotangent_multiply(**args)
    except QigError as exc:
        assert not wrong or (isinstance(exc, DomainError)
                             and str(exc).split(" = ")[0] in wrong)
        return
    assert not wrong


def _boost(x: float) -> SLGroupElement:
    return SLGroupElement(np.diag([x, 1.0 / x]).astype(complex))


T = TracelessObservable
HUGE = custom(lambda t: t * 0 + 1e308, "c")
ALPHA_TX = "(t, x) of g rho^sqrt(A) g^dag / det(rho)^(sqrt(A)/2)"
ALPHA_LOST = "is not finite or has lost t^2 - |x|^2 = 1 to rounding"
# Calls the fuzz found ending in a raw exception or warning or in a silent
# value, and the renamed grid messages, each with its error class and whole
# message: the QigError names the parameter, point or spec at fault.
_PROBES = [
    ("g_from_f-subnormal-r", lambda: g_from_f(bkm(), 5e-324), NumericError,
     "r = 5e-324 makes g of bkm not finite"),
    ("g_derivative-analytic-r-2", lambda: g_derivative(bures_helstrom(), 2.0),
     DomainError, "r = 2.0 is outside (0, 1)"),
    ("g_derivative-analytic-r-neg", lambda: g_derivative(wigner_yanase(), -0.5),
     DomainError, "r = -0.5 is outside (0, 1)"),
    ("g_derivative-r-0", lambda: g_derivative(bkm(), 0.0), DomainError,
     "r = 0.0 is outside (0, 1)"),
    ("finite_f-log-0", lambda: finite_f(family_b(1.0, 0.0), 0.0), NumericError,
     "t = 0.0 makes f of family_b(1,0) zero or not finite"),
    ("su2_bracket-overflow", lambda: su2_bracket(T(1e300, 0, 0), T(0, 1e300, 0)),
     NumericError, "[a, b] of a = TracelessObservable(a1=1e+300, a2=0, a3=0) and "
                   "b = TracelessObservable(a1=0, a2=1e+300, a3=0) is not finite"),
    ("scan-huge-f", lambda: scan_monotonicity([HUGE], sizes=(3,), samples=2),
     NumericError, "t = 0.012396534691578554 makes |f| of c above 2.25e+307, "
                   "too large to scan"),
    ("metric_cartesian-empty-x", lambda: metric_cartesian(bkm(), [], np.inf, 0.0),
     DomainError,
     "x, y, z coordinates of shapes [(0,), (), ()] do not broadcast to one shape"),
    ("metric_cartesian-empty-z", lambda: metric_cartesian(bkm(), np.nan, 0.0, []),
     DomainError,
     "x, y, z coordinates of shapes [(), (), (0,)] do not broadcast to one shape"),
    ("inverse_metric-point-shapes", lambda: inverse_metric(MetricAtPoint(
        "cartesian", np.eye(3), ([0.1, 0.2], [0.1, 0.2, 0.3], 0.0))), DomainError,
     "m.point coordinates of shapes [(2,), (3,), ()] do not broadcast to one shape"),
    ("cotangent_multiply-u1-u2", lambda: cotangent_multiply(
        _boost(1e200).matrix, [0, 0, 0], _boost(1e200).matrix, [0, 0, 0]),
     NumericError, "U1 U2 = [(inf+nanj), 0j, 0j, 0j] is not finite"),
    ("complex_matrix_to_json-nan", lambda: complex_matrix_to_json(
        np.array([[np.nan, 0], [0, 1]])), DomainError, "m = nan is not finite"),
    ("complex_matrix_from_json-three-pairs", lambda: complex_matrix_from_json(
        [[1, 0], [0, 0], [0, 0]]), InputError,
     "data = [[1, 0], [0, 0], [0, 0]] holds 3 [re, im] pairs; "
     "a 2x2 complex matrix needs four"),
    ("alpha-cancelled", lambda: action_alpha_a(4.0, _boost(1e8),
                                               QubitState(0, 0, -0.99999999)),
     NumericError, f"{ALPHA_TX} = [0.0, 0.0, 0.0, 0.0] {ALPHA_LOST}"),
    ("alpha-overflow", lambda: action_alpha_a(1.0, _boost(1e200), QubitState(0, 0, 0.5)),
     NumericError, f"{ALPHA_TX} = [nan, nan, nan, nan] {ALPHA_LOST}"),
    ("from_matrix-overflow", lambda: T.from_matrix(np.array([[1e308, 1e308],
                                                             [1e308, -1e308]])),
     DomainError, "Pauli coefficients (inf, 0.0, inf) are not all finite"),
    ("sl-subnormal-det", lambda: SLGroupElement(np.array([[0, 5e-324], [5e-324, 5e-324]])),
     DomainError, "determinant (-0+0j) != 1"),
    ("bkm-orbit-overflow", lambda: orbit_curve(bkm_subgroup(T(0, 0, 0), T(0, 0, 4)),
                                               QubitState(0.1, 0.2, 0.3), 1e308, 3),
     NumericError, "matrix exponential of the generator at t = 3.333333333333333e+307 "
                   "overflows"),
    ("sl_from_generators-overflow", lambda: sl_from_generators(T(1e308, 0, 0),
                                                               T(0, 1e308, 0)),
     NumericError, "matrix exponential of the generator at (a, b) = "
                   "[1e+308, 0.0, 0.0, 0.0, 1e+308, 0.0] overflows"),
    ("commutators-inf-point", lambda: verify_commutator_relations(
        bkm(), [[np.inf, np.inf, np.inf]]), DomainError,
     "point = [inf, inf, inf] is not inside the open ball"),
    ("petz-empty-grid", lambda: check_petz_symmetry(bkm(), []), DomainError,
     "grid = [] has no points"),
    ("petz-grid-outside", lambda: check_petz_symmetry(bkm(), [0.5, 1.5]), DomainError,
     "grid = 1.5 is outside (0, 1)"),
    ("classify-grid-size", lambda: classify(bkm(), np.linspace(0.05, 0.95, 19)),
     DomainError, "grid size = 19 is not an integer >= 20"),
    ("classify-grid-outside", lambda: classify(bkm(), np.linspace(0.05, 0.95, 20) + 0.5),
     DomainError, "grid = 1.0236842105263158 is outside (0, 1)"),
]


@pytest.mark.parametrize("call,error,message",
                         [pytest.param(*row[1:], id=row[0]) for row in _PROBES])
def test_probe_raises_its_error(call, error, message):
    with pytest.raises(QigError) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


_FAILING_UNDER_W_ERROR = """
import pytest
from hypothesis import given, strategies as st


@pytest.mark.filterwarnings("error")
@given(st.integers(0, 100))
def test_below_fifty(x):
    assert x < 50
"""


def test_failing_property_under_w_error_reports_its_example(tmp_path):
    # With this directory's conftest, a failing hypothesis test marked
    # filterwarnings("error") reports its falsifying example, not an
    # INTERNALERROR from the warning raised while hypothesis reports it.
    shutil.copy(pathlib.Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_below_fifty.py").write_text(_FAILING_UNDER_W_ERROR)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          str(tmp_path)], capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert re.search(r"Falsifying example: test_below_fifty\(\nE +x=50,", run.stdout)
