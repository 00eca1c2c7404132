"""Adversarial input through the public library API, in process.

Every call either returns a valid result or raises a QigError: never
another exception and never a warning (each test runs with warnings as
errors).  Inputs are NaN or infinite rows, rows on or past the unit sphere,
empty or wrong-shaped arrays and non-integer counts; every count is small,
so no large run starts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qig.errors import DomainError, QigError
from qig.flow_engine import integrate_flow, orbit_curve
from qig.group_actions import (CotangentGroupElement, SLGroupElement,
                               action_alpha_a, action_bkm, alpha_subgroup,
                               bkm_subgroup, cotangent_multiply,
                               sl_from_generators)
from qig.metric_family import (MetricAtPoint, MonotoneFunctionSpec, bkm,
                               bures_helstrom, custom, family_a, family_b,
                               inverse_metric, metric_cartesian, rld,
                               scan_monotonicity, wigner_yanase)
from qig.ode_classifier import Exclusion, classify, singularities, solve_branch
from qig.state_space import QubitState, TracelessObservable
from qig.vector_fields import (fundamental_field, gradient_field_closed,
                               gradient_field_from_metric, lie_bracket_numeric,
                               rescaled_gradient_field)

pytestmark = pytest.mark.filterwarnings("error")

SPECS = [bkm(), bures_helstrom(), wigner_yanase(), rld(), family_a(2.0),
         family_b(1.0, 0.0)]
# A user-written f, f(t) = sqrt(t): a spec with no float kernel, whose
# fields integrate through their array evaluator.
CUSTOM = custom(np.sqrt, "sqrt")

# Interior values, the boundary, the center, subnormal, huge and non-finite.
_VALUES = st.one_of(
    st.floats(-0.6, 0.6),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 - 1e-12, 0.999999999, 1e-300,
                     5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]))
_STACK_SHAPES = st.sampled_from([(3,), (1, 3), (4, 3), (2, 2, 3), (0, 3),
                                 (0,), (), (2,), (4,), (3, 2), (2, 3, 1)])
_COORD_SHAPES = st.sampled_from([(), (1,), (2,), (3,), (0,), (2, 1)])
_COUNTS = st.one_of(st.integers(-2, 6), st.sampled_from([2.5, 3.0, math.nan,
                                                         True, False, None]))


@st.composite
def _arrays(draw, shapes):
    shape = draw(shapes)
    size = math.prod(shape)
    values = draw(st.lists(_VALUES, min_size=size, max_size=size))
    return np.array(values, dtype=float).reshape(shape)


@st.composite
def _observables(draw):
    return TracelessObservable.from_coeffs(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))


def _fields(a: TracelessObservable, spec):
    return [fundamental_field(a), gradient_field_closed(a, spec),
            gradient_field_from_metric(a, spec), rescaled_gradient_field(a, 2.0)]


def _valid_or_qig_error(call, check):
    try:
        out = call()
    except QigError:
        return
    check(out)


@settings(max_examples=50, deadline=None)
@given(_arrays(_COORD_SHAPES), _arrays(_COORD_SHAPES), _arrays(_COORD_SHAPES),
       st.sampled_from(SPECS))
def test_metric_cartesian_and_inverse(x, y, z, spec):
    def check_metric(m):
        shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
        assert m.matrix.shape == shape + (3, 3)
        assert np.isfinite(m.matrix).all()
        assert np.array_equal(m.matrix, m.matrix.swapaxes(-1, -2))
        _valid_or_qig_error(lambda: inverse_metric(m), check_inverse)

    def check_inverse(inv):
        assert inv.matrix.shape == np.broadcast_shapes(x.shape, y.shape,
                                                       z.shape) + (3, 3)
        assert np.isfinite(inv.matrix).all()

    _valid_or_qig_error(lambda: metric_cartesian(spec, x, y, z), check_metric)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.data())
def test_inverse_metric_of_arbitrary_stacks(count, data):
    matrix = data.draw(_arrays(st.just((count, 3, 3))))
    xs = np.linspace(0.1, 0.5, count)

    def check(inv):
        assert inv.matrix.shape == (count, 3, 3)
        assert np.isfinite(inv.matrix).all()

    _valid_or_qig_error(
        lambda: inverse_metric(MetricAtPoint("cartesian", matrix, (xs, 0.0, 0.0))),
        check)


@settings(max_examples=50, deadline=None)
@given(_arrays(_STACK_SHAPES), _observables(), st.sampled_from(SPECS),
       st.integers(0, 3))
def test_field_at_cartesian(v, a, spec, which):
    def check(tangent):
        assert tangent.components.shape == v.shape
        assert np.isfinite(tangent.components).all()

    _valid_or_qig_error(lambda: _fields(a, spec)[which].at_cartesian(v), check)


@settings(max_examples=40, deadline=None)
@given(_arrays(_STACK_SHAPES), _observables(), _observables(),
       st.sampled_from(SPECS), st.integers(0, 3), st.integers(0, 3),
       st.one_of(st.floats(1e-6, 1e-2),
                 st.sampled_from([0.0, -1e-4, 0.6, math.nan, math.inf])))
def test_lie_bracket_numeric(p, a, b, spec, i, j, h):
    def check(tangent):
        assert tangent.components.shape == p.shape
        assert np.isfinite(tangent.components).all()

    _valid_or_qig_error(
        lambda: lie_bracket_numeric(_fields(a, spec)[i], _fields(b, spec)[j],
                                    p, h), check)


_T_END = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([0.0, 1e3, 1e308, -1e308, math.nan,
                                    math.inf]))


@settings(max_examples=50, deadline=None)
@given(st.lists(_VALUES, min_size=3, max_size=3), _observables(),
       st.sampled_from(SPECS + [CUSTOM]), st.integers(0, 3), _T_END, _COUNTS)
def test_integrate_flow(start, a, spec, which, t_end, steps):
    def check(traj):
        assert traj.points.shape == (steps + 1, 3)
        assert (traj.radii < 1.0).all()

    _valid_or_qig_error(
        lambda: integrate_flow(_fields(a, spec)[which], QubitState(*start),
                               t_end, steps), check)


@settings(max_examples=50, deadline=None)
@given(st.lists(_VALUES, min_size=3, max_size=3), _observables(),
       _observables(), st.sampled_from([0.25, 1.0, 2.0, None]), _T_END, _COUNTS)
def test_orbit_curve(start, a, b, a_const, t_end, steps):
    def check(traj):
        assert traj.points.shape == (steps + 1, 3)
        assert (traj.radii < 1.0).all()

    def call():
        group = (bkm_subgroup(a, b) if a_const is None
                 else alpha_subgroup(a_const, a, b))
        return orbit_curve(group, QubitState(*start), t_end, steps)

    _valid_or_qig_error(call, check)


_COEFFS = st.one_of(
    st.lists(_VALUES, max_size=5),
    st.lists(st.lists(st.floats(-1.0, 1.0), max_size=3), max_size=3),
    st.sampled_from(["abc", None, 0.5, {"a": 1}, [1j, 0.0, 0.0],
                     [0.1, "x", 0.2], [10 ** 400, 0, 0]]))


@settings(max_examples=60, deadline=None)
@given(_COEFFS)
def test_observable_from_coeffs(coeffs):
    def check(obs):
        assert obs.coeffs.shape == (3,) and np.isfinite(obs.coeffs).all()

    _valid_or_qig_error(lambda: TracelessObservable.from_coeffs(coeffs), check)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(SPECS), max_size=3),
       st.lists(st.one_of(st.integers(-1, 4), st.sampled_from([1.5, True])),
                max_size=3),
       _COUNTS, st.one_of(st.integers(-1, 2 ** 40), st.sampled_from([0.5, True])))
def test_scan_monotonicity(specs, sizes, samples, seed):
    def check(reports):
        assert [rep.spec for rep in reports] == [spec.name for spec in specs]
        assert all(math.isfinite(rep.min_gap) for rep in reports)

    _valid_or_qig_error(
        lambda: scan_monotonicity(specs, sizes=sizes, samples=samples, seed=seed),
        check)


_TRIPLES = st.lists(_VALUES, min_size=3, max_size=3)
ZERO = TracelessObservable(0.0, 0.0, 0.0)


@st.composite
def _sl_elements(draw):
    """A call that builds an SL(2, C) element: exp((a - i b)/2) from
    coefficients of any size, or diag(x, 1/x) from a tiny to a huge x."""
    if draw(st.booleans()):
        a, b = draw(_TRIPLES), draw(_TRIPLES)
        return lambda: sl_from_generators(TracelessObservable(*a),
                                          TracelessObservable(*b))
    x = draw(st.sampled_from([1e-300, 1e-8, 0.5, 3.0, 1e8, 1e154, 1e308]))
    return lambda: SLGroupElement(np.diag([x, 1.0 / x]).astype(complex))


def _is_state(rho):
    assert isinstance(rho, QubitState) and np.linalg.norm(rho.bloch) < 1.0


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([0.25, 1.0, 4.0, 1e-300, 1e300, 0.0, -1.0, math.nan,
                        math.inf]), _sl_elements(), _TRIPLES)
def test_action_alpha_a(a_const, element, start):
    _valid_or_qig_error(
        lambda: action_alpha_a(a_const, element(), QubitState(*start)), _is_state)


@settings(max_examples=50, deadline=None)
@given(_TRIPLES, _TRIPLES, _TRIPLES)
def test_action_bkm(b, a, start):
    def call():
        unitary = sl_from_generators(ZERO, TracelessObservable(*b)).matrix
        element = CotangentGroupElement(unitary, TracelessObservable(*a))
        return action_bkm(element, QubitState(*start))

    _valid_or_qig_error(call, _is_state)


_STACKS = st.sampled_from([(), (1,), (3,), (2, 1)])


@settings(max_examples=50, deadline=None)
@given(_STACKS, _STACKS, st.data())
def test_cotangent_multiply(shape_1, shape_2, data):
    # Stacks of elements (U, a) of the cotangent group, U in SU(2) and a of
    # any size, against each other.
    def unitaries(shape):
        return np.array([sl_from_generators(ZERO, data.draw(_observables())).matrix
                         for _ in range(math.prod(shape))]).reshape(shape + (2, 2))

    u1, u2 = unitaries(shape_1), unitaries(shape_2)
    a1 = data.draw(_arrays(st.just(shape_1 + (3,))))
    a2 = data.draw(_arrays(st.just(shape_2 + (3,))))

    def check(product):
        u12, a12 = product
        stack = np.broadcast_shapes(shape_1, shape_2)
        assert u12.shape == stack + (2, 2) and a12.shape == stack + (3,)
        assert np.allclose(u12 @ u12.conj().swapaxes(-1, -2), np.eye(2))
        assert np.isfinite(a12).all()

    _valid_or_qig_error(lambda: cotangent_multiply(u1, a1, u2, a2), check)


# Each argument of cotangent_multiply and the core shape it must end in.
_CORES = {"u1": (2, 2), "a1": (3,), "u2": (2, 2), "a2": (3,)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([(), (3,), (2, 2), (3, 3), (4, 2, 2), (4, 3),
                                 (5, 3), (2, 2, 2)]), min_size=4, max_size=4),
       st.data())
def test_cotangent_multiply_of_any_shapes(shapes, data):
    # Arrays of any shape in each place: a DomainError names an argument
    # that does not end in its core shape.
    args = {name: data.draw(_arrays(st.just(shape)))
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


_GRIDS = st.sampled_from([(20,), (25,), (4, 5), (19,), (0,), ()])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPECS + [CUSTOM]), _GRIDS, st.data())
def test_classify(spec, shape, data):
    grid = data.draw(st.one_of(
        _arrays(st.just(shape)),
        st.just(np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape))))

    def check(result):
        assert len(result.values) == grid.size and np.isfinite(result.values).all()
        assert math.isfinite(result.range_width)
        assert result.branch in ("bkm_a0", "family_a_pos", "family_b_neg", "none")

    _valid_or_qig_error(lambda: classify(spec, grid), check)


_PARAMETERS = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(
    [0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, math.nan, math.inf,
     -math.inf]))


@settings(max_examples=50, deadline=None)
@given(_PARAMETERS, _PARAMETERS)
def test_solve_branch(a_const, c):
    def check(result):
        assert isinstance(result, (MonotoneFunctionSpec, Exclusion))
        if isinstance(result, Exclusion):
            _check_poles(result.poles, 10)

    _valid_or_qig_error(lambda: solve_branch(a_const, c), check)


def _check_poles(poles, count):
    ts, rs = np.array(poles.t_values), np.array(poles.r_values)
    assert len(ts) == len(rs) == count
    assert (0.0 < ts).all() and (ts <= 1.0).all() and (np.diff(ts) < 0.0).all()
    assert np.array_equal(rs, (1.0 - ts) / (1.0 + ts))


@settings(max_examples=50, deadline=None)
@given(_PARAMETERS, _PARAMETERS, _COUNTS)
def test_singularities(b_const, c, count):
    _valid_or_qig_error(lambda: singularities(b_const, c, count),
                        lambda poles: _check_poles(poles, count))
