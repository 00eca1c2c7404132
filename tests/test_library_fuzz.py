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

from qig.errors import QigError
from qig.flow_engine import integrate_flow, orbit_curve
from qig.group_actions import alpha_subgroup, bkm_subgroup
from qig.metric_family import (MetricAtPoint, bkm, bures_helstrom, custom,
                               family_a, family_b, inverse_metric,
                               metric_cartesian, rld, scan_monotonicity,
                               wigner_yanase)
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
