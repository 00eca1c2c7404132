import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from qig.errors import DomainError, LeftManifold, QigError
from qig.flow_engine import (Trajectory, compare_flow_to_orbit, csv_table,
                             integrate_flow, orbit_curve)
from qig.group_actions import (CotangentGroupElement, action_alpha_a,
                               action_bkm, alpha_subgroup, bkm_subgroup,
                               sl_from_generators)
from qig.metric_family import bkm, custom, family_a, family_b
from qig.state_space import (EPS_BOUNDARY, QubitState, TracelessObservable,
                             bloch_norm)
from qig.vector_fields import (VectorField, fundamental_field,
                               gradient_field_closed, rescaled_gradient_field)

A_OBS = TracelessObservable(0.4, -0.3, 0.6)
ZERO = TracelessObservable(0.0, 0.0, 0.0)
START = QubitState(0.25, -0.15, 0.35)


def test_rotation_flow_preserves_radius():
    traj = integrate_flow(fundamental_field(A_OBS), START, 4.0, 400)
    npt.assert_allclose(traj.radii, np.linalg.norm(START.bloch), atol=1e-10)


def test_bkm_gradient_flow_matches_tanh():
    # From the center the BKM sigma_3 gradient flow is z(t) = tanh(t).
    field = gradient_field_closed(TracelessObservable(0, 0, 1), bkm())
    traj = integrate_flow(field, QubitState(0.0, 0.0, 1e-12), 2.0, 500)
    npt.assert_allclose(traj.points[:, 2], np.tanh(traj.times), atol=1e-9)


def test_flow_matches_orbit():
    dev = compare_flow_to_orbit(rescaled_gradient_field(A_OBS, 1.0),
                                alpha_subgroup(1.0, A_OBS, ZERO),
                                START, 1.0, 1000)
    assert dev < 1e-6
    dev = compare_flow_to_orbit(gradient_field_closed(A_OBS, bkm()),
                                bkm_subgroup(A_OBS, ZERO),
                                START, 1.0, 1000)
    assert dev < 1e-6


def test_rk4_fourth_order():
    field = rescaled_gradient_field(A_OBS, 1.0)
    orbit = alpha_subgroup(1.0, A_OBS, ZERO)
    coarse = compare_flow_to_orbit(field, orbit, START, 2.0, 16)
    fine = compare_flow_to_orbit(field, orbit, START, 2.0, 32)
    assert 8.0 <= coarse / fine <= 32.0


def test_outward_field_raises_left_manifold():
    outward = VectorField(lambda v: np.asarray(v, dtype=float))
    with pytest.raises(LeftManifold):
        integrate_flow(outward, QubitState(0.5, 0.0, 0.0), 10.0, 1000)


def test_orbit_curve_endpoints():
    orbit = orbit_curve(alpha_subgroup(1.0, A_OBS, ZERO), START, 1.0, 100)
    npt.assert_allclose(orbit.points[0], START.bloch, atol=1e-14)
    assert orbit.times[-1] == 1.0
    assert orbit.points.shape == (101, 3)


def test_trajectory_csv_format():
    traj = Trajectory(np.array([0.0, 1.0]),
                      np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]))
    lines = traj.to_csv(observable=A_OBS).strip().split("\n")
    assert lines[0] == "t,x,y,z,r,l_a"
    row = [float(v) for v in lines[1].split(",")]
    assert row == [0.0, 0.1, 0.0, 0.0, 0.1, pytest.approx(0.04)]


def test_csv_table_matches_per_cell_format():
    # Oracle: each np.float64 cell formatted on its own with str.format, as
    # the CSV exports once did; csv_table's "%.17g" must give the same text.
    # Special values (nan, +-inf, -0.0, subnormals) first, then enough rows
    # to span several blocks.
    special = np.array([[0.0, -0.0, 0.1, 1.0 / 3.0, -5e-324],
                        [np.nan, np.inf, -np.inf, 5e-324, 2.225073858507201e-308],
                        [1e300, -2.5e-17, 123456789.0, 7.0, -1e-310]])
    cols = list(np.hstack([special, np.random.default_rng(3).standard_normal((3, 600))]))
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                               for row in zip(*cols))
    assert csv_table(["a", "b", "c"], cols) == want


@pytest.mark.parametrize("header,columns", [(["a"], [np.zeros(2), np.ones(3)]),
                                            (["a", "b"], [np.zeros(2)]), ([], [])])
def test_csv_table_needs_one_column_per_name_of_one_length(header, columns):
    # One name over columns of 2 and 3 values wrote rows of two values.
    with pytest.raises(DomainError) as err:
        csv_table(header, columns)
    lengths = [len(c) for c in columns]
    assert str(err.value) == f"columns of lengths {lengths} do not fit header = {header!r}"


B_OBS = TracelessObservable(-0.2, 0.5, 0.1)


@pytest.mark.parametrize("a_const", [0.25, 1.0, 2.0, None])
def test_batched_orbit_matches_per_time_actions(a_const):
    # Oracle: one public action call per time, with the group element built
    # from the scaled generators at that time.
    times = np.linspace(0.0, 1.5, 41)
    if a_const is None:
        orbit = orbit_curve(bkm_subgroup(A_OBS, B_OBS), START, 1.5, 40)
        ref = [action_bkm(CotangentGroupElement(
                   sl_from_generators(
                       ZERO, TracelessObservable.from_coeffs(t * B_OBS.coeffs)).matrix,
                   TracelessObservable.from_coeffs(t * A_OBS.coeffs)), START).bloch
               for t in times]
    else:
        orbit = orbit_curve(alpha_subgroup(a_const, A_OBS, B_OBS), START, 1.5, 40)
        ref = [action_alpha_a(a_const, sl_from_generators(
                   TracelessObservable.from_coeffs(t * A_OBS.coeffs),
                   TracelessObservable.from_coeffs(t * B_OBS.coeffs)), START).bloch
               for t in times]
    npt.assert_allclose(orbit.points, np.array(ref), rtol=0.0, atol=1e-14)


def _rk4_step(f, v: np.ndarray, h: float) -> np.ndarray:
    k1 = f(v)
    k2 = f(v + 0.5 * h * k1)
    k3 = f(v + 0.5 * h * k2)
    k4 = f(v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check(v):
    r = bloch_norm(v)
    if not r < 1.0 - EPS_BOUNDARY:
        raise LeftManifold(f"trajectory reached |v| = {r}")


# RK4 on (3,) arrays, checking the interior with |v| five times per step
# (once per stage and once more on the step's result).
def _five_check_loop(evaluate, start, t_end, steps):
    def f(v):
        _check(v)
        return evaluate(v)

    h = t_end / steps
    points = np.empty((steps + 1, 3))
    points[0] = v = start.bloch
    for i in range(steps):
        v = _rk4_step(f, v, h)
        _check(v)
        points[i + 1] = v
    return points


# Through the field's array evaluator: the loop integrate_flow ran before it
# moved to Python floats, and the oracle for its trajectories within rounding.
def _array_flow(vfield, start, t_end, steps):
    return _five_check_loop(vfield.cartesian, start, t_end, steps)


# Through the field's per-point evaluator, whose (3,)-array arithmetic is the
# float loop's component by component: the oracle for the loop that checks
# once per stage and once on the final point, bit for bit.
def _five_checks_per_step_flow(vfield, start, t_end, steps):
    return _five_check_loop(lambda v: np.array(vfield.point(*v.tolist())),
                            start, t_end, steps)


# The flows suite's five fields on its start and observable, and one
# overlay-style input (the export's start and observable) per A.
_SUITE_FIELDS = {
    "bures_helstrom": rescaled_gradient_field(A_OBS, 1.0),
    "wigner_yanase": rescaled_gradient_field(A_OBS, 0.25),
    "family_a(2)": rescaled_gradient_field(A_OBS, 2.0),
    "bkm": gradient_field_closed(A_OBS, bkm()),
    "fundamental": fundamental_field(A_OBS),
}
_FLOW_CASES = [(field, START) for field in _SUITE_FIELDS.values()] + [
    (rescaled_gradient_field(TracelessObservable(0.3, -0.5, 0.4), a_const),
     QubitState(0.2, 0.1, -0.3)) for a_const in (0.25, 1.0, 2.0)]
_FLOW_IDS = list(_SUITE_FIELDS) + ["overlay A=0.25", "overlay A=1", "overlay A=2"]


@pytest.mark.parametrize("field,start", _FLOW_CASES, ids=_FLOW_IDS)
def test_trajectory_matches_five_check_loop_bit_for_bit(field, start):
    traj = integrate_flow(field, start, 1.0, 1000)
    want = _five_checks_per_step_flow(field, start, 1.0, 1000)
    assert traj.points.tobytes() == want.tobytes()


@pytest.mark.parametrize("field,start", _FLOW_CASES, ids=_FLOW_IDS)
def test_trajectory_matches_array_loop_within_rounding(field, start):
    traj = integrate_flow(field, start, 1.0, 1000)
    want = _array_flow(field, start, 1.0, 1000)
    npt.assert_allclose(traj.points, want, rtol=0.0, atol=1e-12)


# v' = v leaves the ball at t = ln 2 from r = 0.5, first at a stage point.
# The kick multiplies it by 100 beyond r = 0.9: one step from r = 0.87 with
# h = 0.05 keeps all four stage points inside and lands outside, so only the
# check of a step's result (the next stage, or the final point) can see it.
def _outward(v):
    return np.asarray(v, dtype=float)


def _kick(v):
    return v * (1.0 if v @ v < 0.81 else 100.0)


@pytest.mark.parametrize("field,r0,t_end,steps", [
    (_outward, 0.5, 10.0, 1000), (_kick, 0.87, 0.05, 1), (_kick, 0.87, 0.15, 3)],
    ids=["stage point", "final point", "next step"])
def test_left_manifold_names_the_same_point_as_five_check_loop(field, r0, t_end,
                                                               steps):
    start = QubitState(r0, 0.0, 0.0)
    with pytest.raises(LeftManifold) as want:
        _five_checks_per_step_flow(VectorField(field), start, t_end, steps)
    with pytest.raises(LeftManifold) as got:
        integrate_flow(VectorField(field), start, t_end, steps)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [2.5, 2.0, True, 0, -3, "4", None])
def test_step_count_must_be_an_integer_at_least_one(steps):
    field = fundamental_field(A_OBS)
    orbit = alpha_subgroup(1.0, ZERO, A_OBS)
    for call in (lambda: integrate_flow(field, START, 1.0, steps),
                 lambda: orbit_curve(orbit, START, 1.0, steps),
                 lambda: compare_flow_to_orbit(field, orbit, START, 1.0, steps)):
        with pytest.raises(DomainError, match=rf"^(steps|samples) = "
                           rf"{re.escape(repr(steps))} is not an integer >= 1$"):
            call()


def test_numpy_integer_step_count_is_accepted():
    field = fundamental_field(A_OBS)
    got = integrate_flow(field, START, 1.0, np.int64(4))
    assert np.array_equal(got.points, integrate_flow(field, START, 1.0, 4).points)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_observable_is_rejected_before_any_field_or_orbit(bad):
    # A NaN coefficient gave NaN velocities, and an infinite one raised a
    # RuntimeWarning from the orbit.
    with pytest.raises(DomainError, match="not all finite"):
        gradient_field_closed(TracelessObservable(bad, 0.0, 0.0), bkm())
    with pytest.raises(DomainError, match="not all finite"):
        alpha_subgroup(1.0, TracelessObservable(bad, 0.0, 0.0), ZERO)


def _array_flow_error(vfield, start, t_end, steps):
    # The array loop with the warnings filter integrate_flow had around it.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                RuntimeWarning)
        try:
            _array_flow(vfield, start, t_end, steps)
        except QigError as exc:
            return exc
    raise AssertionError("the array loop did not fail")


# On the pole of family_b(1, c): sqrt(B) (log t - c) = pi/2 at the start.
_R_START = float(np.linalg.norm(START.bloch))
_T_POLE = (1.0 - _R_START) / (1.0 + _R_START)
_HAZARDS = {
    "family_b pole": (gradient_field_closed(
        A_OBS, family_b(1.0, math.log(_T_POLE) - math.pi / 2.0)), 1.0, 10),
    "custom f = 0": (gradient_field_closed(
        A_OBS, custom(lambda t: 0.0 * np.asarray(t), "zero")), 1.0, 10),
    "custom f = NaN": (gradient_field_closed(
        A_OBS, custom(lambda t: np.nan * np.asarray(t), "nan")), 1.0, 10),
    "fundamental overflow": (fundamental_field(
        TracelessObservable(1e300, -1e300, 1e300)), 1e10, 1),
    "gradient overflow": (rescaled_gradient_field(
        TracelessObservable(1e308, -1e308, 1e308), 2.0), 1e10, 1),
    "numpy overflow": (VectorField(lambda v: 1e300 * np.asarray(v) * 1e300),
                       1.0, 10),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field,t_end,steps", _HAZARDS.values(), ids=_HAZARDS)
def test_hazard_raises_the_array_loops_error(field, t_end, steps):
    want = _array_flow_error(field, START, t_end, steps)
    with pytest.raises(QigError) as got:
        integrate_flow(field, START, t_end, steps)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


@pytest.mark.filterwarnings("error")
def test_flow_of_a_tiny_a_is_the_bkm_flow():
    # f_A = f_bkm (1 + O(A)) as A -> 0.  Where t^sqrt(A) rounded to 1, the
    # float kernel of family_a(1e-34) divided by zero and the flow raised.
    tiny = integrate_flow(gradient_field_closed(A_OBS, family_a(1e-34)), START, 1.0, 10)
    npt.assert_allclose(tiny.points,
                        integrate_flow(gradient_field_closed(A_OBS, bkm()), START,
                                       1.0, 10).points, rtol=0.0, atol=1e-15)


def test_compare_flow_to_orbit_checks_the_subgroup_before_integrating():
    calls = []

    def point(x, y, z):
        calls.append((x, y, z))
        return 0.0, 0.0, 0.0

    field = VectorField(lambda v: np.zeros(np.shape(v)), point)
    with pytest.raises(DomainError, match="subgroup = 3 is not a Subgroup"):
        compare_flow_to_orbit(field, 3, START, 1.0, 100_000)
    assert calls == []
