import math

import numpy as np
import numpy.testing as npt
import pytest

from qig.errors import LeftManifold
from qig.flow_engine import (Trajectory, compare_flow_to_orbit, integrate_flow,
                             orbit_curve)
from qig.group_actions import (CotangentGroupElement, action_alpha_a,
                               action_bkm, alpha_subgroup, bkm_subgroup,
                               sl_from_generators,
                               special_unitary_from_generator)
from qig.metric_family import bkm
from qig.state_space import TracelessObservable, state_from_bloch
from qig.vector_fields import (VectorField, fundamental_field,
                               gradient_field_closed, rescaled_gradient_field)

A_OBS = TracelessObservable(0.4, -0.3, 0.6)
ZERO = TracelessObservable(0.0, 0.0, 0.0)
START = state_from_bloch(0.25, -0.15, 0.35)


def test_rotation_flow_preserves_radius():
    traj = integrate_flow(fundamental_field(A_OBS), START, 4.0, 400)
    npt.assert_allclose(traj.radii, START.r, atol=1e-10)


def test_bkm_gradient_flow_matches_tanh():
    # From the center the BKM sigma_3 gradient flow is z(t) = tanh(t).
    field = gradient_field_closed(TracelessObservable(0, 0, 1), bkm())
    traj = integrate_flow(field, state_from_bloch(0.0, 0.0, 1e-12), 2.0, 500)
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
        integrate_flow(outward, state_from_bloch(0.5, 0.0, 0.0), 10.0, 1000)


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


B_OBS = TracelessObservable(-0.2, 0.5, 0.1)


@pytest.mark.parametrize("a_const", [0.25, 1.0, 2.0, None])
def test_batched_orbit_matches_per_time_actions(a_const):
    # Oracle: one public action call per time, with the group element built
    # from the scaled generators at that time.
    times = np.linspace(0.0, 1.5, 41)
    if a_const is None:
        orbit = orbit_curve(bkm_subgroup(A_OBS, B_OBS), START, 1.5, 40)
        ref = [action_bkm(CotangentGroupElement(
                   special_unitary_from_generator(
                       TracelessObservable.from_coeffs(t * B_OBS.coeffs)),
                   TracelessObservable.from_coeffs(t * A_OBS.coeffs)), START).bloch
               for t in times]
    else:
        orbit = orbit_curve(alpha_subgroup(a_const, A_OBS, B_OBS), START, 1.5, 40)
        ref = [action_alpha_a(a_const, sl_from_generators(
                   TracelessObservable.from_coeffs(t * A_OBS.coeffs),
                   TracelessObservable.from_coeffs(t * B_OBS.coeffs)), START).bloch
               for t in times]
    npt.assert_allclose(orbit.points, np.array(ref), rtol=0.0, atol=1e-14)
