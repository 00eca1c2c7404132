import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from qig.errors import (BoundaryViolation, ChartSingularity, DomainError,
                        NotAState)
from qig.state_space import (QubitState, SphericalPoint, TracelessObservable,
                             all_true, bloch_from_state, cartesian_from_spherical,
                             complex_matrix_from_json, complex_matrix_to_json,
                             expectation_value, pauli_basis,
                             spherical_from_cartesian, state_from_bloch,
                             su2_bracket)

E1 = TracelessObservable(1.0, 0.0, 0.0)
E2 = TracelessObservable(0.0, 1.0, 0.0)
E3 = TracelessObservable(0.0, 0.0, 1.0)


def test_pauli_algebra():
    s0, s1, s2, s3 = pauli_basis()
    for s in (s1, s2, s3):
        npt.assert_array_equal(s @ s, s0)
        npt.assert_array_equal(s, s.conj().T)
        assert np.trace(s) == 0
    npt.assert_array_equal(s1 @ s2, 1j * s3)
    npt.assert_array_equal(s2 @ s3, 1j * s1)
    npt.assert_array_equal(s3 @ s1, 1j * s2)


def test_bracket_is_cross_product_exactly():
    npt.assert_array_equal(su2_bracket(E1, E2).coeffs, E3.coeffs)
    npt.assert_array_equal(su2_bracket(E2, E3).coeffs, E1.coeffs)
    npt.assert_array_equal(su2_bracket(E3, E1).coeffs, E2.coeffs)


coeff = st.floats(-5.0, 5.0, allow_nan=False)
obs_strategy = st.builds(TracelessObservable, coeff, coeff, coeff)


@given(obs_strategy, obs_strategy)
def test_bracket_matches_cross_product(a, b):
    npt.assert_allclose(su2_bracket(a, b).coeffs,
                        np.cross(a.coeffs, b.coeffs), atol=1e-12)


@given(obs_strategy, obs_strategy, obs_strategy)
def test_jacobi_identity(a, b, c):
    total = (su2_bracket(a, su2_bracket(b, c)).coeffs
             + su2_bracket(b, su2_bracket(c, a)).coeffs
             + su2_bracket(c, su2_bracket(a, b)).coeffs)
    npt.assert_allclose(total, 0.0, atol=1e-12)


def test_observable_matrix_roundtrip():
    a = TracelessObservable(0.3, -1.2, 0.7)
    back = TracelessObservable.from_matrix(a.matrix())
    npt.assert_allclose(back.coeffs, a.coeffs, atol=1e-15)


def test_state_matrix_roundtrip():
    rho = state_from_bloch(0.2, -0.4, 0.5)
    back = bloch_from_state(rho.matrix())
    npt.assert_allclose(back.bloch, rho.bloch, atol=1e-14)
    m = rho.matrix()
    assert abs(np.trace(m) - 1.0) < 1e-15
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_boundary_rejected():
    with pytest.raises(BoundaryViolation):
        state_from_bloch(1.0, 0.0, 0.0)
    with pytest.raises(BoundaryViolation):
        state_from_bloch(0.6, 0.6, 0.6)


def test_not_a_state_rejected():
    with pytest.raises(NotAState):
        bloch_from_state(np.eye(2))  # trace 2
    with pytest.raises(NotAState):
        bloch_from_state(np.array([[0.5, 0.1j], [0.2j, 0.5]]))  # not Hermitian
    with pytest.raises(NotAState):
        bloch_from_state(np.diag([1.0, 0.0]))  # pure, not faithful


def test_chart_singularities():
    with pytest.raises(ChartSingularity):
        SphericalPoint(0.5, 0.0, 0.0)
    with pytest.raises(ChartSingularity):
        SphericalPoint(1.2, 1.0, 0.0)
    with pytest.raises(ChartSingularity):
        spherical_from_cartesian(0.0, 0.0, 0.5)  # polar axis
    with pytest.raises(ChartSingularity):
        spherical_from_cartesian(0.0, 0.0, 0.0)  # center


@given(st.floats(0.01, 0.95), st.floats(0.05, math.pi - 0.05),
       st.floats(0.0, 2.0 * math.pi - 1e-9))
def test_spherical_cartesian_roundtrip(r, theta, phi):
    p = SphericalPoint(r, theta, phi)
    q = spherical_from_cartesian(*cartesian_from_spherical(p))
    assert abs(q.r - r) < 1e-12
    assert abs(q.theta - theta) < 1e-12
    assert min(abs(q.phi - phi), abs(abs(q.phi - phi) - 2 * math.pi)) < 1e-9


def test_expectation_value_pinned():
    # sigma_3 expectation at the north-leaning point r=0.5, theta=pi/3:
    # z = 0.25, value = z/2 = 0.125; and a purely radial example at
    # theta=pi/2, phi=0 gives x/2 = 0.25 for r=0.5 with a = sigma_1.
    p = SphericalPoint(0.5, math.pi / 2.0, 0.0)
    assert abs(expectation_value(E1, p) - 0.25) < 1e-15
    # consistency with the density matrix: value = Tr(rho a) / 2
    rho = state_from_bloch(*cartesian_from_spherical(p))
    tr = float(np.trace(rho.matrix() @ E1.matrix()).real)
    assert abs(expectation_value(E1, p) - tr / 2.0) < 1e-15


def test_json_wire_formats():
    rho = state_from_bloch(0.1, 0.2, -0.3)
    assert rho.to_json() == {"bloch": [0.1, 0.2, -0.3]}
    a = TracelessObservable(1.0, 2.0, 3.0)
    assert a.to_json() == {"pauli": [1.0, 2.0, 3.0]}
    m = np.array([[1.0 + 2.0j, 0.0], [0.5j, -1.0]])
    npt.assert_array_equal(complex_matrix_from_json(complex_matrix_to_json(m)), m)


@pytest.mark.parametrize("mask", [np.True_, np.False_, np.array(True),
                                  np.array(False), np.array([True, True]),
                                  np.array([True, False]), np.array([], bool),
                                  np.zeros((0, 3), bool), np.ones((2, 2), bool),
                                  np.float64(0.2) < 1.0, np.float64(np.nan) < 1.0])
def test_all_true_equals_all_reduction(mask):
    got = all_true(mask)
    assert type(got) is bool and got == bool(mask.all())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [[0.1, 0.2, 0.3, 0.4], [0.1], [], 0.5,
                                    [[0.1, 0.2, 0.3]], [0.1, None, 0.3],
                                    ["0.1", "0.2", "0.3"], [1j, 0.0, 0.0],
                                    [[0.1], [0.2, 0.3]], [True, False, True]],
                         ids=repr)
def test_from_coeffs_needs_exactly_three_reals(coeffs):
    with pytest.raises(DomainError, match="need three real Pauli coefficients"):
        TracelessObservable.from_coeffs(coeffs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observable_rejects_non_finite_coefficients(bad):
    with pytest.raises(DomainError, match=rf"\(0\.1, {bad}, 0\.3\)"):
        TracelessObservable(0.1, bad, 0.3)
    with pytest.raises(DomainError, match="not all finite"):
        TracelessObservable.from_coeffs(np.array([bad, 0.0, 0.0]))


def test_from_coeffs_keeps_the_values():
    for coeffs in ([1, 2, 3], (0.1, -0.2, 0.3), np.array([0.5, 0.0, -1e-300])):
        obs = TracelessObservable.from_coeffs(coeffs)
        assert obs.coeffs.tolist() == [float(c) for c in coeffs]
