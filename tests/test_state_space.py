import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from qig.errors import BoundaryViolation, ChartSingularity, DomainError
from qig.state_space import (PAULIS, SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3,
                             QubitState, SphericalPoint, TracelessObservable,
                             complex_matrix_from_json, complex_matrix_to_json,
                             pauli_coeffs, require_all, su2_bracket)

E1 = TracelessObservable(1.0, 0.0, 0.0)
E2 = TracelessObservable(0.0, 1.0, 0.0)
E3 = TracelessObservable(0.0, 0.0, 1.0)


def test_pauli_algebra():
    s0, s1, s2, s3 = SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3
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


def test_pauli_coeffs_equal_the_traces_bit_for_bit():
    # Oracle: Re tr(m @ sigma_k)/2, the traces from_matrix took before the
    # closed form, on any complex matrices, one at a time.
    rng = np.random.default_rng(8)
    m = (rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
         ) * 10.0 ** rng.integers(-8, 8, (40, 1, 1))
    got = pauli_coeffs(m)
    assert got.shape == (40, 3)
    for row, mi in zip(got, m):
        assert row.tolist() == [float(np.trace(mi @ p).real / 2.0) for p in PAULIS]
    assert pauli_coeffs(m[0]).tolist() == got[0].tolist()


def test_state_matrix_roundtrip():
    rho = QubitState(0.2, -0.4, 0.5)
    m = rho.matrix()
    back = [np.trace(m @ p).real for p in PAULIS]
    npt.assert_allclose(back, rho.bloch, atol=1e-14)
    assert abs(np.trace(m) - 1.0) < 1e-15
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_boundary_rejected():
    with pytest.raises(BoundaryViolation):
        QubitState(1.0, 0.0, 0.0)
    with pytest.raises(BoundaryViolation):
        QubitState(0.6, 0.6, 0.6)


_BOUNDARY = "is not strictly inside the unit ball"

# What the state constructor that QubitState replaced (state_from_bloch)
# gave for each input: the stored coordinates, all of type float, or the
# error class and its whole message.  A coordinate that is not a real
# number, True included, is named by its parameter.
_STATE_PARITY = [
    ((0.1, 0.2, 0.3), [0.1, 0.2, 0.3]),
    ((np.float64(0.1), np.float64(-0.2), np.float64(0.3)), [0.1, -0.2, 0.3]),
    ((0, 0, 0), [0.0, 0.0, 0.0]),
    ((np.int64(0), -1e-300, 0.5), [0.0, -1e-300, 0.5]),
    ((1, 0, 0), (BoundaryViolation, f"Bloch point = [1.0, 0.0, 0.0] {_BOUNDARY}")),
    ((True, 0, 0), (DomainError, "x = True is not a real number")),
    ((1.0, 0.0, 0.0), (BoundaryViolation, f"Bloch point = [1.0, 0.0, 0.0] {_BOUNDARY}")),
    ((0.6, 0.6, 0.6), (BoundaryViolation, f"Bloch point = [0.6, 0.6, 0.6] {_BOUNDARY}")),
    ((math.nan, 0.0, 0.0),
     (BoundaryViolation, f"Bloch point = [nan, 0.0, 0.0] {_BOUNDARY}")),
    ((math.inf, 0, 0), (BoundaryViolation, f"Bloch point = [inf, 0.0, 0.0] {_BOUNDARY}")),
    (("x", 0.0, 0.0), (DomainError, "x = 'x' is not a real number")),
    ((0.1j, 0.0, 0.0), (DomainError, "x = 0.1j is not a real number")),
    ((complex(0.1, 0.0), 0.0, 0.0), (DomainError, "x = (0.1+0j) is not a real number")),
    (([0.1, 0.2], 0.0, 0.0), (DomainError, "x = [0.1, 0.2] is not a real number")),
    ((None, 0, 0), (DomainError, "x = None is not a real number")),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coords,want", [
    pytest.param(coords, want, id=repr(coords)) for coords, want in _STATE_PARITY])
def test_qubit_state_checks_as_state_from_bloch_did(coords, want):
    if isinstance(want, list):
        state = QubitState(*coords)
        got = [state.x, state.y, state.z]
        assert got == want and [type(v) for v in got] == [float] * 3
        return
    cls, message = want
    with pytest.raises(cls) as err:
        QubitState(*coords)
    assert type(err.value) is cls and str(err.value) == message


@pytest.mark.filterwarnings("error")
def test_qubit_state_of_a_column_is_domain_error():
    # state_from_bloch raised a raw IndexError for coordinates of shape (1,).
    with pytest.raises(DomainError) as err:
        QubitState([0.1], [0.2], [0.3])
    assert str(err.value) == "x = [0.1] is not a real number"


def test_chart_singularities():
    with pytest.raises(ChartSingularity):
        SphericalPoint(0.5, 0.0, 0.0)
    with pytest.raises(ChartSingularity):
        SphericalPoint(1.2, 1.0, 0.0)
    with pytest.raises(ChartSingularity):
        SphericalPoint(0.5, 1e-12, 0.0)  # polar axis
    with pytest.raises(ChartSingularity):
        SphericalPoint(0.0, 1.0, 0.0)  # center


def test_json_wire_formats():
    rho = QubitState(0.1, 0.2, -0.3)
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
    # require_all passes a mask exactly when the all-reduction holds.
    try:
        require_all(mask, np.zeros(mask.shape), DomainError, "x", "fails")
    except DomainError:
        assert not mask.all()
    else:
        assert mask.all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [[0.1, 0.2, 0.3, 0.4], [0.1], [], 0.5,
                                    [[0.1, 0.2, 0.3]], [0.1, None, 0.3],
                                    ["0.1", "0.2", "0.3"], [1j, 0.0, 0.0],
                                    [[0.1], [0.2, 0.3]], [True, False, True]],
                         ids=repr)
def test_from_coeffs_needs_exactly_three_reals(coeffs):
    with pytest.raises(DomainError) as err:
        TracelessObservable.from_coeffs(coeffs)
    assert str(err.value) == f"c = {coeffs!r} is not a real array of shape (3,)"


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
