"""The qubit state manifold.

Faithful qubit states live in the open unit Bloch ball.  This module fixes
the Pauli convention, converts between the density-matrix, Cartesian and
spherical pictures, and evaluates expectation values of traceless
observables.  Everything here is pure and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryViolation, ChartSingularity, DomainError,
                     InputError, NotAState)

# Numerical guards.  The manifold is the *open* ball; points within
# EPS_BOUNDARY of the sphere are rejected.  The spherical chart excludes the
# polar axis and the center by EPS_CHART.
EPS_BOUNDARY = 1e-9
EPS_CHART = 1e-9

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)


def pauli_basis():
    """Return (sigma0, sigma1, sigma2, sigma3) in the fixed basis {|1>, |2>}.

    Standard convention: sigma2 has -i in the (1,2) entry, so that the
    bracket (ab - ba)/(2i) satisfies [s1,s2] = s3, [s2,s3] = s1,
    [s3,s1] = s2 (the cross product on Pauli coefficients).
    """
    return (SIGMA_0.copy(), SIGMA_1.copy(), SIGMA_2.copy(), SIGMA_3.copy())


@dataclass(frozen=True)
class TracelessObservable:
    """A traceless Hermitian 2x2 operator, as Pauli coefficients (a1,a2,a3)."""

    a1: float
    a2: float
    a3: float

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3], dtype=float)

    def matrix(self) -> np.ndarray:
        return self.a1 * SIGMA_1 + self.a2 * SIGMA_2 + self.a3 * SIGMA_3

    @staticmethod
    def from_coeffs(c) -> "TracelessObservable":
        c = np.asarray(c, dtype=float)
        return TracelessObservable(float(c[0]), float(c[1]), float(c[2]))

    @staticmethod
    def from_matrix(m) -> "TracelessObservable":
        m = np.asarray(m, dtype=complex)
        return TracelessObservable(
            float(np.trace(m @ SIGMA_1).real / 2.0),
            float(np.trace(m @ SIGMA_2).real / 2.0),
            float(np.trace(m @ SIGMA_3).real / 2.0),
        )

    def to_json(self) -> dict:
        return {"pauli": [self.a1, self.a2, self.a3]}


def su2_bracket(a: TracelessObservable, b: TracelessObservable) -> TracelessObservable:
    """Lie bracket (ab - ba)/(2i), returned in Pauli coefficients.

    With this normalization the Pauli table reads [s1,s2]=s3, [s2,s3]=s1,
    [s3,s1]=s2, i.e. the bracket equals the cross product of the coefficient
    vectors.
    """
    am, bm = a.matrix(), b.matrix()
    return TracelessObservable.from_matrix((am @ bm - bm @ am) / 2.0j)


@dataclass(frozen=True)
class QubitState:
    """A faithful qubit state: matched 2x2 density matrix and Bloch point."""

    x: float
    y: float
    z: float

    @property
    def bloch(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.bloch))

    def matrix(self) -> np.ndarray:
        return 0.5 * (SIGMA_0 + self.x * SIGMA_1 + self.y * SIGMA_2 + self.z * SIGMA_3)

    def to_json(self) -> dict:
        return {"bloch": [self.x, self.y, self.z]}


def state_from_bloch(x: float, y: float, z: float,
                     eps_boundary: float = EPS_BOUNDARY) -> QubitState:
    """Build a faithful state from Cartesian Bloch coordinates."""
    check_bloch_array(np.array((x, y, z)), eps_boundary)
    return QubitState(float(x), float(y), float(z))


def bloch_norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis of a (..., 3) array, without overflow."""
    return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


def first_failing(ok, rows) -> list:
    """The first row of the stack rows (..., k) at which the mask ok fails."""
    rows = np.asarray(rows)
    return rows.reshape(-1, rows.shape[-1])[int(np.argmin(np.ravel(ok)))].tolist()


def ball_radii(v: np.ndarray) -> np.ndarray:
    """|v| of each point of a (..., 3) stack; each must lie in the open ball.

    Written so that a NaN coordinate fails; the DomainError names the first
    failing point.
    """
    r = bloch_norm(v)
    inside = r < 1.0
    if not inside.all():
        raise DomainError(f"point {first_failing(inside, v)} is not inside "
                          f"the open ball")
    return r


def check_bloch_array(points: np.ndarray,
                      eps_boundary: float = EPS_BOUNDARY) -> np.ndarray:
    """Check that every point of a (..., 3) stack is a faithful state.

    Returns the points; the error names the first point that is not
    strictly inside the unit ball (NaN fails too).
    """
    inside = bloch_norm(points) < 1.0 - eps_boundary
    if not inside.all():
        raise BoundaryViolation(f"Bloch point {first_failing(inside, points)} "
                                f"is not strictly inside the unit ball")
    return points


def bloch_from_state(m, eps_boundary: float = EPS_BOUNDARY) -> QubitState:
    """Recover the Bloch representation of a faithful density matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise NotAState(f"expected a 2x2 matrix, got shape {m.shape}")
    if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
        raise NotAState(f"trace is {np.trace(m)}, expected 1")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise NotAState("matrix is not Hermitian")
    eigvals = np.linalg.eigvalsh(m)
    if eigvals.min() <= eps_boundary:
        raise NotAState(f"eigenvalue {eigvals.min()} <= {eps_boundary}: not faithful")
    x = float(np.trace(m @ SIGMA_1).real)
    y = float(np.trace(m @ SIGMA_2).real)
    z = float(np.trace(m @ SIGMA_3).real)
    return state_from_bloch(x, y, z, eps_boundary=eps_boundary)


@dataclass(frozen=True)
class SphericalPoint:
    """Interior chart point: r in (0,1), theta in (0,pi), phi finite.

    As in spherical_from_cartesian, the chart keeps EPS_CHART away from the
    center (r > EPS_CHART) and from the polar axis (|cos theta| < 1 - EPS_CHART).
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (EPS_CHART < self.r < 1.0):
            raise ChartSingularity(f"r = {self.r} outside ({EPS_CHART}, 1)")
        if not (0.0 < self.theta < math.pi
                and abs(math.cos(self.theta)) < 1.0 - EPS_CHART):
            raise ChartSingularity(f"theta = {self.theta} outside (0, pi) or "
                                   f"too close to the polar axis")
        if not math.isfinite(self.phi):
            raise ChartSingularity(f"phi = {self.phi} is not finite")


def cartesian_from_spherical(p: SphericalPoint) -> tuple[float, float, float]:
    """Standard convention x = r sin(theta) cos(phi), etc."""
    st = math.sin(p.theta)
    return (p.r * st * math.cos(p.phi),
            p.r * st * math.sin(p.phi),
            p.r * math.cos(p.theta))


def spherical_from_cartesian(x: float, y: float, z: float,
                             eps_chart: float = EPS_CHART) -> SphericalPoint:
    """Invert the spherical chart; rejects the polar axis and the center."""
    r = math.sqrt(x * x + y * y + z * z)
    if r <= eps_chart:
        raise ChartSingularity(f"r = {r} too close to the center")
    if abs(z) / r >= 1.0 - eps_chart:
        raise ChartSingularity("point lies on the polar axis")
    theta = math.acos(z / r)
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return SphericalPoint(r, theta, phi)


def state_from_spherical(p: SphericalPoint) -> QubitState:
    return state_from_bloch(*cartesian_from_spherical(p))


def expectation_value(a: TracelessObservable, p: SphericalPoint) -> float:
    """Expectation-value function of a at the chart point p.

    Returns (a1 x + a2 y + a3 z)/2 in the spherical parametrization.  Note
    the 1/2: this equals Tr(rho a)/2 for the reconstructed density matrix.
    """
    x, y, z = cartesian_from_spherical(p)
    return 0.5 * (a.a1 * x + a.a2 * y + a.a3 * z)


def complex_matrix_to_json(m) -> list:
    """Row-major [re, im] pairs, the wire format for 2x2 complex matrices."""
    m = np.asarray(m, dtype=complex)
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


def complex_matrix_from_json(data) -> np.ndarray:
    """Inverse of complex_matrix_to_json: exactly four [re, im] pairs."""
    if len(data) != 4:
        raise InputError(f"a 2x2 complex matrix needs four [re, im] pairs, "
                         f"got {len(data)}")
    return np.array([complex(re, im) for re, im in data]).reshape(2, 2)
