"""The qubit state manifold.

Faithful qubit states live in the open unit Bloch ball.  This module fixes
the Pauli convention, converts between the density-matrix, Cartesian and
spherical pictures, and evaluates expectation values of traceless
observables.  Everything here is pure and immutable.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable

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


class Record:
    """A read-only record of the fields in its __slots__, set in order by
    Record.__init__, which rejects a field named in _reals that is not a
    numbers.Real.  == and hash compare the fields in _compared, repr shows
    those in _shown (all by default).  Unlike a dataclass, the class costs
    microseconds to create, not a millisecond of every start-up."""

    __slots__ = _reals = ()
    _compared = _shown = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            if name in self._reals and not isinstance(value, numbers.Real):
                raise DomainError(f"{name} = {value!r} is not a real number")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values(self.__slots__)

    def _values(self, names) -> tuple:
        return tuple(getattr(self, name) for name in names or self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self._compared) == other._values(other._compared)

    def __hash__(self):
        return hash(self._values(self._compared))

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}"
                  for name in self._shown or self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


class TracelessObservable(Record):
    """A traceless Hermitian 2x2 operator, as Pauli coefficients (a1,a2,a3)."""

    __slots__ = _reals = ("a1", "a2", "a3")

    def __init__(self, a1: float, a2: float, a3: float):
        super().__init__(a1, a2, a3)
        if not all(math.isfinite(a) for a in (a1, a2, a3)):
            raise DomainError(f"Pauli coefficients ({a1}, {a2}, {a3}) are not "
                              f"all finite")

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3], dtype=float)

    def matrix(self) -> np.ndarray:
        return self.a1 * SIGMA_1 + self.a2 * SIGMA_2 + self.a3 * SIGMA_3

    @staticmethod
    def from_coeffs(c) -> "TracelessObservable":
        """From exactly three real Pauli coefficients; anything else raises
        DomainError naming it."""
        try:
            arr = np.asarray(c)
        except ValueError:  # a ragged nesting
            arr = None
        if arr is None or arr.shape != (3,) or arr.dtype.kind not in "iuf":
            raise DomainError(f"need three real Pauli coefficients, got {c!r}")
        return TracelessObservable(*arr.astype(float).tolist())

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


class QubitState(Record):
    """A faithful qubit state: matched 2x2 density matrix and Bloch point."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        super().__init__(x, y, z)

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


def state_from_bloch(x: float, y: float, z: float) -> QubitState:
    """Build a faithful state from Cartesian Bloch coordinates."""
    check_bloch_array(require_real("Bloch point", (x, y, z)))
    return QubitState(float(x), float(y), float(z))


def bloch_norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis of a (..., 3) array, without overflow."""
    return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


def bloch_stack(points) -> np.ndarray:
    """points as a float (..., 3) stack of Bloch vectors.

    Any other shape raises DomainError naming it.
    """
    v = require_real("points", points)
    if v.shape[-1:] != (3,):
        raise DomainError(f"expected Bloch vectors (..., 3), got shape {v.shape}")
    return v


def require_count(name: str, value, minimum: int = 1, error=DomainError) -> None:
    """Check that value is an integer >= minimum (a bool is not one);
    otherwise raise error "{name} = {value!r} is not an integer >= minimum"."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum):
        raise error(f"{name} = {value!r} is not an integer >= {minimum}")


def require_positive(owner: str, name: str, value, error=DomainError) -> None:
    """Check that the real parameter value of owner is finite and > 0;
    otherwise raise error "{owner}: {name} = {value!r} is not finite and > 0"."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise error(f"{owner}: {name} = {value!r} is not finite and > 0")


def require_finite(name: str, value, error=DomainError) -> None:
    """Check that the real parameter value is finite; otherwise raise error
    "{name} = {value!r} is not finite"."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise error(f"{name} = {value!r} is not finite")


def require_real(name: str, value, error=DomainError) -> np.ndarray:
    """value as a float array; a value that is not a number or an array of
    integers or floats (a string, a complex number, a ragged nesting) raises
    error "{name} = {value!r} is not real"."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise error(f"{name} = {value!r} is not real")
    return np.asarray(arr, dtype=float)


def require_items(name: str, value, noun: str) -> tuple:
    """The items of value, a non-empty iterable other than a string, as a
    tuple; otherwise raise DomainError "{name} = {value!r} is not a
    sequence of {noun}s" or, for no items, "... has no {noun}"."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise DomainError(f"{name} = {value!r} is not a sequence of {noun}s")
    items = tuple(value)
    if not items:
        raise DomainError(f"{name} = {value!r} has no {noun}")
    return items


def all_true(ok) -> bool:
    """Whether every entry of the numpy boolean mask ok holds.

    A 0-d mask (a single point's check) is read with bool(), which costs a
    fraction of the ok.all() reduction that a stack takes.
    """
    return bool(ok) if ok.ndim == 0 else bool(ok.all())


def require_all(ok, rows, error, name: str, reason: str) -> None:
    """Check that every entry of the numpy boolean mask ok holds; otherwise
    raise error "{name} = {row} {reason}" at the first failing entry.

    rows labels the entries: one value each (the shape of ok) or one row
    each (the shape of ok plus one axis).
    """
    if all_true(ok):
        return
    row = np.reshape(rows, (np.size(ok), -1))[int(np.argmin(np.ravel(ok)))].tolist()
    raise error(f"{name} = {row[0] if np.ndim(rows) == np.ndim(ok) else row} "
                f"{reason}")


def ball_radii(v: np.ndarray) -> np.ndarray:
    """|v| of each point of a (..., 3) stack; each must lie in the open ball.

    Written so that a NaN coordinate fails; the DomainError names the first
    failing point.
    """
    r = bloch_norm(v)
    require_all(r < 1.0, v, DomainError, "point", "is not inside the open ball")
    return r


def check_bloch_array(points: np.ndarray) -> np.ndarray:
    """Check that every point of a (..., 3) stack is a faithful state.

    Returns the points; the error names the first point that is not
    strictly inside the unit ball (NaN fails too).
    """
    require_all(bloch_norm(points) < 1.0 - EPS_BOUNDARY, points, BoundaryViolation,
                "Bloch point", "is not strictly inside the unit ball")
    return points


def bloch_from_state(m) -> QubitState:
    """Recover the Bloch representation of a faithful density matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise NotAState(f"expected a 2x2 matrix, got shape {m.shape}")
    if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
        raise NotAState(f"trace is {np.trace(m)}, expected 1")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise NotAState("matrix is not Hermitian")
    eigvals = np.linalg.eigvalsh(m)
    if eigvals.min() <= EPS_BOUNDARY:
        raise NotAState(f"eigenvalue {eigvals.min()} <= {EPS_BOUNDARY}: not faithful")
    x = float(np.trace(m @ SIGMA_1).real)
    y = float(np.trace(m @ SIGMA_2).real)
    z = float(np.trace(m @ SIGMA_3).real)
    return state_from_bloch(x, y, z)


class SphericalPoint(Record):
    """Interior chart point: r in (0,1), theta in (0,pi), phi finite.

    As in spherical_from_cartesian, the chart keeps EPS_CHART away from the
    center (r > EPS_CHART) and from the polar axis (|cos theta| < 1 - EPS_CHART).
    """

    __slots__ = _reals = ("r", "theta", "phi")

    def __init__(self, r: float, theta: float, phi: float):
        super().__init__(r, theta, phi)
        if not (EPS_CHART < r < 1.0):
            raise ChartSingularity(f"r = {r} outside ({EPS_CHART}, 1)")
        if not (0.0 < theta < math.pi and abs(math.cos(theta)) < 1.0 - EPS_CHART):
            raise ChartSingularity(f"theta = {theta} outside (0, pi) or "
                                   f"too close to the polar axis")
        if not math.isfinite(phi):
            raise ChartSingularity(f"phi = {phi} is not finite")


def cartesian_from_spherical(p: SphericalPoint) -> tuple[float, float, float]:
    """Standard convention x = r sin(theta) cos(phi), etc."""
    st = math.sin(p.theta)
    return (p.r * st * math.cos(p.phi),
            p.r * st * math.sin(p.phi),
            p.r * math.cos(p.theta))


def spherical_from_cartesian(x: float, y: float, z: float) -> SphericalPoint:
    """Invert the spherical chart; rejects the polar axis and the center."""
    r = math.sqrt(x * x + y * y + z * z)
    if r <= EPS_CHART:
        raise ChartSingularity(f"r = {r} too close to the center")
    if abs(z) / r >= 1.0 - EPS_CHART:
        raise ChartSingularity("point lies on the polar axis")
    theta = math.acos(z / r)
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return SphericalPoint(r, theta, phi)


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
