"""The qubit state manifold.

Faithful qubit states live in the open unit Bloch ball.  This module fixes
the Pauli convention and holds the records of the paper's objects: states,
traceless observables and spherical chart points, each checked when it is
built, plus the shared input checks.  Everything here is pure and immutable.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable

import numpy as np

from .errors import BoundaryViolation, ChartSingularity, DomainError, InputError, NumericError

# Numerical guards.  The manifold is the *open* ball; points within
# EPS_BOUNDARY of the sphere are rejected.  The spherical chart excludes the
# polar axis and the center by EPS_CHART.
EPS_BOUNDARY = 1e-9
EPS_CHART = 1e-9

# The Pauli matrices in the fixed basis {|1>, |2>}.  sigma2 has -i in the
# (1,2) entry, so that the bracket (ab - ba)/(2i) satisfies [s1,s2] = s3,
# [s2,s3] = s1, [s3,s1] = s2 (the cross product on Pauli coefficients).
SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)


REAL = (numbers.Real, "a real number")
CALLABLE = (Callable, "callable")


class Record:
    """A read-only record of the fields in its __slots__, given by position
    or by keyword (a missing or unknown one raises TypeError).  _types maps a
    field to (class, noun); a value that is not an instance of the class
    raises DomainError "{field} = {value!r} is not {noun}".  == and hash
    compare the fields in _compared, repr shows those in _shown (all by
    default).  Unlike a dataclass or a NamedTuple, the class costs
    microseconds to create, not a millisecond of every start-up."""

    __slots__ = ()
    _types = {}
    _compared = _shown = None

    def __init__(self, *values, **fields):
        names = self.__slots__
        if fields:  # a field left over, or one short, is an error
            values += tuple(fields.pop(n) for n in names[len(values):] if n in fields)
        if fields or len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, values):
            kind, noun = self._types.get(name, (object, None))
            if not isinstance(value, kind):
                raise DomainError(f"{name} = {value!r} is not {noun}")
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

    __slots__ = ("a1", "a2", "a3")
    _types = dict.fromkeys(__slots__, REAL)

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
        return TracelessObservable(*require_array("c", c, (3,)).tolist())

    @staticmethod
    def from_matrix(m) -> "TracelessObservable":
        m = require_array("m", m, (2, 2), "iufc")
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite one is rejected
            return TracelessObservable(*pauli_coeffs(m).tolist())

    def to_json(self) -> dict:
        return {"pauli": [self.a1, self.a2, self.a3]}


def pauli_coeffs(m: np.ndarray) -> np.ndarray:
    """Pauli coefficients (..., 3), Re tr(m sigma_k)/2, of each matrix m of a
    stack (..., 2, 2), in closed form: the bits of the traces of m @ sigma_k."""
    return np.stack([(m[..., 0, 1] + m[..., 1, 0]).real,
                     m[..., 1, 0].imag - m[..., 0, 1].imag,
                     (m[..., 0, 0] - m[..., 1, 1]).real], axis=-1) / 2.0


def su2_bracket(a: TracelessObservable, b: TracelessObservable) -> TracelessObservable:
    """Lie bracket (ab - ba)/(2i), returned in Pauli coefficients.

    With this normalization the Pauli table reads [s1,s2]=s3, [s2,s3]=s1,
    [s3,s1]=s2, i.e. the bracket equals the cross product of the coefficient
    vectors.
    """
    require_instance("a", a, TracelessObservable)
    require_instance("b", b, TracelessObservable)
    am, bm = a.matrix(), b.matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = pauli_coeffs((am @ bm - bm @ am) / 2.0j)
    if not np.isfinite(coeffs).all():
        raise NumericError(f"[a, b] of a = {a!r} and b = {b!r} is not finite")
    return TracelessObservable(*coeffs.tolist())


class QubitState(Record):
    """A faithful qubit state: matched 2x2 density matrix and Bloch point,
    stored as floats.  A coordinate that is not a real number raises
    DomainError naming it; a point not strictly inside the unit ball raises
    BoundaryViolation."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        check_bloch_array(np.array([require_array(name, c, ())
                                    for name, c in zip("xyz", (x, y, z))]))
        super().__init__(float(x), float(y), float(z))

    @property
    def bloch(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def matrix(self) -> np.ndarray:
        return 0.5 * (SIGMA_0 + self.x * SIGMA_1 + self.y * SIGMA_2 + self.z * SIGMA_3)

    def to_json(self) -> dict:
        return {"bloch": [self.x, self.y, self.z]}


def bloch_norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis of a (..., 3) array; inf only where |v| overflows."""
    with np.errstate(over="ignore"):
        return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


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


def require_finite(name: str, value) -> None:
    """Check that the real parameter value is finite; otherwise raise
    DomainError "{name} = {value!r} is not finite"."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise DomainError(f"{name} = {value!r} is not finite")


def require_instance(name: str, value, cls: type) -> None:
    """Raise DomainError "{name} = {value!r} is not a {cls.__name__}"
    unless value is a cls."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} = {value!r} is not a {cls.__name__}")


def require_array(name: str, value, shape: tuple | None = None,
                  kinds: str = "iuf") -> np.ndarray:
    """value as a float array of real numbers, or for kinds "iufc" as the
    array numpy makes, of the shape: exact, as (2, 2), or led by ... for a
    stack, as (..., 3).  Anything else raises DomainError "{name} = {value!r}
    is not real" ("a real number" for shape (), "a real array of shape
    (..., 3)" for a shape; "complex" for kinds "iufc")."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = np.array(None)
    fits = arr.dtype.kind in kinds
    if fits and shape is not None:
        stack = shape[:1] == (...,)
        core = shape[1:] if stack else shape
        fits = (arr.shape[arr.ndim - len(core):] if stack else arr.shape) == core
    if not fits:
        what = "complex" if "c" in kinds else "real"
        noun = (what if shape is None else f"a {what} number" if shape == () else
                f"a {what} array of shape {shape!r}".replace("Ellipsis", "..."))
        raise DomainError(f"{name} = {value!r} is not {noun}")
    return arr if "c" in kinds else np.asarray(arr, dtype=float)


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


def require_all(ok, rows, error, name: str, reason: str) -> None:
    """Check that every entry of the numpy boolean mask ok holds; otherwise
    raise error "{name} = {row} {reason}" at the first failing entry.

    rows labels the entries: one value each (the shape of ok) or one row
    each (the shape of ok plus one axis).
    """
    if ok.all():
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


def check_bloch_array(points: np.ndarray, error=BoundaryViolation) -> np.ndarray:
    """Check that every point of a (..., 3) stack is a faithful state.

    Returns the points; error (NumericError for a computed image) names the
    first point that is not strictly inside the unit ball (NaN fails too).
    """
    require_all(bloch_norm(points) < 1.0 - EPS_BOUNDARY, points, error,
                "Bloch point", "is not strictly inside the unit ball")
    return points


class SphericalPoint(Record):
    """Interior chart point: r in (0,1), theta in (0,pi), phi finite.

    The chart keeps EPS_CHART away from the center (r > EPS_CHART) and from
    the polar axis (|cos theta| < 1 - EPS_CHART).
    """

    __slots__ = ("r", "theta", "phi")
    _types = dict.fromkeys(__slots__, REAL)

    def __init__(self, r: float, theta: float, phi: float):
        super().__init__(r, theta, phi)
        if not (EPS_CHART < r < 1.0):
            raise ChartSingularity(f"r = {r} outside ({EPS_CHART}, 1)")
        if not (0.0 < theta < math.pi and abs(math.cos(theta)) < 1.0 - EPS_CHART):
            raise ChartSingularity(f"theta = {theta} outside (0, pi) or "
                                   f"too close to the polar axis")
        if not math.isfinite(phi):
            raise ChartSingularity(f"phi = {phi} is not finite")


def complex_matrix_to_json(m) -> list:
    """Row-major [re, im] pairs, the wire format for 2x2 complex matrices."""
    m = require_array("m", m, (2, 2), "iufc")
    require_all(np.isfinite(m), m, DomainError, "m", "is not finite")
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


def complex_matrix_from_json(data) -> np.ndarray:
    """Inverse of complex_matrix_to_json: exactly four real [re, im] pairs."""
    pairs = require_array("data", data, (..., 2)).reshape(-1, 2)
    if len(pairs) != 4:
        raise InputError(f"a 2x2 complex matrix needs four [re, im] pairs, "
                         f"got {len(pairs)}")
    return np.array(pairs).view(complex).reshape(2, 2)
