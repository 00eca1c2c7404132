"""Fundamental and gradient vector fields on the Bloch ball.

Fundamental fields generate the unitary rotations (Cartesian form b x v);
gradient fields are the metric duals of the expectation-value differentials.
Each field's formula is written once, in the Cartesian chart, which is
regular across the polar axis: on a (..., 3) array of Bloch vectors for
brackets, metrics and spherical components (derived through the orthonormal
frame at the chart point), and on one point's Python floats for RK4.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NeighborhoodOutsideBall, NumericError
from .metric_family import (MonotoneFunctionSpec, big_f, family_a, finite_f,
                            inverse_metric, metric_cartesian)
from .state_space import (CALLABLE, EPS_BOUNDARY, Record, SphericalPoint,
                          TracelessObservable, ball_radii, bloch_norm,
                          require_all, require_array, require_instance,
                          require_positive)

BRACKET_STEP = 1e-4
_STEPS = np.array([1.0, -1.0, 0.5, -0.5])  # stencil steps, in units of h


class TangentVector(Record):
    __slots__ = ("chart", "components", "point")  # chart: "spherical" | "cartesian"

    def to_json(self) -> dict:
        return {"chart": self.chart,
                "components": list(np.asarray(self.components, dtype=float)),
                "point": list(self.point)}


class VectorField(Record):
    """A vector field given by its Cartesian evaluators, defined on the
    whole open ball: ``cartesian`` maps a (..., 3) array of Bloch vectors to
    their velocities, and ``point`` one point's coordinates to its velocity,
    as Python floats (by default through ``cartesian`` on a (3,) array).
    Fields compare by ``cartesian`` only.
    """

    __slots__ = ("cartesian", "point")
    _types = dict.fromkeys(__slots__, CALLABLE)
    _compared = ("cartesian",)

    def __init__(self, cartesian: Callable[[np.ndarray], np.ndarray],
                 point: Callable = None):
        if point is None:
            def point(*v):
                return tuple(np.asarray(self.cartesian(np.array(v)),
                                        dtype=float).tolist())
        super().__init__(cartesian, point)

    def at_spherical(self, p: SphericalPoint) -> TangentVector:
        """Coordinate components (v^r, v^theta, v^phi) at a chart point.

        With c the Cartesian velocity at r n and (n, th, ph) the orthonormal
        frame, they are (c . n, c . th / r, c . ph / (r sin(theta))).  A
        component that is not finite raises NumericError naming the point.
        """
        require_instance("p", p, SphericalPoint)
        n, th, ph = _frame(p)
        point = (p.r, p.theta, p.phi)
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.asarray(self.cartesian(p.r * n), dtype=float)
            comps = np.array([c @ n, c @ th / p.r, c @ ph / (p.r * math.sin(p.theta))])
        _require_finite(comps, point, "velocity")
        return TangentVector("spherical", comps, point)

    def at_cartesian(self, v) -> TangentVector:
        """Cartesian velocities at a point or a stack (..., 3); one that is
        not finite raises NumericError naming its point."""
        v = require_array("v", v, (..., 3))
        ball_radii(v)
        with np.errstate(over="ignore", invalid="ignore"):
            comps = np.asarray(self.cartesian(v), dtype=float)
        _require_finite(comps, v, "velocity")
        return TangentVector("cartesian", comps, tuple(v.tolist()))


def _require_finite(comps: np.ndarray, points, what: str) -> None:
    """NumericError naming the first of the points (..., 3) whose
    components comps (..., 3) are not all finite."""
    require_all(np.isfinite(comps).all(axis=-1), points, NumericError, "point",
                f"has a {what} that is not finite")


def _frame(p: SphericalPoint):
    """Orthonormal frame (radial, polar, azimuthal) at a chart point."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    n = np.array([st * cp, st * sp, ct])
    th = np.array([ct * cp, ct * sp, -st])
    ph = np.array([-sp, cp, 0.0])
    return n, th, ph


def fundamental_field(b: TracelessObservable) -> VectorField:
    """Rotation generator b1 X1 + b2 X2 + b3 X3: v -> b x v."""
    require_instance("b", b, TracelessObservable)
    b1, b2, b3 = b.coeffs.tolist()

    def point(x, y, z):  # on Python floats or on arrays of one shape
        return b2 * z - b3 * y, b3 * x - b1 * z, b1 * y - b2 * x

    def cartesian(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.empty(v.shape)  # filled in place: cheaper than np.stack
        out[..., 0], out[..., 1], out[..., 2] = point(v[..., 0], v[..., 1], v[..., 2])
        return out

    return VectorField(cartesian, point)


def gradient_field_closed(a: TracelessObservable, spec: MonotoneFunctionSpec,
                          scale: float = 1.0) -> VectorField:
    """Gradient field of the expectation value of a, closed form, times scale.

    (1-r^2) (a . n) n + r g(r) (a - (a . n) n) with n = v/r, split into its
    radial and tangential parts so that nothing cancels when r g(r) >> 1;
    r g(r) = (1+r) f((1-r)/(1+r)) extends continuously to the center, and
    points with r < 1e-12 take that limit, f(1) a.

    ``point`` takes the same coefficients on Python floats with spec.f_float;
    the center, a point outside the ball and a bad f(t) go to ``cartesian``.
    """
    require_instance("a", a, TracelessObservable)
    require_instance("spec", spec, MonotoneFunctionSpec)
    require_positive("gradient_field_closed", "scale", scale)
    coeffs = a.coeffs
    a1, a2, a3 = coeffs.tolist()

    def cartesian(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        r = bloch_norm(v)
        if not ((r >= 1e-12) & (r < 1.0)).all():
            ball_radii(v)  # raises for a point outside the open ball
            center = r < 1e-12
            out = np.empty(v.shape)
            out[center] = scale * (float(spec.f_raw(1.0)) * coeffs)
            out[~center] = cartesian(v[~center])
            return out
        rg = (1.0 + r) * finite_f(spec, (1.0 - r) / (1.0 + r))
        n = v / r[..., None]
        an = (n @ coeffs)[..., None]
        return scale * ((1.0 - r * r)[..., None] * an * n
                        + rg[..., None] * (coeffs - an * n))

    f = spec.f_float
    if f is None:
        return VectorField(cartesian)

    def point(x: float, y: float, z: float) -> tuple:
        r = math.hypot(math.hypot(x, y), z)
        if 1e-12 <= r < 1.0:
            rg = (1.0 + r) * f((1.0 - r) / (1.0 + r))
            if 0.0 < abs(rg) < math.inf:  # else f(t) is zero or not finite
                nx, ny, nz = x / r, y / r, z / r
                an = a1 * nx + a2 * ny + a3 * nz
                radial = (1.0 - r * r) * an
                return (scale * (radial * nx + rg * (a1 - an * nx)),
                        scale * (radial * ny + rg * (a2 - an * ny)),
                        scale * (radial * nz + rg * (a3 - an * nz)))
        return tuple(cartesian(np.array([x, y, z])).tolist())

    return VectorField(cartesian, point)


def gradient_field_from_metric(a: TracelessObservable,
                               spec: MonotoneFunctionSpec) -> VectorField:
    """Gradient field built by raising the differential with the inverse metric.

    Independent cross-check of the closed form: assembles the metric at the
    point, inverts it, and applies it to the differential of l_a = a . v
    (whose Cartesian differential is the constant covector a).
    """
    require_instance("a", a, TracelessObservable)
    require_instance("spec", spec, MonotoneFunctionSpec)
    coeffs = a.coeffs

    def cartesian(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        metric = metric_cartesian(spec, v[..., 0], v[..., 1], v[..., 2])
        return inverse_metric(metric).matrix @ coeffs

    return VectorField(cartesian)


def rescaled_gradient_field(a: TracelessObservable, a_const: float) -> VectorField:
    """(1/sqrt(A)) times the gradient field for the family_a(A) metric."""
    return gradient_field_closed(a, family_a(a_const), 1.0 / math.sqrt(a_const))


def lie_bracket_numeric(v_field: VectorField, w_field: VectorField, p,
                        h: float = BRACKET_STEP) -> TangentVector:
    """[V, W] = DW.V - DV.W at p via central differences in the Cartesian chart.

    p is one point (3,) or a stack (..., 3); the components have its shape.
    Each field is evaluated once, on every base point together with its 12
    stencil points v +- h e_j and v +- (h/2) e_j.  With Richardson
    extrapolation over (h, h/2) the truncation error is O(h^4); roundoff
    grows like eps/h^2, so the default step balances both.  A bracket that
    is not finite raises NumericError naming its point.
    """
    require_instance("v_field", v_field, VectorField)
    require_instance("w_field", w_field, VectorField)
    v = require_array("p", p, (..., 3))
    # h < 1/2 holds wherever the stencil fits; checked on its own, it also
    # rejects a step of any size for an empty stack.
    require_positive("lie_bracket_numeric", "h", h)
    if not h < 0.5:
        raise NeighborhoodOutsideBall(f"stencil step h = {h!r} is not below 0.5")
    require_all(h < (1.0 - EPS_BOUNDARY - bloch_norm(v)) / 2.0, v,
                NeighborhoodOutsideBall, "point",
                f"is not inside the ball by twice the stencil step h = {h!r}")
    # Row 0 is the base point; row 1 + 3 s + j is step s of _STEPS along e_j.
    offsets = np.zeros((13, 3))
    offsets[1:] = (h * _STEPS[:, None, None] * np.eye(3)).reshape(12, 3)
    pts = v[..., None, :] + offsets

    def bracket(plus, minus, step):
        # jac[..., j, i] = d field_i / d x_j
        jac_w = (vals_w[..., plus, :] - vals_w[..., minus, :]) / (2.0 * step)
        jac_v = (vals_v[..., plus, :] - vals_v[..., minus, :]) / (2.0 * step)
        return (np.einsum("...ji,...j->...i", jac_w, vals_v[..., 0, :])
                - np.einsum("...ji,...j->...i", jac_v, vals_w[..., 0, :]))

    with np.errstate(over="ignore", invalid="ignore"):
        vals_v = v_field.cartesian(pts)
        vals_w = w_field.cartesian(pts)
        out = (4.0 * bracket(slice(7, 10), slice(10, 13), h / 2.0)
               - bracket(slice(1, 4), slice(4, 7), h)) / 3.0
    _require_finite(out, v, "Lie bracket")
    return TangentVector("cartesian", out, tuple(v.tolist()))


class CommutatorReport(Record):
    """Numeric check of [Y_i, Y_j] = F(r) X_k and of bracket closure."""

    __slots__ = ("spec", "max_error", "closure_residual", "convention_sign")


def verify_commutator_relations(spec: MonotoneFunctionSpec,
                                points) -> CommutatorReport:
    """Compare numeric gradient-field brackets with F(r) times the rotations.

    Also measures the empirical sign in [X_i, X_j] = sign * X_k (pinned by a
    convention test, not assumed) and checks that the mixed brackets
    [X_i, Y_j] close onto the span of the six basis fields with constant
    coefficients (one global least-squares across all points).
    """
    pts = require_array("points", points, (..., 3)).reshape(-1, 3)
    if ball_radii(pts).size == 0:  # ball_radii names a point outside the ball
        raise DomainError("commutator check needs at least one point, "
                          "got an empty point set")
    basis = [TracelessObservable.from_coeffs(e) for e in np.eye(3)]
    x_fields = [fundamental_field(b) for b in basis]
    y_fields = [gradient_field_closed(b, spec) for b in basis]
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    fr = np.asarray(big_f(spec, bloch_norm(pts)))  # a spec whose F overflows raises here
    basis_vals = [f.cartesian(pts) for f in x_fields + y_fields]
    per_point = np.zeros(len(pts))
    for i, j, k in cyclic:
        num = lie_bracket_numeric(y_fields[i], y_fields[j], pts).components
        dev = np.max(np.abs(num - fr[:, None] * basis_vals[k]), axis=1)
        per_point = np.maximum(per_point, dev)

    # Convention sign of the fundamental-field brackets, measured once.
    num_xx = lie_bracket_numeric(x_fields[0], x_fields[1], pts[0]).components
    convention_sign = float(np.sign(num_xx @ basis_vals[2][0]))

    # Mixed-bracket closure: stack [X_i, Y_j] over all points and fit constant
    # coefficients over the six basis fields, one right-hand side per (i, j).
    mat = np.stack(basis_vals, axis=-1).reshape(-1, 6)
    rhs = np.column_stack([
        lie_bracket_numeric(x_fields[i], y_fields[j], pts).components.ravel()
        for i in range(3) for j in range(3)])
    coef, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = float(np.max(np.abs(mat @ coef - rhs)))

    return CommutatorReport(spec.name, float(np.max(per_point)), residual,
                            convention_sign)
