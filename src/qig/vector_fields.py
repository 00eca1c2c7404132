"""Fundamental and gradient vector fields on the Bloch ball.

Fundamental fields generate the unitary rotations (Cartesian form b x v);
gradient fields are the metric duals of the expectation-value differentials.
Both carry a spherical-chart evaluator mirroring the closed formulas and a
Cartesian evaluator that is regular across the polar axis; all brackets are
taken in the Cartesian chart.  Cartesian evaluators take a (..., 3) array of
Bloch vectors, a single point being a (3,) array, and return the velocities
in the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NeighborhoodOutsideBall
from .metric_family import (MonotoneFunctionSpec, big_f, finite_f, g_from_f,
                            inverse_metric, metric_cartesian)
from .state_space import (EPS_BOUNDARY, SphericalPoint, TracelessObservable,
                          ball_radii, bloch_norm, first_failing)

BRACKET_STEP = 1e-4
_STEPS = np.array([1.0, -1.0, 0.5, -0.5])  # stencil steps, in units of h


@dataclass(frozen=True)
class TangentVector:
    chart: str  # "spherical" | "cartesian"
    components: np.ndarray
    point: tuple

    def to_json(self) -> dict:
        return {"chart": self.chart,
                "components": list(np.asarray(self.components, dtype=float)),
                "point": list(self.point)}


@dataclass(frozen=True)
class VectorField:
    """A vector field given by chart evaluators.

    ``cartesian`` maps a (..., 3) array of Bloch vectors to their Bloch
    velocities and is defined on the whole open ball.
    ``spherical`` returns (v^r, v^theta, v^phi) coordinate components and is
    only defined on the spherical chart.
    """

    descriptor: str
    cartesian: Callable[[np.ndarray], np.ndarray]
    spherical: Optional[Callable[[SphericalPoint], np.ndarray]] = None

    def at_spherical(self, p: SphericalPoint) -> TangentVector:
        return TangentVector("spherical", np.asarray(self.spherical(p), dtype=float),
                             (p.r, p.theta, p.phi))

    def at_cartesian(self, v) -> TangentVector:
        v = np.asarray(v, dtype=float)
        ball_radii(v)
        return TangentVector("cartesian", np.asarray(self.cartesian(v), dtype=float),
                             tuple(v.tolist()))


def _frame(p: SphericalPoint):
    """Orthonormal frame (radial, polar, azimuthal) at a chart point."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    n = np.array([st * cp, st * sp, ct])
    th = np.array([ct * cp, ct * sp, -st])
    ph = np.array([-sp, cp, 0.0])
    return n, th, ph


def fundamental_field(b: TracelessObservable) -> VectorField:
    """Rotation generator b1 X1 + b2 X2 + b3 X3; purely tangential.

    Spherical components per the closed formulas
        X1 = -sin(phi) d_theta - cot(theta) cos(phi) d_phi
        X2 =  cos(phi) d_theta - cot(theta) sin(phi) d_phi
        X3 =  d_phi
    Cartesian form: v -> b x v.
    """
    coeffs = b.coeffs
    b1, b2, b3 = coeffs.tolist()

    def cartesian(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        x, y, z = v[..., 0], v[..., 1], v[..., 2]
        return np.stack((b2 * z - b3 * y, b3 * x - b1 * z, b1 * y - b2 * x),
                        axis=-1)

    def spherical(p: SphericalPoint) -> np.ndarray:
        st, ct = math.sin(p.theta), math.cos(p.theta)
        sp, cp = math.sin(p.phi), math.cos(p.phi)
        cot = ct / st
        return np.array([
            0.0,
            -b1 * sp + b2 * cp,
            -cot * (b1 * cp + b2 * sp) + b3,
        ])

    return VectorField(f"fundamental({coeffs.tolist()})",
                       cartesian=cartesian, spherical=spherical)


def gradient_field_closed(a: TracelessObservable,
                          spec: MonotoneFunctionSpec) -> VectorField:
    """Gradient field of the expectation value of a, closed form.

    Spherical components (with n, th, ph the orthonormal frame):
        Y^r     = (1-r^2) (a . n)
        Y^theta = g(r) (a . th)
        Y^phi   = g(r) (a . ph) / sin(theta)
    Cartesian form: r g(r) a + ((1-r^2) - r g(r)) (a . n) n, where
    r g(r) = (1+r) f((1-r)/(1+r)) extends continuously to the center; points
    with r < 1e-12 take that limit, f(1) a.
    """
    coeffs = a.coeffs

    def spherical(p: SphericalPoint) -> np.ndarray:
        n, th, ph = _frame(p)
        g = g_from_f(spec, p.r)
        return np.array([
            (1.0 - p.r * p.r) * float(coeffs @ n),
            g * float(coeffs @ th),
            g * float(coeffs @ ph) / math.sin(p.theta),
        ])

    def cartesian(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        r = bloch_norm(v)
        if not ((r >= 1e-12) & (r < 1.0)).all():
            ball_radii(v)  # raises for a point outside the open ball
            center = r < 1e-12
            out = np.empty(v.shape)
            out[center] = float(spec.f_raw(1.0)) * coeffs
            out[~center] = cartesian(v[~center])
            return out
        rg = (1.0 + r) * finite_f(spec, (1.0 - r) / (1.0 + r))
        radial = ((1.0 - r * r) - rg) * (v @ coeffs) / (r * r)
        return rg[..., None] * coeffs + radial[..., None] * v

    return VectorField(f"gradient({coeffs.tolist()}, {spec.name})",
                       cartesian=cartesian, spherical=spherical)


def gradient_field_from_metric(a: TracelessObservable,
                               spec: MonotoneFunctionSpec) -> VectorField:
    """Gradient field built by raising the differential with the inverse metric.

    Independent cross-check of the closed form: assembles the metric at the
    point, inverts it, and applies it to the differential of l_a = a . v
    (whose Cartesian differential is the constant covector a).
    """
    coeffs = a.coeffs

    def spherical(p: SphericalPoint) -> np.ndarray:
        from .metric_family import metric_spherical
        n, th, ph = _frame(p)
        dl = np.array([
            float(coeffs @ n),
            p.r * float(coeffs @ th),
            p.r * math.sin(p.theta) * float(coeffs @ ph),
        ])
        ginv = inverse_metric(metric_spherical(spec, p)).matrix
        return ginv @ dl

    def cartesian(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        metric = metric_cartesian(spec, v[..., 0], v[..., 1], v[..., 2])
        return inverse_metric(metric).matrix @ coeffs

    return VectorField(f"gradient_from_metric({coeffs.tolist()}, {spec.name})",
                       cartesian=cartesian, spherical=spherical)


def rescaled_gradient_field(a: TracelessObservable, a_const: float) -> VectorField:
    """(1/sqrt(A)) times the gradient field for the family_a(A) metric."""
    from .metric_family import family_a
    base = gradient_field_closed(a, family_a(a_const))
    scale = 1.0 / math.sqrt(a_const)
    return VectorField(f"rescaled_gradient({a.coeffs.tolist()}, A={a_const:g})",
                       cartesian=lambda v: scale * base.cartesian(v),
                       spherical=lambda p: scale * base.spherical(p))


def lie_bracket_numeric(v_field: VectorField, w_field: VectorField, p,
                        h: float = BRACKET_STEP) -> TangentVector:
    """[V, W] = DW.V - DV.W at p via central differences in the Cartesian chart.

    p is one point (3,) or a stack (..., 3); the components have its shape.
    Each field is evaluated once, on every base point together with its 12
    stencil points v +- h e_j and v +- (h/2) e_j.  With Richardson
    extrapolation over (h, h/2) the truncation error is O(h^4); roundoff
    grows like eps/h^2, so the default step balances both.
    """
    v = np.asarray(p, dtype=float)
    r = bloch_norm(v)
    fits = (0.0 < h) & (h < (1.0 - EPS_BOUNDARY - r) / 2.0)
    if not fits.all():
        raise NeighborhoodOutsideBall(f"stencil step h = {h} is not positive or "
                                      f"leaves the ball at point "
                                      f"{first_failing(fits, v)}")
    # Row 0 is the base point; row 1 + 3 s + j is step s of _STEPS along e_j.
    offsets = np.zeros((13, 3))
    offsets[1:] = (h * _STEPS[:, None, None] * np.eye(3)).reshape(12, 3)
    pts = v[..., None, :] + offsets
    vals_v = v_field.cartesian(pts)
    vals_w = w_field.cartesian(pts)

    def bracket(plus, minus, step):
        # jac[..., j, i] = d field_i / d x_j
        jac_w = (vals_w[..., plus, :] - vals_w[..., minus, :]) / (2.0 * step)
        jac_v = (vals_v[..., plus, :] - vals_v[..., minus, :]) / (2.0 * step)
        return (np.einsum("...ji,...j->...i", jac_w, vals_v[..., 0, :])
                - np.einsum("...ji,...j->...i", jac_v, vals_w[..., 0, :]))

    out = (4.0 * bracket(slice(7, 10), slice(10, 13), h / 2.0)
           - bracket(slice(1, 4), slice(4, 7), h)) / 3.0
    return TangentVector("cartesian", out, tuple(v.tolist()))


@dataclass(frozen=True)
class CommutatorReport:
    """Numeric check of [Y_i, Y_j] = F(r) X_k and of bracket closure."""

    spec: str
    h: float
    points: tuple
    per_point_errors: tuple
    max_error: float
    closure_residual: float
    convention_sign: float

    def to_json(self) -> dict:
        return {"spec": self.spec, "h": self.h,
                "points": [list(p) for p in self.points],
                "per_point_errors": list(self.per_point_errors),
                "max_error": self.max_error,
                "closure_residual": self.closure_residual,
                "convention_sign": self.convention_sign}


def verify_commutator_relations(spec: MonotoneFunctionSpec, points,
                                h: float = BRACKET_STEP) -> CommutatorReport:
    """Compare numeric gradient-field brackets with F(r) times the rotations.

    Also measures the empirical sign in [X_i, X_j] = sign * X_k (pinned by a
    convention test, not assumed) and checks that the mixed brackets
    [X_i, Y_j] close onto the span of the six basis fields with constant
    coefficients (one global least-squares across all points).
    """
    basis = [TracelessObservable.from_coeffs(e) for e in np.eye(3)]
    x_fields = [fundamental_field(b) for b in basis]
    y_fields = [gradient_field_closed(b, spec) for b in basis]
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    basis_vals = [f.cartesian(pts) for f in x_fields + y_fields]
    fr = np.asarray(big_f(spec, bloch_norm(pts)))
    per_point = np.zeros(len(pts))
    for i, j, k in cyclic:
        num = lie_bracket_numeric(y_fields[i], y_fields[j], pts, h=h).components
        dev = np.max(np.abs(num - fr[:, None] * basis_vals[k]), axis=1)
        per_point = np.maximum(per_point, dev)

    # Convention sign of the fundamental-field brackets, measured once.
    num_xx = lie_bracket_numeric(x_fields[0], x_fields[1], pts[0], h=h).components
    convention_sign = float(np.sign(num_xx @ basis_vals[2][0]))

    # Mixed-bracket closure: stack [X_i, Y_j] over all points and fit constant
    # coefficients over the six basis fields, one right-hand side per (i, j).
    mat = np.stack(basis_vals, axis=-1).reshape(-1, 6)
    rhs = np.column_stack([
        lie_bracket_numeric(x_fields[i], y_fields[j], pts, h=h).components.ravel()
        for i in range(3) for j in range(3)])
    coef, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = float(np.max(np.abs(mat @ coef - rhs)))

    return CommutatorReport(spec.name, float(h),
                            tuple(tuple(v) for v in pts.tolist()),
                            tuple(per_point.tolist()), float(np.max(per_point)),
                            residual, convention_sign)
