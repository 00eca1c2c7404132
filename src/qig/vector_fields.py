"""Fundamental and gradient vector fields on the Bloch ball.

Fundamental fields generate the unitary rotations (Cartesian form b x v);
gradient fields are the metric duals of the expectation-value differentials.
Both carry a spherical-chart evaluator mirroring the closed formulas and a
Cartesian evaluator that is regular across the polar axis; all brackets are
taken in the Cartesian chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NeighborhoodOutsideBall
from .metric_family import (MonotoneFunctionSpec, big_f, g_from_f,
                            inverse_metric, metric_cartesian)
from .state_space import (EPS_BOUNDARY, SphericalPoint, TracelessObservable,
                          cartesian_from_spherical)

BRACKET_STEP = 1e-4


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

    ``cartesian`` maps a Bloch vector to a Bloch velocity and is defined on
    the whole punctured (or full, for fundamental fields) ball.
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
        return TangentVector("cartesian", np.asarray(self.cartesian(v), dtype=float),
                             tuple(v))


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

    def spherical(p: SphericalPoint) -> np.ndarray:
        st, ct = math.sin(p.theta), math.cos(p.theta)
        sp, cp = math.sin(p.phi), math.cos(p.phi)
        cot = ct / st
        b1, b2, b3 = coeffs
        return np.array([
            0.0,
            -b1 * sp + b2 * cp,
            -cot * (b1 * cp + b2 * sp) + b3,
        ])

    return VectorField(f"fundamental({coeffs.tolist()})",
                       cartesian=lambda v: np.cross(coeffs, v),
                       spherical=spherical)


def gradient_field_closed(a: TracelessObservable,
                          spec: MonotoneFunctionSpec) -> VectorField:
    """Gradient field of the expectation value of a, closed form.

    Spherical components (with n, th, ph the orthonormal frame):
        Y^r     = (1-r^2) (a . n)
        Y^theta = g(r) (a . th)
        Y^phi   = g(r) (a . ph) / sin(theta)
    Cartesian form: r g(r) a + ((1-r^2) - r g(r)) (a . n) n, where
    r g(r) = (1+r) f((1-r)/(1+r)) extends continuously to the center.
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
        r = float(np.linalg.norm(v))
        if r < 1e-12:
            return float(spec.f_raw(1.0)) * coeffs
        rg = (1.0 + r) * float(spec.f_raw((1.0 - r) / (1.0 + r)))
        n = v / r
        return rg * coeffs + ((1.0 - r * r) - rg) * float(coeffs @ n) * n

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
        ginv = inverse_metric(metric_cartesian(spec, *v)).matrix
        return ginv @ coeffs

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


def _jacobian(field: VectorField, v: np.ndarray, h: float) -> np.ndarray:
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (field.cartesian(v + e) - field.cartesian(v - e)) / (2.0 * h)
    return jac


def lie_bracket_numeric(v_field: VectorField, w_field: VectorField, p,
                        h: float = BRACKET_STEP) -> TangentVector:
    """[V, W] = DW.V - DV.W at p via central differences in the Cartesian chart.

    With Richardson extrapolation over (h, h/2) the truncation error is
    O(h^4); roundoff grows like eps/h^2, so the default step balances both.
    """
    v = np.asarray(p, dtype=float)
    if not 0.0 < h < (1.0 - EPS_BOUNDARY - float(np.linalg.norm(v))) / 2.0:
        raise NeighborhoodOutsideBall(f"stencil step h = {h} is not positive or "
                                      f"leaves the ball at |v| = {np.linalg.norm(v)}")

    def bracket(step):
        return (_jacobian(w_field, v, step) @ v_field.cartesian(v)
                - _jacobian(v_field, v, step) @ w_field.cartesian(v))

    out = (4.0 * bracket(h / 2.0) - bracket(h)) / 3.0
    return TangentVector("cartesian", out, tuple(v))


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

    pts = [np.asarray(p, dtype=float) for p in points]
    per_point = []
    for v in pts:
        fr = big_f(spec, float(np.linalg.norm(v)))
        err = 0.0
        for i, j, k in cyclic:
            num = lie_bracket_numeric(y_fields[i], y_fields[j], v, h=h).components
            err = max(err, float(np.max(np.abs(num - fr * x_fields[k].cartesian(v)))))
        per_point.append(err)

    # Convention sign of the fundamental-field brackets, measured once.
    v0 = pts[0]
    num_xx = lie_bracket_numeric(x_fields[0], x_fields[1], v0, h=h).components
    ref = x_fields[2].cartesian(v0)
    convention_sign = float(np.sign(num_xx @ ref))

    # Mixed-bracket closure: stack [X_i, Y_j] over all points and fit constant
    # coefficients over the six basis fields.
    residual = 0.0
    for i in range(3):
        for j in range(3):
            rows, rhs = [], []
            for v in pts:
                cols = [f.cartesian(v) for f in x_fields + y_fields]
                rows.append(np.column_stack(cols))
                rhs.append(lie_bracket_numeric(x_fields[i], y_fields[j], v,
                                               h=h).components)
            mat = np.vstack(rows)
            vec = np.concatenate(rhs)
            coef, *_ = np.linalg.lstsq(mat, vec, rcond=None)
            residual = max(residual, float(np.max(np.abs(mat @ coef - vec))))

    return CommutatorReport(spec.name, float(h),
                            tuple(tuple(v) for v in pts),
                            tuple(per_point), float(max(per_point)),
                            float(residual), convention_sign)
