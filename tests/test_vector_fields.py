import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qig.errors import NeighborhoodOutsideBall
from qig.metric_family import bkm, bures_helstrom, family_a, rld, wigner_yanase
from qig.state_space import SphericalPoint, TracelessObservable
from qig.vector_fields import (fundamental_field, gradient_field_closed,
                               gradient_field_from_metric, lie_bracket_numeric,
                               rescaled_gradient_field,
                               verify_commutator_relations)

E = [TracelessObservable.from_coeffs(e) for e in np.eye(3)]


def test_fundamental_is_cross_product():
    b = TracelessObservable(0.3, -0.2, 0.5)
    v = np.array([0.1, 0.4, -0.2])
    npt.assert_allclose(fundamental_field(b).cartesian(v),
                        np.cross(b.coeffs, v), atol=1e-15)


def test_fundamental_spherical_matches_cartesian_pushforward():
    b = TracelessObservable(0.2, 0.7, -0.4)
    p = SphericalPoint(0.5, 1.1, 2.0)
    tv = fundamental_field(b).at_spherical(p)
    # Push the spherical components forward numerically and compare.
    h = 1e-7
    def emb(r, th, ph):
        return np.array([r * math.sin(th) * math.cos(ph),
                         r * math.sin(th) * math.sin(ph),
                         r * math.cos(th)])
    jac = np.column_stack([
        (emb(p.r + h, p.theta, p.phi) - emb(p.r - h, p.theta, p.phi)) / (2 * h),
        (emb(p.r, p.theta + h, p.phi) - emb(p.r, p.theta - h, p.phi)) / (2 * h),
        (emb(p.r, p.theta, p.phi + h) - emb(p.r, p.theta, p.phi - h)) / (2 * h)])
    cart = fundamental_field(b).cartesian(emb(p.r, p.theta, p.phi))
    npt.assert_allclose(jac @ tv.components, cart, atol=1e-6)


def test_gradient_spherical_pinned():
    # Bures-Helstrom gradient of the sigma_3 expectation at (0.5, pi/4, 0):
    # radial (1-r^2) cos(theta) = 0.75/sqrt(2); theta -g(r) sin(theta) = -sqrt(2).
    tv = gradient_field_closed(E[2], bures_helstrom()).at_spherical(
        SphericalPoint(0.5, math.pi / 4.0, 0.0))
    npt.assert_allclose(tv.components,
                        [0.75 / math.sqrt(2.0), -math.sqrt(2.0), 0.0],
                        atol=1e-12)


def test_gradient_center_limit():
    # At the center the gradient reduces to f(1) * a = a.
    a = TracelessObservable(0.4, -0.1, 0.3)
    for spec in (bkm(), bures_helstrom(), wigner_yanase(), family_a(2.0)):
        npt.assert_allclose(
            gradient_field_closed(a, spec).cartesian(np.zeros(3)),
            a.coeffs, atol=1e-12)


def test_gradient_closed_equals_metric_raised():
    rng = np.random.default_rng(42)
    a = TracelessObservable(0.7, -0.2, 0.4)
    pts = rng.uniform(-0.45, 0.45, size=(50, 3))
    for spec in (bkm(), bures_helstrom(), wigner_yanase(), rld(), family_a(3.0)):
        closed = gradient_field_closed(a, spec)
        raised = gradient_field_from_metric(a, spec)
        for v in pts:
            npt.assert_allclose(closed.cartesian(v), raised.cartesian(v),
                                atol=1e-10)


def test_rescaled_gradient_scale():
    a = TracelessObservable(0.2, 0.5, -0.3)
    v = np.array([0.1, -0.3, 0.2])
    base = gradient_field_closed(a, family_a(4.0)).cartesian(v)
    npt.assert_allclose(rescaled_gradient_field(a, 4.0).cartesian(v),
                        base / 2.0, atol=1e-14)


def test_bracket_fundamental_closure():
    # Numeric bracket of rotation fields closes on the rotation algebra with
    # a fixed overall sign: [X_1, X_2] = -X_3 for this bracket orientation.
    v = np.array([0.2, 0.1, 0.3])
    x1, x2, x3 = (fundamental_field(e) for e in E)
    br = lie_bracket_numeric(x1, x2, v)
    npt.assert_allclose(br.components, -x3.cartesian(v), atol=1e-9)


@settings(deadline=None, max_examples=20)
@given(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
def test_bracket_antisymmetry(x, y, z):
    v = np.array([x, y, z])
    y1 = gradient_field_closed(E[0], bures_helstrom())
    y2 = gradient_field_closed(E[1], bures_helstrom())
    a = lie_bracket_numeric(y1, y2, v).components
    b = lie_bracket_numeric(y2, y1, v).components
    npt.assert_allclose(a, -b, atol=1e-8)


def test_bracket_near_boundary_rejected():
    x1, x2 = fundamental_field(E[0]), fundamental_field(E[1])
    with pytest.raises(NeighborhoodOutsideBall):
        lie_bracket_numeric(x1, x2, [0.9999, 0.0, 0.0])


def test_commutator_relations_constant_catalog():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.4, 0.4, size=(20, 3))
    for spec, a_const in ((bkm(), 0.0), (bures_helstrom(), 1.0),
                          (wigner_yanase(), 0.25), (family_a(2.0), 2.0)):
        rep = verify_commutator_relations(spec, pts)
        assert rep.max_error < 1e-6, spec.name
        assert rep.convention_sign == -1


def test_commutator_rld_has_no_constant():
    # Negative control: [Y_1, Y_2] is proportional to X_3 pointwise but the
    # coefficient -2(1-r^2) is not constant, so no single constant fits.
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.45, 0.45, size=(20, 3))
    y1 = gradient_field_closed(E[0], rld())
    y2 = gradient_field_closed(E[1], rld())
    x3 = fundamental_field(E[2])
    brackets = np.array([lie_bracket_numeric(y1, y2, v).components for v in pts])
    refs = np.array([x3.cartesian(v) for v in pts])
    c_best = float(np.sum(brackets * refs) / np.sum(refs * refs))
    assert float(np.max(np.abs(brackets - c_best * refs))) > 1e-2


def test_mixed_bracket_closure():
    # [X_i, Y_j] is again a gradient field: for BH at a point,
    # [X_1, Y_2] = -Y_{e1 x e2} = -Y_3.
    v = np.array([0.25, -0.1, 0.15])
    x1 = fundamental_field(E[0])
    y2 = gradient_field_closed(E[1], bures_helstrom())
    y3 = gradient_field_closed(E[2], bures_helstrom())
    br = lie_bracket_numeric(x1, y2, v)
    npt.assert_allclose(br.components, -y3.cartesian(v), atol=1e-8)


def _field_kinds(spec):
    a = TracelessObservable(0.6, -0.3, 0.45)
    return {"x": fundamental_field(a), "y": gradient_field_closed(a, spec),
            "ym": gradient_field_from_metric(a, spec),
            "ya": rescaled_gradient_field(a, 2.0)}


@pytest.mark.parametrize("kind", ["x", "y", "ym", "ya"])
@pytest.mark.parametrize("spec", [bkm(), wigner_yanase(), family_a(2.0)],
                         ids=lambda s: s.name)
def test_batched_cartesian_matches_rows(kind, spec):
    # Oracle: the same evaluator called on one (3,) point at a time.
    field = _field_kinds(spec)[kind]
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(40, 3))
    if kind != "ym":  # the metric is not defined at the center
        pts[17] = 0.0
    batched = field.cartesian(pts)
    assert batched.shape == pts.shape
    rows = np.array([field.cartesian(v) for v in pts])
    npt.assert_allclose(batched, rows, rtol=0.0, atol=1e-15)


def _jacobian_oracle(field, v, h):
    """Per-point central-difference Jacobian, one stencil pair per axis."""
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (field.cartesian(v + e) - field.cartesian(v - e)) / (2.0 * h)
    return jac


def _bracket_oracle(v_field, w_field, v, h):
    def bracket(step):
        return (_jacobian_oracle(w_field, v, step) @ v_field.cartesian(v)
                - _jacobian_oracle(v_field, v, step) @ w_field.cartesian(v))
    return (4.0 * bracket(h / 2.0) - bracket(h)) / 3.0


def test_batched_bracket_matches_per_point_oracle():
    pts = np.random.default_rng(9).uniform(-0.5, 0.5, size=(30, 3))
    for spec in (bkm(), bures_helstrom(), family_a(2.0), rld()):
        pairs = [(gradient_field_closed(E[0], spec), gradient_field_closed(E[1], spec)),
                 (fundamental_field(E[2]), gradient_field_closed(E[0], spec)),
                 (fundamental_field(E[0]), fundamental_field(E[1]))]
        for v_field, w_field in pairs:
            batched = lie_bracket_numeric(v_field, w_field, pts).components
            oracle = np.array([_bracket_oracle(v_field, w_field, v, 1e-4)
                               for v in pts])
            npt.assert_allclose(batched, oracle, rtol=0.0, atol=1e-12)


def test_batched_bracket_rejects_any_row_near_sphere():
    pts = np.random.default_rng(2).uniform(-0.4, 0.4, size=(10, 3))
    pts[6] = [0.0, 0.99995, 0.0]
    x1, x2 = fundamental_field(E[0]), fundamental_field(E[1])
    with pytest.raises(NeighborhoodOutsideBall, match="0.99995"):
        lie_bracket_numeric(x1, x2, pts)
