import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qig.errors import DomainError, NeighborhoodOutsideBall
from qig.metric_family import (bkm, bures_helstrom, family_a, g_from_f,
                               inverse_metric, metric_spherical, rld,
                               wigner_yanase)
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


def _stacked_fundamental(b, v):
    # The fundamental field as it was written with np.stack: the oracle
    # for the in-place fill.
    b1, b2, b3 = b.coeffs.tolist()
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((b2 * z - b3 * y, b3 * x - b1 * z, b1 * y - b2 * x), axis=-1)


@pytest.mark.parametrize("shape", [(3,), (7, 3), (5, 13, 3)])
def test_fundamental_matches_stacked_form_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    b = TracelessObservable.from_coeffs(rng.standard_normal(3))
    v = rng.uniform(-0.5, 0.5, size=shape)
    got = fundamental_field(b).cartesian(v)
    want = _stacked_fundamental(b, v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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
    # Both evaluators scale the family_a(A) field's own result: the same bits
    # as 1/sqrt(A) times the unscaled evaluators, at the center too.
    a = TracelessObservable(0.2, 0.5, -0.3)
    pts = np.array([[0.1, -0.3, 0.2], [0.0, 0.0, 0.0], [1e-13, 0.0, 0.0]])
    for a_const in (4.0, 2.0, 0.25):
        base = gradient_field_closed(a, family_a(a_const))
        field, scale = rescaled_gradient_field(a, a_const), 1.0 / math.sqrt(a_const)
        assert field.cartesian(pts).tobytes() == (scale * base.cartesian(pts)).tobytes()
        for v in pts.tolist():
            assert field.point(*v) == tuple(scale * c for c in base.point(*v)), v


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


def _field_kinds(spec, a=TracelessObservable(0.6, -0.3, 0.45), a_const=2.0):
    return {"x": fundamental_field(a), "y": gradient_field_closed(a, spec),
            "ym": gradient_field_from_metric(a, spec),
            "ya": rescaled_gradient_field(a, a_const)}


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


def _spherical_oracle(kind, a, spec, a_const, p):
    """The hand-written spherical-chart formulas of each field kind."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    n = np.array([st * cp, st * sp, ct])
    th = np.array([ct * cp, ct * sp, -st])
    ph = np.array([-sp, cp, 0.0])
    if kind == "x":
        # X1 = -sin(phi) d_theta - cot(theta) cos(phi) d_phi,
        # X2 = cos(phi) d_theta - cot(theta) sin(phi) d_phi, X3 = d_phi
        return np.array([0.0, -a[0] * sp + a[1] * cp,
                         -ct / st * (a[0] * cp + a[1] * sp) + a[2]])
    if kind == "ym":
        # the differential of l_a raised by the inverse spherical metric
        dl = np.array([a @ n, p.r * (a @ th), p.r * st * (a @ ph)])
        return inverse_metric(metric_spherical(spec, p)).matrix @ dl
    scale = 1.0
    if kind == "ya":
        spec, scale = family_a(a_const), 1.0 / math.sqrt(a_const)
    # Y^r = (1-r^2)(a.n), Y^theta = g(r)(a.th), Y^phi = g(r)(a.ph)/sin(theta)
    g = g_from_f(spec, p.r)
    return scale * np.array([(1.0 - p.r * p.r) * (a @ n), g * (a @ th),
                             g * (a @ ph) / st])


@pytest.mark.parametrize("kind", ["x", "y", "ym", "ya"])
def test_spherical_components_match_hand_written_formulas(kind):
    # Components derived from the Cartesian evaluator against the closed
    # spherical formulas, at random chart points; half of them lie within
    # 1e-3 of the polar axis.
    rng = np.random.default_rng(11)
    a_const = 2.0
    for spec in (bkm(), bures_helstrom(), wigner_yanase(), rld(),
                 family_a(0.5), family_a(3.0)):
        a = rng.uniform(-1.0, 1.0, 3)
        field = _field_kinds(spec, TracelessObservable.from_coeffs(a),
                             a_const)[kind]
        for i in range(40):
            r = rng.uniform(0.01, 0.99)
            theta = rng.uniform(0.01, math.pi - 0.01)
            if i % 2:
                off_axis = rng.uniform(1e-4, 1e-3)
                theta = off_axis if i % 4 == 1 else math.pi - off_axis
            p = SphericalPoint(r, theta, rng.uniform(0.0, 2.0 * math.pi))
            got = field.at_spherical(p).components
            want = _spherical_oracle(kind, a, spec, a_const, p)
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (spec.name, p)


@pytest.mark.filterwarnings("error")
def test_point_of_wrong_shape_is_domain_error():
    field = gradient_field_closed(E[0], bures_helstrom())
    with pytest.raises(DomainError, match=r"\(2, 2\)"):
        field.at_cartesian([[0.1, 0.2], [0.0, 0.3]])
    with pytest.raises(DomainError, match=r"\(2,\)"):
        lie_bracket_numeric(field, fundamental_field(E[1]), [0.1, 0.2])


@pytest.mark.filterwarnings("error")
def test_commutator_relations_reject_empty_point_set():
    with pytest.raises(DomainError, match="empty point set"):
        verify_commutator_relations(bures_helstrom(), np.zeros((0, 3)))


@pytest.mark.parametrize("field", [
    gradient_field_closed(TracelessObservable(0.6, -0.3, 0.45), bkm()),
    gradient_field_closed(TracelessObservable(0.6, -0.3, 0.45), family_a(2.0)),
    rescaled_gradient_field(TracelessObservable(0.6, -0.3, 0.45), 0.25)],
    ids=["bkm", "family_a(2)", "rescaled(0.25)"])
def test_stack_rows_equal_single_point_bit_for_bit(field):
    # Rows at the center (r < 1e-12), inside SERIES_CUTOFF of t = 1
    # (r < 5e-7), just outside it, and in the bulk: a row of the stack takes
    # the same branch, and the same bits, as the point alone.
    n = np.array([0.48, -0.6, 0.64])
    radii = [0.0, 1e-13, 9e-13, 1e-12, 1e-9, 1e-7, 4.9e-7, 5.1e-7, 1e-6, 0.3,
             0.9]
    pts = np.array([r * n for r in radii] + [[0.1, 0.2, -0.3]])
    stacked = field.cartesian(pts)
    for row, v in zip(stacked, pts):
        assert row.tobytes() == field.cartesian(v).tobytes(), v


_OBS = TracelessObservable(0.6, -0.3, 0.45)
_POINT_FIELDS = {spec.name: gradient_field_closed(_OBS, spec)
                 for spec in [bkm(), bures_helstrom(), wigner_yanase(), rld(),
                              family_a(0.25), family_a(2.0), family_a(4.0)]}
_POINT_FIELDS["rescaled(2)"] = rescaled_gradient_field(_OBS, 2.0)
_POINT_FIELDS["fundamental"] = fundamental_field(_OBS)


@pytest.mark.parametrize("field", _POINT_FIELDS.values(), ids=_POINT_FIELDS)
def test_point_evaluator_agrees_with_stacked_cartesian(field):
    # The per-point evaluator runs the same formula on Python floats, with
    # math's log, ** and hypot and a . v summed by hand, so it may differ
    # from the stack's rows in the last bits: in the bulk, at the center
    # (r < 1e-12) and inside SERIES_CUTOFF of t = 1 (r < 5e-7) alike.
    rng = np.random.default_rng(2024)
    n = rng.standard_normal((2000, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    radii = np.concatenate([rng.uniform(1e-6, 0.999, 2000),
                            [0.0, 1e-13, 9e-13, 1e-12, 1e-9, 1e-7, 4.9e-7]])
    dirs = np.concatenate([n, np.tile([0.48, -0.6, 0.64], (7, 1))])
    pts = radii[:, None] * dirs
    want = field.cartesian(pts)
    got = np.array([field.point(*v) for v in pts.tolist()])
    bound = 1e-13 * np.abs(want).max(axis=1)
    assert (np.abs(got - want).max(axis=1) <= bound).all()
