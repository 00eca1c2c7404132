import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qig.errors import CenterSingularity, DomainError, IllConditioned, PoleError
from qig.metric_family import (SERIES_CUTOFF, MetricAtPoint, big_f, bkm,
                               bures_helstrom, check_petz_symmetry, custom,
                               derivative_limit_at_zero, f_eval, family_a,
                               family_b, g_derivative, g_from_f,
                               inverse_metric, metric_cartesian,
                               metric_spherical, rld, scan_monotonicity,
                               spec_from_name, wigner_yanase)
from qig.state_space import SphericalPoint

ALL_SPECS = [bkm(), bures_helstrom(), wigner_yanase(), rld(),
             family_a(0.5), family_a(2.0)]


def test_f_values_frozen():
    # Frozen oracle values computed from the defining formulas by hand.
    assert abs(float(f_eval(bures_helstrom(), 1.0 / 3.0)) - 2.0 / 3.0) < 1e-15
    assert abs(float(f_eval(wigner_yanase(), 0.25)) - 0.5625) < 1e-15
    assert abs(float(f_eval(bkm(), 0.5)) - 0.5 / math.log(2.0)) < 1e-14
    assert abs(float(f_eval(rld(), 0.5)) - 2.0 / 3.0) < 1e-15
    # family_a(1) at t = 1/3: (1/2)(2/3)(1 + 1/3)/(1 - 1/3) = 2/3
    assert abs(float(f_eval(family_a(1.0), 1.0 / 3.0)) - 2.0 / 3.0) < 1e-14
    # family_a(1/4) at t = 0.25: sqrt(A)=1/2, (1/4)(3/4)(1.5)/(0.5) = 0.5625
    assert abs(float(f_eval(family_a(0.25), 0.25)) - 0.5625) < 1e-14
    # family_a(4) at t = 0.2: (1)(0.8)(1.04)/(0.96)
    assert abs(float(f_eval(family_a(4.0), 0.2)) - 0.8 * 1.04 / 0.96) < 1e-14


def test_f_normalized_at_one():
    for spec in ALL_SPECS:
        assert abs(float(f_eval(spec, 1.0)) - 1.0) < 1e-12


def test_f_domain_checked():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            f_eval(bures_helstrom(), bad)


def test_series_fallback_continuous_near_one():
    # Vectorized evaluation straddling the series cutoff must be smooth.
    ts = 1.0 - np.logspace(-9, -3, 200)
    for spec in (bkm(), family_a(0.25), family_a(2.0), family_a(4.0)):
        vals = np.asarray(f_eval(spec, ts))
        assert np.all(np.isfinite(vals))
        assert float(np.max(np.abs(np.diff(vals)))) < 1e-3
        assert abs(vals[0] - 1.0) < 1e-8


def test_g_values_frozen():
    # g(r) = ((1+r)/r) f((1-r)/(1+r)), hand-evaluated.
    assert abs(float(g_from_f(bures_helstrom(), 0.5)) - 2.0) < 1e-14
    assert abs(float(g_from_f(bkm(), 0.5)) - 2.0 / math.log(3.0)) < 1e-14
    assert abs(float(g_from_f(wigner_yanase(), 0.6)) - 1.5) < 1e-14


def test_g_derivative_analytic_matches_numeric():
    rs = np.linspace(0.1, 0.9, 30)
    for spec in ALL_SPECS:
        analytic = np.asarray(g_derivative(spec, rs))
        h = 1e-6
        numeric = (np.asarray(g_from_f(spec, rs + h))
                   - np.asarray(g_from_f(spec, rs - h))) / (2.0 * h)
        npt.assert_allclose(analytic, numeric, atol=1e-6)


def test_big_f_constants():
    rs = np.linspace(0.05, 0.95, 40)
    npt.assert_allclose(big_f(bkm(), rs), 0.0, atol=1e-10)
    npt.assert_allclose(big_f(bures_helstrom(), rs), 1.0, atol=1e-10)
    npt.assert_allclose(big_f(wigner_yanase(), rs), 0.25, atol=1e-10)
    npt.assert_allclose(big_f(rld(), rs), -2.0 * (1.0 - rs * rs), atol=1e-9)


@given(st.floats(0.1, 8.0))
def test_big_f_family_a_is_constant(a_const):
    rs = np.linspace(0.05, 0.95, 25)
    npt.assert_allclose(big_f(family_a(a_const), rs), a_const, atol=1e-7)


def test_metric_spherical_pinned():
    m = metric_spherical(bures_helstrom(), SphericalPoint(0.5, math.pi / 4, 0.0))
    assert abs(m.matrix[0, 0] - 4.0 / 3.0) < 1e-12
    assert abs(m.matrix[1, 1] - 0.25) < 1e-12
    assert abs(m.matrix[2, 2] - 0.25 * math.sin(math.pi / 4) ** 2) < 1e-12
    assert np.count_nonzero(m.matrix - np.diag(np.diag(m.matrix))) == 0


def test_metric_cartesian_projector_structure():
    m = metric_cartesian(bures_helstrom(), 0.3, 0.0, 0.4)
    r2 = 0.25
    n = np.array([0.3, 0.0, 0.4]) / 0.5
    expected = (1.0 / (1.0 - r2)) * np.outer(n, n) \
        + (1.0 / ((1.0 + 0.5) * f_eval(bures_helstrom(), (1 - 0.5) / (1 + 0.5)))) \
        * (np.eye(3) - np.outer(n, n))
    npt.assert_allclose(m.matrix, expected, atol=1e-13)


def test_metric_center_singularity():
    with pytest.raises(CenterSingularity):
        metric_cartesian(bures_helstrom(), 0.0, 0.0, 0.0)


def test_inverse_metric_identity():
    m = metric_cartesian(wigner_yanase(), 0.2, -0.3, 0.1)
    inv = inverse_metric(m)
    npt.assert_allclose(m.matrix @ inv.matrix, np.eye(3), atol=1e-12)


def test_petz_symmetry_catalog_passes():
    grid = np.linspace(0.05, 0.999, 200)
    for spec in ALL_SPECS:
        assert check_petz_symmetry(spec, grid).passed


def test_petz_symmetry_flags_asymmetric_f():
    # f(t) = t is positive and normalized but breaks f(t) = t f(1/t).
    bad = custom(lambda t: np.asarray(t, dtype=float), "linear")
    assert not check_petz_symmetry(bad, np.linspace(0.05, 0.999, 200)).passed


def test_family_b_pole_raises():
    spec = family_b(1.0, 0.0)
    t_pole = math.exp(-math.pi / 2.0)
    with pytest.raises(PoleError):
        f_eval(spec, t_pole)
    # Just off the pole: finite and huge, with a sign flip across it.
    left = float(f_eval(spec, t_pole * (1.0 - 1e-9)))
    right = float(f_eval(spec, t_pole * (1.0 + 1e-9)))
    assert abs(left) > 1e6 and abs(right) > 1e6 and left * right < 0.0


def test_spec_from_name():
    assert spec_from_name("bh").name == "bures_helstrom"
    assert spec_from_name("fa", a_const=2.0).name == "family_a(2)"
    assert spec_from_name("fb", b_const=1.0).kind == "family_b"
    with pytest.raises(DomainError):
        spec_from_name("nope")


def test_scan_monotonicity_flags_family_a_above_one():
    [rep] = scan_monotonicity([family_a(2.0)], samples=2000, seed=0)
    assert rep.violated
    assert rep.counterexample is not None


def test_scan_monotonicity_clean_for_monotone_trio():
    for spec in (bures_helstrom(), wigner_yanase(), bkm()):
        [rep] = scan_monotonicity([spec], samples=2000, seed=0)
        assert not rep.violated


def test_derivative_limit_at_zero():
    # limit of f'(t) as t -> 0+ is -sqrt(A)/2 for A > 1.
    assert abs(derivative_limit_at_zero(4.0) - (-1.0)) < 1e-4
    assert abs(derivative_limit_at_zero(9.0) - (-1.5)) < 1e-4


def test_multi_spec_scan_equals_single_spec_scans():
    specs = [bures_helstrom(), bkm(), family_a(2.0), family_a(4.0)]
    together = scan_monotonicity(specs, samples=500, seed=3)
    for spec, rep in zip(specs, together):
        [alone] = scan_monotonicity([spec], samples=500, seed=3)
        assert rep.spec == alone.spec
        assert rep.min_gap == alone.min_gap
        assert rep.violated == alone.violated


_T_NEAR_ONE = st.floats(1.0 - 0.9 * SERIES_CUTOFF, 1.0 + 0.9 * SERIES_CUTOFF)
_T_AWAY = st.one_of(st.floats(1e-6, 1.0 - 2.0 * SERIES_CUTOFF),
                    st.floats(1.0 + 2.0 * SERIES_CUTOFF, 50.0))


@settings(max_examples=60)
@given(st.lists(_T_AWAY, min_size=1, max_size=8),
       st.lists(_T_NEAR_ONE, min_size=1, max_size=3),
       st.floats(0.1, 9.0))
def test_f_raw_fast_path_is_bit_identical(away, near, a_const):
    # Rows away from t = 1 keep the direct formula's bits whether or not
    # another row of the array takes the series.
    away = np.array(away)
    mixed = np.concatenate([away, near])
    for f in (bkm().f_raw, family_a(a_const).f_raw):
        assert np.array_equal(f(away), f(mixed)[:len(away)])
        assert [f(float(t)) for t in away] == list(f(away))


def test_stacked_metric_checks_name_first_failing_point():
    xs = np.array([0.1, 0.2, 0.95, 0.0, 0.3])
    ys = np.array([0.0, 0.1, 0.5, 0.0, 0.2])
    with pytest.raises(DomainError, match=r"\[0\.95, 0\.5, 0\.0\]"):
        metric_cartesian(bures_helstrom(), xs, ys, 0.0)
    with pytest.raises(CenterSingularity, match=r"\[0\.0, 0\.0, 0\.0\]"):
        metric_cartesian(bures_helstrom(), xs[[0, 1, 3]], ys[[0, 1, 3]], 0.0)
    stack = metric_cartesian(wigner_yanase(), xs[[0, 1, 4]], ys[[0, 1, 4]], 0.1)
    assert stack.matrix.shape == (3, 3, 3)
    npt.assert_allclose(inverse_metric(stack).matrix @ stack.matrix,
                        np.broadcast_to(np.eye(3), (3, 3, 3)), atol=1e-12)
    with pytest.raises(DomainError, match="nan"):
        metric_cartesian(bures_helstrom(), float("nan"), 0.0, 0.0)
    singular = MetricAtPoint("cartesian",
                             np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-14])]),
                             (np.array([0.1, 0.2]), 0.0, 0.0))
    with pytest.raises(IllConditioned, match=r"\[0\.2, 0\.0, 0\.0\]"):
        inverse_metric(singular)
