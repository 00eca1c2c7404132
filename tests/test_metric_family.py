import math
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qig.errors import (CenterSingularity, DomainError, IllConditioned,
                        NumericError, PoleError)
from qig import metric_family
from qig.metric_family import (FD_STEP, SCAN_BLOCK, SERIES_CUTOFF,
                               MetricAtPoint, _b_basis_diff, _block_gaps,
                               _blocks, _f_spectrum, _first_min, _min_gap,
                               _positive_definite, _qubit_gaps, _size_gaps,
                               _stack_streams, big_f, bkm,
                               bures_helstrom,
                               check_petz_symmetry, custom,
                               derivative_limit_at_zero, f_eval, family_a,
                               family_b, finite_f, g_derivative, g_from_f,
                               inverse_metric, metric_cartesian,
                               metric_spherical, rld, scan_monotonicity,
                               spec_from_name, wigner_yanase)
from qig.state_space import SphericalPoint
from qig.verify import sub_seed

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


@pytest.mark.filterwarnings("error")
def test_metric_cartesian_names_coordinate_shapes_that_do_not_broadcast():
    with pytest.raises(DomainError, match=r"shapes \[\(2,\), \(3,\), \(\)\]"):
        metric_cartesian(bures_helstrom(), [0.1, 0.2], [0.1, 0.2, 0.3], 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"sizes": (0,)},
                                    {"sizes": (2, -1)}, {"sizes": ()},
                                    {"sizes": (1.5,)}, {"samples": 2.5},
                                    {"seed": -1}, {"seed": 1.5}])
def test_scan_monotonicity_rejects_empty_scans(kwargs):
    [(key, value)] = kwargs.items()
    named = "sizes" if value == () else "matrix size" if key == "sizes" else key
    with pytest.raises(DomainError, match=rf"^{named} = "):
        scan_monotonicity([bures_helstrom()], **kwargs)


def test_scan_checks_every_spec_before_scanning():
    # The spec after it is checked before the first spec's f is evaluated.
    calls = []
    spec = custom(lambda t: calls.append(t) or np.sqrt(t), "sqrt")
    with pytest.raises(DomainError,
                       match=r"^spec = 'bkm' is not a MonotoneFunctionSpec$"):
        scan_monotonicity([spec, "bkm"], samples=3)
    assert calls == []


@pytest.mark.filterwarnings("error")
def test_finite_difference_g_prime_names_the_callers_r():
    # Without an analytic g' the stencil reaches FD_STEP past r; the error
    # names the r the caller passed, not a stepped one.
    spec = custom(lambda t: (1.0 + np.asarray(t, dtype=float)) / 2.0, "c")
    for r in (0.999999, 5e-7):
        with pytest.raises(DomainError, match=rf"r = {r} is outside \({FD_STEP:g}"):
            big_f(spec, r)
    grid = np.array([0.3, 0.5, 0.9999995, 0.7, 1e-7])
    with pytest.raises(DomainError, match=r"^r = 0\.9999995 is outside"):
        g_derivative(spec, grid)
    assert abs(big_f(spec, np.array([0.3, 0.5]))[1] - 1.0) < 1e-6


@pytest.mark.filterwarnings("error")
def test_non_finite_big_f_names_the_first_r():
    # g(r) overflows at r = 1e-300, which gave F = NaN after RuntimeWarnings.
    with pytest.raises(NumericError) as err:
        big_f(bkm(), [1e-300, 0.5])
    assert str(err.value) == "r = 1e-300 makes F of bkm not finite"


SUITE_SPECS = [bures_helstrom(), wigner_yanase(), bkm(), family_a(2.0),
               family_a(4.0)]
SUITE_SQRT_A = [None, None, None, math.sqrt(2.0), 2.0]


def _eigh_of_a_gaps(specs, dim: int, samples: int, seed: int):
    """The scan's per-sample gaps by the old path: the same draws, then
    eigvalsh(A) for its largest eigenvalue and eigh(A) for its eigenpairs."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(dim,)))
    lam = np.exp(rng.uniform(np.log(1e-3), 0.0, size=(samples, dim)))
    zr = rng.standard_normal((samples, dim, dim))
    zi = rng.standard_normal((samples, dim, dim))
    q, _ = np.linalg.qr(zr + 1j * zi)
    a = np.einsum("nij,nj,nkj->nik", q, lam, q.conj())
    m = (rng.standard_normal((samples, dim, dim))
         + 1j * rng.standard_normal((samples, dim, dim)))
    w = np.einsum("nij,nkj->nik", m, m.conj()) / dim
    lmax_a = np.linalg.eigvalsh(a)[:, -1]
    lmax_w = np.linalg.eigvalsh(w)[:, -1]
    scale = np.minimum(1.0, 0.999 * (1.0 - lmax_a) / np.maximum(lmax_w, 1e-300))
    lam_a, vec_a = np.linalg.eigh(a)
    lam_b, vec_b = np.linalg.eigh(a + scale[:, None, None] * w)
    gaps = []
    for spec in specs:
        f_b, f_a = (np.einsum("nij,nj,nkj->nik", vec,
                              np.asarray(spec.f_raw(np.clip(lam, 1e-300, 1.0))),
                              vec.conj())
                    for lam, vec in ((lam_b, vec_b), (lam_a, vec_a)))
        gaps.append(np.linalg.eigvalsh(f_b - f_a)[:, 0])
    return gaps


def _spectral_gaps(specs, lam_a, u, lam_b):
    """Smallest eigenvalue of f(B) - f(A) per pair, per spec, for any size,
    in the eigenbasis of B: B = diag(lam_b) and A = u diag(lam_a) u^dag.
    The scan's per-sample path before the screen: one full eigvalsh per
    spec, the oracle for the screened minimum."""
    diag = np.arange(lam_b.shape[1])
    gaps = []
    for spec in specs:
        diff = np.einsum("nij,nj,nkj->nik", u, -_f_spectrum(spec, lam_a), u.conj())
        diff[:, diag, diag] += _f_spectrum(spec, lam_b)
        gaps.append(np.linalg.eigvalsh(diff)[:, 0])
        del diff
    return gaps


def _scan_draw(dim: int, samples: int, seed: int):
    """The scan's pairs of one size drawn all at once, as the scan drew
    them before it streamed blocks: A's drawn eigenpairs (lam, q),
    A = q diag(lam) q^dag, and B = A + s W, every random stack taken whole
    from the size's stream in turn.  The oracle for the blocked draw."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(dim,)))
    lam = np.exp(rng.uniform(np.log(1e-3), 0.0, size=(samples, dim)))
    shape = (samples, dim, dim)
    q = np.linalg.qr(rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape)).Q
    a = np.einsum("nij,nj,nkj->nik", q, lam, q.conj())
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = np.einsum("nij,nkj->nik", m, m.conj()) / dim
    lmax_w = np.linalg.eigvalsh(w)[:, -1]
    scale = np.minimum(1.0, 0.999 * (1.0 - lam.max(axis=1))
                       / np.maximum(lmax_w, 1e-300))
    return lam, q, a + scale[:, None, None] * w


def _one_shot_size_gaps(specs, dim: int, samples: int, seed: int):
    """_size_gaps as it was before it streamed blocks: every pair of the
    size drawn (_scan_draw) and scored at once, f(B) - f(A) built by a
    three-operand einsum that conjugates u once per spec.

    Two checks ride along on each stack it scores: _b_basis_diff builds
    the same f(B) - f(A) bit for bit (for the first spec, as it costs a
    second build), and the screen's least gap and first index are those of
    a full eigvalsh of every pair."""
    lam_a, vec_a, b = _scan_draw(dim, samples, seed)
    if dim == 2:
        gaps, lam_b = _qubit_gaps(specs, lam_a, vec_a, b)
        return [_first_min(g) for g in gaps], lam_a, lam_b
    lam_a, u, lam_b = _in_b_eigenbasis(lam_a, vec_a, b)
    diag = np.arange(dim)
    gaps = []
    for k, spec in enumerate(specs):
        f_a, f_b = _f_spectrum(spec, lam_a), _f_spectrum(spec, lam_b)
        diff = np.einsum("nij,nj,nkj->nik", u, -f_a, u.conj())
        diff[:, diag, diag] += f_b
        if k == 0:
            assert np.array_equal(_b_basis_diff(u, u.conj(), f_a, f_b), diff)
        gaps.append(_min_gap(diff, np.abs(f_a).max() + np.abs(f_b).max()))
        assert gaps[-1] == _first_min(np.linalg.eigvalsh(diff)[:, 0]), spec.name
    return gaps, lam_a, lam_b


def _in_b_eigenbasis(lam_a, vec_a, b):
    """(lam_a, u, lam_b): A = u diag(lam_a) u^dag in B's eigenbasis."""
    lam_b, vec_b = np.linalg.eigh(b)
    return lam_a, vec_b.conj().swapaxes(1, 2) @ vec_a, lam_b


def _per_sample_gaps(specs, dim: int, samples: int, seed: int):
    """The scan's draws of one size scored per sample: _qubit_gaps at size
    2, B's eigenbasis and a full eigvalsh (_spectral_gaps) at the others."""
    lam_a, vec_a, b = _scan_draw(dim, samples, seed)
    if dim == 2:
        gaps, lam_b = _qubit_gaps(specs, lam_a, vec_a, b)
        return gaps, lam_a, lam_b
    lam_a, u, lam_b = _in_b_eigenbasis(lam_a, vec_a, b)
    return _spectral_gaps(specs, lam_a, u, lam_b), lam_a, lam_b


def _blocked_spectra(dim: int, samples: int, seed: int):
    """Every pair's spectra of A (as drawn) and of B (ascending) as the
    scan draws them, by walking _block_gaps over the size's streams block
    by block, scoring no spec."""
    stacks = _stack_streams(dim, samples, seed)
    spectra = [_block_gaps([], stacks, dim, rows)[1:] for _, rows in _blocks(samples)]
    return tuple(np.concatenate(lam) for lam in zip(*spectra))


def _assert_best_rows(got, gaps, lam_a, lam_b, what):
    # Each of _size_gaps' rows is the (gap, index) of the oracle's gaps
    # and that pair's spectra, bit for bit.
    assert [(gap, k) for gap, k, _, _ in got] == gaps, what
    for _, k, row_a, row_b in got:
        assert np.array_equal(row_a, lam_a[k]), what
        assert np.array_equal(row_b, lam_b[k]), what


def _assert_scored_by_minimum(specs, dim, samples, seed):
    # _size_gaps' (gap, index) per spec is the per-sample path's (min,
    # argmin) bit for bit, with that pair's spectra; the blocks draw every
    # pair's spectra as the per-sample path does.
    got = _size_gaps(specs, dim, samples, seed)
    gaps, lam_a, lam_b = _per_sample_gaps(specs, dim, samples, seed)
    blocked_a, blocked_b = _blocked_spectra(dim, samples, seed)
    assert np.array_equal(blocked_a, lam_a) and np.array_equal(blocked_b, lam_b)
    want = [(float(g.min()), int(np.argmin(g))) for g in gaps]
    _assert_best_rows(got, want, lam_a, lam_b, (dim, seed))
    return gaps, lam_a, lam_b


def test_scan_matches_eigh_of_a_oracle():
    # family_a(A) evaluates 1 - t^sqrt(A), which cancels for t just below
    # 1 - SERIES_CUTOFF: there f itself is good only to about
    # eps / (sqrt(A) (1 - t)), relative.  The old path's eigenvalues differ
    # from the drawn ones by a few ulps, so such a spec's gap may move by
    # that much too; the others agree to 1e-12.
    specs = [bures_helstrom(), wigner_yanase(), bkm(), family_a(2.0),
             family_a(4.0)]
    sqrt_a = [None, None, None, math.sqrt(2.0), 2.0]
    eps = np.finfo(float).eps
    for seed in range(10):
        oracle_min = np.full(len(specs), np.inf)
        for dim in (1, 2, 3, 4):
            got, lam_a, lam_b = _assert_scored_by_minimum(specs, dim, 500, seed)
            want = _eigh_of_a_gaps(specs, dim, 500, seed)
            lam = np.concatenate([lam_a, lam_b], axis=1)
            near_one = np.maximum(1.0 - lam.max(axis=1), SERIES_CUTOFF)
            for k, (spec, s, g, o) in enumerate(zip(specs, sqrt_a, got, want)):
                tol = 1e-12 if s is None else 1e-12 + 4.0 * eps / (s * near_one)
                assert np.all(np.abs(g - o) <= tol), (spec.name, seed, dim)
                oracle_min[k] = min(oracle_min[k], o.min())
        reports = scan_monotonicity(specs, samples=500, seed=seed)
        assert ([rep.violated for rep in reports]
                == list(oracle_min < -1e-10)), seed


def test_screen_matches_full_eigvalsh_over_suite_draws():
    # The suite's draws: 10 000 pairs, the monotone sub-seeds of seeds 0-9,
    # its five specs, at every size the screen runs at; the one-shot
    # oracle scores each draw by the screen and by a full eigvalsh.  Seeds
    # 0-4 run there in test_blocked_scan_equals_one_shot_scan[10000].
    for seed in range(5, 10):
        for dim in (1, 3, 4):
            _one_shot_size_gaps(SUITE_SPECS, dim, 10_000,
                                sub_seed(seed, "monotone"))


def _scan_with(monkeypatch, size_gaps, samples: int, seed: int):
    """The suite specs' reports of scan_monotonicity with size_gaps in
    place of _size_gaps, and what size_gaps returned at each size."""
    returned = []

    def recorded(*args):
        returned.append(size_gaps(*args))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(metric_family, "_size_gaps", recorded)
        reports = scan_monotonicity(SUITE_SPECS, samples=samples, seed=seed)
    return reports, returned


@pytest.mark.parametrize("samples", [1, SCAN_BLOCK - 1, SCAN_BLOCK,
                                     SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 7, 10_000])
def test_blocked_scan_equals_one_shot_scan(monkeypatch, samples):
    # Streaming the pairs in blocks draws the same numbers and scores them
    # to the same bits: every size's (gap, index) per spec with that pair's
    # spectra, every pair's spectra, and the reports, counterexamples
    # included.  10 000 pairs are the monotone suite's scans of seeds 0-4;
    # the counts around a block's edge run at seed 0's.
    for seed in range(5 if samples == 10_000 else 1):
        seed = sub_seed(seed, "monotone")
        got, blocked = _scan_with(monkeypatch, _size_gaps, samples, seed)
        one_shot = []

        def best_rows_of_one_shot(*args):
            one_shot.append(_one_shot_size_gaps(*args))
            gaps, lam_a, lam_b = one_shot[-1]
            return [(gap, k, lam_a[k], lam_b[k]) for gap, k in gaps]

        want, _ = _scan_with(monkeypatch, best_rows_of_one_shot, samples, seed)
        assert got == want, seed
        for dim, rows, (gaps_1, lam_a_1, lam_b_1) in zip(
                (1, 2, 3, 4), blocked, one_shot, strict=True):
            _assert_best_rows(rows, gaps_1, lam_a_1, lam_b_1, (seed, dim))
            lam_a, lam_b = _blocked_spectra(dim, samples, seed)
            assert np.array_equal(lam_a, lam_a_1), (seed, dim)
            assert np.array_equal(lam_b, lam_b_1), (seed, dim)
        if samples == 10_000:  # the suite's verdict: family_a(2), (4) fail
            assert [rep.violated for rep in got] == [False] * 3 + [True] * 2


def test_blocks_merge_keeps_the_first_pair_with_the_least_gap(monkeypatch):
    # Every block ties on its least gap: the first block's pair wins, and
    # its spectra are copies of that block's rows, so no block stays alive.
    blocks = []

    def tied(specs, stacks, dim, rows):
        blocks.append(np.full((rows, dim), len(blocks) + 1.0))
        return [(-1.0, rows - 1)], blocks[-1], -blocks[-1]

    monkeypatch.setattr(metric_family, "_block_gaps", tied)
    [(gap, k, lam_a, lam_b)] = _size_gaps([bkm()], 3, 3 * SCAN_BLOCK, 0)
    assert (gap, k) == (-1.0, SCAN_BLOCK - 1) and len(blocks) == 3
    assert lam_a.tolist() == [1.0] * 3 and lam_b.tolist() == [-1.0] * 3
    assert lam_a.base is None and lam_b.base is None


def _traced_peak_of_scan(samples: int) -> int:
    """The most memory tracemalloc, which sees numpy's buffers, traces
    while scan_monotonicity scores one spec over samples pairs."""
    tracemalloc.start()
    try:
        scan_monotonicity([family_a(4.0)], samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_stays_flat_in_the_sample_count():
    # Eight times the pairs hold no more memory at once: of each block the
    # scan keeps only its best pairs' spectra, so its traced peak is one
    # block's working set, 2.18 MiB, at any sample count.  Keeping every
    # pair's spectra grew by 0.77 MiB, and keeping the last block's size-4
    # spectra while the next block is scored by 64 KiB.  The first scan of
    # a process allocates once for good, so it runs untraced.
    scan_monotonicity([family_a(4.0)], samples=1)
    growth = _traced_peak_of_scan(8 * SCAN_BLOCK) - _traced_peak_of_scan(SCAN_BLOCK)
    assert growth <= 16 * 2**10, growth


@pytest.mark.parametrize("factor", [1e8, 1e-8])
def test_screen_margin_scales_with_f(factor):
    # f scaled by 1e8 or 1e-8 scales every gap, and the screen's margin with
    # it; a margin fixed in absolute terms would prune the minimum or keep
    # every sample.
    specs = [custom(lambda t, s=spec: factor * np.asarray(s.f_raw(t)),
                    f"{factor:g} {spec.name}")
             for spec in (bures_helstrom(), family_a(2.0), family_a(4.0))]
    for seed in range(3):
        for dim in (1, 3, 4):
            _assert_scored_by_minimum(specs, dim, 2_000, seed)


def _full_min_gap(diff):
    gaps = np.linalg.eigvalsh(diff)[:, 0]
    return float(gaps.min()), int(np.argmin(gaps))


def _norm_bound(stack):
    return float(np.abs(np.linalg.eigvalsh(stack)).max())


def test_screen_on_tied_and_scalar_stacks():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    herm = 0.5 * (z + z.conj().swapaxes(1, 2))
    for dim in (1, 3, 4):
        part = herm[:, :dim, :dim] + 3.0 * np.eye(dim)
        low = int(np.argmin(np.linalg.eigvalsh(part)[:, 0]))
        rest = [i for i in range(6) if i != low]
        # Duplicated rows: the minimum sits in rows 1, 3 and 4; the first wins.
        dup = part[[rest[0], low, rest[1], low, low, rest[2]]]
        assert _min_gap(dup, _norm_bound(dup)) == _full_min_gap(dup)
        assert _min_gap(dup, _norm_bound(dup))[1] == 1
    # Multiples of I: every diagonal entry is an eigenvalue.
    scalar = np.array([0.3, -0.2, 0.7, -0.2, 1e-12])[:, None, None] * np.eye(3)
    scalar = scalar.astype(complex)
    assert _min_gap(scalar, 0.7) == _full_min_gap(scalar) == (-0.2, 1)


def test_positive_definite_screen_fails_nan_and_indefinite_rows():
    stack = np.array([np.diag([2.0, 1.0, 3.0]),
                      [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                      np.diag([2.0, np.nan, 3.0]),
                      np.diag([2.0, 0.5, 3.0])], dtype=complex)
    assert _positive_definite(stack, 0.0).tolist() == [True, False, False, True]
    assert _positive_definite(stack, 0.5).tolist() == [True, False, False, False]


# The f kernels and finite_f as they were when every call entered
# np.errstate and reduced its masks with .all()/.any(): the oracle for the
# kernels that enter errstate only where a step can warn.  The series runs
# on the entries near t = 1 only, as it overflows far from there.
def _errstate_bkm_f(t):
    t = np.asarray(t, dtype=float)
    u = t - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = u / np.log(t)
    near = np.abs(u) < SERIES_CUTOFF
    if near.any():
        u = u[near]
        out = np.array(out)
        out[near] = 1.0 + u * (0.5 + u * (-1.0 / 12.0 + u * (1.0 / 24.0 - 19.0 / 720.0 * u)))
    return out if out.ndim else float(out)


def _errstate_family_a_f(t, s):
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = t ** s
        out = 0.5 * s * u * (1.0 + ts) / (1.0 - ts)
    near = np.abs(u) < SERIES_CUTOFF
    if near.any():
        u = u[near]
        p = 1.0 + u * (-(s - 1.0) / 2.0
                       + u * ((s - 1.0) * (s - 2.0) / 6.0
                              - u * (s - 1.0) * (s - 2.0) * (s - 3.0) / 24.0))
        out = np.array(out)
        out[near] = 1.0 / p - 0.5 * s * u
    return out if out.ndim else float(out)


def _reduce_all_finite_f(spec, t):
    f = spec.f_raw(t)
    size = np.abs(f)
    ok = (size > 0.0) & (size < np.inf)
    if not ok.all():
        bad = np.ravel(np.asarray(t, dtype=float))[np.argmin(np.ravel(ok))]
        raise NumericError(f"t = {bad} makes f of {spec.name} zero or not finite")
    return f


# Values on every branch of the kernels: the direct form, both sides of
# SERIES_CUTOFF, t = 1, 0, subnormal, t > 1, an overflowing t^s, and the
# inputs only the symmetry check or a bad caller passes (t < 0, inf, NaN).
_KERNEL_TS = [0.3, 0.999, 1.0 - 2.0 * SERIES_CUTOFF, 1.0 - 0.5 * SERIES_CUTOFF,
              1.0, 1.0 + 0.5 * SERIES_CUTOFF, 1.0 + 2.0 * SERIES_CUTOFF, 7.5,
              0.0, 5e-324, 1e-300, 1e300, -0.5, -1.0, -0.0, np.inf, -np.inf,
              np.nan]
_KERNELS = [("bkm", bkm().f_raw, _errstate_bkm_f)] + [
    (f"family_a({a:g})", family_a(a).f_raw,
     lambda t, s=math.sqrt(a): _errstate_family_a_f(t, s))
    for a in (0.25, 1.0, 2.0, 4.0, 1e-34)]


def _call_recording_warnings(f, t):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = f(t)
    return out, [str(w.message) for w in seen]


@pytest.mark.parametrize("name,kernel,oracle", _KERNELS, ids=[k[0] for k in _KERNELS])
def test_f_kernels_match_errstate_oracle_bit_for_bit(name, kernel, oracle):
    # Each value, alone and in one stack, has the oracle's bits and type and
    # raises the oracle's warnings, no more.
    for t in _KERNEL_TS + [np.array(_KERNEL_TS)]:
        got, got_warned = _call_recording_warnings(kernel, t)
        want, want_warned = _call_recording_warnings(oracle, t)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, t)
        assert got_warned == want_warned, (name, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [-0.5, np.inf, np.nan])
@pytest.mark.parametrize("spec,oracle", [
    (bkm(), _errstate_bkm_f),
    (family_a(2.0), lambda t: _errstate_family_a_f(t, math.sqrt(2.0)))],
    ids=["bkm", "family_a(2)"])
def test_f_raw_outside_the_domain_is_quiet(spec, oracle, t):
    got = spec.f_raw(t)
    assert math.isnan(got) and math.isnan(oracle(t))


@pytest.mark.parametrize("spec", ALL_SPECS + [
    custom(lambda t: np.where(np.asarray(t) > 0.5, 0.0, 1.0), "zero_above_half")],
    ids=lambda s: s.name)
def test_finite_f_matches_all_reduction_oracle(spec):
    for t in [0.3, 0.7, 1.0, np.array([0.2, 0.9, 1.0]), np.array([]),
              np.array([0.1, 0.6])]:
        try:
            want = _reduce_all_finite_f(spec, t)
        except NumericError as exc:
            with pytest.raises(NumericError) as got:
                finite_f(spec, t)
            assert str(got.value) == str(exc)
            continue
        got = finite_f(spec, t)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.filterwarnings("error")
def test_series_runs_only_on_entries_near_one():
    # Far from t = 1 the series of family_a(1e300) overflows, with a raw
    # warning, though np.where then dropped its value.
    spec = family_a(1e300)
    got = spec.f_raw(np.array([0.005, 1.0]))
    assert got.tolist() == [spec.f_raw(0.005), spec.f_raw(1.0)]
    assert np.isfinite(got).all() and got[1] == 1.0


@pytest.mark.filterwarnings("error")
def test_series_of_a_huge_a_stays_where_it_converges():
    # At t = 1 - 1e-7, within SERIES_CUTOFF of 1, the series of family_a(1e300)
    # overflowed; t^sqrt(A) = 0 there, so f is (sqrt(A)/2)(1 - t).
    t = 1.0 - 1e-7
    assert f_eval(family_a(1e300), t) == 0.5e150 * (1.0 - t)
    m = metric_spherical(family_a(1e300), SphericalPoint(1e-8, 1.0, 1.0)).matrix
    assert np.isfinite(m).all()


@pytest.mark.filterwarnings("error")
def test_petz_symmetry_rejects_a_point_with_no_finite_reciprocal():
    with pytest.raises(DomainError, match="1e-320"):
        check_petz_symmetry(family_a(2.0), [0.5, 1e-320])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [family_a(2.0), family_a(0.25)],
                         ids=lambda s: s.name)
def test_petz_symmetry_rejects_a_point_whose_f_of_reciprocal_overflows(spec):
    # 1/t = 1e300 is finite, but f(1/t) overflows in t^sqrt(A) (A = 2) or
    # in a product (A = 1/4).
    with pytest.raises(DomainError,
                       match=rf"^grid = 1e-300 has .* of "
                             rf"{re.escape(spec.name)} not finite$"):
        check_petz_symmetry(spec, [0.5, 1e-300])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_scan_rejects_a_non_finite_f_at_every_size(dim):
    spec = custom(lambda t: np.where(np.asarray(t) < 0.5, np.nan,
                                     (1.0 + np.asarray(t)) / 2.0),
                  "nan_below_half")
    with pytest.raises(NumericError) as err:
        scan_monotonicity([spec], sizes=(dim,), samples=200, seed=0)
    named = re.fullmatch(r"t = (\S+) makes f of nan_below_half zero or not finite",
                         str(err.value))
    assert named and float(named.group(1)) < 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("result", [None, "x", 0.5j],
                         ids=["None", "string", "complex"])
@pytest.mark.parametrize("call,t", [
    (lambda spec: f_eval(spec, 0.5), "0.5"),
    (lambda spec: g_from_f(spec, 0.6), "0.25"),
    (lambda spec: metric_cartesian(spec, 0.6, 0.0, 0.0), "0.25"),
    (lambda spec: scan_monotonicity([spec], sizes=(1,), samples=3), None)],
    ids=["f_eval", "g_from_f", "metric_cartesian", "scan_monotonicity"])
def test_custom_f_that_is_not_real_is_numeric_error(result, call, t):
    # A raw TypeError came from isfinite or abs().
    spec = custom(lambda t: result, "odd")
    with pytest.raises(NumericError) as err:
        call(spec)
    named = re.fullmatch(r"t = (.+) gives f of odd = (.+), which is not real",
                         str(err.value), re.S)
    assert named and named.group(2) == repr(result)
    assert t is None or named.group(1) == t


def _assert_qubit_gaps_match_spectral(lam_a, vec_a, b, what):
    # The bound of test_scan_matches_eigh_of_a_oracle: family_a's f near
    # t = 1 is good only to about eps / (sqrt(A) (1 - t)), and B's
    # eigenvalues by the closed form and by eigh differ by a few ulps.
    eps = np.finfo(float).eps
    got, lam_b = _qubit_gaps(SUITE_SPECS, lam_a, vec_a, b)
    lam_b_eigh, vec_b = np.linalg.eigh(b)
    want = _spectral_gaps(SUITE_SPECS, lam_a,
                          vec_b.conj().swapaxes(1, 2) @ vec_a, lam_b_eigh)
    npt.assert_allclose(lam_b, lam_b_eigh, rtol=0.0, atol=1e-14)
    lam = np.concatenate([lam_a, lam_b_eigh], axis=1)
    near_one = np.maximum(1.0 - lam.max(axis=1), SERIES_CUTOFF)
    for spec, s, g, o in zip(SUITE_SPECS, SUITE_SQRT_A, got, want):
        tol = 1e-12 if s is None else 1e-12 + 4.0 * eps / (s * near_one)
        assert np.all(np.abs(g - o) <= tol), (spec.name, what)
        assert (g.min() < -1e-10) == (o.min() < -1e-10), (spec.name, what)


def test_qubit_closed_form_matches_spectral_path():
    # Size 2 as the suite scans it: 10 000 pairs, seeds 0-9, its five specs.
    for seed in range(10):
        lam_a, vec_a, b = _scan_draw(2, 10_000, seed)
        _assert_qubit_gaps_match_spectral(lam_a, vec_a, b, seed)
        _, _, lam_b = _assert_scored_by_minimum(SUITE_SPECS, 2, 10_000, seed)
        assert np.all(lam_b[:, 0] <= lam_b[:, 1])


def test_qubit_closed_form_degenerate_pairs():
    # Hand-made pairs: B proportional to I (so no direction n_B) and A with
    # a double eigenvalue, each in a random eigenbasis of A.
    z = np.random.default_rng(5).standard_normal((4, 2, 2, 2))
    vec_a, _ = np.linalg.qr(z[..., 0] + 1j * z[..., 1])
    lam_a = np.array([[0.2, 0.5], [0.3, 0.3], [0.3, 0.3], [0.01, 0.9]])
    a = np.einsum("nij,nj,nkj->nik", vec_a, lam_a, vec_a.conj())
    b = np.stack([0.95 * np.eye(2), 0.6 * np.eye(2),
                  a[2] + np.diag([0.0, 0.4]), 0.95 * np.eye(2)]).astype(complex)
    gaps, lam_b = _qubit_gaps(SUITE_SPECS, lam_a, vec_a, b)
    npt.assert_array_equal(lam_b[[0, 1, 3]],
                           [[0.95, 0.95], [0.6, 0.6], [0.95, 0.95]])
    for spec, g in zip(SUITE_SPECS, gaps):
        f = spec.f_raw
        assert g[1] == f(0.6) - f(0.3)
        # f(cI) - f(A) has the eigenvalues f(c) - f(lam_a).
        npt.assert_allclose(g[[0, 3]], f(0.95) - f(lam_a[[0, 3]]).max(axis=1),
                            rtol=1e-13)
    _assert_qubit_gaps_match_spectral(lam_a, vec_a, b, "hand-made")
