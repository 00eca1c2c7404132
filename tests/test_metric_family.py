import collections
import functools
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qig.errors import (CenterSingularity, DomainError, IllConditioned,
                        NumericError, PoleError)
from qig import metric_family
from qig.metric_family import (FD_STEP, SCAN_BLOCK, MetricAtPoint,
                               _block_gaps, _blocks, _f_spectrum, _first_min,
                               _min_gap, _positive_definite, _qubit_gaps,
                               _size_gaps, big_f, bkm, bures_helstrom,
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
    # Vectorized evaluation near t = 1, where a Taylor series once took
    # over, must be smooth and tend to f(1) = 1.
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


_T_NEAR_ONE = st.one_of(st.just(1.0), st.floats(1.0 - 9e-7, 1.0 + 9e-7))
_T_AWAY = st.one_of(st.floats(1e-6, 1.0 - 2e-6), st.floats(1.0 + 2e-6, 50.0))


@settings(max_examples=60)
@given(st.lists(_T_AWAY, min_size=1, max_size=8),
       st.lists(_T_NEAR_ONE, min_size=1, max_size=3),
       st.floats(0.1, 9.0))
def test_f_raw_fast_path_is_bit_identical(away, near, a_const):
    # Rows away from t = 1 keep the direct formula's bits whether or not
    # another row of the array is near 1 or is t = 1, which takes f(1) = 1.
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
    with pytest.raises(DomainError, match=r"^x, y, z coordinates of shapes "
                       r"\[\(2,\), \(3,\), \(\)\] do not broadcast to one shape$"):
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


SUITE_SPECS = (bures_helstrom(), wigner_yanase(), bkm(), family_a(2.0),
               family_a(4.0))


def _scan_draw(dim: int, samples: int, seed: int):
    """The scan's random stacks of one size drawn whole from the size's
    stream, as the scan drew them before it streamed blocks: A's drawn
    eigenpairs (lam, q), A = q diag(lam) q^dag, and W = M M^dag / dim."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(dim,)))
    lam = np.exp(rng.uniform(np.log(1e-3), 0.0, size=(samples, dim)))
    shape = (samples, dim, dim)
    q = np.linalg.qr(rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape)).Q
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (lam, q, np.einsum("nij,nj,nkj->nik", q, lam, q.conj()),
            np.einsum("nij,nkj->nik", m, m.conj()) / dim)


def _step_up(a, w, lmax_a):
    """B = A + s W, the step s = min(1, 0.999 (1 - lmax_a) / lmax_w) keeping
    B's spectrum inside (0, 1]."""
    lmax_w = np.linalg.eigvalsh(w)[:, -1]
    scale = np.minimum(1.0, 0.999 * (1.0 - lmax_a) / np.maximum(lmax_w, 1e-300))
    return a + scale[:, None, None] * w


def _eigh_of_a_gaps(specs, dim: int, samples: int, seed: int):
    """The scan's per-pair gaps by the old path: the same draw, B stepped up
    from eigvalsh(A)'s largest eigenvalue, and f(A), f(B) from eigh."""
    _, _, a, w = _scan_draw(dim, samples, seed)
    eig_a = np.linalg.eigh(a)
    eig_b = np.linalg.eigh(_step_up(a, w, np.linalg.eigvalsh(a)[:, -1]))
    gaps = []
    for spec in specs:
        f_b, f_a = (np.einsum("nij,nj,nkj->nik", vec,
                              np.asarray(spec.f_raw(np.clip(lam, 1e-300, 1.0))),
                              vec.conj())
                    for lam, vec in (eig_b, eig_a))
        gaps.append(np.linalg.eigvalsh(f_b - f_a)[:, 0])
    return np.array(gaps)


_Scores = collections.namedtuple("_Scores", "gaps full lam_a lam_b lam_b_eigh")


def _score(specs, lam_a, vec_a, b) -> _Scores:
    """Each pair A = vec_a diag(lam_a) vec_a^dag <= B scored on its own, as
    tables (specs, pairs): full, the least eigenvalue of f(B) - f(A) by a
    full eigvalsh in the eigenbasis of B (eigh, spectrum lam_b_eigh), and
    gaps, the scan's: _qubit_gaps at size 2, with B's spectrum lam_b in
    closed form, and full at the other sizes."""
    lam_b_eigh, vec_b = np.linalg.eigh(b)
    u = vec_b.conj().swapaxes(1, 2) @ vec_a
    uc, diag = u.conj(), np.arange(b.shape[1])
    full = np.empty((len(specs), len(b)))
    for k, spec in enumerate(specs):
        diff = np.einsum("nij,nj,nkj->nik", u, -_f_spectrum(spec, lam_a), uc)
        diff[:, diag, diag] += _f_spectrum(spec, lam_b_eigh)
        full[k] = np.linalg.eigvalsh(diff)[:, 0]
    if b.shape[1] != 2:
        return _Scores(full, full, lam_a, lam_b_eigh, lam_b_eigh)
    gaps, lam_b = _qubit_gaps(specs, lam_a, vec_a, b)
    return _Scores(np.array(gaps), full, lam_a, lam_b, lam_b_eigh)


@functools.cache
def _oracle(specs: tuple, dim: int, samples: int, seed: int) -> _Scores:
    """The one oracle of the scan: its pairs of one size drawn whole
    (_scan_draw) and scored pair by pair (_score), once per (specs, size,
    samples, seed) in a session.  Specs are told apart by name; only the
    float tables are kept."""
    lam, q, a, w = _scan_draw(dim, samples, seed)
    return _score(specs, lam, q, _step_up(a, w, lam.max(axis=1)))


def _oracle_rows(specs, dim: int, samples: int, seed: int):
    """_size_gaps' rows as the oracle gives them: per spec, the least gap,
    its first pair and that pair's spectra."""
    scores = _oracle(specs, dim, samples, seed)
    return [(gap, k, scores.lam_a[k], scores.lam_b[k])
            for gap, k in map(_first_min, scores.gaps)]


# _blocked_scan records a walk by patching the module's _block_gaps, and
# scan_monotonicity runs _size_gaps for several sizes at once: one walk
# holds the patch at a time, so no walk records another size's blocks.
_RECORDING = threading.Lock()


@functools.cache
def _blocked_scan(specs: tuple, dim: int, samples: int, seed: int):
    """One run of _size_gaps, once per (specs, size, samples, seed) in a
    session: its rows, each _block_gaps call's (gap, index) per spec, and
    the first rows of the blocks whose spectra are not the oracle's."""
    scores = _oracle(specs, dim, samples, seed)
    blocks, stray = [], []

    def recorded(*args):
        gaps, lam_a, lam_b = _block_gaps(*args)
        rows = slice(SCAN_BLOCK * len(blocks), SCAN_BLOCK * len(blocks) + len(lam_a))
        if not (np.array_equal(lam_a, scores.lam_a[rows])
                and np.array_equal(lam_b, scores.lam_b[rows])):
            stray.append(rows.start)
        blocks.append(gaps)
        return gaps, lam_a, lam_b

    with _RECORDING, pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric_family, "_block_gaps", recorded)
        return _size_gaps(specs, dim, samples, seed), blocks, stray


def _checked_size_gaps(specs, dim: int, samples: int, seed: int):
    """_size_gaps' rows, checked against the oracle: each spec's (gap,
    index) and that pair's spectra bit for bit, and every block's spectra."""
    rows, _, stray = _blocked_scan(specs, dim, samples, seed)
    want = _oracle_rows(specs, dim, samples, seed)
    assert stray == [], (dim, seed)
    assert [row[:2] for row in rows] == [row[:2] for row in want], (dim, seed)
    for (_, _, *got), (_, _, *spectra) in zip(rows, want):
        assert all(map(np.array_equal, got, spectra)), (dim, seed)
    return rows


def _scan_with(monkeypatch, size_gaps, samples: int, seed: int):
    """The suite specs' reports of scan_monotonicity with size_gaps in
    place of _size_gaps."""
    with monkeypatch.context() as patch:
        patch.setattr(metric_family, "_size_gaps", size_gaps)
        return scan_monotonicity(SUITE_SPECS, samples=samples, seed=seed)


def test_scan_matches_eigh_of_a_oracle(monkeypatch):
    # The old path's eigenvalues differ from the drawn ones by a few ulps,
    # and every spec's f is accurate to a few ulps on (0, 1], so the gaps
    # agree to 1e-12.
    for seed in range(10):
        reports = _scan_with(monkeypatch, _checked_size_gaps, 500, seed)
        oracle_min = np.full(len(SUITE_SPECS), np.inf)
        for dim in (1, 2, 3, 4):
            got = _oracle(SUITE_SPECS, dim, 500, seed).gaps
            want = _eigh_of_a_gaps(SUITE_SPECS, dim, 500, seed)
            for spec, g, o in zip(SUITE_SPECS, got, want):
                assert np.all(np.abs(g - o) <= 1e-12), (spec.name, seed, dim)
            oracle_min = np.minimum(oracle_min, want.min(axis=1))
        assert ([rep.violated for rep in reports]
                == list(oracle_min < -1e-10)), seed


@pytest.mark.parametrize("samples", [1, SCAN_BLOCK - 1, SCAN_BLOCK,
                                     SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 7, 10_000])
def test_blocked_scan_equals_one_shot_scan(monkeypatch, samples):
    # Streaming the pairs in blocks draws the same numbers and scores them
    # to the same bits: every size's (gap, index) per spec with that pair's
    # spectra, every block's spectra, and the reports, counterexamples
    # included.  10 000 pairs are the monotone suite's scans of seeds 0-9;
    # the counts around a block's edge run at seed 0's.
    for seed in range(10 if samples == 10_000 else 1):
        seed = sub_seed(seed, "monotone")
        got = _scan_with(monkeypatch, _checked_size_gaps, samples, seed)
        assert got == _scan_with(monkeypatch, _oracle_rows, samples, seed), seed
        if samples == 10_000:  # the suite's verdict: family_a(2), (4) fail
            assert [rep.violated for rep in got] == [False] * 3 + [True] * 2


def test_screen_matches_full_eigvalsh_over_suite_draws():
    # The screen runs on the blocks of the suite's draws at sizes 1, 3 and
    # 4: each block's least gap and first index per spec are those of a
    # full eigvalsh of every pair of the block, bit for bit.
    for seed in range(10):
        for dim in (1, 3, 4):
            key = (SUITE_SPECS, dim, 10_000, sub_seed(seed, "monotone"))
            full = _oracle(*key).full
            for (start, rows), gaps in zip(_blocks(10_000), _blocked_scan(*key)[1],
                                           strict=True):
                assert gaps == [_first_min(g[start:start + rows]) for g in full], (
                    seed, dim, start)


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


def _traced_peak_of_scan(samples: int, sizes=(1, 2, 3, 4)) -> int:
    """The most memory tracemalloc, which sees numpy's buffers in every
    thread, traces while scan_monotonicity scores one spec over samples
    pairs of each size."""
    tracemalloc.start()
    try:
        scan_monotonicity([family_a(4.0)], sizes=sizes, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pin_workers(monkeypatch, most):
    """Let the scan run at most most workers, whatever the CPU count."""
    monkeypatch.setattr(metric_family, "_workers",
                        lambda count: min(count, most))


def test_scan_memory_stays_flat_in_the_sample_count(monkeypatch):
    # Eight times the pairs hold no more memory at once: of each block the
    # scan keeps only its best pairs' spectra, so its traced peak is one
    # block's working set, 2.18 MiB, at any sample count.  Keeping every
    # pair's spectra grew by 0.77 MiB, and keeping the last block's size-4
    # spectra while the next block is scored by 64 KiB.  The first scan of
    # a process allocates once for good, so it runs untraced.  One worker:
    # sizes in flight together add their working sets.
    _pin_workers(monkeypatch, 1)
    scan_monotonicity([family_a(4.0)], samples=1)
    growth = _traced_peak_of_scan(8 * SCAN_BLOCK) - _traced_peak_of_scan(SCAN_BLOCK)
    assert growth <= 16 * 2**10, growth


def test_concurrent_scan_memory_stays_within_its_sizes_alone(monkeypatch):
    # One worker per size holds at most the working sets of all sizes at
    # once: each worker keeps one block of its own size.
    scan_monotonicity([family_a(4.0)], samples=1)
    _pin_workers(monkeypatch, 1)
    alone = [_traced_peak_of_scan(8 * SCAN_BLOCK, (dim,)) for dim in (1, 2, 3, 4)]
    _pin_workers(monkeypatch, 4)
    together = _traced_peak_of_scan(8 * SCAN_BLOCK)
    assert together <= sum(alone), (together, alone)


def test_scan_reports_do_not_depend_on_the_worker_count(monkeypatch):
    # One worker, as many as the CPUs, and one per size under a thread
    # switch every microsecond score the same pairs to the same reports,
    # counterexamples included.
    by_workers = {}
    for most in (None, 1, 4):  # None first: unpinned
        if most is not None:
            _pin_workers(monkeypatch, most)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if most == 4 else interval)
        try:
            by_workers[most] = [scan_monotonicity(SUITE_SPECS, samples=2_000, seed=seed)
                                for seed in range(10)]
        finally:
            sys.setswitchinterval(interval)
    assert by_workers[1] == by_workers[None] == by_workers[4]
    # family_a(2) and (4) fail first at size 1, the first size given, though
    # the workers take size 4 first.
    assert all([(rep.counterexample or {}).get("size") for rep in reports]
               == [None] * 3 + [1] * 2 for reports in by_workers[1])


@pytest.mark.filterwarnings("error")
def test_scan_raises_the_first_failing_size_error_for_any_worker_count(monkeypatch):
    # f is zero below t = 1/2, so every size fails, each naming its own t;
    # the error is that of the first size in the order given.
    spec = custom(lambda t: np.where(np.asarray(t) < 0.5, 0.0,
                                     (1.0 + np.asarray(t)) / 2.0), "zero_below_half")

    def message(sizes):
        with pytest.raises(NumericError) as err:
            scan_monotonicity([spec], sizes=sizes, samples=200, seed=0)
        return str(err.value)

    alone = {dim: message((dim,)) for dim in (1, 2, 3, 4)}
    assert len(set(alone.values())) == 4
    for most in (1, 2, 4):
        _pin_workers(monkeypatch, most)
        for sizes in ((1, 2, 3, 4), (4, 2, 3, 1), (3, 1)):
            assert message(sizes) == alone[sizes[0]], (most, sizes)


def test_one_size_is_scanned_on_the_calling_thread(monkeypatch):
    # No helper thread runs during a one-size scan; four sizes on one
    # worker per size do start helpers.
    seen = set()

    def f(t):
        seen.add((threading.get_ident(), threading.active_count()))
        return (1.0 + np.asarray(t)) / 2.0

    scan_monotonicity([custom(f, "bh")], sizes=(3,), samples=SCAN_BLOCK + 1)
    assert seen == {(threading.get_ident(), threading.active_count())}
    _pin_workers(monkeypatch, 4)
    scan_monotonicity([custom(f, "bh")], sizes=(1, 2, 3, 4), samples=SCAN_BLOCK + 1)
    assert len({ident for ident, _ in seen}) > 1


def test_helpers_scan_under_the_callers_errstate(monkeypatch):
    # finite_f leaves underflow to the caller's np.errstate; a helper
    # started in a fresh context would scan under numpy's defaults.
    seen = set()

    def f(t):
        seen.add(np.geterr()["under"])
        return (1.0 + np.asarray(t)) / 2.0

    _pin_workers(monkeypatch, 4)
    with np.errstate(under="raise"):
        scan_monotonicity([custom(f, "bh")], sizes=(1, 2, 3, 4), samples=3)
    assert seen == {"raise"}


def test_interrupted_scan_stops_helpers_taking_new_sizes(monkeypatch):
    # The calling thread is interrupted in its first size while the helper
    # holds its own; the helper ends that size and takes no other.
    caller, held, helper_sizes = threading.get_ident(), threading.Event(), set()

    def f(t):
        if threading.get_ident() == caller:
            held.wait(timeout=30)
            raise KeyboardInterrupt
        if not held.is_set():
            held.set()
            time.sleep(0.2)  # the caller unwinds meanwhile
        helper_sizes.add(np.shape(t)[-1])
        return (1.0 + np.asarray(t)) / 2.0

    _pin_workers(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        scan_monotonicity([custom(f, "bh")], sizes=(1, 2, 3, 4), samples=2 * SCAN_BLOCK)
    assert len(helper_sizes) == 1, helper_sizes


@pytest.mark.parametrize("factor", [1e8, 1e-8])
def test_screen_margin_scales_with_f(factor):
    # f scaled by 1e8 or 1e-8 scales every gap, and the screen's margin with
    # it; a margin fixed in absolute terms would prune the minimum or keep
    # every sample.
    specs = tuple(custom(lambda t, s=spec: factor * np.asarray(s.f_raw(t)),
                         f"{factor:g} {spec.name}")
                  for spec in (bures_helstrom(), family_a(2.0), family_a(4.0)))
    for seed in range(3):
        for dim in (1, 3, 4):
            _checked_size_gaps(specs, dim, 2_000, seed)


@pytest.mark.filterwarnings("error")
def test_violation_threshold_scales_with_f():
    # A constant f is operator monotone, but its gaps round at eps |f|: a
    # fixed threshold of -1e-10 called f = 1e6 violated.  family_a(A > 1)
    # still violates.
    constants = [custom(lambda t, c=c: 0.0 * np.asarray(t) + c, f"{c:g}")
                 for c in (1e6, 1e10)]
    reports = scan_monotonicity(constants + [family_a(2.0), family_a(4.0)],
                                sizes=(1, 2, 3), samples=1000)
    assert [rep.violated for rep in reports] == [False, False, True, True]
    assert reports[0].min_gap < -1e-10


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
# np.errstate and reduced its masks with .all()/.any(), and f took a Taylor
# series within _OLD_SERIES_CUTOFF of t = 1: the oracle of the closed forms.
# The series runs on the entries near t = 1 only, as it overflows far from
# there.
_OLD_SERIES_CUTOFF = 1e-6


def _errstate_bkm_f(t):
    t = np.asarray(t, dtype=float)
    u = t - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = u / np.log(t)
    near = np.abs(u) < _OLD_SERIES_CUTOFF
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
    near = np.abs(u) < _OLD_SERIES_CUTOFF
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


# The defining formulas in mpmath.  1 - t^sqrt(A) is -powm1(t, sqrt(A)),
# which mpmath evaluates without cancelling.
_MP_F = {"bkm": lambda t: (t - 1) / mpmath.log(t),
         "bures_helstrom": lambda t: (1 + t) / 2,
         "wigner_yanase": lambda t: (1 + mpmath.sqrt(t)) ** 2 / 4,
         "rld": lambda t: 2 * t / (1 + t)}


def _mp_family_a(a_const):
    def f(t):
        s = mpmath.sqrt(a_const)
        em = mpmath.powm1(t, s)
        return -s / 2 * (1 - t) * (2 + em) / em
    return f


def _mp_error(formula, t, got):
    """|got - f(t)| / |f(t)| for the float t, f(1) = 1, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        want = mpmath.mpf(1) if t == 1.0 else formula(mpmath.mpf(t))
        return float(abs(mpmath.mpf(got) - want) / abs(want))


# Values on every branch of the old kernels: the direct form, both sides of
# the old series cutoff, t = 1, 0, subnormal, t > 1, an overflowing t^s, and
# the inputs only the symmetry check or a bad caller passes (t < 0, inf, NaN).
_KERNEL_TS = [0.3, 0.999, 1.0 - 2.0 * _OLD_SERIES_CUTOFF,
              1.0 - 0.5 * _OLD_SERIES_CUTOFF, 1.0, 1.0 + 0.5 * _OLD_SERIES_CUTOFF,
              1.0 + 2.0 * _OLD_SERIES_CUTOFF, 7.5, 0.0, 5e-324, 1e-300, 1e300,
              -0.5, -1.0, -0.0, np.inf, -np.inf, np.nan]
_KERNELS = [("bkm", bkm().f_raw, _errstate_bkm_f, _MP_F["bkm"])] + [
    (f"family_a({a:g})", family_a(a).f_raw,
     lambda t, s=math.sqrt(a): _errstate_family_a_f(t, s), _mp_family_a(a))
    for a in (0.25, 1.0, 2.0, 4.0, 1e-34)]


def _call_recording_warnings(f, t):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = f(t)
    return out, {re.match(r"overflow|divide by zero|invalid value",
                          str(w.message)).group() for w in seen}


@pytest.mark.parametrize("name,kernel,oracle,formula", _KERNELS,
                         ids=[k[0] for k in _KERNELS])
def test_f_kernels_match_errstate_oracle_bit_for_bit(name, kernel, oracle, formula):
    # Each value has the same bits alone as in one stack, and the old
    # kernel's type and kinds of warning, no more.  On t >= 0 it has the old
    # kernel's NaN entries; log t makes every t < 0 NaN, where the old t^s
    # was a number for an integer sqrt(A).  A value that moved is within
    # 1e-15 of mpmath, and within 1e-10 of the old one wherever that was
    # within 1e-10 of mpmath: the old 1 - t^sqrt(A) of family_a(1e-34)
    # rounded to 0 or to a few bits.
    stack, warned = _call_recording_warnings(kernel, np.array(_KERNEL_TS))
    assert warned <= _call_recording_warnings(oracle, np.array(_KERNEL_TS))[1]
    for t, row in zip(_KERNEL_TS, stack):
        got, got_warned = _call_recording_warnings(kernel, t)
        want, want_warned = _call_recording_warnings(oracle, t)
        assert type(got) is type(want) is float
        assert np.asarray(got).tobytes() == row.tobytes(), (name, t)
        assert got_warned <= want_warned, (name, t)
        if math.isnan(want) and not math.isnan(got):
            # Beyond t = 1 the coth form is finite where the old t^sqrt(A)
            # overflowed to inf/inf: (sqrt(A)/2)(t - 1) at t = inf.
            assert name.startswith("family_a") and t > 1.0, (name, t)
            assert (got == math.inf if t == math.inf
                    else _mp_error(formula, t, got) <= 1e-15), (name, t)
        elif t < 0.0 or math.isnan(want):
            assert math.isnan(got), (name, t)
        elif got != want:
            assert _mp_error(formula, t, got) <= 1e-15, (name, t)
            assert (abs(got - want) <= 1e-10 * abs(want)
                    or _mp_error(formula, t, want) > 1e-10), (name, t)


# A catalogue spec with its mpmath formula: the four fixed ones, or
# family_a(A) for A log-uniform in [1e-300, 1e300].
_SPEC_FORMULAS = st.one_of(
    st.sampled_from([(spec, _MP_F[spec.kind]) for spec in
                     (bkm(), bures_helstrom(), wigner_yanase(), rld())]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e).map(
        lambda a: (family_a(a), _mp_family_a(a))))
# t on (0, 1]: uniform, log-uniform down to the least subnormal, and the
# floats 1 - k 2^-53 next to 1, k = 0 among them.
_T_UNIT = st.one_of(st.floats(5e-324, 1.0), st.floats(-745.0, 0.0).map(math.exp),
                    st.integers(0, 2 ** 20).map(lambda k: 1.0 - k * 2.0 ** -53))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(_SPEC_FORMULAS, _T_UNIT)
def test_f_kernels_match_mpmath(spec_formula, t):
    spec, formula = spec_formula
    assert spec.f_raw(1.0) == spec.f_float(1.0) == 1.0
    for got in (spec.f_raw(t), spec.f_float(t)):
        assert _mp_error(formula, t, got) <= 1e-15, (spec.name, t, got)


# bkm's and family_a's f and g' as they were before the one coth kernel,
# kept as oracles.  Both g' take the log of the rounded t = (1-r)/(1+r),
# which loses about eps/rho (rho = artanh r), raise t to sqrt(A) - 1 and
# form 1 - r^2, which loses eps/(1-r).
def _ratio_family_a_f(t, s):
    em = np.expm1(s * np.log(t))
    return -0.5 * s * (1.0 - t) * (2.0 + em) / em


def _log_ratio_bkm_g_prime(r):
    g = 2.0 / np.log((1.0 + r) / (1.0 - r))
    return -g * g / (1.0 - r * r)


def _log_ratio_family_a_g_prime(r, s):
    t = (1.0 - r) / (1.0 + r)
    em = np.expm1(s * np.log(t))
    return -4.0 * (s / em) ** 2 * t ** (s - 1.0) / (1.0 + r) ** 2


_EPS = np.finfo(float).eps
_A_MILLI_TO_KILO = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)  # log-uniform


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), _T_UNIT.filter(lambda t: t < 1.0))
def test_coth_f_matches_the_expm1_ratio_oracle(a_const, t):
    # Both forms are within 4.2e-16 of mpmath, so they meet to a few ulps.
    want = _ratio_family_a_f(t, math.sqrt(a_const))
    assert abs(family_a(a_const).f_raw(t) - want) <= 4.0 * _EPS * want


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_A_MILLI_TO_KILO,
       st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.floats(-6.0, -1e-6).map(lambda e: 10.0 ** e)))
def test_coth_g_prime_matches_the_log_ratio_oracles(a_const, r):
    # Where the old forms are accurate: to 4 eps (1 + 1/rho + sqrt(A) + 1/(1-r)).
    rho, s = math.atanh(r), math.sqrt(a_const)
    for spec, want, root in ((bkm(), _log_ratio_bkm_g_prime(r), 0.0),
                             (family_a(a_const), _log_ratio_family_a_g_prime(r, s), s)):
        tol = 4.0 * _EPS * (1.0 + 1.0 / rho + root + 1.0 / (1.0 - r))
        assert abs(g_derivative(spec, r) - want) <= tol * abs(want), spec.name


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_T_UNIT.filter(lambda t: t < 1.0), st.floats(-100.0, -1e-6).map(lambda e: 10.0 ** e))
def test_family_a_of_a_tiny_a_is_bkm(t, r):
    tiny, zero = family_a(1e-300), bkm()
    assert abs(tiny.f_raw(t) - zero.f_raw(t)) <= 2.0 * _EPS * zero.f_raw(t)
    for got, want in zip(tiny.g_pair(r), zero.g_pair(r)):
        assert abs(got - want) <= 4.0 * _EPS * abs(want)


_CONSTANT_F = [(bkm(), 0.0), (bures_helstrom(), 1.0), (wigner_yanase(), 0.25),
               (family_a(1e-3), 1e-3), (family_a(2.0), 2.0), (family_a(1e3), 1e3)]
# r in [3e-5, 0.999], uniform and log-uniform.
_R_CENTRE_TO_EDGE = st.one_of(st.floats(3e-5, 0.999),
                              st.floats(math.log(3e-5), math.log(0.999)).map(math.exp))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_A_MILLI_TO_KILO, _R_CENTRE_TO_EDGE)
def test_big_f_is_the_constant_of_each_constant_f_spec(a_const, r):
    # F sums g^2 and (1-r^2) g', each of size 1/rho^2 near the centre, so it
    # rounds at about eps/rho^2: 2.5e-7 at r = 3e-5.
    for spec, want in ((family_a(a_const), a_const), (bkm(), 0.0),
                       (bures_helstrom(), 1.0), (wigner_yanase(), 0.25)):
        assert abs(big_f(spec, r) - want) <= 1e-6 * max(1.0, want), spec.name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec,want", _CONSTANT_F,
                         ids=[spec.name for spec, _ in _CONSTANT_F])
def test_big_f_is_constant_from_the_centre_to_the_edge(spec, want):
    rs = np.concatenate([np.geomspace(3e-5, 0.999, 2000), np.linspace(3e-5, 0.999, 2000)])
    assert np.max(np.abs(big_f(spec, rs) - want)) <= 1e-6 * max(1.0, want)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(_SPEC_FORMULAS, st.integers(1, 1023))
def test_f_symmetry_on_exact_reciprocals(spec_formula, k):
    # t = 2^-k and 1/t = 2^k are both exact, so f(t) = t f(1/t) holds to
    # the two evaluations' errors; an f(1/t) that overflows is a point the
    # symmetry check refuses.
    spec, _ = spec_formula
    t = 2.0 ** -k
    with np.errstate(over="ignore", invalid="ignore"):
        f_inverse = spec.f_raw(1.0 / t)
    if not math.isfinite(f_inverse):
        with pytest.raises(DomainError, match=r"f\(1/t\) of .* not finite$"):
            check_petz_symmetry(spec, [t])
    else:
        assert abs(t * f_inverse - spec.f_raw(t)) <= 2e-15 * spec.f_raw(t), spec.name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [-0.5, np.inf, np.nan])
@pytest.mark.parametrize("spec,oracle", [
    (bkm(), _errstate_bkm_f),
    (family_a(2.0), lambda t: _errstate_family_a_f(t, math.sqrt(2.0)))],
    ids=["bkm", "family_a(2)"])
def test_f_raw_outside_the_domain_is_quiet(spec, oracle, t):
    # NaN where the old kernels were NaN, except family_a at t = inf: its
    # coth form reaches the limit (sqrt(A)/2)(t - 1) = inf, not inf/inf.
    got = spec.f_raw(t)
    assert math.isnan(oracle(t))
    assert math.isnan(got) or (spec.kind == "family_a" and t == got == np.inf)


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
    # A stack holding t = 1 and a t far from it is quiet, takes f(1) = 1 at
    # t = 1 only, and has each entry's bits alone.  The Taylor series that
    # once ran near t = 1 overflowed far from it with a raw warning.
    spec = family_a(1e300)
    got = spec.f_raw(np.array([0.005, 1.0]))
    assert got.tolist() == [spec.f_raw(0.005), spec.f_raw(1.0)]
    assert np.isfinite(got).all() and got[1] == 1.0


@pytest.mark.filterwarnings("error")
def test_series_of_a_huge_a_stays_where_it_converges():
    # At t = 1 - 1e-7 the Taylor series that once ran near t = 1 overflowed
    # for family_a(1e300); t^sqrt(A) = 0 there, so f is (sqrt(A)/2)(1 - t).
    t = 1.0 - 1e-7
    assert f_eval(family_a(1e300), t) == 0.5e150 * (1.0 - t)
    m = metric_spherical(family_a(1e300), SphericalPoint(1e-8, 1.0, 1.0)).matrix
    assert np.isfinite(m).all()


@pytest.mark.filterwarnings("error")
def test_petz_symmetry_rejects_a_point_with_no_finite_reciprocal():
    with pytest.raises(DomainError, match="1e-320"):
        check_petz_symmetry(family_a(2.0), [0.5, 1e-320])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec,t", [(family_a(1e4), 1e-307), (family_a(16.0), 1e-308)],
                         ids=["family_a(10000)", "family_a(16)"])
def test_petz_symmetry_rejects_a_point_whose_f_of_reciprocal_overflows(spec, t):
    # 1/t is finite, but f(1/t) = (sqrt(A)/2)(1/t - 1) is above the largest
    # float: 5e308 for A = 1e4 and 2e308 for A = 16.
    with pytest.raises(DomainError,
                       match=rf"^grid = {t!r} has .* of "
                             rf"{re.escape(spec.name)} not finite$"):
        check_petz_symmetry(spec, [0.5, t])


@pytest.mark.filterwarnings("error")
def test_petz_symmetry_of_family_a_holds_where_t_to_the_sqrt_a_overflowed():
    # f(1e300) of family_a(2) once read inf/inf; the coth form gives
    # (sqrt(2)/2)(1e300 - 1), which meets f(1e-300) to an ulp.
    report = check_petz_symmetry(family_a(2.0), [0.5, 1e-300])
    assert report.passed and report.max_symmetry_dev <= 2.3e-16


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


def _assert_closed_form_matches_eigh(scores: _Scores, what):
    # The bound of test_scan_matches_eigh_of_a_oracle: B's eigenvalues by
    # the closed form and by eigh differ by a few ulps.
    npt.assert_allclose(scores.lam_b, scores.lam_b_eigh, rtol=0.0, atol=1e-14)
    assert np.all(scores.lam_b[:, 0] <= scores.lam_b[:, 1]), what
    for spec, g, o in zip(SUITE_SPECS, scores.gaps, scores.full):
        assert np.all(np.abs(g - o) <= 1e-12), (spec.name, what)
        assert (g.min() < -1e-10) == (o.min() < -1e-10), (spec.name, what)


def test_qubit_closed_form_matches_spectral_path():
    # Size 2 as the suite scans it: 10 000 pairs, the monotone sub-seeds of
    # seeds 0-9, its five specs.
    for seed in range(10):
        _assert_closed_form_matches_eigh(
            _oracle(SUITE_SPECS, 2, 10_000, sub_seed(seed, "monotone")), seed)


def test_qubit_closed_form_degenerate_pairs():
    # Hand-made pairs: B proportional to I (so no direction n_B) and A with
    # a double eigenvalue, each in a random eigenbasis of A.
    z = np.random.default_rng(5).standard_normal((4, 2, 2, 2))
    vec_a, _ = np.linalg.qr(z[..., 0] + 1j * z[..., 1])
    lam_a = np.array([[0.2, 0.5], [0.3, 0.3], [0.3, 0.3], [0.01, 0.9]])
    a = np.einsum("nij,nj,nkj->nik", vec_a, lam_a, vec_a.conj())
    b = np.stack([0.95 * np.eye(2), 0.6 * np.eye(2),
                  a[2] + np.diag([0.0, 0.4]), 0.95 * np.eye(2)]).astype(complex)
    scores = _score(SUITE_SPECS, lam_a, vec_a, b)
    npt.assert_array_equal(scores.lam_b[[0, 1, 3]],
                           [[0.95, 0.95], [0.6, 0.6], [0.95, 0.95]])
    for spec, g in zip(SUITE_SPECS, scores.gaps):
        f = spec.f_raw
        assert g[1] == f(0.6) - f(0.3)
        # f(cI) - f(A) has the eigenvalues f(c) - f(lam_a).
        npt.assert_allclose(g[[0, 3]], f(0.95) - f(lam_a[[0, 3]]).max(axis=1),
                            rtol=1e-13)
    _assert_closed_form_matches_eigh(scores, "hand-made")
