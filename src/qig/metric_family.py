"""The monotone metric family on the Bloch ball.

Each metric is labelled by a function f on (0, 1] with f(1) = 1 and the
symmetry f(t) = t f(1/t).  From f we derive the radial coefficient
g(r) = ((1+r)/r) f((1-r)/(1+r)) and the bracket coefficient
F(r) = (1-r^2) g'(r) + g(r)^2, and assemble the metric tensor

    G = dr^2/(1-r^2) + (r^2/((1+r) f(t))) (dtheta^2 + sin^2 theta dphi^2),

with t = (1-r)/(1+r), in the spherical chart, plus its Cartesian transport.

Catalog
-------
bkm             f(t) = (t-1)/log t          F = 0
bures_helstrom  f(t) = (1+t)/2              F = 1
wigner_yanase   f(t) = (1+sqrt(t))^2/4      F = 1/4
family_a(A)     f(t) = (sqrt(A)/2)(1-t) coth(-sqrt(A) log(t)/2),  F = A
rld             f(t) = 2t/(1+t)             F = -2(1-r^2), non-constant control
family_b(B, c)  f(t) = sqrt(B)(1-t) tan(sqrt(B)(log t - c)),  F = -4B, has poles;
                f(1) = 1 only for c = -pi/(2 sqrt(B)) mod pi/sqrt(B)

bkm is family_a's A = 0 end: both are g(r) = sqrt(A) coth(sqrt(A) artanh r)
(_coth_spec).  family_a(1) coincides with bures_helstrom, family_a(1/4) with wigner_yanase.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import math
import numbers
import os
import threading
from typing import Callable

import numpy as np

from .errors import (CenterSingularity, DomainError, ExtrapolationUnstable,
                     IllConditioned, NumericError, PoleError)
from .state_space import (CALLABLE, EPS_CHART, Record, SphericalPoint, ball_radii,
                          require_all, require_array, require_count, require_finite,
                          require_instance, require_items, require_positive)

# Pole proximity threshold for the tangent family, measured as distance of
# the tan argument to pi/2 mod pi.  Must sit well below sqrt(B)*1e-9 so
# that evaluation 1e-9 away from a pole still returns a (huge) number.
POLE_CUTOFF = 1e-10

FD_STEP = 1e-6  # Richardson step for g' of a spec with no analytic g'
COND_LIMIT = 1e12  # largest condition number inverse_metric accepts
# The monotonicity scan's screen shifts by SCREEN_MARGIN n^2 eps ||D||
# past its upper bound on the least eigenvalue; the LDL^H and eigvalsh
# backward errors are a few n^2 eps ||D|| at size n.
SCREEN_MARGIN = 1024.0
# The monotonicity scan draws and scores its pairs SCAN_BLOCK at a time, so
# its matrix stacks hold at most SCAN_BLOCK pairs whatever the sample count.
SCAN_BLOCK = 1024
VIOLATION_TOL = 1e-10  # a least gap below -VIOLATION_TOL max(1, |f|) is a counterexample
PETZ_TOL = 1e-9  # largest symmetry or normalisation deviation that passes
EXTRAPOLATION_TOL = 1e-4  # relative step at which the f'(0+) limit has converged


def _kernels(direct):
    """(f_raw, f_float) of f from its formula direct(t, xp), xp the numpy or
    math module, which must not cancel near t = 1.  f_raw runs direct under
    np.errstate on an array, f_float on one Python float t in (0, 1]; both
    return f(1) = 1 at t = 1, where a formula may read 0/0."""

    def f_raw(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(t == 1.0, 1.0, direct(t, np))
        return out if out.ndim else float(out)

    def f_float(t):
        return 1.0 if t == 1.0 else direct(t, math)

    return f_raw, f_float


def _tan_off_pole(psi):
    """tan(psi), or PoleError within POLE_CUTOFF of a pole."""
    dist = np.abs(np.mod(psi, math.pi) - math.pi / 2.0)
    if np.any(dist < POLE_CUTOFF):
        raise PoleError(f"tan argument within {POLE_CUTOFF} of a pole")
    return np.tan(psi)


class MonotoneFunctionSpec(Record):
    """A named or user-supplied metric-generating function, compared,
    hashed and shown by its kind and name.

    ``f_raw`` evaluates the defining formula for any t > 0 (the extension
    beyond (0,1] is only used by the symmetry check); ``f_float`` evaluates
    it on one Python float t in (0, 1], for catalog entries only (see _kernels);
    ``g_pair`` gives (g(r), g'(r)) on an array r in closed form (in rho = artanh r
    where g has a log) for catalog entries, else None (g from f, g' by differences).
    """

    __slots__ = ("kind", "name", "f_raw", "f_float", "g_pair")
    _types = {"kind": (str, "a string"), "name": (str, "a string"), "f_raw": CALLABLE,
              **dict.fromkeys(("f_float", "g_pair"),
                              ((Callable, type(None)), "callable or None"))}
    _compared = _shown = ("kind", "name")

    def __init__(self, kind: str, name: str, f_raw: Callable,
                 f_float: Callable | None = None, g_pair: Callable | None = None):
        super().__init__(kind, name, f_raw, f_float, g_pair)


def _coth_spec(kind: str, name: str, a_const: float) -> MonotoneFunctionSpec:
    """The F = A >= 0 solution with f(1) = 1, from q(u) = (sqrt(A)/2) coth(sqrt(A) u/2),
    q = 1/u at A = 0: f(t) = (1-t) q(-log t), and with rho = artanh r, g = 2 q(2 rho)
    and g' = 4 q'(2 rho)/(1-r^2), so F = 4 (q' + q^2) = A up to eps/rho^2.  For
    A > 0, coth x = -(1 + 2/expm1(-2x)) cancels nowhere and stays finite where
    expm1 overflows (f beyond t = 1); q'(u) = -A e^(-sqrt(A) u)/expm1(-sqrt(A) u)^2."""
    s = math.sqrt(a_const)
    direct = ((lambda t, xp: -0.5 * s * (1.0 - t) * (1.0 + 2.0 / xp.expm1(s * xp.log(t))))
              if s else (lambda t, xp: (t - 1.0) / xp.log(t)))

    def g_pair(r):
        u, one_r2 = 2.0 * np.arctanh(r), (1.0 - r) * (1.0 + r)
        if not s:
            return 2.0 / u, -4.0 / (u * u * one_r2)
        em = np.expm1(-s * u)
        return -s * (1.0 + 2.0 / em), -4.0 * (s / em) ** 2 * np.exp(-s * u) / one_r2

    return MonotoneFunctionSpec(kind, name, *_kernels(direct), g_pair)


def bkm() -> MonotoneFunctionSpec:
    return _coth_spec("bkm", "bkm", 0.0)


def bures_helstrom() -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec(
        "bures_helstrom", "bures_helstrom", *_kernels(lambda t, xp: (1.0 + t) / 2.0),
        lambda r: (1.0 / r, -1.0 / (r * r)))


def wigner_yanase() -> MonotoneFunctionSpec:
    def g_pair(r):  # g = (1 + w)/(2r), w = sqrt(1 - r^2)
        w = np.sqrt((1.0 - r) * (1.0 + r))
        return (1.0 + w) / (2.0 * r), -(r * r / w + 1.0 + w) / (2.0 * r * r)
    return MonotoneFunctionSpec(
        "wigner_yanase", "wigner_yanase",
        *_kernels(lambda t, xp: (1.0 + xp.sqrt(t)) ** 2 / 4.0), g_pair)


def rld() -> MonotoneFunctionSpec:
    # Non-constant-F negative control: g = (1-r^2)/r, F = -2(1-r^2).
    return MonotoneFunctionSpec(
        "rld", "rld", *_kernels(lambda t, xp: 2.0 * t / (1.0 + t)),
        lambda r: ((1.0 - r) * (1.0 + r) / r, -1.0 / (r * r) - 1.0))


def family_a(a_const: float) -> MonotoneFunctionSpec:
    require_positive("family_a", "A", a_const)
    return _coth_spec("family_a", f"family_a({a_const:g})", a_const)


def family_b(b_const: float, c: float = 0.0) -> MonotoneFunctionSpec:
    require_positive("family_b", "B", b_const)
    require_finite("family_b: c", c)
    sb = math.sqrt(b_const)

    def f_raw(t):
        t = np.asarray(t, dtype=float)
        out = sb * (1.0 - t) * _tan_off_pole(sb * (np.log(t) - c))
        return out if out.ndim else float(out)

    def g_pair(r):  # g = 2 sqrt(B) tan psi, psi = sqrt(B)(-2 rho - c)
        tan = _tan_off_pole(sb * (-2.0 * np.arctanh(r) - c))
        return 2.0 * sb * tan, -4.0 * b_const * (1.0 + tan * tan) / ((1.0 - r) * (1.0 + r))

    return MonotoneFunctionSpec("family_b", f"family_b({b_const:g},{c:g})",
                                f_raw=f_raw, g_pair=g_pair)


def custom(f: Callable, name: str) -> MonotoneFunctionSpec:
    """The spec of a user's f; a result of f that is not real raises
    NumericError naming the spec and t."""
    require_instance("f", f, Callable)

    def f_raw(t):
        value = f(t)
        try:
            require_array("f", value)
        except DomainError:
            raise NumericError(f"t = {t} gives f of {name} = {value!r}, which is "
                               f"not real") from None
        return value
    return MonotoneFunctionSpec("custom", name, f_raw=f_raw)


CATALOG = {
    "bkm": bkm,
    "bh": bures_helstrom,
    "bures_helstrom": bures_helstrom,
    "wy": wigner_yanase,
    "wigner_yanase": wigner_yanase,
    "rld": rld,
}


def spec_from_name(name: str, a_const: float | None = None,
                   b_const: float | None = None, c: float = 0.0) -> MonotoneFunctionSpec:
    """Resolve a CLI-style spec name; 'fa' needs --A, 'fb' needs --B."""
    key = name.lower() if isinstance(name, str) else None
    if key in CATALOG:
        return CATALOG[key]()
    if key in ("fa", "family_a", "familya", "alphaa"):
        if a_const is None:
            raise DomainError("family_a spec requires the A parameter")
        return family_a(a_const)
    if key in ("fb", "family_b", "familyb"):
        if b_const is None:
            raise DomainError("family_b spec requires the B parameter")
        return family_b(b_const, c)
    raise DomainError(f"unknown spec name {name!r}")


def f_eval(spec: MonotoneFunctionSpec, t):
    """Evaluate f on its proper domain t in (0, 1]; a value that is not
    finite raises NumericError naming the first such t."""
    require_instance("spec", spec, MonotoneFunctionSpec)
    t_arr = require_array("t", t)
    require_all((t_arr > 0.0) & (t_arr <= 1.0), t_arr, DomainError, "t",
                "is outside (0, 1]")
    f = spec.f_raw(t)
    require_all(np.isfinite(f), t_arr, NumericError, "t",
                f"makes f of {spec.name} not finite")
    return f


def finite_f(spec: MonotoneFunctionSpec, t):
    """spec.f_raw(t) where a metric or field needs it.

    A value that is zero or not finite (the formula lost all precision)
    raises NumericError naming the first such t.
    """
    require_instance("spec", spec, MonotoneFunctionSpec)
    t_arr = require_array("t", t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = spec.f_raw(t)
    size = np.abs(f)
    require_all((size > 0.0) & (size < np.inf), t_arr, NumericError, "t",
                f"makes f of {spec.name} zero or not finite")
    return f


def _g(spec: MonotoneFunctionSpec, r: np.ndarray) -> np.ndarray:
    return ((1.0 + r) / r) * np.asarray(spec.f_raw((1.0 - r) / (1.0 + r)))


def _g_pair(spec: MonotoneFunctionSpec, r: np.ndarray):
    """(g(r), g'(r)): the spec's closed forms, or g from f and g' by a
    Richardson central diff, whose stencil needs every r in (FD_STEP, 1 - FD_STEP)."""
    if spec.g_pair is not None:
        return spec.g_pair(r)
    g = _g(spec, r)
    require_all((r > FD_STEP) & (r < 1.0 - FD_STEP), r, DomainError, "r",
                f"is outside ({FD_STEP:g}, 1 - {FD_STEP:g}), the "
                f"finite-difference range of g' for {spec.name}")
    d1, d2 = ((_g(spec, r + h) - _g(spec, r - h)) / (2.0 * h)
              for h in (FD_STEP, FD_STEP / 2.0))
    return g, (4.0 * d2 - d1) / 3.0


def _on_radii(spec: MonotoneFunctionSpec, r, kernel, what: str):
    """kernel(spec, r) for r in (0, 1), finite, else NumericError naming the first r."""
    require_instance("spec", spec, MonotoneFunctionSpec)
    r = require_array("r", r)
    require_all((r > 0.0) & (r < 1.0), r, DomainError, "r", "is outside (0, 1)")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(kernel(spec, r))
    require_all(np.isfinite(out), r, NumericError, "r",
                f"makes {what} of {spec.name} not finite")
    return out if out.ndim else float(out)


def g_from_f(spec: MonotoneFunctionSpec, r):
    """g(r) = ((1+r)/r) f((1-r)/(1+r)) for r in (0, 1)."""
    return _on_radii(spec, r, _g, "g")


def g_derivative(spec: MonotoneFunctionSpec, r):
    """g'(r) for r in (0, 1), as _g_pair computes it."""
    return _on_radii(spec, r, lambda spec, r: _g_pair(spec, r)[1], "g'")


def _big_f(spec: MonotoneFunctionSpec, r: np.ndarray):
    g, g_prime = _g_pair(spec, r)
    return g * g + (1.0 - r * r) * g_prime


def big_f(spec: MonotoneFunctionSpec, r):
    """F(r) = (1-r^2) g'(r) + g(r)^2 for r in (0, 1), from g and g' (_g_pair)."""
    return _on_radii(spec, r, _big_f, "F")


class MetricAtPoint(Record):
    """Metric components at one point, tagged with the chart they live in."""

    __slots__ = ("chart", "matrix", "point")  # chart: "spherical" | "cartesian"

    def to_json(self) -> dict:
        return {"chart": self.chart,
                "point": list(self.point),
                "matrix": [list(row) for row in self.matrix.tolist()]}


def metric_spherical(spec: MonotoneFunctionSpec, p: SphericalPoint) -> MetricAtPoint:
    """diag(1/(1-r^2), r^2/((1+r) f(t)), same * sin^2 theta), t = (1-r)/(1+r)."""
    require_instance("p", p, SphericalPoint)
    t = (1.0 - p.r) / (1.0 + p.r)
    ftan = float(finite_f(spec, t))
    a_tan = p.r * p.r / ((1.0 + p.r) * ftan)
    mat = np.diag([1.0 / (1.0 - p.r * p.r), a_tan, a_tan * math.sin(p.theta) ** 2])
    return MetricAtPoint("spherical", mat, (p.r, p.theta, p.phi))


def _stack_point(point: tuple, names) -> np.ndarray:
    """A point tuple of coordinates named names, which may be arrays, as a
    (..., 3) stack; coordinates that do not broadcast to one shape holding
    all their entries raise DomainError naming them."""
    coords = [require_array(name, c) for name, c in zip(names, point)]
    try:
        same_shape = np.broadcast_arrays(*coords)
        if same_shape[0].size < max(c.size for c in coords):  # an empty stack drops one
            raise ValueError
    except ValueError:
        shapes = [c.shape for c in coords]
        raise DomainError(f"{', '.join(dict.fromkeys(names))} coordinates of shapes "
                          f"{shapes} do not broadcast to one shape") from None
    return np.stack(same_shape, axis=-1)


def metric_cartesian(spec: MonotoneFunctionSpec, x, y, z) -> MetricAtPoint:
    """Cartesian components: the chart transport of the spherical tensor.

    Equals J^-T G_sph J^-1 with J the spherical-to-Cartesian Jacobian, and
    simplifies to c_rad * n n^T + c_tan * (I - n n^T) with n the radial unit
    vector, c_rad = 1/(1-r^2), c_tan = 1/((1+r) f(t)).  The projector form
    extends continuously across the polar axis; only the center is excluded.
    x, y and z may be arrays of one shape S; the matrix then has shape
    S + (3, 3), and a failing check names the first failing point.
    """
    v = _stack_point((x, y, z), "xyz")
    r = ball_radii(v)
    require_all(r > EPS_CHART, v, CenterSingularity, "point",
                f"is within {EPS_CHART} of the center")
    n = v / r[..., None]
    t = (1.0 - r) / (1.0 + r)
    c_rad = 1.0 / (1.0 - r * r)
    c_tan = 1.0 / ((1.0 + r) * finite_f(spec, t))
    proj = n[..., :, None] * n[..., None, :]
    mat = (c_rad[..., None, None] * proj
           + c_tan[..., None, None] * (np.eye(3) - proj))
    return MetricAtPoint("cartesian", mat, (x, y, z))


def inverse_metric(m: MetricAtPoint) -> MetricAtPoint:
    """Invert one metric matrix, or each of a stack of them.

    Every matrix must be finite with condition number at most COND_LIMIT;
    for a stack, the error names the first failing matrix.
    """
    require_instance("m", m, MetricAtPoint)
    matrix = require_array("matrix", m.matrix, (..., 3, 3))
    point = _stack_point(m.point, ("m.point",) * 3)
    require_all(np.isfinite(matrix).all(axis=(-2, -1)), point, IllConditioned,
                "point", "has a metric that is not finite")
    require_all(np.linalg.cond(matrix) <= COND_LIMIT, point, IllConditioned,
                "point", f"has a metric of condition number above {COND_LIMIT:.0e}")
    return MetricAtPoint(m.chart, np.linalg.inv(matrix), m.point)


class PetzSymmetryReport(Record):
    __slots__ = ("spec", "max_symmetry_dev", "normalization_dev", "passed")


def check_petz_symmetry(spec: MonotoneFunctionSpec, grid) -> PetzSymmetryReport:
    """Check f(1) = 1 and f(t) = t f(1/t), each to PETZ_TOL, over a
    non-empty grid in (0, 1).

    f(1/t) is evaluated from the defining formula extended past t = 1.
    """
    require_instance("spec", spec, MonotoneFunctionSpec)
    grid = require_array("grid", grid)
    if grid.size == 0:
        raise DomainError("grid = [] has no points")
    require_all((grid > 0.0) & (grid < 1.0), grid, DomainError, "grid",
                "is outside (0, 1)")
    # 1/t or f(1/t) may overflow for t near 0; an infinite result, or the
    # NaN that inf/inf makes of it, is caught below.
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = 1.0 / grid
        f_inverse = np.asarray(spec.f_raw(inverse))
    require_all((inverse < np.inf) & np.isfinite(f_inverse), grid, DomainError,
                "grid", f"has 1/t or f(1/t) of {spec.name} not finite")
    dev = np.abs(np.asarray(spec.f_raw(grid)) - grid * f_inverse)
    # f(1) itself may hit a removable singularity of the raw formula, so the
    # normalization is probed just inside 1 with a slack matching |f'| <= 1.
    norm_dev = max(0.0, abs(float(spec.f_raw(1.0 - 1e-8)) - 1.0) - 2e-8)
    max_dev = float(np.max(dev))
    return PetzSymmetryReport(spec.name, max_dev, norm_dev,
                              max_dev < PETZ_TOL and norm_dev < PETZ_TOL)


class MonotonicityReport(Record):
    """Outcome of a random matrix-order scan of f."""

    # min_gap: the most negative eigenvalue of f(B) - f(A) seen
    __slots__ = ("spec", "min_gap", "counterexample")  # a dict, or None

    @property
    def violated(self) -> bool:
        return self.counterexample is not None


def _blocks(count: int):
    """(first row, row count) of each block of SCAN_BLOCK rows of count."""
    return [(start, min(SCAN_BLOCK, count - start))
            for start in range(0, count, SCAN_BLOCK)]


def _stack_streams(dim: int, samples: int, seed: int) -> list:
    """The scan's five random stacks of one size, each as a function that
    draws its next rows: the logarithms of A's eigenvalues, then the real
    and the imaginary part of the Gaussian that Q is made from, then those
    of the Gaussian M.

    One stream, derived from (seed, size), draws the five stacks in turn,
    samples rows each.  Each function draws from a copy of that stream
    taken where its stack begins, which is reached by drawing the stacks
    before it block by block and dropping them; so the rows a function
    draws, block after block, are those the stream gives its stack whole.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(dim,)))

    def log_lam(stream, rows):
        return stream.uniform(np.log(1e-3), 0.0, size=(rows, dim))

    def normal(stream, rows):
        return stream.standard_normal((rows, dim, dim))

    draws = (log_lam, normal, normal, normal, normal)
    stacks = []
    for k, draw in enumerate(draws):
        stacks.append(functools.partial(draw, copy.deepcopy(rng)))
        if k + 1 < len(draws):  # move rng to where the next stack begins
            for _, rows in _blocks(samples):
                draw(rng, rows)
    return stacks


def _ordered_pairs(stacks, dim: int, rows: int):
    """The next rows Hermitian pairs A <= B with spectra inside (0, 1]
    from the scan's stacks (_stack_streams): A as its drawn eigenpairs
    (lam, q), A = q diag(lam) q^dag, and B = A + s W, built in place so
    that at most two complex stacks are alive when LAPACK runs."""
    log_lam, q_re, q_im, m_re, m_im = stacks
    lam = np.exp(log_lam(rows))
    z = np.empty((rows, dim, dim), dtype=complex)
    z.real, z.imag = q_re(rows), q_im(rows)
    q = np.linalg.qr(z).Q
    z.real, z.imag = m_re(rows), m_im(rows)
    w = np.einsum("nij,nkj->nik", z, z.conj())
    del z
    w /= dim
    lmax_w = np.linalg.eigvalsh(w)[:, -1]
    w *= np.minimum(1.0, 0.999 * (1.0 - lam.max(axis=1))
                    / np.maximum(lmax_w, 1e-300))[:, None, None]
    w += np.einsum("nij,nj,nkj->nik", q, lam, q.conj())
    return lam, q, w


def _f_spectrum(spec: MonotoneFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """f of stacked eigenvalues (rows, n), clipped into (0, 1] against rounding;
    a value that is zero, not finite or too large raises NumericError naming its t."""
    f = np.asarray(finite_f(spec, np.clip(lam, 1e-300, 1.0)))
    bound = np.finfo(float).max / (2 * lam.shape[-1] + 2)  # no sum of 2n + 2 overflows
    require_all(np.abs(f) <= bound, lam, NumericError, "t",
                f"makes |f| of {spec.name} above {bound:.3g}, too large to scan")
    return f


def _first_min(gaps: np.ndarray):
    """(least value of gaps, its first index)."""
    k = int(np.argmin(gaps))
    return float(gaps[k]), k


def _positive_definite(diff: np.ndarray, shift: float) -> np.ndarray:
    """Whether the LDL^H factorisation of each diff - shift I of a stack
    runs to the end with positive pivots (a NaN pivot fails).

    Only the lower triangle is read.  m holds the trailing Schur complement
    plus shift I, so no shifted copy of the stack is made.
    """
    m = diff
    positive = np.ones(len(diff), dtype=bool)
    # A failed row's later pivots may divide by zero or overflow; its
    # outcome is already fixed.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(diff.shape[1]):
            p = m[:, 0, 0].real - shift
            positive &= p > 0.0
            low = m[:, 1:, 0] / p[:, None]
            m = m[:, 1:, 1:] - (p[:, None] * low)[:, :, None] * low.conj()[:, None, :]
    return positive


def _min_gap(diff: np.ndarray, scale: float):
    """(smallest eigenvalue over a stack of Hermitian matrices, first index
    of the matrix holding it), with ||diff[i]|| <= scale for every i.

    A diagonal entry bounds its matrix's smallest eigenvalue from above, so
    the least one, u, bounds the minimum.  A matrix whose diff - (u + delta) I
    factorises with positive pivots has every eigenvalue above u, given a
    margin delta past the factorisation's and eigvalsh's backward errors;
    only the others go to eigvalsh, which scores each matrix of a stack on
    its own, so the result is that of eigvalsh over the whole stack.
    """
    dim = diff.shape[1]
    upper = diff.diagonal(axis1=1, axis2=2).real.min()
    shift = upper + SCREEN_MARGIN * dim * dim * np.finfo(float).eps * scale
    rows = np.flatnonzero(~_positive_definite(diff, shift))
    gap, k = _first_min(np.linalg.eigvalsh(diff[rows])[:, 0])
    return gap, int(rows[k])


def _qubit_gaps(specs, lam_a: np.ndarray, vec_a: np.ndarray, b: np.ndarray):
    """Smallest eigenvalue of f(B) - f(A) per 2x2 pair, per spec, and B's
    ascending eigenvalues, in closed form from A's eigenpairs and B itself.

    M = t I + x.sigma has eigenvalues t -+ |x| and
    f(M) = (f(t+|x|) + f(t-|x|))/2 I + (f(t+|x|) - f(t-|x|))/2 n.sigma with
    n = x/|x| (n = 0 when |x| = 0), so f(B) - f(A) = t_D I + x_D.sigma has
    smallest eigenvalue t_D - |x_D|.  A's direction is that of its first
    drawn eigenvector q0, the Bloch vector of the projector q0 q0^dag.
    """
    d0, d1, off = b[:, 0, 0].real, b[:, 1, 1].real, b[:, 1, 0]
    t_b = 0.5 * (d0 + d1)
    x_b = np.stack((off.real, off.imag, 0.5 * (d0 - d1)), axis=1)
    r_b = np.sqrt(np.einsum("ni,ni->n", x_b, x_b))
    n_b = np.divide(x_b, r_b[:, None], out=np.zeros_like(x_b),
                    where=r_b[:, None] > 0.0)
    lam_b = np.stack((t_b - r_b, t_b + r_b), axis=1)
    q00, q10 = vec_a[:, 0, 0], vec_a[:, 1, 0]
    c = q10 * q00.conj()
    n_a = np.stack((2.0 * c.real, 2.0 * c.imag,
                    abs(q00) ** 2 - abs(q10) ** 2), axis=1)
    gaps = []
    for spec in specs:
        f_b, f_a = _f_spectrum(spec, lam_b), _f_spectrum(spec, lam_a)
        t_d = 0.5 * ((f_b[:, 0] + f_b[:, 1]) - (f_a[:, 0] + f_a[:, 1]))
        x_d = 0.5 * ((f_b[:, 1] - f_b[:, 0])[:, None] * n_b
                     - (f_a[:, 0] - f_a[:, 1])[:, None] * n_a)
        gaps.append(t_d - np.sqrt(np.einsum("ni,ni->n", x_d, x_d)))
    return gaps, lam_b


def _block_gaps(specs, stacks, dim: int, rows: int):
    """(smallest eigenvalue of f(B) - f(A) over the next rows pairs drawn
    from stacks, first pair with it) per spec, with the spectra of A (as
    drawn) and of B (ascending).

    Size 2 is scored in closed form (_qubit_gaps).  Every other size
    diagonalises B once for all specs and scores them in B's eigenbasis,
    where B = diag(lam_b), A = u diag(lam_a) u^dag and f(B) is diagonal.
    """
    lam_a, vec_a, b = _ordered_pairs(stacks, dim, rows)
    if dim == 2:
        gaps, lam_b = _qubit_gaps(specs, lam_a, vec_a, b)
        return [_first_min(g) for g in gaps], lam_a, lam_b
    lam_b, vec_b = np.linalg.eigh(b)
    u = vec_b.conj().swapaxes(1, 2) @ vec_a
    uc, diag = u.conj(), np.arange(dim)
    gaps = []
    for spec in specs:
        f_a, f_b = _f_spectrum(spec, lam_a), _f_spectrum(spec, lam_b)
        diff = np.einsum("nij,nkj->nik", u * -f_a[:, None, :], uc)  # -u f(lam_a) u^dag
        diff[:, diag, diag] += f_b
        # ||f(B) - f(A)|| <= max|f(lam_b)| + max|f(lam_a)|
        gaps.append(_min_gap(diff, np.abs(f_a).max() + np.abs(f_b).max()))
        del diff  # so that the next spec's stack is not made beside it
    return gaps, lam_a, lam_b


def _size_gaps(specs, dim: int, samples: int, seed: int):
    """(smallest eigenvalue of f(B) - f(A) over the drawn pairs of one
    size, first pair with it, that pair's spectra of A (as drawn) and of B
    (ascending)) per spec.

    The pairs are drawn and scored SCAN_BLOCK at a time (_block_gaps), each
    block from the next rows of one stream per random stack
    (_stack_streams), so every pair gets the numbers that drawing each
    stack whole from the size's stream gives it, and the scan takes memory
    O(SCAN_BLOCK) for any sample count: of a block, only the rows of its
    best pairs are kept.  A block's least gap replaces the running one only
    if it is smaller, so the first pair holding the least gap wins.
    """
    stacks = _stack_streams(dim, samples, seed)
    best = None
    for start, rows in _blocks(samples):
        gaps, lam_a, lam_b = _block_gaps(specs, stacks, dim, rows)
        gaps = [(gap, start + k, lam_a[k].copy(), lam_b[k].copy())
                for gap, k in gaps]
        best = gaps if best is None else [new if new[0] < old[0] else old
                                          for new, old in zip(gaps, best)]
        del lam_a, lam_b  # so that no block's rows outlive it
    return best


def _workers(count: int) -> int:
    """How many threads scan count sizes: no more than the sizes, nor than
    the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on macOS or Windows
        cpus = os.cpu_count() or 1
    return min(count, cpus)


def _scan_sizes(specs, sizes, samples: int, seed: int) -> dict:
    """_size_gaps of each distinct size, or the exception it raised, by size.

    The calling thread and _workers - 1 helper threads take the sizes
    largest first, each helper in a copy of the caller's context (so under
    its np.errstate).  LAPACK and most of numpy release the GIL, so the
    workers' blocks overlap.  After a KeyboardInterrupt no helper takes a
    new size, and the caller waits for the sizes in flight.
    """
    todo = sorted(set(sizes))  # popped from the end: largest first
    done = {}

    def work():
        while True:
            try:
                dim = todo.pop()
            except IndexError:  # no size left
                return
            try:
                done[dim] = _size_gaps(specs, dim, samples, seed)
            except Exception as exc:  # raised in sizes order by the caller
                done[dim] = exc

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(_workers(len(todo)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        todo.clear()
        for helper in helpers:
            helper.join()
    return done


def scan_monotonicity(specs, sizes=(1, 2, 3, 4), samples: int = 10_000,
                      seed: int = 0) -> list:
    """Search for matrix-order violations f(B) - f(A) not >= 0 with A <= B.

    Returns one MonotonicityReport per spec of ``specs``, a non-empty
    sequence of MonotoneFunctionSpec.  Each size draws its pairs, A by its
    eigenpairs, and diagonalises B once (size 2 in closed form), then
    scores every spec against those spectra, so a spec's report does not
    depend on the other specs.  The pairs go SCAN_BLOCK at a time
    (_size_gaps), so the scan's memory does not grow with ``samples``, and
    the report is the one of scoring every pair at once.  At sizes other
    than 2 a spec's least gap is found by a screen that sends only the
    pairs which can hold it to eigvalsh (_min_gap).
    A least gap below -VIOLATION_TOL max(1, max|f|), over that pair's
    spectra, is a counterexample: the gaps round at eps |f|.
    Evidence only: a clean scan does not prove operator monotonicity.

    The distinct sizes are scored on min(sizes, CPUs this process may run
    on) threads, the caller's and helpers, largest size first (_scan_sizes),
    so two workers split {4} and {3, 2, 1}.  Each size draws from its own
    RNG stream, derived from (seed, size), and the sizes' rows are merged
    in the order of ``sizes``, so the reports do not depend on the worker
    count.  Each extra worker holds one block of its size at once: 2.2 MiB
    traced at size 4, 1.2 MiB at size 3.
    An f value that is zero or not finite raises NumericError naming the
    spec and t.  Once every worker is done, the error of the first failing
    size in the order of ``sizes`` is raised, whatever the worker count.
    """
    specs = require_items("specs", specs, "spec")
    for spec in specs:
        require_instance("spec", spec, MonotoneFunctionSpec)
    require_count("samples", samples)
    require_count("seed", seed, 0)
    sizes = require_items("sizes", sizes, "matrix size")
    for dim in sizes:
        require_count("matrix size", dim)
    min_gaps = [np.inf] * len(specs)
    counterexamples = [None] * len(specs)
    scanned = _scan_sizes(specs, sizes, samples, seed)
    for dim in sizes:
        if isinstance(scanned[dim], Exception):
            raise scanned[dim]
        for k, (gap, _, lam_a, lam_b) in enumerate(scanned[dim]):
            min_gaps[k] = min(min_gaps[k], gap)
            size = np.abs(_f_spectrum(specs[k], np.stack([lam_a, lam_b]))).max()
            if counterexamples[k] is None and gap < -VIOLATION_TOL * max(1.0, size):
                counterexamples[k] = {
                    "size": int(dim),
                    "gap": gap,
                    "a_eigenvalues": np.sort(lam_a).tolist(),
                    "b_eigenvalues": lam_b.tolist(),
                }
    return [MonotonicityReport(spec.name, float(gap), example)
            for spec, gap, example in zip(specs, min_gaps, counterexamples)]


def derivative_limit_at_zero(a_const: float) -> float:
    """Extrapolate f_A'(t) for t -> 0+ (A > 1); the limit is -sqrt(A)/2.

    Central differences at t = 10^-k, k = 3..8, then pairwise elimination of
    the known leading correction ~ t^(sqrt(A)-1); the last two limits must
    agree to EXTRAPOLATION_TOL.
    """
    if not (isinstance(a_const, numbers.Real) and a_const > 1.0):
        raise DomainError(f"derivative limit requires A > 1, got {a_const!r}")
    s = math.sqrt(a_const)
    spec = family_a(a_const)
    ts = 10.0 ** (-np.arange(3, 9, dtype=float))
    diffs = (spec.f_raw(1.5 * ts) - spec.f_raw(0.5 * ts)) / ts
    ratio = 10.0 ** (-(s - 1.0))
    limits = (diffs[1:] - ratio * diffs[:-1]) / (1.0 - ratio)
    steps = np.abs(np.diff(limits))
    if steps.size >= 2 and steps[-1] > max(10.0 * steps[0], 1e-6):
        raise ExtrapolationUnstable(
            f"extrapolation sequence diverging: |dL| = {steps.tolist()}")
    limit = float(limits[-1])
    if abs(limits[-1] - limits[-2]) > EXTRAPOLATION_TOL * max(1.0, abs(limit)):
        raise ExtrapolationUnstable(
            f"extrapolation not converged to {EXTRAPOLATION_TOL}: {limits.tolist()}")
    return limit
