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
family_a(A)     f(t) = (sqrt(A)/2)(1-t)(1+t^sqrt(A))/(1-t^sqrt(A)),  F = A
rld             f(t) = 2t/(1+t)             F = -2(1-r^2), non-constant control
family_b(B, c)  f(t) = sqrt(B)(1-t)/2 tan(sqrt(B)(log t - c)), has poles

family_a(1) coincides with bures_helstrom, family_a(1/4) with wigner_yanase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (CenterSingularity, DomainError, ExtrapolationUnstable,
                     IllConditioned, NumericError, PoleError)
from .state_space import EPS_CHART, SphericalPoint, ball_radii, first_failing

# Removable singularities of f at t = 1 switch to a Taylor fallback here;
# direct evaluation loses all precision closer to 1.
SERIES_CUTOFF = 1e-6

# Pole proximity threshold for the tangent family, measured as distance of
# the tan argument to pi/2 mod pi.  Must sit well below sqrt(B)*1e-9 so
# that evaluation 1e-9 away from a pole still returns a (huge) number.
POLE_CUTOFF = 1e-10


def _bkm_f(t):
    t = np.asarray(t, dtype=float)
    u = t - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = u / np.log(t)
    near = np.abs(u) < SERIES_CUTOFF
    if near.any():
        series = 1.0 + u * (0.5 + u * (-1.0 / 12.0 + u * (1.0 / 24.0 - 19.0 / 720.0 * u)))
        out = np.where(near, series, out)
    return out if out.ndim else float(out)


def _family_a_f(t, s: float):
    # s = sqrt(A).  Exact form (s/2)(1-t)(1+t^s)/(1-t^s); near t = 1 use the
    # equivalent 1/P - s*u/2 with u = 1-t and P the truncated series of
    # (1-(1-u)^s)/(s*u).
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = t ** s
        out = 0.5 * s * u * (1.0 + ts) / (1.0 - ts)
    near = np.abs(u) < SERIES_CUTOFF
    if near.any():
        p = 1.0 + u * (-(s - 1.0) / 2.0
                       + u * ((s - 1.0) * (s - 2.0) / 6.0
                              - u * (s - 1.0) * (s - 2.0) * (s - 3.0) / 24.0))
        out = np.where(near, 1.0 / p - 0.5 * s * u, out)
    return out if out.ndim else float(out)


def _family_b_f(t, b: float, c: float):
    t = np.asarray(t, dtype=float)
    sb = math.sqrt(b)
    psi = sb * (np.log(t) - c)
    dist = np.abs(np.mod(psi, math.pi) - math.pi / 2.0)
    if np.any(dist < POLE_CUTOFF):
        raise PoleError(f"tan argument within {POLE_CUTOFF} of a pole")
    out = sb * (1.0 - t) / 2.0 * np.tan(psi)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MonotoneFunctionSpec:
    """A named or user-supplied metric-generating function.

    ``f_raw`` evaluates the defining formula for any t > 0 (the extension
    beyond (0,1] is only used by the symmetry check); ``g_prime`` is the
    analytic derivative of g(r) when one is hard-coded for the catalog
    entry, otherwise None and finite differences are used.
    """

    kind: str
    name: str
    params: tuple = ()
    petz_class: bool = True
    f_raw: Callable = field(default=None, repr=False, compare=False)
    g_prime: Optional[Callable] = field(default=None, repr=False, compare=False)


def bkm() -> MonotoneFunctionSpec:
    def gp(r):
        g = 2.0 / np.log((1.0 + r) / (1.0 - r))
        return -g * g / (1.0 - r * r)
    return MonotoneFunctionSpec("bkm", "bkm", f_raw=_bkm_f, g_prime=gp)


def bures_helstrom() -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec(
        "bures_helstrom", "bures_helstrom",
        f_raw=lambda t: (1.0 + np.asarray(t, dtype=float)) / 2.0,
        g_prime=lambda r: -1.0 / (np.asarray(r, dtype=float) ** 2))


def wigner_yanase() -> MonotoneFunctionSpec:
    def gp(r):
        r = np.asarray(r, dtype=float)
        w = np.sqrt(1.0 - r * r)
        return -(r * r / w + 1.0 + w) / (2.0 * r * r)
    return MonotoneFunctionSpec(
        "wigner_yanase", "wigner_yanase",
        f_raw=lambda t: (1.0 + np.sqrt(np.asarray(t, dtype=float))) ** 2 / 4.0,
        g_prime=gp)


def rld() -> MonotoneFunctionSpec:
    # Non-constant-F negative control: g = (1-r^2)/r, F = -2(1-r^2).
    return MonotoneFunctionSpec(
        "rld", "rld",
        f_raw=lambda t: 2.0 * np.asarray(t, dtype=float) / (1.0 + np.asarray(t, dtype=float)),
        g_prime=lambda r: -1.0 / (np.asarray(r, dtype=float) ** 2) - 1.0)


def family_a(a_const: float) -> MonotoneFunctionSpec:
    if not 0.0 < a_const < math.inf:
        raise DomainError(f"family_a requires finite A > 0, got {a_const}")
    s = math.sqrt(a_const)

    def gp(r):
        r = np.asarray(r, dtype=float)
        t = (1.0 - r) / (1.0 + r)
        u = t ** s
        return -4.0 * s * s * t ** (s - 1.0) / ((1.0 - u) ** 2 * (1.0 + r) ** 2)

    return MonotoneFunctionSpec(
        "family_a", f"family_a({a_const:g})", params=(float(a_const),),
        f_raw=lambda t: _family_a_f(t, s), g_prime=gp)


def family_b(b_const: float, c: float = 0.0) -> MonotoneFunctionSpec:
    if not (0.0 < b_const < math.inf and math.isfinite(c)):
        raise DomainError(f"family_b requires finite B > 0 and finite c, "
                          f"got B = {b_const}, c = {c}")

    def gp(r):
        r = np.asarray(r, dtype=float)
        psi = math.sqrt(b_const) * (np.log((1.0 - r) / (1.0 + r)) - c)
        return -2.0 * b_const * (1.0 + np.tan(psi) ** 2) / (1.0 - r * r)

    return MonotoneFunctionSpec(
        "family_b", f"family_b({b_const:g},{c:g})",
        params=(float(b_const), float(c)), petz_class=False,
        f_raw=lambda t: _family_b_f(t, b_const, c), g_prime=gp)


def custom(f: Callable, name: str, petz_class: bool = True) -> MonotoneFunctionSpec:
    return MonotoneFunctionSpec("custom", name, petz_class=petz_class, f_raw=f)


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
    key = name.lower()
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
    """Evaluate f on its proper domain t in (0, 1]."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr <= 1.0)):
        raise DomainError(f"t = {t} outside (0, 1]")
    return spec.f_raw(t)


def finite_f(spec: MonotoneFunctionSpec, t):
    """spec.f_raw(t) where a metric or field needs it.

    A value that is zero or not finite (the formula lost all precision)
    raises NumericError naming the first such t.
    """
    f = spec.f_raw(t)
    size = np.abs(f)
    ok = (size > 0.0) & (size < np.inf)
    if not ok.all():
        bad = first_failing(ok, np.asarray(t, dtype=float)[..., None])[0]
        raise NumericError(f"f({bad}) of {spec.name} is zero or not finite")
    return f


def g_from_f(spec: MonotoneFunctionSpec, r):
    """g(r) = ((1+r)/r) f((1-r)/(1+r)) for r in (0, 1)."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr > 0.0) & (r_arr < 1.0)):
        raise DomainError(f"r = {r} outside (0, 1)")
    out = ((1.0 + r_arr) / r_arr) * np.asarray(
        spec.f_raw((1.0 - r_arr) / (1.0 + r_arr)))
    return out if out.ndim else float(out)


def g_derivative(spec: MonotoneFunctionSpec, r, h: float = 1e-6):
    """g'(r): analytic for catalog entries, Richardson central diff otherwise."""
    if spec.g_prime is not None:
        out = spec.g_prime(np.asarray(r, dtype=float))
        return out if np.ndim(out) else float(out)

    def diff(step):
        return (g_from_f(spec, np.asarray(r) + step)
                - g_from_f(spec, np.asarray(r) - step)) / (2.0 * step)

    d1, d2 = diff(h), diff(h / 2.0)
    out = (4.0 * d2 - d1) / 3.0
    return out if np.ndim(out) else float(out)


def big_f(spec: MonotoneFunctionSpec, r, h: float = 1e-6):
    """F(r) = (1-r^2) g'(r) + g(r)^2."""
    r_arr = np.asarray(r, dtype=float)
    g = g_from_f(spec, r_arr)
    gp = g_derivative(spec, r_arr, h=h)
    out = (1.0 - r_arr * r_arr) * gp + g * g
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric components at one point, tagged with the chart they live in."""

    chart: str  # "spherical" | "cartesian"
    matrix: np.ndarray
    point: tuple

    def to_json(self) -> dict:
        return {"chart": self.chart,
                "point": list(self.point),
                "matrix": [list(row) for row in self.matrix.tolist()]}


def metric_spherical(spec: MonotoneFunctionSpec, p: SphericalPoint) -> MetricAtPoint:
    """diag(1/(1-r^2), r^2/((1+r) f(t)), same * sin^2 theta), t = (1-r)/(1+r)."""
    t = (1.0 - p.r) / (1.0 + p.r)
    ftan = float(finite_f(spec, t))
    a_tan = p.r * p.r / ((1.0 + p.r) * ftan)
    mat = np.diag([1.0 / (1.0 - p.r * p.r), a_tan, a_tan * math.sin(p.theta) ** 2])
    return MetricAtPoint("spherical", mat, (p.r, p.theta, p.phi))


def _stack_point(point: tuple) -> np.ndarray:
    """A point tuple whose coordinates may be arrays, as a (..., 3) stack."""
    return np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                          for c in point)), axis=-1)


def metric_cartesian(spec: MonotoneFunctionSpec, x, y, z,
                     eps_chart: float = EPS_CHART) -> MetricAtPoint:
    """Cartesian components: the chart transport of the spherical tensor.

    Equals J^-T G_sph J^-1 with J the spherical-to-Cartesian Jacobian, and
    simplifies to c_rad * n n^T + c_tan * (I - n n^T) with n the radial unit
    vector, c_rad = 1/(1-r^2), c_tan = 1/((1+r) f(t)).  The projector form
    extends continuously across the polar axis; only the center is excluded.
    x, y and z may be arrays of one shape S; the matrix then has shape
    S + (3, 3), and a failing check names the first failing point.
    """
    v = _stack_point((x, y, z))
    r = ball_radii(v)
    away = r > eps_chart
    if not away.all():
        raise CenterSingularity(f"point {first_failing(away, v)} is within "
                                f"{eps_chart} of the center")
    n = v / r[..., None]
    t = (1.0 - r) / (1.0 + r)
    c_rad = 1.0 / (1.0 - r * r)
    c_tan = 1.0 / ((1.0 + r) * finite_f(spec, t))
    proj = n[..., :, None] * n[..., None, :]
    mat = (c_rad[..., None, None] * proj
           + c_tan[..., None, None] * (np.eye(3) - proj))
    return MetricAtPoint("cartesian", mat, (x, y, z))


def inverse_metric(m: MetricAtPoint, cond_limit: float = 1e12) -> MetricAtPoint:
    """Invert one metric matrix, or each of a stack of them.

    Every matrix must be finite with condition number at most cond_limit;
    for a stack, the error names the first failing matrix.
    """
    finite = np.isfinite(m.matrix).all(axis=(-2, -1))
    if not finite.all():
        point = first_failing(finite, _stack_point(m.point))
        raise IllConditioned(f"metric at {point} is not finite")
    cond = np.linalg.cond(m.matrix)
    ok = cond <= cond_limit
    if not ok.all():
        worst = first_failing(ok, cond[..., None])[0]
        point = first_failing(ok, _stack_point(m.point))
        raise IllConditioned(f"condition number {worst:.3e} at {point} "
                             f"exceeds {cond_limit:.0e}")
    return MetricAtPoint(m.chart, np.linalg.inv(m.matrix), m.point)


@dataclass(frozen=True)
class PetzSymmetryReport:
    spec: str
    max_symmetry_dev: float
    normalization_dev: float
    passed: bool

    def to_json(self) -> dict:
        return {"spec": self.spec,
                "max_symmetry_dev": self.max_symmetry_dev,
                "normalization_dev": self.normalization_dev,
                "passed": self.passed}


def check_petz_symmetry(spec: MonotoneFunctionSpec, grid,
                        tol: float = 1e-9) -> PetzSymmetryReport:
    """Check f(1) = 1 and f(t) = t f(1/t) over a grid in (0, 1).

    f(1/t) is evaluated from the defining formula extended past t = 1.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid > 0.0) & (grid < 1.0)):
        raise DomainError("symmetry grid must lie in (0, 1)")
    dev = np.abs(np.asarray(spec.f_raw(grid))
                 - grid * np.asarray(spec.f_raw(1.0 / grid)))
    # f(1) itself may hit a removable singularity of the raw formula, so the
    # normalization is probed just inside 1 with a slack matching |f'| <= 1.
    norm_dev = max(0.0, abs(float(spec.f_raw(1.0 - 1e-8)) - 1.0) - 2e-8)
    max_dev = float(np.max(dev))
    return PetzSymmetryReport(spec.name, max_dev, norm_dev,
                              max_dev < tol and norm_dev < tol)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a random matrix-order scan of f."""

    spec: str
    sizes: tuple
    samples: int
    seed: int
    min_gap: float  # most negative eigenvalue of f(B) - f(A) seen
    counterexample: Optional[dict]

    @property
    def violated(self) -> bool:
        return self.counterexample is not None

    def to_json(self) -> dict:
        return {"spec": self.spec, "sizes": list(self.sizes),
                "samples": self.samples, "seed": self.seed,
                "min_gap": self.min_gap, "counterexample": self.counterexample}


def _random_ordered_pairs(rng, dim: int, count: int):
    """Stacked Hermitian pairs A <= B with spectra inside (0, 1]."""
    lam = np.exp(rng.uniform(np.log(1e-3), 0.0, size=(count, dim)))
    zr = rng.standard_normal((count, dim, dim))
    zi = rng.standard_normal((count, dim, dim))
    q, _ = np.linalg.qr(zr + 1j * zi)
    a = np.einsum("nij,nj,nkj->nik", q, lam, q.conj())
    m = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    w = np.einsum("nij,nkj->nik", m, m.conj()) / dim
    lmax_a = np.linalg.eigvalsh(a)[:, -1]
    lmax_w = np.linalg.eigvalsh(w)[:, -1]
    scale = np.minimum(1.0, 0.999 * (1.0 - lmax_a) / np.maximum(lmax_w, 1e-300))
    b = a + scale[:, None, None] * w
    return a, b


def _apply_spectral(spec: MonotoneFunctionSpec, lam: np.ndarray,
                    vec: np.ndarray) -> np.ndarray:
    """f of the stacked matrices with eigenpairs (lam, vec)."""
    flam = np.asarray(spec.f_raw(np.clip(lam, 1e-300, 1.0)))
    return np.einsum("nij,nj,nkj->nik", vec, flam, vec.conj())


def _size_gaps(specs, dim: int, samples: int, seed: int):
    """Smallest eigenvalue of f(B) - f(A) per drawn pair of one size, per spec,
    with the spectra of A and B, each diagonalised once for all specs.

    Each matrix stack is freed as soon as it is no longer needed, and all of
    them on return, so the peak memory stays that of a one-spec scan.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(dim,)))
    a, b = _random_ordered_pairs(rng, dim, samples)
    lam_a, vec_a = np.linalg.eigh(a)
    del a
    lam_b, vec_b = np.linalg.eigh(b)
    del b
    gaps = []
    for spec in specs:
        diff = _apply_spectral(spec, lam_b, vec_b)
        diff -= _apply_spectral(spec, lam_a, vec_a)
        gaps.append(np.linalg.eigvalsh(diff)[:, 0])
        del diff
    return gaps, lam_a, lam_b


def scan_monotonicity(specs, sizes=(1, 2, 3, 4), samples: int = 10_000,
                      seed: int = 0, violation_tol: float = 1e-10) -> list:
    """Search for matrix-order violations f(B) - f(A) not >= 0 with A <= B.

    Returns one MonotonicityReport per spec of ``specs``.  Each size draws
    its pairs and diagonalises A and B once, then scores every spec against
    those spectra, so a spec's report does not depend on the other specs.
    Evidence only: a clean scan does not prove operator monotonicity.  The
    per-size RNG stream is derived from (seed, size) so results do not
    depend on the order sizes are processed in.
    """
    specs = list(specs)
    min_gaps = [np.inf] * len(specs)
    counterexamples = [None] * len(specs)
    for dim in sizes:
        gaps, lam_a, lam_b = _size_gaps(specs, dim, samples, seed)
        for k, gap in enumerate(gaps):
            idx = int(np.argmin(gap))
            min_gaps[k] = min(min_gaps[k], float(gap[idx]))
            if counterexamples[k] is None and gap[idx] < -violation_tol:
                counterexamples[k] = {
                    "size": int(dim),
                    "gap": float(gap[idx]),
                    "a_eigenvalues": lam_a[idx].tolist(),
                    "b_eigenvalues": lam_b[idx].tolist(),
                }
    return [MonotonicityReport(spec.name, tuple(int(d) for d in sizes),
                               int(samples), int(seed), float(gap), example)
            for spec, gap, example in zip(specs, min_gaps, counterexamples)]


def derivative_limit_at_zero(a_const: float, rel_tol: float = 1e-4) -> float:
    """Extrapolate f_A'(t) for t -> 0+ (A > 1); the limit is -sqrt(A)/2.

    Central differences at t = 10^-k, k = 3..8, then pairwise elimination of
    the known leading correction ~ t^(sqrt(A)-1).
    """
    if a_const <= 1.0:
        raise DomainError(f"derivative limit requires A > 1, got {a_const}")
    s = math.sqrt(a_const)
    spec = family_a(a_const)
    ts = 10.0 ** (-np.arange(3, 9, dtype=float))
    diffs = np.array([
        (float(spec.f_raw(1.5 * t)) - float(spec.f_raw(0.5 * t))) / t for t in ts
    ])
    ratio = 10.0 ** (-(s - 1.0))
    limits = (diffs[1:] - ratio * diffs[:-1]) / (1.0 - ratio)
    steps = np.abs(np.diff(limits))
    if steps.size >= 2 and steps[-1] > max(10.0 * steps[0], 1e-6):
        raise ExtrapolationUnstable(
            f"extrapolation sequence diverging: |dL| = {steps.tolist()}")
    limit = float(limits[-1])
    if abs(limits[-1] - limits[-2]) > rel_tol * max(1.0, abs(limit)):
        raise ExtrapolationUnstable(
            f"extrapolation not converged to {rel_tol}: {limits.tolist()}")
    return limit
