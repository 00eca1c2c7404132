"""Seeded inputs and result checks for the benchmark workloads.

Each workload is a list of ``Op``: one ``qig`` command line and the check
its result must pass.  Inputs come only from the seed.  The checks use the
CLI contract (argv in, JSON or CSV out) and closed forms written here with
plain numpy, so a refactor of the library's internals needs no change here.

Importing this module imports numpy, so the BLAS thread caps must already
be in the environment.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

OVERLAY_STEPS = 5_000
OVERLAY_T_END = 1.0
OVERLAY_A_VALUES = (0.25, 1.0, 2.0)
FLOWS_TOLERANCE = 1e-6      # the flows suite's flow-versus-orbit tolerance
MAX_ORBIT_RADIUS = 0.99     # drawn overlay inputs must keep |v| below this
CLI_ROUNDS = 3              # distinct invocations per kind in one sequence


class Mismatch(ValueError):
    """A command exited with the wrong code or printed a wrong result."""


@dataclass
class Op:
    argv: list
    check: Callable[[int, str], None]  # (exit code, stdout); raises Mismatch


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _close(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    _require(err <= tol, f"{what}: deviation {err:.3g} > {tol:g}")


def _num(x: float) -> str:
    return repr(float(x))


def _triple(v) -> str:
    return ",".join(_num(c) for c in v)


# ---------------------------------------------------------------- verify-all

def verify_all(seed: int) -> list:
    """`verify all` at one seed; every run must pass and print the same bytes."""
    suite_seed = random.Random(seed).randrange(1_000_000)
    first = []

    def check(code: int, out: str) -> None:
        _require(code == 0, f"verify all exited {code}")
        _require(json.loads(out).get("passed") is True, "verify all did not pass")
        if not first:
            first.append(out)
        _require(out == first[0], "verify all stdout differs between runs")

    return [Op(["verify", "all", "--seed", str(suite_seed)], check)]


# ------------------------------------------------------------------- overlay

def overlay(seed: int) -> list:
    """One long flow-versus-orbit trajectory drawn from the seed.

    The alpha_A orbit moves the artanh-radius by at most t |a| / sqrt(A), so
    the drawn start and observable keep the whole orbit below
    MAX_ORBIT_RADIUS.
    """
    rng = random.Random(seed)
    a_const = rng.choice(OVERLAY_A_VALUES)
    start = _direction(rng) * rng.uniform(0.1, 0.5)
    obs = _direction(rng) * rng.uniform(0.3, 1.0)
    bound = math.tanh(math.atanh(float(np.linalg.norm(start)))
                      + OVERLAY_T_END * float(np.linalg.norm(obs)) / math.sqrt(a_const))
    _require(bound < MAX_ORBIT_RADIUS, f"overlay input may leave the ball: {bound}")
    argv = ["export", "--what", "overlay", f"--A={_num(a_const)}",
            f"--a={_triple(obs)}", f"--start={_triple(start)}",
            f"--t-end={_num(OVERLAY_T_END)}", f"--steps={OVERLAY_STEPS}"]

    def check(code: int, out: str) -> None:
        _require(code == 0, f"export overlay exited {code}")
        lines = out.splitlines()
        _require(lines[0] == "t,flow_x,flow_y,flow_z,orbit_x,orbit_y,orbit_z,gap",
                 "overlay header")
        _require(len(lines) == OVERLAY_STEPS + 2,
                 f"overlay has {len(lines) - 1} rows, want {OVERLAY_STEPS + 1}")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        _require(rows.shape[1] == 8 and bool(np.all(np.isfinite(rows))),
                 "overlay values not finite")
        flow, orbit = rows[:, 1:4], rows[:, 4:7]
        _require(float(np.max(np.linalg.norm(flow, axis=1))) < 1.0, "flow left the ball")
        _require(float(np.max(np.linalg.norm(orbit, axis=1))) < 1.0, "orbit left the ball")
        _require(float(np.max(rows[:, 7])) < FLOWS_TOLERANCE,
                 f"flow-orbit gap {np.max(rows[:, 7]):.3g}")
        _close(rows[:, 0], np.linspace(0.0, OVERLAY_T_END, OVERLAY_STEPS + 1),
               1e-15, "overlay times")
        _close(rows[0, 1:4], start, 1e-15, "overlay start")

    return [Op(argv, check)]


def _direction(rng) -> np.ndarray:
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    return v / np.linalg.norm(v)


# --------------------------------------------------------------- cli-oneshot

def cli_oneshot(seed: int) -> list:
    """CLI_ROUNDS rounds of every command kind in _MAKERS, each in seeded order.

    Every op must exit 0, print what ``qig.cli.main`` prints for the same
    argv in this process, and match the closed form where one exists.
    """
    from qig import cli

    rng = random.Random(seed)
    ops = []
    for _ in range(CLI_ROUNDS):
        kinds = list(_MAKERS)
        rng.shuffle(kinds)
        for kind in kinds:
            argv, closed_form = _MAKERS[kind](rng)
            ops.append(Op(argv, _cli_check(cli, argv, closed_form)))
    return ops


def _cli_check(cli, argv: list, closed_form) -> Callable[[int, str], None]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            in_process = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # reported by every run of this op
        in_process = f"{type(exc).__name__}: {exc}"
    want = buf.getvalue()

    def check(code: int, out: str) -> None:
        _require(code == 0 and in_process == 0,
                 f"{argv[0]} exited {code}, in process {in_process}; want 0")
        _require(out == want, f"{' '.join(argv)}: output differs from in-process")
        closed_form(out)

    return check


# Monotone functions f(t) of the catalog specs, written from their formulas.
def _f(spec: str, a_const: float, t: float) -> float:
    if spec == "bh":
        return (1.0 + t) / 2.0
    if spec == "wy":
        return (1.0 + math.sqrt(t)) ** 2 / 4.0
    if spec == "bkm":
        return (t - 1.0) / math.log(t)
    s = math.sqrt(a_const)
    return (s / 2.0) * (1.0 - t) * (1.0 + t ** s) / (1.0 - t ** s)


def _draw_spec(rng, with_bkm: bool = True):
    names = ["bh", "wy", "fa"] + (["bkm"] if with_bkm else [])
    spec = rng.choice(names)
    a_const = rng.choice((0.25, 0.5, 2.0, 3.0)) if spec == "fa" else 1.0
    flags = ["--spec", spec] + ([f"--A={_num(a_const)}"] if spec == "fa" else [])
    return spec, a_const, flags


def _draw_point(rng, r_hi: float = 0.9):
    r = rng.uniform(0.1, r_hi)
    theta = rng.uniform(0.2, math.pi - 0.2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    return r, theta, phi, r * n


def _point_flags(chart: str, r, theta, phi, v) -> list:
    if chart == "spherical":
        return ["--chart", "spherical", f"--r={_num(r)}", f"--theta={_num(theta)}",
                f"--phi={_num(phi)}"]
    return ["--chart", "cartesian"] + [f"--{k}={_num(c)}" for k, c in zip("xyz", v)]


def _make_metric_spherical(rng):
    spec, a_const, flags = _draw_spec(rng)
    r, theta, phi, v = _draw_point(rng)

    def closed_form(out: str) -> None:
        t = (1.0 - r) / (1.0 + r)
        tan = r * r / ((1.0 + r) * _f(spec, a_const, t))
        want = np.diag([1.0 / (1.0 - r * r), tan, tan * math.sin(theta) ** 2])
        _close(json.loads(out)["matrix"], want, 1e-12, "spherical metric")

    return (["metric"] + flags + _point_flags("spherical", r, theta, phi, v),
            closed_form)


def _make_metric_cartesian(rng):
    spec, a_const, flags = _draw_spec(rng)
    r, theta, phi, v = _draw_point(rng)
    inverse = rng.random() < 0.5

    def closed_form(out: str) -> None:
        t = (1.0 - r) / (1.0 + r)
        c_rad, c_tan = 1.0 / (1.0 - r * r), 1.0 / ((1.0 + r) * _f(spec, a_const, t))
        if inverse:
            c_rad, c_tan = 1.0 / c_rad, 1.0 / c_tan
        n = v / r
        want = c_rad * np.outer(n, n) + c_tan * (np.eye(3) - np.outer(n, n))
        _close(json.loads(out)["matrix"], want, 1e-10, "Cartesian metric")

    return (["metric"] + flags + _point_flags("cartesian", r, theta, phi, v)
            + (["--inverse"] if inverse else []), closed_form)


def _make_field(rng):
    spec, a_const, flags = _draw_spec(rng)
    r, theta, phi, v = _draw_point(rng)
    kind = rng.choice(("x", "y", "ym"))
    chart = rng.choice(("spherical", "cartesian"))
    a = np.array([rng.uniform(-1.0, 1.0) for _ in range(3)])

    def closed_form(out: str) -> None:
        t = (1.0 - r) / (1.0 + r)
        rg = (1.0 + r) * _f(spec, a_const, t)
        n = v / r
        st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
        th, ph = np.array([ct * cp, ct * sp, -st]), np.array([-sp, cp, 0.0])
        if kind == "x" and chart == "cartesian":
            want = np.cross(a, v)
        elif kind == "x":
            want = [0.0, -a[0] * sp + a[1] * cp, -ct / st * (a[0] * cp + a[1] * sp) + a[2]]
        elif chart == "cartesian":
            want = rg * a + ((1.0 - r * r) - rg) * (a @ n) * n
        else:
            want = [(1.0 - r * r) * (a @ n), rg / r * (a @ th), rg / r * (a @ ph) / st]
        _close(json.loads(out)["components"], want, 1e-10, f"field {kind}")

    return (["field"] + flags + _point_flags(chart, r, theta, phi, v)
            + [f"--field={kind}:{_triple(a)}"], closed_form)


def _make_bracket(rng):
    """[X_b, X_c] = X_(c x b); for constant F, [Y_a, Y_b] = F X_(a x b)."""
    spec, a_const, flags = _draw_spec(rng, with_bkm=False)
    r, theta, phi, v = _draw_point(rng, r_hi=0.8)
    kind = rng.choice(("x", "y"))
    b = np.array([rng.uniform(-1.0, 1.0) for _ in range(3)])
    c = np.array([rng.uniform(-1.0, 1.0) for _ in range(3)])

    def closed_form(out: str) -> None:
        if kind == "x":
            want = np.cross(np.cross(c, b), v)
        else:
            big_f = {"bh": 1.0, "wy": 0.25}.get(spec, a_const)
            want = big_f * np.cross(np.cross(b, c), v)
        _close(json.loads(out)["components"], want, 1e-6, f"bracket {kind}")

    return (["bracket"] + flags + _point_flags("cartesian", r, theta, phi, v)
            + [f"--v={kind}:{_triple(b)}", f"--w={kind}:{_triple(c)}"], closed_form)


def _make_ode_classify(rng):
    """family_a(A) has the constant radial invariant F = A."""
    a_const = rng.choice((0.25, 0.5, 1.0, 2.0, 4.0))

    def closed_form(out: str) -> None:
        constant = json.loads(out)["constant"]
        _require(constant is not None, "family_a not classified constant")
        _close(constant, a_const, 1e-6, "F of family_a")

    return ["ode", "classify", "--spec", "fa", f"--A={_num(a_const)}"], closed_form


def _pole_ts(b_const: float, c: float, count: int) -> list:
    """t_k = exp(c - (pi/2 + k pi)/sqrt(B)), the first count of them in (0, 1]."""
    ts, k = [], 0
    while len(ts) < count:
        t = math.exp(c - (math.pi / 2.0 + k * math.pi) / math.sqrt(b_const))
        if t <= 1.0:
            ts.append(t)
        k += 1
    return ts


def _make_ode_solve(rng):
    """A > 0 gives family_a(A); A < 0 is excluded with poles at B = -A/4."""
    a_const = rng.choice((-4.0, -2.0, -0.5, 0.5, 2.0, 3.0))

    def closed_form(out: str) -> None:
        data = json.loads(out)
        _require(data["excluded"] is (a_const < 0.0), "ode solve exclusion")
        if a_const < 0.0:
            _close(data["poles"]["t_values"], _pole_ts(-a_const / 4.0, 0.0, 10),
                   1e-12, "excluded-branch poles")

    return ["ode", "solve", f"--A={_num(a_const)}"], closed_form


def _make_ode_poles(rng):
    b_const = rng.uniform(0.2, 4.0)
    c = rng.uniform(-1.0, 1.0)
    count = rng.randint(3, 10)

    def closed_form(out: str) -> None:
        data = json.loads(out)
        ts = _pole_ts(b_const, c, count)
        _close(data["t_values"], ts, 1e-12, "pole locations")
        _close(data["r_values"], [(1.0 - t) / (1.0 + t) for t in ts], 1e-12,
               "pole radii")

    return (["ode", "poles", f"--B={_num(b_const)}", f"--c={_num(c)}", "-n", str(count)],
            closed_form)


def _hermitian_fn(m: np.ndarray, fn) -> np.ndarray:
    lam, vec = np.linalg.eigh(m)
    return (vec * fn(lam)) @ vec.conj().T


def _density(bloch) -> np.ndarray:
    x, y, z = bloch
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def _bloch(rho: np.ndarray) -> np.ndarray:
    rho = rho / np.trace(rho).real
    return np.array([2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag,
                     (rho[0, 0] - rho[1, 1]).real])


def _matrix_json(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _make_act(rng):
    """alpha_A(g, rho) ~ (g rho^s g^dag)^(1/s), s = sqrt(A); BKM: exp(U ln rho U^dag + a)."""
    family = rng.choice(("bh", "wy", "alphaA", "bkm"))
    bloch = _direction(rng) * rng.uniform(0.05, 0.8)
    rho = _density(bloch)
    if family == "bkm":
        q = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
        q /= np.linalg.norm(q)
        u = np.array([[q[0] + 1j * q[3], q[2] + 1j * q[1]],
                      [-q[2] + 1j * q[1], q[0] - 1j * q[3]]])
        a = np.array([rng.uniform(-0.5, 0.5) for _ in range(3)])
        g_json = {"unitary": _matrix_json(u), "a": {"pauli": a.tolist()}}
        a_mat = np.array([[a[2], a[0] - 1j * a[1]], [a[0] + 1j * a[1], -a[2]]])
        moved = _hermitian_fn(u @ _hermitian_fn(rho, np.log) @ u.conj().T + a_mat,
                              np.exp)
        a_flags = []
    else:
        a_const = {"bh": 1.0, "wy": 0.25}.get(family) or rng.choice((0.5, 2.0, 3.0))
        x = np.eye(2) + 0.3 * np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                         for _ in range(2)] for _ in range(2)])
        g = x / cmath.sqrt(np.linalg.det(x))
        g_json = {"sl_matrix": _matrix_json(g)}
        s = math.sqrt(a_const)
        inner = g @ _hermitian_fn(rho, lambda lam: lam ** s) @ g.conj().T
        moved = _hermitian_fn(0.5 * (inner + inner.conj().T), lambda lam: lam ** (1.0 / s))
        a_flags = [f"--A={_num(a_const)}"] if family == "alphaA" else []
    want = _bloch(moved)

    def closed_form(out: str) -> None:
        _close(json.loads(out)["bloch"], want, 1e-10, f"act {family}")

    return (["act", "--family", family] + a_flags
            + ["--g-json", json.dumps(g_json), "--state-json",
               json.dumps({"bloch": bloch.tolist()})], closed_form)


def _make_verify_poles(rng):
    seed = rng.randrange(1000)

    def closed_form(out: str) -> None:
        data = json.loads(out)
        _require(data["passed"] is True and data["suites"]["poles"]["passed"] is True,
                 "verify poles did not pass")

    return ["verify", "poles", "--seed", str(seed)], closed_form


def _make_f_curves(rng):
    a_values = sorted(rng.sample((0.25, 0.5, 2.0, 3.0, 4.0), 2))
    steps = rng.randint(50, 400)
    t_min, t_max = rng.uniform(0.005, 0.1), rng.uniform(0.5, 0.9)

    def closed_form(out: str) -> None:
        lines = out.splitlines()
        _require(lines[0] == ",".join(["t"] + [f"f_A{a:g}" for a in a_values]),
                 "f-curves header")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        ts = np.linspace(t_min, t_max, steps)
        want = np.column_stack([ts] + [[_f("fa", a, t) for t in ts] for a in a_values])
        _close(rows, want, 1e-12, "f-curves")

    return (["export", "--what", "f-curves", "--a-list"] + [_num(a) for a in a_values]
            + [f"--steps={steps}", f"--t-min={_num(t_min)}", f"--t-max={_num(t_max)}"],
            closed_form)


_MAKERS = {
    "metric-spherical": _make_metric_spherical,
    "metric-cartesian": _make_metric_cartesian,
    "field": _make_field,
    "bracket": _make_bracket,
    "ode-classify": _make_ode_classify,
    "ode-solve": _make_ode_solve,
    "ode-poles": _make_ode_poles,
    "act": _make_act,
    "verify-poles": _make_verify_poles,
    "f-curves": _make_f_curves,
}

WORKLOADS = {"verify-all": verify_all, "cli-oneshot": cli_oneshot, "overlay": overlay}
