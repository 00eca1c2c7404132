"""Batch command-line frontend.

Subcommands expose every evaluation and verification as reproducible runs
with JSON or CSV output.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 numeric failure.  Identical configuration (flags, config
file, seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import inspect
import json
import math
import sys

import numpy as np

from . import group_actions as ga
from . import metric_family as mf
from . import ode_classifier as oc
from . import verify as vf
from .errors import InputError, QigError
from .flow_engine import csv_table, integrate_flow, orbit_curve
from .state_space import (QubitState, SphericalPoint, TracelessObservable,
                          require_count, require_positive)
from .vector_fields import (BRACKET_STEP, VectorField, fundamental_field,
                            gradient_field_closed, gradient_field_from_metric,
                            lie_bracket_numeric, rescaled_gradient_field)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Caps on the work one flag can ask for.  Each is sized so that the largest
# valid run takes a fraction of the 60 s that a `qig verify all` run is
# allowed, on a 2-vCPU machine with one BLAS thread: 100 000 overlay steps
# take about 1 s, 50 000 action samples about 3 s, and 100 000 poles or
# classification grid points under 1 s.
MAX_STEPS = 100_000       # export --steps
MAX_POLES = 100_000       # ode poles -n/--count
MAX_GRID_STEPS = 100_000  # ode classify --grid-steps
MAX_SAMPLES = 50_000      # verify --samples


def load_config(path: str) -> dict:
    """Read a minimal TOML-style config: one `key = value` per line.

    Comments start with '#'; values are parsed as int, float, or string.
    Flags given on the command line override config-file values.
    """
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"--config {path}: {exc}") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip().strip('"')
        for cast in (int, float, str):
            try:
                values[key] = cast(raw)
                break
            except ValueError:
                continue
    return values


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"--output {output}: {exc}") from None
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump(data, output: str | None) -> None:
    _emit(json.dumps(data, sort_keys=True, indent=2), output)


def _spec_from_args(args) -> mf.MonotoneFunctionSpec:
    return mf.spec_from_name(args.spec, args.a_const, args.b_const, args.c)


def _parse_triple(text: str) -> np.ndarray:
    try:
        x, y, z = (float(p) for p in text.split(","))
    except ValueError:
        raise InputError(
            f"expected three comma-separated numbers, got {text!r}") from None
    return np.array([x, y, z])


def _parse_field(desc: str, args) -> VectorField:
    """Field descriptors: x:b1,b2,b3 | y:a1,a2,a3 | ym:a1,a2,a3 | ya:a1,a2,a3.

    x = fundamental, y = gradient (closed form, needs --spec), ym = gradient
    raised through the metric (needs --spec), ya = rescaled gradient
    (needs --A).
    """
    kind, _, coeffs = desc.partition(":")
    obs = TracelessObservable.from_coeffs(_parse_triple(coeffs))
    if kind == "x":
        return fundamental_field(obs)
    if kind == "y":
        return gradient_field_closed(obs, _spec_from_args(args))
    if kind == "ym":
        return gradient_field_from_metric(obs, _spec_from_args(args))
    if kind == "ya":
        if args.a_const is None:
            raise InputError("field kind 'ya' requires --A")
        return rescaled_gradient_field(obs, args.a_const)
    raise InputError(f"unknown field kind {kind!r}")


def cmd_metric(args) -> int:
    spec = _spec_from_args(args)
    if args.chart == "spherical":
        metric = mf.metric_spherical(spec, SphericalPoint(args.r, args.theta, args.phi))
    else:
        metric = mf.metric_cartesian(spec, args.x, args.y, args.z)
    if args.inverse:
        metric = mf.inverse_metric(metric)
    _dump(metric.to_json(), args.output)
    return EXIT_OK


def cmd_field(args) -> int:
    vfield = _parse_field(args.field, args)
    if args.chart == "spherical":
        tv = vfield.at_spherical(SphericalPoint(args.r, args.theta, args.phi))
    else:
        tv = vfield.at_cartesian([args.x, args.y, args.z])
    _dump(tv.to_json(), args.output)
    return EXIT_OK


def cmd_bracket(args) -> int:
    v = _parse_field(args.v, args)
    w = _parse_field(args.w, args)
    tv = lie_bracket_numeric(v, w, [args.x, args.y, args.z], h=args.h)
    _dump(tv.to_json(), args.output)
    return EXIT_OK


def _check_count(name: str, value, cap: int) -> None:
    require_count(name, value, 1, InputError)
    if value > cap:
        raise InputError(f"{name} = {value!r} is above the cap {cap}")


def cmd_ode_classify(args) -> int:
    _check_count("--grid-steps", args.grid_steps, MAX_GRID_STEPS)
    spec = _spec_from_args(args)
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    _dump(oc.classify(spec, grid).to_json(), args.output)
    return EXIT_OK


def cmd_ode_solve(args) -> int:
    result = oc.solve_branch(args.a_const, c=args.c)
    _dump(result.to_json() if isinstance(result, oc.Exclusion) else
          {"A": args.a_const, "excluded": False, "spec": result.name},
          args.output)
    return EXIT_OK


def cmd_ode_poles(args) -> int:
    _check_count("-n/--count", args.count, MAX_POLES)
    _dump(oc.singularities(args.b_const, args.c, args.count).to_json(),
          args.output)
    return EXIT_OK


def _json_flag(flag: str, text: str, build):
    """build(parsed JSON of ``flag``); any malformed value names the flag."""
    try:
        return build(json.loads(text))
    except QigError as exc:
        raise type(exc)(f"{flag}: {exc}") from None
    except (ValueError, LookupError, TypeError) as exc:
        raise InputError(f"{flag}: {type(exc).__name__}: {exc}") from None


def cmd_act(args) -> int:
    rho = _json_flag("--state-json", args.state_json,
                     lambda data: QubitState(*data["bloch"]))
    if args.family == "bkm":
        elem = _json_flag("--g-json", args.g_json,
                          lambda data: ga.CotangentGroupElement(
                              ga.complex_matrix_from_json(data["unitary"]),
                              TracelessObservable.from_coeffs(data["a"]["pauli"])))
        out = ga.action_bkm(elem, rho)
    else:
        a_const = {"bh": 1.0, "wy": 0.25}.get(args.family, args.a_const)
        if a_const is None:
            raise InputError("--family alphaA requires --A")
        g = _json_flag("--g-json", args.g_json, ga.SLGroupElement.from_json)
        out = ga.action_alpha_a(a_const, g, rho)
    _dump(out.to_json(), args.output)
    return EXIT_OK


def _run_config(args) -> None:
    """Set seed, samples, tolerance and output on args to their checked
    values: flags over config-file values over defaults."""
    file_cfg = load_config(args.config) if args.config else {}

    def pick(key, default):  # (owner, name, value) of --key, key or default
        value = getattr(args, key)
        if value is not None:
            return "qig verify", f"--{key}", value
        return f"--config {args.config}", key, file_cfg.get(key, default)

    owner, name, args.seed = pick("seed", 0)
    require_count(f"{owner}: {name}", args.seed, 0, InputError)
    owner, name, args.samples = pick("samples", 200)
    _check_count(f"{owner}: {name}", args.samples, MAX_SAMPLES)
    owner, name, args.tolerance = pick("tolerance", None)
    if args.tolerance is not None:
        require_positive(owner, name, args.tolerance, InputError)
    owner, name, args.output = pick("output", None)
    if not (args.output is None or isinstance(args.output, str)):
        raise InputError(f"{owner}: {name} = {args.output!r} is not a path")


# The verify flags a suite may read, by the suite parameter each one sets.
_SUITE_FLAGS = {"spec": "--spec", "samples": "--samples", "tol": "--tolerance"}


def cmd_verify(args) -> int:
    """Run each suite with the options its signature names: seed, samples,
    tol when a tolerance is set and spec when --spec is.  --spec, --samples
    or --tolerance on the command line that no selected suite reads is an
    InputError; a suite's QigError keeps its class and gains the prefix
    "suite <name>: "."""
    names = sorted(vf.SUITES) if args.suite == "all" else [args.suite]
    params = {name: inspect.signature(vf.SUITES[name]).parameters for name in names}
    read = set().union(*params.values())
    for param, flag in _SUITE_FLAGS.items():
        if getattr(args, flag[2:]) is not None and param not in read:
            raise InputError(f"qig verify {args.suite}: no suite reads {flag}")
    _run_config(args)
    options = {"seed": args.seed, "samples": args.samples, "tol": args.tolerance,
               "spec": None if args.spec is None else mf.spec_from_name(args.spec)}
    reports = {}
    for name in names:
        try:
            reports[name] = vf.SUITES[name](**{
                key: value for key, value in options.items()
                if key in params[name] and value is not None})
        except QigError as exc:
            raise type(exc)(f"suite {name}: {exc}") from None
    passed = all(r["passed"] for r in reports.values())
    _dump({"seed": args.seed, "passed": passed, "suites": reports}, args.output)
    if passed:
        return EXIT_OK
    failing = [n for n, r in reports.items() if not r["passed"]]
    sys.stderr.write("failing suites: " + ", ".join(failing) + "\n")
    return EXIT_VERIFY_FAIL


def cmd_export(args) -> int:
    _check_count("--steps", args.steps, MAX_STEPS)
    if args.what == "f-curves":
        if not (0.0 < args.t_min <= 1.0 and 0.0 < args.t_max <= 1.0):
            raise InputError(f"--t-min and --t-max must lie in (0, 1], got "
                             f"{args.t_min}, {args.t_max}")
        a_values = args.a_list or [0.25, 1.0, 4.0]
        ts = np.linspace(args.t_min, args.t_max, args.steps)
        text = csv_table(["t"] + [f"f_A{a:g}" for a in a_values], [ts] + [
            np.asarray(mf.f_eval(mf.family_a(a), ts)) for a in a_values])
    elif args.what == "F-curves":
        rs = np.linspace(0.05, 0.95, args.steps)
        specs = [mf.bkm(), mf.bures_helstrom(), mf.wigner_yanase(), mf.rld()]
        text = csv_table(["r"] + [f"F_{s.name}" for s in specs],
                         [rs] + [np.asarray(mf.big_f(s, rs)) for s in specs])
    else:
        start = QubitState(*_parse_triple(args.start))
        obs = TracelessObservable.from_coeffs(_parse_triple(args.a_coeffs))
        if args.what != "orbit":
            flow = integrate_flow(rescaled_gradient_field(obs, args.a_const), start,
                                  args.t_end, args.steps)
        if args.what != "flow":
            orbit = orbit_curve(ga.alpha_subgroup(args.a_const, obs, vf.ZERO), start,
                                args.t_end, args.steps)
        if args.what == "overlay":
            gap = np.linalg.norm(flow.points - orbit.points, axis=1)
            text = csv_table(["t", "flow_x", "flow_y", "flow_z",
                              "orbit_x", "orbit_y", "orbit_z", "gap"],
                             [flow.times, *flow.points.T, *orbit.points.T, gap])
        else:
            text = (flow if args.what == "flow" else orbit).to_csv(observable=obs)
    _emit(text, args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError (exit 2, JSON)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# Each flag is ("name" or "short/long", argparse keywords).
_SPEC_FLAGS = (
    ("--spec", dict(default="bh",
                    help="bkm | bh | wy | rld | fa (needs --A) | fb (needs --B)")),
    ("--A", dict(dest="a_const", type=float)),
    ("--B", dict(dest="b_const", type=float)),
    ("--c", dict(type=float, default=0.0)))
_CARTESIAN = (
    ("--x", dict(type=float, default=0.5)),
    ("--y", dict(type=float, default=0.0)),
    ("--z", dict(type=float, default=0.0)))
_AT_POINT = _SPEC_FLAGS + (
    ("--chart", dict(choices=["spherical", "cartesian"], default="spherical")),
    ("--r", dict(type=float, default=0.5)),
    ("--theta", dict(type=float, default=math.pi / 2.0)),
    ("--phi", dict(type=float, default=0.0))) + _CARTESIAN

# name -> (handler, help, flags); a group's handler slot holds the table of
# its subcommands.  Every leaf also takes --output.
COMMANDS = {
    "metric": (cmd_metric, "metric components at a point",
               _AT_POINT + (("--inverse", dict(action="store_true")),)),
    "field": (cmd_field, "evaluate a vector field at a point", _AT_POINT + (
        ("--field", dict(required=True, help="x:b1,b2,b3 | y:a1,a2,a3 | "
                                             "ym:a1,a2,a3 | ya:a1,a2,a3")),)),
    "bracket": (cmd_bracket, "numeric Lie bracket of two fields", _SPEC_FLAGS + (
        ("--chart", dict(choices=["cartesian"], default="cartesian")),) + _CARTESIAN + (
        ("--v", dict(required=True, help="first field descriptor")),
        ("--w", dict(required=True, help="second field descriptor")),
        ("--h", dict(type=float, default=BRACKET_STEP)))),
    "ode": ({
        "classify": (cmd_ode_classify, "is F constant for a spec?", _SPEC_FLAGS + (
            ("--grid-min", dict(type=float, default=0.05)),
            ("--grid-max", dict(type=float, default=0.95)),
            ("--grid-steps", dict(type=int, default=50)))),
        "solve": (cmd_ode_solve, "the closed-form solution of F = A", (
            ("--A", dict(dest="a_const", type=float, required=True)),
            ("--c", dict(type=float, default=0.0)))),
        "poles": (cmd_ode_poles, "the poles of family_b(B, c)", (
            ("--B", dict(dest="b_const", type=float, required=True)),
            ("--c", dict(type=float, default=0.0)),
            ("-n/--count", dict(type=int, default=10)))),
    }, "radial ODE classification", ()),
    "act": (cmd_act, "apply a group action to a state", (
        ("--family", dict(required=True, choices=["bh", "wy", "alphaA", "bkm"])),
        ("--A", dict(dest="a_const", type=float)),
        ("--g-json", dict(required=True)),
        ("--state-json", dict(required=True)))),
    "verify": (cmd_verify, "run verification suites", (
        ("--config", dict(help="key = value config file")),
        ("--seed", dict(type=int)),
        ("--samples", dict(type=int)),
        ("--tolerance", dict(type=float, help="override each suite's main "
                                              "tolerance (monotone has none)")),
        ("suite", dict(nargs="?", default="all", choices=["all"] + sorted(vf.SUITES))),
        ("--spec", dict(help="restrict the commutator suite to one spec")))),
    "export": (cmd_export, "plot-ready CSV data", (
        ("--what", dict(required=True,
                        choices=["f-curves", "F-curves", "flow", "orbit", "overlay"])),
        ("--A", dict(dest="a_const", type=float, default=1.0)),
        ("--a-list", dict(type=float, nargs="*")),
        ("--a", dict(dest="a_coeffs", default="0,0,1",
                     help="observable Pauli coefficients for flow/orbit")),
        ("--start", dict(default="0.2,0,0.1")),
        ("--t-end", dict(type=float, default=1.0)),
        ("--t-min", dict(type=float, default=0.005)),
        ("--t-max", dict(type=float, default=1.0)),
        ("--steps", dict(type=int, default=200)))),
}
_OUTPUT = ("--output", dict(help="write to file instead of stdout"))


def build_parser() -> argparse.ArgumentParser:
    """The qig parser, built from COMMANDS: a leaf takes its flags and
    --output, and a group's table adds a level chosen in f"{name}_cmd"."""
    def add(parser, commands, dest):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (handler, help_text, flags) in commands.items():
            p = sub.add_parser(name, help=help_text)
            if isinstance(handler, dict):
                add(p, handler, f"{name}_cmd")
                continue
            p.set_defaults(func=handler)
            for names, kw in flags + (_OUTPUT,):
                p.add_argument(*names.split("/"), **kw)
        return parser

    return add(_Parser(prog="qig", description="Monotone metrics, gradient flows "
                       "and group actions on the qubit state space."),
               COMMANDS, "command")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QigError as exc:
        _dump({"error": type(exc).__name__, "message": str(exc)}, None)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_NUMERIC


# glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, fixed where glibc's sliding
# thresholds stop on a 64-bit build: a free then unmaps no block below 32 MiB
# and trims the heap only past 64 MiB free at its top, above any command's
# working set.  Fixing either one stops the sliding of both.
_HEAP_POLICY = ((-1, 64 << 20), (-3, 32 << 20))


def _keep_heap() -> None:
    """Apply _HEAP_POLICY through libc's mallopt; nothing where libc has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


def entry() -> int:
    """The `qig` command: main() on this process's command line, with every
    object that the imports made frozen first and the freed heap kept mapped.

    gc.freeze() moves them to the permanent generation, so neither the
    collections a command triggers nor those at interpreter exit walk
    numpy's and argparse's objects again, which saves about 20 ms a
    command.  Exit still runs atexit handlers, flushes the streams and
    tears the modules down.  An _hashlib not yet loaded is marked missing, so
    hashlib and hmac (numpy.random imports them) run on builtin code and
    OpenSSL's libcrypto, 3.4 MB, is never mapped.  On glibc, _keep_heap()
    fixes the allocator's mmap and trim thresholds at 32 and 64 MiB, so the
    memory that the monotone scan frees after each block of rows stays
    mapped for the next block instead of going back to the kernel and
    faulting in again: a `verify all` child makes about 15 000 fewer minor
    page faults.  main() leaves the collector, the modules and the allocator
    alone, for callers that run commands in their own process.
    """
    gc.freeze()
    sys.modules.setdefault("_hashlib", None)
    _keep_heap()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
