"""Batch command-line frontend.

Subcommands expose every evaluation and verification as reproducible runs
with JSON or CSV output.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 numeric failure.  Identical configuration (flags, config
file, seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import group_actions as ga
from . import metric_family as mf
from . import ode_classifier as oc
from . import verify as vf
from .errors import InputError, QigError
from .flow_engine import integrate_flow, orbit_curve
from .state_space import SphericalPoint, TracelessObservable, state_from_bloch
from .vector_fields import (VectorField, fundamental_field,
                            gradient_field_closed, gradient_field_from_metric,
                            lie_bracket_numeric, rescaled_gradient_field)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    seed: int = 0
    samples: int = 200
    tolerance: float | None = None  # overrides every suite's main tolerance
    output: str | None = None


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
        for cast in (int, float):
            try:
                values[key] = cast(raw)
                break
            except ValueError:
                continue
        else:
            values[key] = raw
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
    return mf.spec_from_name(args.spec, a_const=getattr(args, "a_const", None),
                             b_const=getattr(args, "b_const", None),
                             c=getattr(args, "c", 0.0))


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
        point = SphericalPoint(args.r, args.theta, args.phi)
        metric = mf.metric_spherical(spec, point)
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


def cmd_ode(args) -> int:
    if args.ode_cmd == "classify":
        spec = _spec_from_args(args)
        grid = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
        _dump(oc.classify(spec, grid).to_json(), args.output)
        return EXIT_OK
    if args.ode_cmd == "solve":
        result = oc.solve_branch(args.a_const, c=args.c)
        if isinstance(result, oc.Exclusion):
            _dump(result.to_json(), args.output)
        else:
            _dump({"A": args.a_const, "excluded": False, "spec": result.name},
                  args.output)
        return EXIT_OK
    if args.ode_cmd == "poles":
        _dump(oc.singularities(args.b_const, args.c, args.count).to_json(),
              args.output)
        return EXIT_OK
    raise InputError(f"unknown ode subcommand {args.ode_cmd!r}")


def _json_flag(flag: str, text: str, build):
    """build(parsed JSON of ``flag``); any malformed value names the flag."""
    try:
        return build(json.loads(text))
    except QigError as exc:
        raise type(exc)(f"{flag}: {exc}") from None
    except (ValueError, LookupError, TypeError) as exc:
        raise InputError(f"{flag}: {type(exc).__name__}: {exc}") from None


def _cotangent_from_json(data) -> ga.CotangentGroupElement:
    return ga.CotangentGroupElement(
        ga.complex_matrix_from_json(data["unitary"]),
        TracelessObservable.from_coeffs(data["a"]["pauli"]))


def cmd_act(args) -> int:
    rho = _json_flag("--state-json", args.state_json,
                     lambda data: state_from_bloch(*data["bloch"]))
    if args.family == "bkm":
        elem = _json_flag("--g-json", args.g_json, _cotangent_from_json)
        out = ga.action_bkm(elem, rho)
    else:
        a_const = {"bh": 1.0, "wy": 0.25}.get(args.family, args.a_const)
        if a_const is None:
            raise InputError("--family alphaA requires --A")
        g = _json_flag("--g-json", args.g_json, ga.SLGroupElement.from_json)
        out = ga.action_alpha_a(a_const, g, rho)
    _dump(out.to_json(), args.output)
    return EXIT_OK


_SUITE_TOL_KW = {
    "commutators": "tol",
    "fconstancy": "tol_const",
    "actions": "tol",
    "generators": "tol",
    "flows": "tol",
    "poles": "tol_locate",
}


def _run_suites(names, cfg: RunConfig, spec_name: str | None = None) -> dict:
    reports = {}
    for name in names:
        suite = vf.SUITES[name]
        kwargs = {}
        if "seed" in inspect.signature(suite).parameters:
            kwargs["seed"] = cfg.seed
        if cfg.tolerance is not None and name in _SUITE_TOL_KW:
            kwargs[_SUITE_TOL_KW[name]] = cfg.tolerance
        if name == "actions":
            kwargs["samples"] = cfg.samples
        if name == "commutators" and spec_name is not None:
            kwargs["spec"] = mf.spec_from_name(spec_name)
        reports[name] = suite(**kwargs)
    return {"seed": cfg.seed,
            "passed": all(r["passed"] for r in reports.values()),
            "suites": reports}


def cmd_verify(args, cfg: RunConfig) -> int:
    names = sorted(vf.SUITES) if args.suite == "all" else [args.suite]
    report = _run_suites(names, cfg, spec_name=getattr(args, "spec", None))
    _dump(report, args.output)
    if report["passed"]:
        return EXIT_OK
    failing = [n for n, r in report["suites"].items() if not r["passed"]]
    sys.stderr.write("failing suites: " + ", ".join(failing) + "\n")
    return EXIT_VERIFY_FAIL


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_export(args, cfg: RunConfig) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    if args.what == "f-curves":
        if not (0.0 < args.t_min <= 1.0 and 0.0 < args.t_max <= 1.0):
            raise InputError(f"--t-min and --t-max must lie in (0, 1], got "
                             f"{args.t_min}, {args.t_max}")
        a_values = args.a_list or [0.25, 1.0, 4.0]
        ts = np.linspace(args.t_min, args.t_max, args.steps)
        cols = [ts] + [np.asarray(mf.f_eval(mf.family_a(a), ts)) for a in a_values]
        header = ["t"] + [f"f_A{a:g}" for a in a_values]
        _emit(_csv(zip(*cols), header), args.output)
        return EXIT_OK
    if args.what == "F-curves":
        rs = np.linspace(0.05, 0.95, args.steps)
        specs = [mf.bkm(), mf.bures_helstrom(), mf.wigner_yanase(), mf.rld()]
        cols = [rs] + [np.asarray(mf.big_f(s, rs)) for s in specs]
        header = ["r"] + [f"F_{s.name}" for s in specs]
        _emit(_csv(zip(*cols), header), args.output)
        return EXIT_OK

    start = state_from_bloch(*_parse_triple(args.start))
    obs = TracelessObservable.from_coeffs(_parse_triple(args.a_coeffs))
    zero = TracelessObservable(0.0, 0.0, 0.0)
    a_const = args.a_const if args.a_const is not None else 1.0
    if args.what == "flow":
        vfield = rescaled_gradient_field(obs, a_const)
        traj = integrate_flow(vfield, start, args.t_end, args.steps)
        _emit(traj.to_csv(observable=obs), args.output)
        return EXIT_OK
    if args.what == "orbit":
        traj = orbit_curve(ga.alpha_subgroup(a_const, obs, zero), start,
                           args.t_end, args.steps)
        _emit(traj.to_csv(observable=obs), args.output)
        return EXIT_OK
    if args.what == "overlay":
        vfield = rescaled_gradient_field(obs, a_const)
        flow = integrate_flow(vfield, start, args.t_end, args.steps)
        orbit = orbit_curve(ga.alpha_subgroup(a_const, obs, zero), start,
                            args.t_end, args.steps)
        gap = np.linalg.norm(flow.points - orbit.points, axis=1)
        rows = zip(flow.times, *flow.points.T, *orbit.points.T, gap)
        header = ["t", "flow_x", "flow_y", "flow_z",
                  "orbit_x", "orbit_y", "orbit_z", "gap"]
        _emit(_csv(rows, header), args.output)
        return EXIT_OK
    raise InputError(f"unknown export kind {args.what!r}")


def _add_spec_flags(p) -> None:
    p.add_argument("--spec", default="bh",
                   help="bkm | bh | wy | rld | fa (needs --A) | fb (needs --B)")
    p.add_argument("--A", dest="a_const", type=float, default=None)
    p.add_argument("--B", dest="b_const", type=float, default=None)
    p.add_argument("--c", type=float, default=0.0)


def _add_point_flags(p) -> None:
    p.add_argument("--chart", choices=["spherical", "cartesian"],
                   default="spherical")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=math.pi / 2.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--z", type=float, default=0.0)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError (exit 2, JSON)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--tolerance", type=float, default=None,
                        help="override every suite's main tolerance")
    common.add_argument("--output", help="write to file instead of stdout")

    parser = _Parser(
        prog="qig",
        description="Monotone metrics, gradient flows and group actions "
                    "on the qubit state space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("metric", help="metric components at a point")
    _add_spec_flags(p)
    _add_point_flags(p)
    p.add_argument("--inverse", action="store_true")

    p = add("field", help="evaluate a vector field at a point")
    _add_spec_flags(p)
    _add_point_flags(p)
    p.add_argument("--field", required=True,
                   help="x:b1,b2,b3 | y:a1,a2,a3 | ym:a1,a2,a3 | ya:a1,a2,a3")

    p = add("bracket", help="numeric Lie bracket of two fields")
    _add_spec_flags(p)
    _add_point_flags(p)
    p.add_argument("--v", required=True, help="first field descriptor")
    p.add_argument("--w", required=True, help="second field descriptor")
    p.add_argument("--h", type=float, default=1e-4)

    p = add("ode", help="radial ODE classification")
    ode_sub = p.add_subparsers(dest="ode_cmd", required=True)
    pc = ode_sub.add_parser("classify")
    _add_spec_flags(pc)
    pc.add_argument("--grid-min", type=float, default=0.05)
    pc.add_argument("--grid-max", type=float, default=0.95)
    pc.add_argument("--grid-steps", type=int, default=50)
    ps = ode_sub.add_parser("solve")
    ps.add_argument("--A", dest="a_const", type=float, required=True)
    ps.add_argument("--c", type=float, default=0.0)
    pp = ode_sub.add_parser("poles")
    pp.add_argument("--B", dest="b_const", type=float, required=True)
    pp.add_argument("--c", type=float, default=0.0)
    pp.add_argument("-n", "--count", type=int, default=10)

    p = add("act", help="apply a group action to a state")
    p.add_argument("--family", required=True,
                   choices=["bh", "wy", "alphaA", "bkm"])
    p.add_argument("--A", dest="a_const", type=float, default=None)
    p.add_argument("--g-json", required=True)
    p.add_argument("--state-json", required=True)

    p = add("verify", help="run verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all"] + sorted(vf.SUITES))
    p.add_argument("--spec", default=None,
                   help="restrict the commutator suite to one spec")

    p = add("export", help="plot-ready CSV data")
    p.add_argument("--what", required=True,
                   choices=["f-curves", "F-curves", "flow", "orbit", "overlay"])
    p.add_argument("--A", dest="a_const", type=float, default=None)
    p.add_argument("--a-list", type=float, nargs="*", default=None)
    p.add_argument("--a", dest="a_coeffs", default="0,0,1",
                   help="observable Pauli coefficients for flow/orbit")
    p.add_argument("--start", default="0.2,0,0.1")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--t-min", type=float, default=0.005)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=200)

    return parser


def _run_config(args) -> RunConfig:
    """Flags over config-file values over defaults, each value checked."""
    file_cfg = load_config(args.config) if args.config else {}

    def pick(key, flag_value, default, ok, what):
        if flag_value is not None:
            value, source = flag_value, f"--{key}"
        else:
            value = file_cfg.get(key, default)
            source = f"--config {args.config}: {key}"
        if not ok(value):
            raise InputError(f"{source} {value!r} is not {what}")
        return value

    return RunConfig(
        seed=pick("seed", args.seed, 0,
                  lambda v: isinstance(v, int) and v >= 0, "an integer >= 0"),
        samples=pick("samples", args.samples, 200,
                     lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
        tolerance=pick("tolerance", args.tolerance, None,
                       lambda v: v is None or (isinstance(v, (int, float))
                                               and 0.0 < v < math.inf),
                       "a finite number > 0"),
        output=pick("output", args.output, None,
                    lambda v: v is None or isinstance(v, str), "a path"),
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _run_config(args)
        args.output = cfg.output
        if args.command == "metric":
            return cmd_metric(args)
        if args.command == "field":
            return cmd_field(args)
        if args.command == "bracket":
            return cmd_bracket(args)
        if args.command == "ode":
            return cmd_ode(args)
        if args.command == "act":
            return cmd_act(args)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "export":
            return cmd_export(args, cfg)
        raise InputError(f"unknown command {args.command!r}")
    except QigError as exc:
        _dump({"error": type(exc).__name__, "message": str(exc)}, None)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
