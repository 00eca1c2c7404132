"""Run one `qig` command line under in-memory span tracing.

Usage: python perfbench/tracer.py TRACE_JSON ARG...

Imports the qig package, installs timing wrappers on the public functions
listed in TARGETS wherever a ``qig.*`` module binds them, calls
``qig.cli.main(ARG...)`` and writes one JSON object to TRACE_JSON:

    {"spans": {name: {"calls", "total_s", "self_s", "units"}}, "absent": [...]}

Self time is a span's duration minus the time of the spans it encloses.
``units`` counts work inside a span where a call can carry many items
(matrices per eigh call, RK4 steps per integration, orbit samples).

Nothing under ``src/`` is edited: the wrappers are installed at run time,
so a target that a refactor removes is reported in ``absent`` instead of
failing.  The command's stdout and exit code are passed through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute, units counter).  Several targets may share
# one span name; their calls and times add up.
TARGETS = [
    ("cli.main", "qig.cli", "main", None),
    ("vector_fields.lie_bracket_numeric", "qig.vector_fields",
     "lie_bracket_numeric", None),
    ("vector_fields.verify_commutator_relations", "qig.vector_fields",
     "verify_commutator_relations", None),
    ("metric_family.scan_monotonicity", "qig.metric_family",
     "scan_monotonicity", None),
    ("metric_family.metric_cartesian", "qig.metric_family",
     "metric_cartesian", None),
    ("metric_family.inverse_metric", "qig.metric_family", "inverse_metric", None),
    ("metric_family.big_f", "qig.metric_family", "big_f", None),
    ("ode_classifier.classify", "qig.ode_classifier", "classify", None),
    ("group_actions.action_alpha_a", "qig.group_actions", "action_alpha_a", None),
    ("group_actions.action_bkm", "qig.group_actions", "action_bkm", None),
    ("group_actions.sl_from_generators", "qig.group_actions",
     "sl_from_generators", None),
    ("group_actions.spectral", "qig.group_actions", "hermitian_power", None),
    ("group_actions.spectral", "qig.group_actions", "hermitian_log", None),
    ("group_actions.spectral", "qig.group_actions", "hermitian_exp", None),
    ("state_space.bloch_from_state", "qig.state_space", "bloch_from_state", None),
    ("flow_engine.integrate_flow", "qig.flow_engine", "integrate_flow",
     "rk4_steps"),
    ("flow_engine.orbit_curve", "qig.flow_engine", "orbit_curve",
     "orbit_samples"),
    ("kernel.eigh", "numpy.linalg", "eigh", "matrices"),
    ("kernel.eigh", "numpy.linalg", "eigvalsh", "matrices"),
    ("kernel.cross", "numpy", "cross", None),
]

FIELD_EVAL = "vector_fields.field_eval"
SUITE_PREFIX = "verify."


def _matrices(args, kwargs, result) -> int:
    """Number of matrices in a stacked (..., n, n) eigh argument."""
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= int(n)
    return count


def _trajectory_steps(args, kwargs, result) -> int:
    """Intervals of a returned trajectory: its time samples minus one."""
    return max(0, _trajectory_samples(args, kwargs, result) - 1)


def _trajectory_samples(args, kwargs, result) -> int:
    """Time samples of a returned trajectory; 0 if it has no ``times``."""
    times = getattr(result, "times", None)
    return 0 if times is None else len(times)


UNIT_COUNTERS = {"matrices": _matrices, "rk4_steps": _trajectory_steps,
                 "orbit_samples": _trajectory_samples}


class Tracer:
    """Aggregates spans in memory: calls, inclusive time and self time."""

    def __init__(self):
        self.spans = {}
        self.children = []  # child time accumulated by each open span
        self.open = {}      # open span count per name

    def stat(self, name: str) -> dict:
        return self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})

    def wrap(self, name: str, fn, units=None, outermost: bool = False):
        """Wrap fn in a span; with outermost, nested calls join the open span."""
        stat = self.stat(name)
        children, opened = self.children, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and opened.get(name):
                return fn(*args, **kwargs)
            opened[name] = opened.get(name, 0) + 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                opened[name] -= 1
                if children:
                    children[-1] += duration
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - inner
            if units is not None:
                stat["units"] += units(args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    def install(self, name: str, module_name: str, attr: str, units=None):
        """Replace module.attr, and every qig.* global bound to it, by a span."""
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            return
        wrapper = self.wrap(name, original, UNIT_COUNTERS.get(units))
        setattr(module, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qig" or mod_name.startswith("qig.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install_suites(self, names):
        """Time each entry of qig.verify.SUITES by its key."""
        try:
            suites = importlib.import_module("qig.verify").SUITES
        except (ImportError, AttributeError):
            suites = {}
        for key in names:
            if key in suites:
                suites[key] = self.wrap(SUITE_PREFIX + key, suites[key])

    def install_field_evals(self):
        """Count VectorField evaluator calls, once per outermost evaluator.

        A field built on another field (the rescaled gradient wraps the
        closed-form one) counts one evaluation, not two.
        """
        try:
            cls = importlib.import_module("qig.vector_fields").VectorField
        except (ImportError, AttributeError):
            return
        evaluators = ("cartesian", "spherical")
        methods = [a for a in evaluators if callable(cls.__dict__.get(a))]
        if methods:
            for attr in methods:
                setattr(cls, attr, self.wrap(FIELD_EVAL, cls.__dict__[attr],
                                             outermost=True))
            return
        original_init = cls.__init__
        wrap = self.wrap

        @functools.wraps(original_init)
        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            for attr in evaluators:
                fn = getattr(obj, attr, None)
                if callable(fn) and not getattr(fn, "__traced__", False):
                    object.__setattr__(obj, attr,
                                       wrap(FIELD_EVAL, fn, outermost=True))

        cls.__init__ = init
        self.stat(FIELD_EVAL)

    def report(self, expected) -> dict:
        """Spans recorded, plus the expected names no target could be found for."""
        return {"spans": self.spans,
                "absent": sorted(set(expected) - set(self.spans))}


SUITES = ("actions", "commutators", "fconstancy", "flows", "generators",
          "monotone", "poles")


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module_name in ("qig", "qig.cli"):
        importlib.import_module(module_name)
    for name, module_name, attr, units in TARGETS:
        tracer.install(name, module_name, attr, units)
    tracer.install_suites(SUITES)
    tracer.install_field_evals()

    cli = sys.modules["qig.cli"]
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        expected = ([name for name, *_ in TARGETS] + [FIELD_EVAL]
                    + [SUITE_PREFIX + key for key in SUITES])
        json.dump(tracer.report(expected), fh)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
