"""Every public function and class of qig has a caller inside the package,
every defaulted parameter of one is passed by some call inside it, and no
public parameter reaches numpy but through state_space.require_array.

A helper that only its own tests call is code that no command, suite or
library path runs; it goes, or it is listed in _KEPT with the reason.  A
default that no call overrides is a constant in disguise; it goes, or it is
listed in _KEPT_PARAMS with the reason.  A parameter passed straight to
np.asarray or np.array goes through require_array instead, or it is listed
in _UNCHECKED with the reason.
"""

import ast
import inspect
import pathlib

import qig
from qig import verify

_KEPT = {
    "su2_bracket": "acceptance criterion 01 checks the su(2) bracket with it",
    "check_petz_symmetry": "README documents it; the only f(t) = t f(1/t) check "
                           "a custom f gets",
    "sl_from_generators": "the tests build their SL(2, C) and SU(2) elements with it",
    "custom": "the entry point for a user's own f",
    **dict.fromkeys(["g_from_f", "g_derivative"], "the paper's g(r) and g'(r), checked; "
                    "big_f runs their kernels under its own check of F"),
}


_KEPT_PARAMS = {
    "cli.main.argv": "cli.entry, the qig command, calls main() with no "
                     "arguments; the tests pass a command line",
    "metric_family.scan_monotonicity.sizes": "the per-size tests scan one matrix "
                                             "size at a time",
}
# cmd_verify passes each suite, through SUITES, the options its signature
# names; ast sees no such call.
_SUITE_PARAMS = {f"verify.{suite.__name__}.{param}" for suite in verify.SUITES.values()
                 for param in inspect.signature(suite).parameters}

# The checks of state_space, and its kernels on arrays that qig has checked or made.
_CHECKS = [f"state_space.{name}" for name in (
    "require_count", "require_positive", "require_finite", "require_instance",
    "require_array", "require_items", "require_all", "ball_radii",
    "check_bloch_array", "bloch_norm", "pauli_coeffs")]
# module.[class.]function[.parameter] -> why those public parameters have no
# generated wrong-input case (test_checks.py) and may reach numpy unchecked.
_UNCHECKED = {
    "cli": "the command line: argparse and cmd_* check each flag (test_cli.py)",
    "state_space.Record.__init__": "the record base: a subclass's fields are its parameters",
    **dict.fromkeys(_CHECKS, "a check, or a kernel on arrays that qig has checked or made"),
    "flow_engine.csv_table": "its header and columns are checked against each other",
    "metric_family.spec_from_name": "a hand row checks name; family_a or family_b "
                                    "checks A, B and c",
    "metric_family.derivative_limit_at_zero.a_const": "A > 1: a hand row checks it",
    "ode_classifier.solve_branch.c": "read for A < 0 only, by family_b",
}


def _unchecked(name: str, table=_UNCHECKED) -> bool:
    """Whether module.[class.]function[.parameter] name is in table, by
    itself, its function or its module."""
    return any(name == key or name.startswith(key + ".") for key in table)


def _modules():
    for path in sorted(pathlib.Path(qig.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _public_defs(tree):
    """(owner class or None, def) of each public function and of each public
    method or __init__ of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield None, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and (item.name == "__init__" or not item.name.startswith("_"))):
                    yield node.name, item


def _unpassed_defaults() -> list:
    """module.[class.]function.parameter of each defaulted parameter of a
    public function or method that no call inside qig passes, a suite's
    parameters aside.

    A call matches by the callee's name (a class for __init__).  Its keywords
    pass their parameters and its positional arguments the positional
    parameters in order (after self for a method); a *args passes every
    positional parameter from there on and a **kwargs every parameter.
    """
    defs, calls = [], []
    for module, tree in _modules():
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for owner, fn in _public_defs(tree):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if owner and not any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            qualname = ".".join(filter(None, (module, owner, fn.name)))
            callee = owner if fn.name == "__init__" else fn.name
            params = positional + [a.arg for a in args.kwonlyargs]
            defs.append((qualname, callee, positional, params, defaulted))
    unpassed = []
    for qualname, callee, positional, params, defaulted in defs:
        passed = set()
        for call in calls:
            if getattr(call.func, "id", getattr(call.func, "attr", None)) != callee:
                continue
            for k in call.keywords:
                passed.update([k.arg] if k.arg else params)
            for i, arg in enumerate(call.args):
                passed.update(positional[i:] if isinstance(arg, ast.Starred)
                              else positional[i:i + 1])
        unpassed += [f"{qualname}.{p}" for p in defaulted if p not in passed]
    return [p for p in unpassed if p not in _SUITE_PARAMS]


def _unreferenced() -> list:
    """(module, name) of each top-level public def or class that no module
    but __init__ names, outside the definition's own body."""
    defs, refs = {}, []
    for module, tree in _modules():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = (module, node)
        if module != "__init__":
            refs += [(module, node) for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for name, (module, definition) in sorted(defs.items()):
        own = {id(node) for node in ast.walk(definition)}
        if not any(getattr(node, "id", getattr(node, "attr", None)) == name
                   and not (where == module and id(node) in own)
                   for where, node in refs):
            unused.append((module, name))
    return unused


def test_every_public_name_has_a_caller():
    unused = [f"{module}.{name}" for module, name in _unreferenced()
              if name not in _KEPT]
    assert unused == []


def test_kept_names_are_still_uncalled():
    # A kept name that gained a caller no longer needs its entry.
    assert sorted(name for _, name in _unreferenced()) == sorted(_KEPT)


def test_every_defaulted_parameter_is_passed():
    assert [p for p in _unpassed_defaults() if p not in _KEPT_PARAMS] == []


def test_kept_parameters_are_still_unpassed():
    # A kept parameter that gained a caller no longer needs its entry.
    assert sorted(_unpassed_defaults()) == sorted(_KEPT_PARAMS)


def _raw_arrays() -> list:
    """module.[class.]function.parameter of each parameter of a public
    function or method that it passes straight to np.asarray or np.array."""
    raw = []
    for module, tree in _modules():
        for owner, fn in _public_defs(tree):
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and node.args
                        and getattr(node.func, "attr", None) in ("asarray", "array")
                        and getattr(node.func.value, "id", None) == "np"
                        and getattr(node.args[0], "id", None) in params):
                    raw.append(".".join(filter(None, (module, owner, fn.name,
                                                      node.args[0].id))))
    return raw


def test_arrays_are_checked_by_require_array():
    assert [p for p in _raw_arrays() if not _unchecked(p)] == []
