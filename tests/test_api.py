"""Every public function and class of qig has a caller inside the package,
and every defaulted parameter of one is passed by some call inside it.

A helper that only its own tests call is code that no command, suite or
library path runs; it goes, or it is listed in _KEPT with the reason.  A
default that no call overrides is a constant in disguise; it goes, or it is
listed in _KEPT_PARAMS with the reason.
"""

import ast
import pathlib

import qig
from qig import verify

_KEPT = {
    "su2_bracket": "acceptance criterion 01 checks the su(2) bracket with it",
    "check_petz_symmetry": "README documents it; the only f(t) = t f(1/t) check "
                           "a custom f gets",
    "sl_from_generators": "the tests build their SL(2, C) and SU(2) elements with it",
    "custom": "the entry point for a user's own f",
}


# cmd_verify calls each suite as SUITES[name](**kwargs): seed and tol, plus
# samples for actions and spec for commutators.  ast sees no such call.
_SUITE_KEYWORDS = {"actions": ("samples",), "commutators": ("spec",)}
_KEPT_PARAMS = {
    "cli.main.argv": "cli.entry, the qig command, calls main() with no "
                     "arguments; the tests pass a command line",
    "group_actions.verify_bkm_action.multiply": "a test injects a wrong group law "
                                                "to show that compatibility fails",
    "metric_family.scan_monotonicity.sizes": "the per-size tests scan one matrix "
                                             "size at a time",
    **{f"verify.{suite.__name__}.{param}": "cmd_verify passes it through SUITES"
       for name, suite in verify.SUITES.items()
       for param in ("seed", "tol") + _SUITE_KEYWORDS.get(name, ())},
}


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
    public function or method that no call inside qig passes.

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
    return unpassed


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
