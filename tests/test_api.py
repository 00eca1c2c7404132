"""Every public function and class of qig has a caller inside the package.

A helper that only its own tests call is code that no command, suite or
library path runs; it goes, or it is listed in _KEPT with the reason.
"""

import ast
import pathlib

import qig

_KEPT = {
    "su2_bracket": "acceptance criterion 01 checks the su(2) bracket with it",
    "check_petz_symmetry": "README documents it; the only f(t) = t f(1/t) check "
                           "a custom f gets",
    "sl_from_generators": "the tests build their SL(2, C) and SU(2) elements with it",
    "custom": "the entry point for a user's own f",
}


def _unreferenced() -> list:
    """(module, name) of each top-level public def or class that no module
    but __init__ names, outside the definition's own body."""
    defs, refs = {}, []
    for path in sorted(pathlib.Path(qig.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = (path.stem, node)
        if path.stem != "__init__":
            refs += [(path.stem, node) for node in ast.walk(tree)
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
