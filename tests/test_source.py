"""Static checks of src/periodicgp with ast alone: no dead import, private name or export.

A deletion can leave behind an import nothing uses, a module-level _private helper
nothing calls, or an __all__ entry naming what is gone; no linter runs in Tier-1, so
these checks do.
"""

import ast
import collections
from pathlib import Path

import periodicgp

PACKAGE = Path(periodicgp.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The string entries of a module-level __all__ list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references(tree):
    """Every identifier the module names: loads, stores, attributes, imports, definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_exported(tree))
        unused += [f"{name}:{line} {bound}" for bound, line in _imported(tree)
                   if bound not in used]
    assert not unused


def test_every_private_name_is_referenced():
    # a module-level _name that appears once in all of src is defined and never used
    counts = collections.Counter(ref for tree in MODULES.values() for ref in _references(tree))
    module_level = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module_level.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                module_level += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
    dead = [f"{name}: {defined}" for name, defined in module_level
            if defined.startswith("_") and not defined.startswith("__")
            and counts[defined] < 2]
    assert not dead


def test_all_resolves_and_is_unique():
    exported = periodicgp.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(periodicgp, name)] == []
