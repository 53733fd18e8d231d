"""Static checks of src/periodicgp with ast alone: no dead import, private name, export or
public method.

A deletion can leave behind an import nothing uses, a module-level _private helper
nothing calls, an __all__ entry naming what is gone, or an accessor nothing reads; no
linter runs in Tier-1, so these checks do.
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


def test_every_public_method_is_read():
    # a method or property of a public class that src never reads as an attribute
    # has no caller in the package, the CLI included
    read = {node.attr for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = [f"{cls.name}.{fn.name}" for tree in MODULES.values() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and fn.name not in read]
    assert unread == []


def test_default_rng_is_named_once_in_rng_stream_generator():
    # the map from stream r of seed s to default_rng([s, r]) is written in one place
    named = sum(ref == "default_rng" for tree in MODULES.values() for ref in _references(tree))
    stream = next(node for node in MODULES["synthesis.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "RngStream")
    generator = next(fn for fn in stream.body
                     if isinstance(fn, ast.FunctionDef) and fn.name == "generator")
    assert named == 1 and "default_rng" in _references(generator)


def _names_scipy_special(node) -> bool:
    """An import of scipy.special or a submodule, or a string naming one."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [node.value]
    else:
        return False
    return any(name == "scipy.special" or name.startswith("scipy.special.") for name in names)


def test_only_the_ufunc_helper_imports_scipy_special():
    # fit and --eps take scipy's ufuncs from core._scipy_ufuncs, which loads the extension
    # without the package; importing the package anywhere else costs its array-API layer
    helper = next(fn for fn in MODULES["core.py"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_scipy_ufuncs")
    inside = {id(node) for node in ast.walk(helper)}
    elsewhere = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
                 for node in ast.walk(tree)
                 if id(node) not in inside and _names_scipy_special(node)]
    assert elsewhere == []
    # in the helper, only its fallback (the except handler) imports the package itself
    fallback = {id(node) for handler in ast.walk(helper) if isinstance(handler, ast.ExceptHandler)
                for node in ast.walk(handler)}
    package = [node for node in ast.walk(helper) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) in ("import_module", "__import__")
               and [getattr(arg, "value", None) for arg in node.args[:1]] == ["scipy.special"]]
    assert package and all(id(node) in fallback for node in package)


def test_operator_index_is_called_only_in_the_one_integer_rule():
    # core._as_int is the integer rule for every count, seed and lag (dft.check_harmonics
    # calls it for K): an operator.index anywhere else would be a second rule
    rule = next(fn for fn in MODULES["core.py"].body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_as_int")
    inside = {id(node) for node in ast.walk(rule)}
    calls = [(name, id(node) in inside) for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "operator.index"]
    assert calls == [("core.py", True)]


def test_only_synthesis_starts_threads():
    # synthesis._fill_ranges is the one place that runs work on other threads
    thread_modules = {"threading", "queue", "_thread", "concurrent"}
    importers = set()
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                roots = {node.module.split(".")[0]}
            else:
                continue
            if roots & thread_modules:
                importers.add(name)
    assert importers == {"synthesis.py"}
