"""Module layering: graph -> residues -> groups -> singularity -> moves ->
invariants -> census -> cli.  Every submodule imports on its own, and no
function defers a package import to dodge a cycle, except the two cached
properties through which a graph reaches the layers above it.  No
module-level private helper is left without a reader in the package."""

import ast
import os
import pkgutil
import subprocess
import sys

import gemkit

_PACKAGE = os.path.dirname(gemkit.__file__)
_MODULES = sorted(info.name for info in pkgutil.iter_modules([_PACKAGE]))
# (module, class, function) allowed a function-level package import
_DEFERRED = {
    ("graph", "ColoredGraph", "lattice"),
    ("graph", "ColoredGraph", "classification"),
}


# a bare package stands in for gemkit/__init__.py, whose own import order
# would otherwise load every layer before the module under test
_IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("gemkit")
package.__path__ = [sys.argv[1]]
sys.modules["gemkit"] = package
importlib.import_module("gemkit." + sys.argv[2])
"""


def test_each_submodule_imports_first_in_a_fresh_interpreter():
    for name in _MODULES:
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_FIRST, _PACKAGE, name], capture_output=True, text=True
        )
        assert result.returncode == 0, f"gemkit.{name}: {result.stderr}"


def _deferred_imports(tree, module):
    """(module, class, function, line) of each relative import in a function body."""
    out = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, fn or child.name)
            else:
                if isinstance(child, ast.ImportFrom) and child.level and fn:
                    out.append((module, cls, fn, child.lineno))
                visit(child, cls, fn)

    visit(tree, None, None)
    return out


def test_no_function_level_package_imports():
    found = []
    for name in _MODULES:
        with open(os.path.join(_PACKAGE, f"{name}.py"), encoding="utf-8") as fh:
            found += _deferred_imports(ast.parse(fh.read()), name)
    assert [site for site in found if site[:3] not in _DEFERRED] == []


def _helpers_and_references():
    """Each module-level private function as (module, name), and every name
    read in the package outside its own definition; an import is no read."""
    helpers, read = [], set()
    for name in _MODULES:
        with open(os.path.join(_PACKAGE, f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                helpers.append((name, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                if ref != own:
                    read.add(ref)
    return helpers, read


def test_every_private_helper_has_a_caller():
    helpers, read = _helpers_and_references()
    assert len(helpers) > 40
    assert [site for site in helpers if site[1] not in read] == []
