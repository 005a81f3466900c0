"""The public surface: every declared name exists, and every name the
package re-exports is declared by the module it comes from."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import spherefacets

MODULES = [
    importlib.import_module(f"spherefacets.{info.name}")
    for info in pkgutil.iter_modules(spherefacets.__path__)
]


def _reexports():
    """(home module, name) for each ``from .module import name`` in the package."""
    tree = ast.parse(inspect.getsource(spherefacets))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_declared_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_reexports_are_declared_at_home():
    reexports = _reexports()
    assert reexports
    undeclared = [
        f"{home}.{name}"
        for home, name in reexports
        if name not in getattr(importlib.import_module(f"spherefacets.{home}"), "__all__", ())
    ]
    assert undeclared == []
