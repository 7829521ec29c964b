"""The package's public surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rulebench

MODULES = sorted(info.name for info in pkgutil.iter_modules(rulebench.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"rulebench.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"rulebench.{name}.__all__ lists {missing}"


def test_package_reexports_only_listed_names():
    """Each name ``rulebench/__init__.py`` imports from a module is in that module's ``__all__``, if it has one."""
    tree = ast.parse(Path(rulebench.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rulebench.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", dir(module)), f"rulebench.{node.module}.{alias.name}"
            assert getattr(rulebench, alias.asname or alias.name) is getattr(module, alias.name)
