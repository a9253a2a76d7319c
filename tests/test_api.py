"""The public surface: every exported name exists, and the package imports
only what its modules export."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import concave_phase_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(concave_phase_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"concave_phase_lab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(concave_phase_lab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        module = importlib.import_module(f"concave_phase_lab.{node.module}")
        missing = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert missing == [], f"{node.module} does not export {missing}"
