"""The public surface: every exported name exists, the package imports only
what its modules export, and every module-level name is used."""
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


def _top_level_names(node):
    """Names bound by a module-level def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_module_level_name_is_used_in_the_package():
    # A helper orphaned by a merge of two code paths fails here: every
    # module-level name but the dunders is read, imported or reached as an
    # attribute somewhere in the package outside its own definition (a name
    # that only __all__ lists is unused).
    statements = [(path.name, node)
                  for path in sorted(Path(concave_phase_lab.__file__).parent.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    used = {}
    for i, (_, node) in enumerate(statements):
        for n in ast.walk(node):
            name = (n.id if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) else
                    n.attr if isinstance(n, ast.Attribute) else
                    n.name if isinstance(n, ast.alias) else None)
            used.setdefault(name, set()).add(i)
    orphans = [f"{module}:{name}" for i, (module, node) in enumerate(statements)
               for name in _top_level_names(node)
               if not (name.startswith("__") and name.endswith("__"))
               and not used.get(name, set()) - {i}]
    assert orphans == []


def test_no_nonlocal_in_the_package():
    # state shared through nonlocal hides what a function reads and writes;
    # helpers take arrays and return arrays instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(concave_phase_lab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Nonlocal)]
    assert found == []


def test_no_global_in_the_package():
    # a module-level memo rebound through global is state every caller shares
    # and every test must reset; a cache belongs to its function
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(concave_phase_lab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []
