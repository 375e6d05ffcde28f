"""Rules the library's source must keep."""

import ast
import importlib
from pathlib import Path

import lcfield


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # stops being checked; raise an error instead.
    found = []
    for path in sorted(Path(lcfield.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_library_has_no_unused_imports():
    # Every name an import binds is referenced in its module or listed in
    # its __all__.  ``from __future__`` imports bind no name, and an import
    # kept for its side effect says so with ``# noqa: F401`` on its line.
    unused = []
    for path in sorted(Path(lcfield.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = _exported(tree) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            unused += [
                f"{path.name}:{node.lineno}: {name}"
                for name in bound
                if name not in used
            ]
    assert unused == []


def test_every_exported_name_is_bound():
    # A name listed in a module's __all__, the package's included, is one
    # the module defines or imports, so deleting a definition cannot leave
    # a dangling export behind.
    dangling = []
    for path in sorted(Path(lcfield.__file__).parent.glob("*.py")):
        name = "lcfield" if path.stem == "__init__" else f"lcfield.{path.stem}"
        module = importlib.import_module(name)
        dangling += [f"{path.name}: {n}" for n in module.__all__ if not hasattr(module, n)]
    assert dangling == []
