"""Rules the library's source must keep."""

import ast
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
