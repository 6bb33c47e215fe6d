"""`python -O` strips `assert`, so no check in the package may rely on one."""

import ast
from pathlib import Path

import qtwist


def test_package_has_no_assert():
    paths = sorted(Path(qtwist.__file__).parent.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
