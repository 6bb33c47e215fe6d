"""sympy is a test-only oracle: no module of the package may import it."""

import ast
from pathlib import Path

import qtwist


def test_package_does_not_import_sympy():
    paths = sorted(Path(qtwist.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
