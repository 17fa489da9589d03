"""The literal oracle stays independent of what it checks."""

import ast
from pathlib import Path


def test_oracle_imports_only_math_and_itertools():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"math", "itertools"}, imported
