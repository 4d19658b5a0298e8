"""Modules of the package use only each other's public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diffident"


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "diffident"
            offenders += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if internal and alias.name.startswith("_")
            ]
    assert not offenders, offenders
