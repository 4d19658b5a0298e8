"""Modules of the package use only each other's public names, and the engine
neither imports nor loads sympy: it is an oracle of the tests only."""

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


def test_no_module_imports_sympy():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] == "sympy"
            ]
    assert not offenders, offenders


def test_engine_commands_load_no_sympy(tmp_path, fresh_python):
    dsum = str(tmp_path / "dsum.alg")
    eps = str(tmp_path / "ut2-eps.alg")
    script = (
        "import importlib, pkgutil, sys\n"
        "import diffident\n"
        "from diffident.cli import main\n"
        "for module in pkgutil.iter_modules(diffident.__path__):\n"
        "    importlib.import_module('diffident.' + module.name)\n"
        f"assert main(['gen', 'dsum', 'utn:3', 'matn:2', '-o', {dsum!r}]) == 0\n"
        "for cmd in ('decompose', 'exponent', 'verify-gk', 'classify'):\n"
        f"    assert main([cmd, {dsum!r}]) == 0, cmd\n"
        f"assert main(['gen', 'ut2-eps', '-o', {eps!r}]) == 0\n"
        f"assert main(['codim', {eps!r}, '--max-n', '3', '--mode', 'modular']) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    proc = fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert "n 3 c 13" in proc.stdout
