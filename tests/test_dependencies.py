"""The README promises one runtime dependency, numpy: every absolute import
in the package names the standard library, numpy or contris itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contris"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "contris"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_contris(path):
    foreign = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        foreign |= {module.partition(".")[0] for module in modules} - ALLOWED
    assert not foreign
