"""No module of the package imports a name it never reads."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rumormatch"


def unused_imports(source: str) -> list[str]:
    """The names that import statements in ``source`` bind and no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:  # `import a.b` binds `a`
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}"
            for line, name in sorted((line, name) for name, line in bound.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "import os, sys\nfrom typing import Optional\nsys.exit()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Optional"]
    # a name bound anew is not a read of the import
    assert unused_imports("import array\narray = []\n") == ["line 1: array"]
