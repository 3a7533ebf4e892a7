"""Every module of the package parses as the oldest Python that pyproject.toml
declares, so that syntax of a later Python cannot land unnoticed."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rumormatch"


def declared_floor() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_floor())


def test_later_syntax_is_refused():
    # except* is Python 3.11 syntax
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
    ast.parse(source, feature_version=(3, 11))
