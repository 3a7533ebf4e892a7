"""Every error class is raised somewhere in the package, or is the base of one that is."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rumormatch"


def raised_names(source: str) -> set[str]:
    """The names of the classes that `raise` statements in ``source`` name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def dead_classes(errors_source: str, sources: list[str]) -> list[str]:
    """The classes errors_source defines that no source raises, and that are
    no base, direct or not, of a class that some source raises."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)}
    live = set().union(*map(raised_names, sources)) & bases.keys()
    stack = list(live)
    while stack:
        for base in bases[stack.pop()]:
            if base in bases and base not in live:
                live.add(base)
                stack.append(base)
    return sorted(bases.keys() - live)


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []


def test_finds_a_dead_class():
    errors_source = ("class Base(Exception): pass\n"
                     "class Mid(Base): pass\n"
                     "class Leaf(Mid): pass\n"
                     "class Unused(Base): pass\n"
                     "class Other(Exception): pass\n")
    sources = ["from . import errors\nraise errors.Leaf('x')\n",
               "try:\n    pass\nexcept Other:\n    raise\n"]
    assert dead_classes(errors_source, sources) == ["Other", "Unused"]
