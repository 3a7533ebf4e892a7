"""Static checks of the package's modules: no module imports a name it never
reads, none reads an input file as text other than through
corpus._text_lines, and evaluation and analysis import neither matchers nor
cli."""

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


# where a module may read a file as text: the package's own data, not an input
TEXT_READS_ALLOWED = {"textpipe.py": {"packaged_list"}}


def text_mode_reads(source: str) -> list[str]:
    """'function:line' of each call in ``source`` that reads a file as text,
    bypassing corpus._text_lines: an open() whose mode, if it can be read,
    holds no 'b' and reads, or a read_text()."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            if name == "read_text" or name == "open" and reads_text(node):
                found.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def reads_text(call: ast.Call) -> bool:
    """Whether an open() call, builtin or a method, reads in text mode."""
    at = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode that is not a literal may read text
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_inputs_are_read_through_the_line_reader(path):
    allowed = TEXT_READS_ALLOWED.get(path.name, set())
    reads = text_mode_reads(path.read_text(encoding="utf-8"))
    assert [r for r in reads if r.split(":")[0] not in allowed] == []


def test_finds_a_text_mode_read():
    source = ("def a(p):\n    return open(p).read()\n"
              "def b(p):\n    with open(p, 'rb') as fh, open(p, mode='w') as out:\n"
              "        return p.open('wb')\n"
              "def c(p, m):\n    return p.open('r+').read() + open(p, m).read() + p.read_text()\n"
              "data = open('x', encoding='utf-8')\n")
    assert text_mode_reads(source) == ["a:2", "c:7", "c:7", "c:7", "<module>:8"]


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports, by short name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "rumormatch":
                    continue
                module = module.partition(".")[2]
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("rumormatch."))
    return found


@pytest.mark.parametrize("name", ["evaluation.py", "analysis.py"])
def test_results_layers_import_no_matcher_or_cli(name):
    # the evaluations and analyses read per-tweet results, not the scorers that made them
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert package_imports(source) & {"matchers", "cli"} == set()


def test_finds_the_package_imports():
    source = ("import os, rumormatch.cli\nfrom . import matchers as m, errors\n"
              "from .corpus import Label\nfrom rumormatch import textpipe\n"
              "from rumormatch.analysis import x\nfrom rumormatchx import y\n")
    assert package_imports(source) == {"cli", "matchers", "errors", "corpus", "textpipe",
                                       "analysis"}


def references(source: str, names: set[str]) -> list[str]:
    """'function:line name' of each read in ``source`` of a name in ``names``
    (such as 'os.replace'), the function named by its enclosing defs, outermost first."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and ast.unparse(node) in names):
            found.append(f"{where or '<module>'}:{node.lineno} {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("names,where", [
    ({"atomic_write_text"}, "cli.py main.stage atomic_write_text"),
    ({"os.replace", "os.rename"}, "cli.py atomic_write_text os.replace"),
])
def test_outputs_are_published_in_one_place(names, where):
    # main stages every output of a command in one ExitStack, and atomic_write_text alone
    # renames it into place: a writer that published its own file would be found here
    found = [f"{path.name} {ref.partition(':')[0]} {ref.partition(' ')[2]}"
             for path in sorted(PACKAGE.glob("*.py"))
             for ref in references(path.read_text(encoding="utf-8"), names)]
    assert found == [where]


def test_finds_the_references():
    source = ("import os\ndef f(p):\n    def g(q):\n        return os.replace(p, q)\n"
              "    w = atomic_write_text\n    return w, p.replace('a', 'b'), os.rename\n")
    assert references(source, {"os.replace", "os.rename", "atomic_write_text"}) == [
        "f.g:4 os.replace", "f:5 atomic_write_text", "f:6 os.rename"]
