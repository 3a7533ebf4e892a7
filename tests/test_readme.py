"""Every code name README.md cites in backticks exists: a `module.name` whose
module is one of the package's names an attribute of it, and a
`tests/...::...` node id names a test of the suite."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in (ROOT / "src" / "rumormatch").glob("*.py")} - {"__init__"}


def cited(markdown: str) -> list[str]:
    """The inline code spans of markdown, fenced blocks left out."""
    prose = re.sub(r"^```.*?^```", "", markdown, flags=re.S | re.M)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def has_attribute(dotted: str) -> bool:
    module, *names = dotted.split(".")
    obj = importlib.import_module(f"rumormatch.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def has_test(node_id: str) -> bool:
    path, *names = re.sub(r"\[.*\]$", "", node_id).split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def stale_names(markdown: str) -> list[str]:
    """The module attributes and test node ids cited in markdown that do not exist."""
    stale = []
    for span in cited(markdown):
        if re.fullmatch(r"\w+(\.\w+)+", span) and span.split(".")[0] in MODULES:
            ok = has_attribute(span)
        elif re.fullmatch(r"tests/[\w/]+\.py(::[\w\[\]-]+)+", span):
            ok = has_test(span)
        else:
            continue
        if not ok:
            stale.append(span)
    return stale


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.S | re.M).group(1)
    (tmp_path / "articles.jsonl").write_text(
        '{"id":"a1","title":"Shaky Diagnosis","body":"Clinton collapse","subjects":["CLINTON"]}\n'
        '{"id":"a2","title":"Hidden Returns","body":"Trump tax","subjects":["TRUMP"]}\n',
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    # one query term, once in one of two articles of one length: BM25 gives its idf, ln 2
    assert capsys.readouterr().out == "a1 0.6931471805599453\n"


def test_readme_names_exist():
    assert stale_names((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_finds_a_stale_name():
    text = ("Lines are read `corpus.BATCH` at a time by `corpus.iter_tweets`\n"
            "(`tests/test_corpus.py::TestDuplicateCheck::test_memory_per_tweet_is_bounded`,\n"
            "`tests/test_corpus.py::TestDuplicateCheck::test_runs_merge`); `np.sort`,\n"
            "`index.rmix`, and\n```python\nmatchers.no_such_name()\n```\n")
    assert stale_names(text) == [
        "corpus.BATCH", "tests/test_corpus.py::TestDuplicateCheck::test_runs_merge"]
