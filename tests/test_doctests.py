"""The examples in the package's docstrings run as doctests, and those of
README's "Library" block are checked against the values they show."""

import contextlib
import doctest
import importlib
import io
import pkgutil
from pathlib import Path

import pytest

import thagkl

# every module but ``__main__``, whose import runs the command line
MODULES = ["thagkl"] + [f"thagkl.{info.name}" for info in pkgutil.iter_modules(thagkl.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False, report=False)
    assert result.failed == 0


def test_a_wrong_example_fails(tmp_path, monkeypatch):
    # negative control: testmod reports a docstring example whose output is wrong
    (tmp_path / "wrong_example.py").write_text(
        'def f():\n    """\n    >>> 1 + 1\n    3\n    """\n')
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("wrong_example")
    assert doctest.testmod(module, report=False) == (1, 1)


README = Path(__file__).resolve().parent.parent / "README.md"


def shown_examples(block: str) -> list[tuple[str, str]]:
    """The ``expr  # value`` lines of a code block as (expr, value) pairs, in
    order, with the plain statements among them as (statement, None).

    A value may also stand on the comment lines right below its expression;
    they are joined with single spaces."""
    examples: list[tuple[str, str | None]] = []
    for line in block.splitlines():
        code, _, comment = line.partition("# ")
        if not code.strip():
            if comment:
                expr, shown = examples.pop()
                examples.append((expr, comment.strip() if shown is None else
                                 f"{shown} {comment.strip()}"))
            continue
        examples.append((code.strip(), comment.strip() or None))
    return examples


def mismatches(block: str) -> tuple[int, list[tuple[str, str, str]]]:
    """Run the block; return the number of shown values and those that differ,
    as (expr, shown, actual).  A ``print(...)`` line shows what it prints,
    any other expression its repr."""
    namespace: dict = {}
    checked, wrong = 0, []
    for expr, shown in shown_examples(block):
        if shown is None:
            exec(expr, namespace)
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            value = eval(expr, namespace)
        actual = out.getvalue().rstrip("\n") if expr.startswith("print(") else repr(value)
        checked += 1
        if actual != shown:
            wrong.append((expr, shown, actual))
    return checked, wrong


def test_readme_library_block():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    checked, wrong = mismatches(block)
    assert wrong == []
    assert checked == 8


def test_a_wrong_readme_value_fails():
    # negative control: a shown value that is not the repr, a print line
    # that prints something else, and a wrong value on a comment line
    block = "x = 2\nx + 1  # 4\nprint(x)  # 2\nprint(x)  # '2'\n[x]\n# [3]\n"
    assert mismatches(block) == (4, [("x + 1", "4", "3"), ("print(x)", "'2'", "2"),
                                     ("[x]", "[3]", "[2]")])
