"""The examples in the package's docstrings run as doctests."""

import doctest
import importlib
import pkgutil

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
