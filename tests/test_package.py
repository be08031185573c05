"""The package's public export list and README's library quickstart."""

import re
from pathlib import Path

import mcskit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_export_list_resolves():
    names = mcskit.__all__
    assert [n for n in names if not hasattr(mcskit, n)] == []
    assert len(set(names)) == len(names)
    scope = {}
    exec("from mcskit import *", scope)
    scope.pop("__builtins__")
    assert set(scope) == set(names)


def test_readme_quickstart_runs():
    # A public signature change that breaks the documented calls fails here.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["summary"].longest == "GAP"
    assert scope["est"].pattern_str_ == "POP-*"
