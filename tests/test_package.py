"""The package's public export list, README's library quickstart and the
string-collection check its entry points share."""

import re
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("entry", [
    mcskit.random_mcs,
    lambda strings: mcskit.run_many(strings, 3),
    mcskit.lcs_dp,
    mcskit.one_mcs,
    mcskit.extract_pattern,
], ids=["random_mcs", "run_many", "lcs_dp", "one_mcs", "extract_pattern"])
def test_entry_points_reject_what_is_not_a_collection_of_str(entry):
    with pytest.raises(TypeError, match="expected a collection of strings, got a single str"):
        entry("abc")
    with pytest.raises(TypeError, match="string #1 is bytes, expected str"):
        entry(["abc", b"abc"])
