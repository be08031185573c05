"""The package's public export list."""

import mcskit


def test_export_list_resolves():
    names = mcskit.__all__
    assert [n for n in names if not hasattr(mcskit, n)] == []
    assert len(set(names)) == len(names)
    scope = {}
    exec("from mcskit import *", scope)
    scope.pop("__builtins__")
    assert set(scope) == set(names)
