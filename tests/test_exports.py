"""The package's export list: every listed name exists, once."""

import weylift


def test_all_names_resolve_once():
    names = weylift.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(weylift, name)] == []
    namespace = {}
    exec("from weylift import *", namespace)
    assert set(names) <= set(namespace)
