import circdom


def test_all_names_resolve_once():
    # a stale __all__ entry would pass every test that imports by name
    names = circdom.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(circdom, name), name
    namespace = {}
    exec("from circdom import *", namespace)
    assert set(names) <= namespace.keys()
