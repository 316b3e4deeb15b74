"""The package's export list: every name in ``__all__`` exists, once."""

import entroute


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from entroute import *", namespace)
    assert set(entroute.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    missing = [name for name in entroute.__all__ if not hasattr(entroute, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(entroute.__all__) == len(set(entroute.__all__))
