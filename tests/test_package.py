import densestream


def test_star_import_binds_every_exported_name():
    # a name left in __all__ after its definition is gone fails the import
    namespace: dict = {}
    exec("from densestream import *", namespace)
    assert [n for n in densestream.__all__ if n not in namespace] == []
    assert len(set(densestream.__all__)) == len(densestream.__all__)
