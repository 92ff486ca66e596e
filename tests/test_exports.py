import hamnt


def test_star_import_resolves_every_export():
    # a name left in __all__ after its definition is gone breaks the star import
    namespace: dict = {}
    exec("from hamnt import *", namespace)
    assert len(set(hamnt.__all__)) == len(hamnt.__all__)
    assert all(name in namespace and hasattr(hamnt, name) for name in hamnt.__all__)
