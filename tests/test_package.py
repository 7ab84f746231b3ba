import suffcast


def test_public_names_resolve():
    missing = [name for name in suffcast.__all__ if not hasattr(suffcast, name)]
    assert missing == []
    namespace = {}
    exec("from suffcast import *", namespace)
    assert set(suffcast.__all__) <= set(namespace)
