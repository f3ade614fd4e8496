import distmagic


def test_public_names_resolve():
    assert len(set(distmagic.__all__)) == len(distmagic.__all__)
    for name in distmagic.__all__:
        getattr(distmagic, name)
    namespace = {}
    exec("from distmagic import *", namespace)
    assert set(distmagic.__all__) <= set(namespace)
