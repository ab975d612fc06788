import pytest

from agealg.algebra import TypeRegistry
from agealg.gallery import GALLERY


@pytest.fixture(scope="session")
def registries():
    """Session-wide registry cache: one TypeRegistry per gallery template,
    grown lazily to whatever degree the tests ask for."""
    cache = {}

    def get(name):
        if name not in cache:
            t = GALLERY[name].build()
            cache[name] = (t, TypeRegistry(t))
        return cache[name]

    return get


@pytest.fixture
def miss_every_isomorphism(monkeypatch):
    """Make every isomorphism check fail: witness extensions never pass, and
    the map that `find_isomorphism` composes from two canonical labellings
    is refused as well."""
    import agealg.algebra
    import agealg.structures

    for module in (agealg.algebra, agealg.structures):
        monkeypatch.setattr(module, "is_isomorphism", lambda *a: False)
