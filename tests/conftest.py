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
    """Make both registry routes to membership miss: witness extensions
    never pass and the isomorphism search finds nothing."""
    import agealg.algebra

    monkeypatch.setattr(agealg.algebra, "is_isomorphism", lambda *a: False)
    monkeypatch.setattr(agealg.algebra, "find_isomorphism",
                        lambda *a, **k: None)
