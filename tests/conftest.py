import inspect
import sys
from pathlib import Path

import pytest

from agealg.algebra import TypeRegistry
from agealg.gallery import GALLERY
from agealg.templates import BlockTemplate


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
    """Make every isomorphism check fail: witness extensions never pass the
    delta check, and the map that `find_isomorphism` composes from two
    canonical labellings is refused as well."""
    import agealg.algebra
    import agealg.structures

    monkeypatch.setattr(agealg.algebra, "maps_onto", lambda *a: False)
    monkeypatch.setattr(agealg.structures, "maps_onto", lambda *a: False)


@pytest.fixture
def recursion_headroom():
    """recursion_headroom(frames): set the recursion limit `frames` frames
    above the caller's depth, until the test ends.  A search that recurses
    once per element then runs out of stack on a few hundred elements
    instead of about a thousand."""
    limit = sys.getrecursionlimit()

    def lower(frames):
        sys.setrecursionlimit(len(inspect.stack(0)) + frames)

    yield lower
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="session")
def census_plan():
    """census_plan(seed): [(file name, JSON text, template)] of the
    benchmark's seeded census-plan templates (three blocks, two of them
    infinite, one binary relation)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    def get(seed):
        files, _ = workloads.census_inputs(seed)
        return [(name, text, BlockTemplate.from_json(text))
                for name, text in sorted(files.items())]

    return get
