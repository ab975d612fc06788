"""Acceptance criteria at their full stated bounds, one pass/fail line each:
the table in `agealg.verify` at `FULL`, over the session registries.  Run
with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import pytest

from agealg.gallery import GALLERY
from agealg.hilbert import DEFAULT_GUARD
from agealg.verify import (EMBED_SEED, FAT_LEVEL, FULL, GLOBAL_CHECKS,
                           RANDOM_DEGREE, RANDOM_SEED, TEMPLATE_CHECKS, Case,
                           rows)

CRITERIA = ("gallery_hilbert_series", "two_path_agreement", "addlayer",
            "decompositions", "growth_bounds", "e_multiplication_injective",
            "planar", "ideal_oracle", "scope_replacements")


@pytest.fixture(scope="session")
def cases(registries):
    return [Case(name, FULL, registries(name)[1]) for name in GALLERY]


def _criterion_test(number):
    def test(cases):
        found = [row for case in cases for row in rows(TEMPLATE_CHECKS, case, number)]
        found += rows(GLOBAL_CHECKS, FULL, number)
        failed = [f"{name}: {detail}" for name, ok, detail in found if not ok]
        print(f"[criterion {number}] {'FAIL' if failed else 'PASS'} "
              f"{len(found)} checks" + (f"; failed: {failed}" if failed else ""))
        assert found and not failed, failed
    return test


for _number, _name in enumerate(CRITERIA, 1):
    globals()[f"test_criterion_{_number}_{_name}"] = _criterion_test(_number)


def test_full_bounds_cover_the_stated_bounds():
    """FULL is at least every bound the README and ROADMAP state."""
    stated = dict(degree=14, addlayer=10, e_rank=8, schroder=7, embeddings=8,
                  ideals=50, ideal_degree=12, ideal_exponent=4,
                  random_templates=8)
    assert not [key for key, least in stated.items() if getattr(FULL, key) < least]
    assert {1, 2, 3, 4, 5} <= set(FULL.planar_profile)
    assert {3, 4, 5, 6} <= set(FULL.reconstruction)
    assert DEFAULT_GUARD >= 5 and RANDOM_DEGREE >= 12 and FAT_LEVEL <= 4
    assert (EMBED_SEED, RANDOM_SEED) == (1414, 90909)
