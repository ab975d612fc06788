"""Arithmetic on compositions against the subset computations it replaces.

A subset of an instantiation with block counts c' induces exactly the
instantiation of c'.  The age algebra and the block coarsening rely on that
identity instead of canonicalizing every subset of one instantiation; here
the subset computations are kept as oracles at small sizes, and the identity
itself is a property test over random templates.
"""

import dataclasses
import json
import random
from functools import cmp_to_key

from hypothesis import example, given, settings
from hypothesis import strategies as st

from agealg.algebra import (OrbitSum, TypeRegistry, _e_rows,
                            compare_monomials, kernel_elements_bounded,
                            orbit_product, profile_series, structure_constant)
from agealg.cli import main
from agealg.decomposition import _coarsening, minimal_decomposition
from agealg.gallery import GALLERY
from agealg.structures import Signature, restrict
from agealg.templates import INF, BlockTemplate, block_spans, instantiate
from agealg.verify import random_template
from strategies import (code_classes, random_templates, subset_e_rows,
                        subset_splits)

MAX_DEGREE = 4


def seeded_templates(seed, count, caps, blocks, arities, keep):
    """`count` templates of `verify.random_template`, drawn from
    random.Random(seed): a block count in the range `blocks`, a capacity
    per block from `caps`, then the arities, then the patterns."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        block_caps = [rng.choice(caps) for _ in range(rng.randint(*blocks))]
        out.append(random_template(rng, keep, block_caps, rng.choice(arities)))
    return out


def oracle_templates():
    return ([(name, entry.build()) for name, entry in GALLERY.items()]
            + [(f"random{i}", t) for i, t in enumerate(seeded_templates(
                2718, 4, [INF, INF, 1, 2, 3], (2, 3), [(2,), (1, 2)], 0.4))])


def level_templates():
    """Random templates of arity up to 3 for the block coarsening: their
    patterns may need more elements of a block than a small level box
    holds."""
    return seeded_templates(1414, 24, [INF, 1, 2, 3], (1, 3),
                            [(2,), (3,), (1, 3)], 0.3)


# ---------------------------------------------------------------------------
# the subset computations, as they were before compositions replaced them


def subset_block_coarsening(t, level):
    """Block classes read off the minimal decomposition of the instantiation
    of t.max_composition(level); every element class must be a union of
    whole blocks."""
    comp = t.max_composition(level)
    owner = [b for b, d in enumerate(comp) for _ in range(d)]
    spans = block_spans(comp)
    classes = []
    for cls in minimal_decomposition(instantiate(t, comp)):
        blocks = sorted({owner[x] for x in cls})
        assert sorted(cls) == [x for b in blocks for x in range(*spans[b])]
        classes.append(blocks)
    return sorted(classes)


# ---------------------------------------------------------------------------
# oracle tests


def test_structure_constants_match_subset_splits():
    for name, t in oracle_templates():
        registry = TypeRegistry(t)
        for n in range(MAX_DEGREE + 1):
            for tau in registry.types_at(n):
                for m in range(n + 1):
                    want = subset_splits(t, registry, tau.reps[0], m)
                    for tau1 in registry.types_at(m):
                        for tau2 in registry.types_at(n - m):
                            got = structure_constant(t, tau1, tau2, tau,
                                                     registry)
                            assert got == want.get((tau1.id, tau2.id), 0), \
                                (name, n, m)


def test_orbit_products_match_subset_splits():
    rng = random.Random(1618)
    for name, t in oracle_templates():
        registry = TypeRegistry(t)
        for d1, d2 in ((1, 1), (1, 2), (2, 2), (1, 3)):
            o1 = OrbitSum({e.id: rng.randint(-3, 3)
                           for e in registry.types_at(d1)}, d1)
            o2 = OrbitSum({e.id: rng.randint(-3, 3)
                           for e in registry.types_at(d2)}, d2)
            want = {}
            for entry in registry.types_at(d1 + d2):
                census = subset_splits(t, registry, entry.reps[0], d1)
                want[entry.id] = sum(
                    mult * o1.coeffs.get(c1, 0) * o2.coeffs.get(c2, 0)
                    for (c1, c2), mult in census.items())
            assert orbit_product(t, o1, o2, registry) == OrbitSum(
                want, d1 + d2), name


def test_e_matrix_matches_subset_removals():
    for name, t in oracle_templates():
        registry = TypeRegistry(t)
        for n in range(MAX_DEGREE):
            assert _e_rows(registry, n) == subset_e_rows(t, registry, n), \
                (name, n)


def outgrows_box(t, level):
    """Whether some accepted pattern needs more distinct elements of a block
    than the level box holds."""
    box = t.max_composition(level)
    return any(len({r for x, r in zip(p.blocks, p.ranks) if x == b}) > d
               for pats in t.accepted for p in pats
               for b, d in enumerate(box))


def level_classes(t, level, registry):
    """The block coarsening at a fatness level, as `template_components`
    computes it: `_coarsening` over the level box, through `registry`."""
    return _coarsening(t.max_composition(level), registry.id_of)


def test_block_coarsening_matches_minimal_decomposition():
    templates = ([(name, entry.build()) for name, entry in GALLERY.items()]
                 + [(f"random{i}", t) for i, t in enumerate(level_templates())])
    assert any(outgrows_box(t, 1) for _, t in templates[len(GALLERY):])
    for name, t in templates:
        registry = TypeRegistry(t)
        for level in (1, 2, 3):
            assert level_classes(t, level, registry) == \
                subset_block_coarsening(t, level), (name, level)


def boxed_level_classes(t, level):
    """`level_classes` through a registry of `t` with its capacities cut to
    the level box, a registry per level.  The plain constructor keeps the
    patterns that need more elements of a block than the box holds."""
    box = t.max_composition(level)
    boxed = dataclasses.replace(t, blocks=tuple(
        (name, cap) for (name, _), cap in zip(t.blocks, box)))
    return _coarsening(box, TypeRegistry(boxed).id_of)


def test_one_registry_classifies_the_level_boxes_as_boxed_registries(census_plan):
    templates = ([(name, entry.build()) for name, entry in GALLERY.items()]
                 + [(f"random{i}", t) for i, t in enumerate(level_templates())]
                 + [(name, t) for name, _, t in census_plan(0)])
    for name, t in templates:
        # prebuilt past the largest box, and fresh at every level
        prebuilt = TypeRegistry(t)
        prebuilt.ensure_degree(sum(t.max_composition(3)) + 1)
        for level in (1, 2, 3):
            want = boxed_level_classes(t, level)
            assert level_classes(t, level, prebuilt) == want, (name, level)
            assert level_classes(t, level, TypeRegistry(t)) == want, (name, level)


# ---------------------------------------------------------------------------
# kernel on a capacity-2 block whose patterns use both of its elements


def shrunk_template(t, b):
    """`t` with block b one element smaller; the patterns needing more
    distinct elements of b than remain are dropped, and a block shrunk to
    nothing is removed."""
    cap = t.capacities[b] - 1
    data = t.to_json_dict()
    for pats in data["accepted"].values():
        pats[:] = [p for p in pats
                   if len({r for x, r in zip(p["blocks"], p["ranks"])
                           if x == b}) <= cap]
        if cap == 0:
            for p in pats:
                p["blocks"] = [x - (x > b) for x in p["blocks"]]
    if cap == 0:
        del data["blocks"][b]
    else:
        data["blocks"][b]["capacity"] = cap
    return BlockTemplate.from_json_dict(data)


def profile_oracle_kernel(t, degree):
    """Finite blocks whose shrinking lowers the profile at some degree."""
    base = profile_series(t, degree)
    return [t.block_names[b] for b, cap in enumerate(t.capacities)
            if cap is not None
            and profile_series(shrunk_template(t, b), degree) != base]


def pair_next_to_pool(pool_is_clique):
    """A capacity-2 clique block next to an infinite pool.  Next to a
    coclique pool with arcs into the pair, the pair's edge is realized only
    by the full pair; joined to a clique pool, the pair is part of one big
    clique, which the pool alone realizes at every degree."""
    sig = Signature((("adj", 2),))
    edges = [((1, 1), (0, 1)), ((1, 1), (1, 0)), ((0, 1), (0, 0))]
    if pool_is_clique:
        edges += [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((1, 0), (0, 0))]
    return BlockTemplate.make(sig, [("pool", INF), ("pair", 2)],
                              {"adj": edges})


def test_kernel_on_capacity_two_clique_block(tmp_path, capsys):
    for pool_is_clique, want in ((False, ["pair"]), (True, [])):
        t = pair_next_to_pool(pool_is_clique)
        assert profile_oracle_kernel(t, 4) == want
        assert kernel_elements_bounded(t, 4)["blocks"] == want
        path = tmp_path / "pair.json"
        path.write_text(t.to_json())
        code = main(["kernel", "--input", str(path), "--degree", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["blocks"] == want


def test_kernel_matches_profile_oracle_on_random_templates():
    for t in seeded_templates(577, 6, [INF, INF, 1, 2, 3], (2, 3),
                              [(2,), (1, 2)], 0.4):
        assert kernel_elements_bounded(t, 4)["blocks"] == \
            profile_oracle_kernel(t, 4)


# ---------------------------------------------------------------------------
# the restriction identity


@settings(max_examples=150, deadline=None)
@given(random_templates(), st.data())
def test_restriction_equals_instantiation_of_counts(t, data):
    comp = tuple(data.draw(st.integers(0, 3 if cap is None else cap))
                 for cap in t.capacities)
    size = sum(comp)
    subset = data.draw(st.lists(st.integers(0, max(size - 1, 0)), unique=True,
                                max_size=size)) if size else []
    counts = tuple(sum(lo <= x < hi for x in subset)
                   for lo, hi in block_spans(comp))
    assert restrict(instantiate(t, comp), subset) == instantiate(t, counts)


# ---------------------------------------------------------------------------
# the deck registry against classification by canonical code


# two infinite blocks and no relation: all compositions of a degree, such
# as (2, 1) and (3, 0), instantiate to one edgeless structure, so a deck
# must sum the multiplicities of equal ids, not list them block by block
RELATION_FREE = random_template(None, lambda universe: [])


@settings(max_examples=150, deadline=None)
@given(random_templates(), st.integers(0, 6))
@example(RELATION_FREE, 5)
def test_registry_matches_code_classification(t, degree):
    registry = TypeRegistry(t)
    by_monomial = cmp_to_key(compare_monomials)
    for n in range(degree + 1):
        classes = code_classes(t, n)
        types = registry.types_at(n)
        assert [e.id for e in types] == list(range(len(types)))
        assert [e.reps for e in types] == classes
        assert [e.lead for e in types] == [max(c, key=by_monomial)
                                           for c in classes]
        if n:
            assert _e_rows(registry, n - 1) == subset_e_rows(t, registry, n - 1)
