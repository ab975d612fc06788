"""Orbit sums, structure constants, multiplication by e, bounded kernel."""

import itertools
import sys
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agealg.algebra import (OrbitSum, TypeRegistry, e_orbit,
                            kernel_elements_bounded, mult_by_e_rank,
                            orbit_product, profile, profile_series,
                            structure_constant, unit_orbit)
from agealg.decomposition import minimal_decomposition, template_components
from agealg.errors import ConsistencyError, InputError
from agealg.structures import (FiniteRelStruct, Signature, canonical_code,
                               relabel, restrict, subset_types)
from agealg.templates import (INF, BlockTemplate, instantiate, sym)


def tau(registry, n, index=0):
    return registry.types_at(n)[index]


def all_taus(registry, n):
    return registry.types_at(n)


# ---------------------------------------------------------------------------
# profiles


def test_profile_published_values(registries):
    t, registry = registries("sym:3")
    assert [registry.profile(n) for n in range(7)] == [1, 1, 2, 3, 4, 5, 7]
    t, registry = registries("clique_plus_coclique")
    assert registry.profile(5) == 5
    t, registry = registries("qsym:2")
    assert [registry.profile(n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_profile_series_published(registries):
    _, r = registries("coclique")
    assert [r.profile(n) for n in range(5)] == [1, 1, 1, 1, 1]
    _, r = registries("wheel_plus_coclique")
    assert [r.profile(n) for n in range(7)] == [1, 1, 2, 3, 4, 5, 6]
    _, r = registries("groupoid")
    assert [r.profile(n) for n in range(5)] == [1, 2, 5, 9, 14]


def test_profile_cross_checks_subset_types(registries):
    # phi(n) equals the number of types among n-subsets of a fat instantiation
    for name in ("clique_plus_coclique", "wheel_plus_coclique", "groupoid"):
        t, registry = registries(name)
        for n in range(5):
            big = instantiate(t, t.max_composition(n))
            assert registry.profile(n) == len(subset_types(big, n))


def test_registry_agrees_with_pure_code_classification():
    # the registry buckets by deck and settles with witnesses and codes;
    # classifying every composition by its canonical code must coincide
    import random

    from agealg.structures import canonical_code
    from agealg.templates import compositions
    from agealg.verify import random_template

    rng = random.Random(31415)
    for _ in range(8):
        t = random_template(rng, 0.45)
        registry = TypeRegistry(t)
        for n in range(6):
            by_registry = {}
            by_code = {}
            for comp in compositions(t, n):
                by_registry.setdefault(registry.id_of(comp), []).append(comp)
                by_code.setdefault(
                    canonical_code(instantiate(t, comp)), []).append(comp)
            assert list(by_registry.values()) == list(by_code.values())


def test_missed_isomorphism_is_a_consistency_error(miss_every_isomorphism):
    # (2,1) and (1,2) of sym:2 instantiate to isomorphic, unequal structures:
    # if the witness extension misses that and the map composed from their
    # equal codes' labellings fails its check too, that is a library bug
    with pytest.raises(ConsistencyError):
        TypeRegistry(sym(2)).types_at(3)


# ---------------------------------------------------------------------------
# isomorphism witnesses and the finite-structure registry

ARC = Signature((("arc", 2),))


def support(comp):
    return [x for x, d in enumerate(comp) if d]


@st.composite
def looped_digraph(draw):
    n = draw(st.integers(0, 7))
    arcs = [(a, b) for a in range(n) for b in range(n) if draw(st.booleans())]
    return FiniteRelStruct(ARC, n, {"arc": arcs})


@settings(max_examples=150, deadline=None)
@given(looped_digraph())
@example(FiniteRelStruct(ARC, 7, {"arc": []}))
@example(FiniteRelStruct(ARC, 7, {"arc": [(x, (x + 1) % 7) for x in range(7)]}))
@example(FiniteRelStruct(ARC, 3, {"arc": [(0, 1), (2, 1)]}))
def test_finite_registry_matches_subset_codes(s):
    # the subsets of each size, grouped by the canonical code of the
    # substructure they induce, in order of first appearance, are the types;
    # every witness maps its subset's structure onto its type's first one
    registry = TypeRegistry(s)
    for n in range(s.size + 1):
        classes = {}
        for comp in itertools.product((0, 1), repeat=s.size):
            if sum(comp) == n:
                code = canonical_code(restrict(s, support(comp)))
                classes.setdefault(code, []).append(comp)
        types = registry.types_at(n)
        assert [e.reps for e in types] == list(classes.values())
        for e in types:
            first = restrict(s, support(e.reps[0]))
            for comp in e.reps:
                witness = registry._witness[comp]
                assert relabel(restrict(s, support(comp)), witness) == first


def count_searches(monkeypatch):
    """Counters of the canonical_code and find_isomorphism calls made
    anywhere in the library: every loaded agealg module that binds either
    name gets a counting wrapper."""
    counts = Counter()
    for modname, module in list(sys.modules.items()):
        if modname != "agealg" and not modname.startswith("agealg."):
            continue
        for name in ("canonical_code", "find_isomorphism"):
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kw):
                counts[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(module, name, counted)
    return counts


def test_witnesses_spare_isomorphism_searches(monkeypatch):
    counts = count_searches(monkeypatch)
    # 512 subsets, one code each before the finite path used the registry
    assert minimal_decomposition(instantiate(sym(3), (3, 3, 3))) == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert counts["canonical_code"] < 52
    counts.clear()
    # 913 searches when every equal-deck composition was searched
    TypeRegistry(sym(4)).ensure_degree(10)
    assert counts["find_isomorphism"] <= 300
    counts.clear()
    # 255 codes when the fatness levels canonicalized every composition of
    # their level boxes
    assert template_components(sym(4)).classes == ((0,), (1,), (2,), (3,))
    assert counts["canonical_code"] < 26


def test_profile_bounded_by_composition_count(registries):
    from agealg.templates import compositions
    for name in ("sym:2", "groupoid", "wheel_plus_coclique"):
        t, registry = registries(name)
        for n in range(8):
            assert registry.profile(n) <= sum(1 for _ in compositions(t, n))


# ---------------------------------------------------------------------------
# structure constants


def test_singleton_times_singleton(registries):
    t, registry = registries("clique_plus_coclique")
    point = tau(registry, 1)
    for target in all_taus(registry, 2):
        c = structure_constant(t, point, point, target, registry)
        assert c == 2  # both orderings of a 2-set


def test_unit_constant(registries):
    t, registry = registries("sym:2")
    empty = tau(registry, 0)
    for target in all_taus(registry, 3):
        assert structure_constant(t, target, empty, target, registry) == 1


def test_sym2_edgeless_pair_split(registries):
    t, registry = registries("sym:2")
    point = tau(registry, 1)
    pair_types = all_taus(registry, 2)
    # the x1*x2 type (two points in distinct blocks) splits in 2 ways
    cross = [p for p in pair_types
             if p.reps[0] == (1, 1)]
    assert len(cross) == 1
    assert structure_constant(t, point, point, cross[0], registry) == 2


def test_degree_mismatch_rejected(registries):
    t, registry = registries("sym:2")
    point = tau(registry, 1)
    with pytest.raises(InputError):
        structure_constant(t, point, point, tau(registry, 3), registry)


def test_split_census_identity(registries):
    # sum over (tau1, tau2) of c equals C(n, m) for every tau and split m
    for name in ("clique_plus_coclique", "groupoid"):
        t, registry = registries(name)
        for n in (2, 3, 4):
            for m in range(n + 1):
                for target in all_taus(registry, n):
                    total = sum(
                        structure_constant(t, t1, t2, target, registry)
                        for t1 in all_taus(registry, m)
                        for t2 in all_taus(registry, n - m))
                    assert total == comb(n, m)


# ---------------------------------------------------------------------------
# orbit products


def test_product_with_unit(registries):
    t, registry = registries("wheel_plus_coclique")
    one = unit_orbit(t, registry)
    o = OrbitSum({e.id: 3 for e in registry.types_at(2)}, 2)
    assert orbit_product(t, o, one, registry) == o


def test_e_squared_in_coclique(registries):
    t, registry = registries("coclique")
    e = e_orbit(t, registry)
    ee = orbit_product(t, e, e, registry)
    (coeff,) = ee.coeffs.values()
    assert coeff == 2 and ee.degree == 2


def test_product_commutes(registries):
    t, registry = registries("groupoid")
    o1 = OrbitSum({e.id: e.id + 1 for e in registry.types_at(1)}, 1)
    o2 = OrbitSum({e.id: 2 * e.id + 1 for e in registry.types_at(2)}, 2)
    assert orbit_product(t, o1, o2, registry) == orbit_product(t, o2, o1, registry)


def test_product_associates_on_sampled_triples(registries):
    t, registry = registries("clique_plus_coclique")
    e = e_orbit(t, registry)
    o2 = OrbitSum({e.id: 1 for e in registry.types_at(2)}, 2)
    left = orbit_product(t, orbit_product(t, e, e, registry), o2, registry)
    right = orbit_product(t, e, orbit_product(t, e, o2, registry), registry)
    assert left == right
    # a triple of total degree 6
    o3 = OrbitSum({e.id: e.id + 1 for e in registry.types_at(3)}, 3)
    left = orbit_product(t, orbit_product(t, e, o2, registry), o3, registry)
    right = orbit_product(t, e, orbit_product(t, o2, o3, registry), registry)
    assert left == right


# ---------------------------------------------------------------------------
# multiplication by e


def test_e_rank_coclique(registries):
    t, registry = registries("coclique")
    for n in range(4):
        assert mult_by_e_rank(t, n, registry) == 1


def test_e_rank_examples(registries):
    t, registry = registries("sym:2")
    assert mult_by_e_rank(t, 2, registry) == registry.profile(2) == 2
    t, registry = registries("clique_plus_coclique")
    assert mult_by_e_rank(t, 3, registry) == registry.profile(3) == 3


def test_e_rank_certifies_monotone_profile(registries):
    for name in ("wheel_plus_coclique", "groupoid", "qsym:2"):
        t, registry = registries(name)
        for n in range(5):
            assert mult_by_e_rank(t, n, registry) == registry.profile(n)


# ---------------------------------------------------------------------------
# bounded kernel


def test_sym_kernel_empty(registries):
    t, registry = registries("sym:3")
    report = kernel_elements_bounded(t, 3)
    assert report["blocks"] == [] and report["elements"] == []


def test_wheel_kernel_is_center(registries):
    t, _ = registries("wheel_plus_coclique")
    report = kernel_elements_bounded(t, 3)
    assert report["blocks"] == ["center"]
    assert report["elements"] == [(2, 0)]
    assert report["degree_bound"] == 3


def test_twin_marked_blocks_compensated():
    # an infinite marked block alongside two marked singleton blocks:
    # dropping a singleton is compensated at every degree
    sig = Signature((("mark", 1),))
    t = BlockTemplate.make(
        sig,
        [("pool", INF), ("f1", 1), ("f2", 1)],
        {"mark": [((0,), (0,)), ((1,), (0,)), ((2,), (0,))]})
    report = kernel_elements_bounded(t, 3)
    assert report["blocks"] == []


def test_two_lonely_marked_singletons_do_die():
    # without the infinite pool the both-marked pair type is lost when one
    # singleton goes away, and that is a genuine kernel membership
    sig = Signature((("mark", 1), ("adj", 2)))
    t = BlockTemplate.make(
        sig,
        [("plain", INF), ("f1", 1), ("f2", 1)],
        {"mark": [((1,), (0,)), ((2,), (0,))], "adj": []})
    report = kernel_elements_bounded(t, 2)
    assert report["blocks"] == ["f1", "f2"]
