"""Orbit sums, structure constants, multiplication by e, bounded kernel."""

import hashlib
import random
import sys
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agealg.algebra
from agealg.algebra import (OrbitSum, TypeRegistry,
                            _block_automorphisms, _e_rows, _int_matrix_rank,
                            compare_monomials, e_orbit,
                            kernel_elements_bounded, mult_by_e_rank,
                            orbit_product, profile, profile_series,
                            structure_constant, unit_orbit)
from agealg.decomposition import (is_F_monomorphic_up_to,
                                  minimal_decomposition, template_components)
from agealg.errors import ConsistencyError, InputError
from agealg.gallery import GALLERY
from agealg.hilbert import check_addlayer, hilbert_via_leading, two_path_hilbert
from agealg.structures import FiniteRelStruct, Signature, maps_onto, restrict
from agealg.templates import (INF, BlockTemplate, block_spans, c3_chains,
                              compositions, groupoid_example, instantiate,
                              present, qsym, rqsym, spans_through, sym)
from agealg.verify import random_template
from strategies import (ARC, bijections, circulant, code_classes, cubic_graph,
                        digraphs, partitions_into_at_most, planted_digraph,
                        random_templates, relabel, subset_types, wheel_alone)


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


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_profiles_match_their_closed_forms(k):
    # qsym(k): the compositions of n into at most k parts in order,
    # C(n - 1, i - 1) of them with i parts
    assert profile_series(qsym(k), 12) == [1] + [
        sum(comb(n - 1, i) for i in range(k)) for n in range(1, 13)]
    # sym(k): the multiset of block sizes, a partition into at most k parts
    assert profile_series(sym(k), 15) == [
        partitions_into_at_most(k, n) for n in range(16)]


@pytest.mark.parametrize("call", [profile, mult_by_e_rank],
                         ids=["profile", "mult-by-e-rank"])
def test_negative_degrees_are_refused(call):
    with pytest.raises(InputError, match="degree"):
        call(sym(2), -1)


@pytest.mark.parametrize("call, message", [
    (lambda: compare_monomials((1, 0), (1, 0, 0)),
     "^compare_monomials needs a common block set"),
    (lambda: TypeRegistry(wheel_alone()).id_of((0, 2)),
     r"^composition \(0, 2\) not realizable"),
    (lambda: orbit_product(sym(2), OrbitSum({0: 1}), OrbitSum({0: 1}, 1)),
     "^orbit_product needs homogeneous inputs"),
], ids=["monomial-lengths", "over-capacity", "inhomogeneous-product"])
def test_algebra_refusals(call, message):
    with pytest.raises(InputError, match=message):
        call()


def splits_of_two_singletons(t, registry):
    """c^tau_{e,e} of the first degree-2 type, the taus read off a
    registry of `t` of its own."""
    own = TypeRegistry(t)
    return structure_constant(t, tau(own, 1), tau(own, 1), tau(own, 2),
                              registry)


# the entry points that take a template and, optionally, its registry
REGISTRY_ENTRY_POINTS = {
    "profile": lambda t, r: profile(t, 3, r),
    "profile_series": lambda t, r: profile_series(t, 5, r),
    "structure_constant": splits_of_two_singletons,
    "orbit_product": lambda t, r: orbit_product(
        t, OrbitSum({0: 1}, 1), OrbitSum({0: 1}, 1), r),
    "unit_orbit": unit_orbit,
    "e_orbit": e_orbit,
    "mult_by_e_rank": lambda t, r: mult_by_e_rank(t, 3, r),
    "check_addlayer": lambda t, r: check_addlayer(t, 4, r),
    "hilbert_via_leading": lambda t, r: hilbert_via_leading(
        t, 10, registry=r),
    "two_path_hilbert": lambda t, r: two_path_hilbert(t, 12, registry=r),
    "template_components": lambda t, r: template_components(t, registry=r),
}


@pytest.mark.parametrize("name", sorted(REGISTRY_ENTRY_POINTS))
def test_a_registry_of_another_template_is_refused(name):
    # a registry of qsym:2 would answer for sym:2 with qsym:2's types
    with pytest.raises(InputError,
                       match="^the registry classifies another template$"):
        REGISTRY_ENTRY_POINTS[name](sym(2), TypeRegistry(qsym(2)))


@pytest.mark.parametrize("name", sorted(REGISTRY_ENTRY_POINTS))
def test_a_registry_of_an_equal_template_is_accepted(name):
    call = REGISTRY_ENTRY_POINTS[name]
    assert call(sym(3), TypeRegistry(sym(3))) == call(sym(3), None)


def test_profile_cross_checks_subset_types(registries):
    # phi(n) equals the number of canonical codes among the n-subsets of a
    # fat instantiation
    for name in ("clique_plus_coclique", "wheel_plus_coclique", "groupoid"):
        t, registry = registries(name)
        for n in range(5):
            big = instantiate(t, t.max_composition(n))
            assert registry.profile(n) == len(subset_types(big, n))


def test_registry_agrees_with_pure_code_classification():
    # the registry buckets by deck and top counts and settles with witnesses
    # and codes; classifying every composition by its canonical code must
    # coincide
    rng = random.Random(31415)
    for _ in range(8):
        t = random_template(rng, 0.45)
        registry = TypeRegistry(t)
        for n in range(6):
            by_registry = {}
            for comp in compositions(t, n):
                by_registry.setdefault(registry.id_of(comp), []).append(comp)
            assert list(by_registry.values()) == code_classes(t, n)


def test_missed_isomorphism_is_a_consistency_error(miss_every_isomorphism):
    # (1,0) and (0,1) of qsym:2 instantiate to isomorphic, unequal structures,
    # and no block automorphism relates them (the arcs run from b1 to b2):
    # if the witness extension misses that and the map composed from their
    # equal codes' labellings fails its check too, that is a library bug
    assert _block_automorphisms(qsym(2)) == []
    with pytest.raises(ConsistencyError):
        TypeRegistry(qsym(2)).types_at(2)


def test_orbit_route_needs_no_isomorphism_check(miss_every_isomorphism):
    # every pair of isomorphic compositions of sym:2 is swapped by the block
    # swap, so the registry classifies them with every check missing
    registry = TypeRegistry(sym(2))
    assert [[e.reps for e in registry.types_at(n)] for n in range(4)] == [
        [[(0, 0)]],
        [[(0, 1), (1, 0)]],
        [[(0, 2), (2, 0)], [(1, 1)]],
        [[(0, 3), (3, 0)], [(1, 2), (2, 1)]]]
    assert_witnesses_are_isomorphisms(registry, 3)


# ---------------------------------------------------------------------------
# isomorphism witnesses and the finite-structure registry

def support(comp):
    return [x for x, d in enumerate(comp) if d]


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example(FiniteRelStruct(ARC, 7, {"arc": []}))
@example(FiniteRelStruct(ARC, 7, {"arc": [(x, (x + 1) % 7) for x in range(7)]}))
@example(FiniteRelStruct(ARC, 3, {"arc": [(0, 1), (2, 1)]}))
def test_finite_registry_matches_subset_codes(s):
    # the subsets of each size, grouped by the canonical code of the
    # substructure they induce, in order of first appearance, are the types;
    # every witness maps its subset's structure onto its type's first one
    t = present(s)
    registry = TypeRegistry(t)
    for n in range(s.size + 1):
        types = registry.types_at(n)
        assert [e.reps for e in types] == code_classes(
            t, n, lambda comp: restrict(s, support(comp)))
        for e in types:
            first = restrict(s, support(e.reps[0]))
            for comp in e.reps:
                witness = registry._witness[comp]
                assert relabel(restrict(s, support(comp)), witness) == first


def candidate_pairs(registry, degree):
    """(comp, entry) for every composition of degree 1..degree and every
    type of its degree, with the registry built through `degree`."""
    registry.ensure_degree(degree)
    for n in range(1, degree + 1):
        for comp in compositions(registry.template, n):
            for entry in registry.types_at(n):
                yield comp, entry


def delta_outcomes(registry, degree):
    """(delta check, full check) for every candidate that `_extensions`
    yields from a composition of degree 1..degree onto the first
    composition of any type of its degree."""
    t = registry.template
    out = []
    for comp, entry in candidate_pairs(registry, degree):
        s = instantiate(t, comp)
        for i, j, perm in registry._extensions(comp, entry):
            delta = maps_onto(
                spans_through(t, block_spans(comp), i),
                [frozenset(r) for r in
                 spans_through(t, block_spans(entry.reps[0]), j)],
                perm)
            out.append((delta, maps_onto(s.rels, entry.struct.rels, perm)))
    return out


def full_permutation_extensions(registry, comp, rep):
    """The candidate enumeration that the per-type extension tables
    replaced: tau^-1 rebuilt for every block j of rep, and each candidate
    assembled element by element.  Kept as the oracle for the
    (i, j, bijection) sequence of `TypeRegistry._extensions`."""
    ids, witness = registry._comp_id, registry._witness
    by_rest_type = {}
    for j, d in enumerate(rep):
        if d:
            rest = rep[:j] + (d - 1,) + rep[j + 1:]
            tau_inv = [0] * len(witness[rest])
            for x, y in enumerate(witness[rest]):
                tau_inv[y] = x
            by_rest_type.setdefault(ids[rest], []).append(
                (j, sum(rep[:j + 1]) - 1, tau_inv))
    for i, d in enumerate(comp):
        if not d:
            continue
        rest = comp[:i] + (d - 1,) + comp[i + 1:]
        p = sum(comp[:i + 1]) - 1
        for j, q, tau_inv in by_rest_type.get(ids[rest], ()):
            perm = [q] * (len(tau_inv) + 1)
            for x, y in enumerate(witness[rest]):
                y = tau_inv[y]
                perm[x + (x >= p)] = y + (y >= q)
            yield i, j, perm


def assert_extensions_match_oracle(registry, degree):
    for comp, entry in candidate_pairs(registry, degree):
        assert list(registry._extensions(comp, entry)) == list(
            full_permutation_extensions(registry, comp, entry.reps[0]))


@pytest.mark.parametrize("t", [sym(3), qsym(3), rqsym(3, 2)],
                         ids=["sym:3", "qsym:3", "rqsym:3:2"])
def test_extensions_match_the_full_permutation_oracle_on_templates(t):
    assert_extensions_match_oracle(TypeRegistry(t), 6)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_size=8))
@example(FiniteRelStruct(ARC, 8, {"arc": [(x, (x + 1) % 8) for x in range(8)]}))
@example(FiniteRelStruct(ARC, 8, {"arc": [(0, 1), (2, 1), (1, 1), (5, 7)]}))
def test_extensions_match_the_full_permutation_oracle_on_digraphs(s):
    assert_extensions_match_oracle(TypeRegistry(present(s)), s.size)


@pytest.mark.parametrize("t", [sym(3), qsym(3), rqsym(3, 2)],
                         ids=["sym:3", "qsym:3", "rqsym:3:2"])
def test_delta_check_agrees_with_full_check_on_templates(t):
    outcomes = delta_outcomes(TypeRegistry(t), 6)
    assert all(delta == full for delta, full in outcomes)
    assert {full for _, full in outcomes} == {False, True}


@settings(max_examples=60, deadline=None)
@given(digraphs())
@example(FiniteRelStruct(ARC, 7, {"arc": [(x, (x + 1) % 7) for x in range(7)]}))
@example(FiniteRelStruct(ARC, 3, {"arc": [(0, 1), (2, 1), (1, 1)]}))
def test_delta_check_agrees_with_full_check_on_random_digraphs(s):
    for delta, full in delta_outcomes(TypeRegistry(present(s)), s.size):
        assert delta == full


# ---------------------------------------------------------------------------
# block automorphisms and the orbit route


def brute_force_automorphisms(t):
    """Every permutation a of the blocks but the identity that keeps the
    capacities and maps each relation's accepted patterns into, and so, as
    a bijection, onto themselves."""
    caps = t.capacities
    accepted = [{(p.blocks, p.ranks) for p in pats} for pats in t.accepted]
    blocks = range(len(caps))
    return {tuple(a.values()) for a in bijections(blocks, blocks)
            if all(caps[a[b]] == caps[b] for b in blocks)
            and all((tuple(a[b] for b in bs), ranks) in pats
                    for pats in accepted for bs, ranks in pats)
            } - {tuple(blocks)}


def generated_group(gens, k):
    """The permutations of range(k) that gens generate, but the identity."""
    identity = tuple(range(k))
    group, frontier = {identity}, [identity]
    for g in frontier:
        for a in gens:
            h = tuple(g[x] for x in a)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group - {identity}


def assert_witnesses_are_isomorphisms(registry, degree):
    """Every witness through `degree` maps the structure of its composition
    onto that of its type's first composition."""
    t = registry.template
    for n in range(degree + 1):
        for e in registry.types_at(n):
            first = instantiate(t, e.reps[0])
            for comp in e.reps:
                assert relabel(instantiate(t, comp),
                               registry._witness[comp]) == first, comp


def test_every_witness_is_a_tuple_and_an_isomorphism():
    # the orbit route, the delta route and the code route all store tuples
    sources = [(sym(3), 8), (c3_chains(), 8), (groupoid_example(), 8),
               (present(planted_digraph(
                   8, ["chain", "clique"], {(0, 1): "forward"}, [])), 8)]
    for t, degree in sources:
        registry = TypeRegistry(t)
        registry.ensure_degree(degree)
        assert all(type(w) is tuple for w in registry._witness.values())
        assert_witnesses_are_isomorphisms(registry, degree)


# templates on at most 5 blocks with mixed capacities and 1-2 symbols of
# arity 1-3; half of them are closed under a random permutation of the
# blocks, which is then one of their automorphisms
SYMMETRIC_TEMPLATES = random_templates(
    5, arities=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
    max_patterns=6, symmetric=True)
ORBIT_SOURCES = {**{name: g.build for name, g in GALLERY.items()},
                 "c3_chains": c3_chains, "rqsym:3:2": lambda: rqsym(3, 2)}


@pytest.mark.parametrize("name", sorted(ORBIT_SOURCES))
def test_automorphisms_match_brute_force(name):
    t = ORBIT_SOURCES[name]()
    assert generated_group(_block_automorphisms(t), len(t.blocks)) == \
        brute_force_automorphisms(t)


# a circulant digraph on at most 8 elements, or a 3-regular graph on 4, 6
# or 8: regular digraphs, whose refinement splits nothing at the root
CIRCULANT_OR_CUBIC = digraphs(1, 8, ("circulant",)) | st.builds(
    cubic_graph, st.integers(0, 2 ** 16), st.sampled_from([4, 6, 8]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(SYMMETRIC_TEMPLATES, digraphs(1, 6).map(present),
                 CIRCULANT_OR_CUBIC.map(present)))
def test_automorphisms_match_brute_force_on_random_templates(t):
    gens = _block_automorphisms(t)
    assert generated_group(gens, len(t.blocks)) == brute_force_automorphisms(t)
    assert len(gens) < len(t.blocks)


def assert_orbit_route_matches_delta_route(monkeypatch, t, degree):
    """ids, decks, reps and leads equal those of a registry without block
    automorphisms, and every witness is an isomorphism."""
    orbit = TypeRegistry(t)
    orbit.ensure_degree(degree)
    with monkeypatch.context() as m:
        m.setattr(agealg.algebra, "_block_automorphisms", lambda t: [])
        delta = TypeRegistry(t)
    assert not delta._automorphisms
    delta.ensure_degree(degree)
    assert orbit._comp_id == delta._comp_id
    for n in range(degree + 1):
        assert [(e.id, e.deck, e.reps, e.lead) for e in orbit.types_at(n)] \
            == [(e.id, e.deck, e.reps, e.lead) for e in delta.types_at(n)]
    assert_witnesses_are_isomorphisms(orbit, degree)


@pytest.mark.parametrize("name", sorted(ORBIT_SOURCES))
def test_orbit_route_matches_delta_route(monkeypatch, name):
    assert_orbit_route_matches_delta_route(
        monkeypatch, ORBIT_SOURCES[name](), 7)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("steps", [(1,), (1, 2)])
def test_orbit_route_matches_delta_route_on_circulants(monkeypatch, n, steps):
    # the circulants whose witnesses depend on the generators found
    assert_orbit_route_matches_delta_route(
        monkeypatch, present(circulant(n, steps)), n)


@settings(max_examples=40, deadline=None)
@given(SYMMETRIC_TEMPLATES)
def test_orbit_route_matches_delta_route_on_random_templates(t):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_orbit_route_matches_delta_route(monkeypatch, t, 5)


def test_orbit_route_spares_delta_checks(monkeypatch):
    # 1,263 delta checks when every composition of sym:4 took the delta
    # route; its orbit-mates now take the type of the first of them
    calls = Counter()

    def counted(*args, _fn=agealg.algebra.maps_onto):
        calls["maps_onto"] += 1
        return _fn(*args)
    monkeypatch.setattr(agealg.algebra, "maps_onto", counted)
    TypeRegistry(sym(4)).ensure_degree(10)
    assert calls["maps_onto"] <= 10


# ---------------------------------------------------------------------------
# top counts: the tuples that the deck cannot see


class DeckOnlyRegistry(TypeRegistry):
    """The registry with its buckets keyed on the deck alone, as they were
    before the top counts joined the key: the oracle for the finer buckets.
    Buckets are per degree, so empty top counts partition by the deck."""

    def _top_counts(self, comp):
        return ()


def assert_top_counts_match_deck_only(t, degree):
    """ids, decks, reps, leads and witnesses equal those of the deck-only
    registry."""
    registry, oracle = TypeRegistry(t), DeckOnlyRegistry(t)
    registry.ensure_degree(degree)
    oracle.ensure_degree(degree)
    assert registry._comp_id == oracle._comp_id
    assert registry._witness == oracle._witness
    for n in range(degree + 1):
        assert [(e.id, e.deck, e.reps, e.lead) for e in registry.types_at(n)] \
            == [(e.id, e.deck, e.reps, e.lead) for e in oracle.types_at(n)]


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_top_counts_match_deck_only_on_the_gallery(name):
    assert_top_counts_match_deck_only(GALLERY[name].build(), 7)


@settings(max_examples=60, deadline=None)
@given(SYMMETRIC_TEMPLATES)
def test_top_counts_match_deck_only_on_random_templates(t):
    assert_top_counts_match_deck_only(t, 5)


@settings(max_examples=40, deadline=None)
@given(digraphs())
@example(FiniteRelStruct(ARC, 7, {"arc": [(x, (x + 1) % 7) for x in range(7)]}))
@example(FiniteRelStruct(ARC, 4, {"arc": [(0, 1), (1, 0), (2, 3), (2, 2)]}))
def test_top_counts_match_deck_only_on_random_digraphs(s):
    assert_top_counts_match_deck_only(present(s), s.size)


def test_top_counts_match_deck_only_on_census_templates(census_plan):
    for _, _, t in census_plan(0):
        assert_top_counts_match_deck_only(t, 6)


@settings(max_examples=100, deadline=None)
@given(SYMMETRIC_TEMPLATES)
@example(rqsym(2, 1))
def test_top_counts_count_the_tuples_that_cover_every_element(t):
    # the tuples of the instantiation whose entries are all its elements,
    # counted by brute force, relation by relation
    registry = TypeRegistry(t)
    for comp in compositions(t, None, max_degree=4):
        s = instantiate(t, comp)
        assert registry._top_counts(comp) == tuple(
            sum(set(tup) == set(range(s.size)) for tup in rel)
            for rel in s.rels), comp


def test_top_counts_spare_the_code_route(monkeypatch, census_plan):
    # with buckets keyed on the deck alone the code route ran 94 times on
    # the seed-0 census templates to degree 6, 30 of them at degree 1, and
    # 11 times on the gallery to degree 8
    calls = Counter()

    def counted(self, s, bucket, _fn=TypeRegistry._by_code):
        calls[s.size] += 1
        return _fn(self, s, bucket)
    monkeypatch.setattr(TypeRegistry, "_by_code", counted)
    for _, _, t in census_plan(0):
        TypeRegistry(t).ensure_degree(6)
    assert sum(calls.values()) <= 6 and not calls[1]
    calls.clear()
    for entry in GALLERY.values():
        TypeRegistry(entry.build()).ensure_degree(8)
    assert sum(calls.values()) <= 2


# ---------------------------------------------------------------------------
# pinned registry output


def registry_digest(registry, degree, witnesses=True):
    """sha256 over the types of degrees 0..degree, in id order: each one's
    id, deck, realizing compositions, lead and, unless `witnesses` is
    false, the witnesses of those compositions."""
    digest = hashlib.sha256()
    for n in range(degree + 1):
        for e in registry.types_at(n):
            record = (e.id, e.deck, e.reps, e.lead)
            if witnesses:
                record += ([tuple(registry._witness[c]) for c in e.reps],)
            digest.update(repr(record).encode())
    return digest.hexdigest()


PINNED_SOURCES = {
    "sym:4": (lambda: sym(4), 10),
    "groupoid": (groupoid_example, 12),
    "c3_chains": (c3_chains, 10),
    "rqsym:3:2": (lambda: rqsym(3, 2), 8),
    "planted:8": (lambda: present(planted_digraph(
        8, ["chain", "clique"], {(0, 1): "forward"}, [])), 8),
    "planted:9": (lambda: present(planted_digraph(
        9, ["clique", "coclique", "chain"],
        {(0, 1): "back", (0, 2): "none", (1, 2): "both"}, [(0, 4)])), 9),
    "planted:10": (lambda: present(planted_digraph(
        10, ["coclique", "chain", "clique", "coclique"],
        {(0, 1): "forward", (0, 2): "both", (0, 3): "forward",
         (1, 2): "none", (1, 3): "back", (2, 3): "forward"},
        [(1, 6), (9, 3)])), 10),
}
PINNED_DIGESTS = {
    "c3_chains": "8a7d6d1baf2eb1f646c55f8f5b5f598f770695adca27afedd3fec788b4c50f04",
    "groupoid": "52653a68de42330f1ae0d7a692a6923006be4440a4106b97cc690c2d56bf6157",
    "planted:10": "24c2f481c541bc0489ec93bb8256396e8b146fc01e8ebd8649157ce449e3cc1c",
    "planted:8": "462ffae4b6aaf1a89f4fc65abcd3a26d5d23e26f8c781e0241cdfabb1c9b9b60",
    "rqsym:3:2": "70787e5af0073e4ec359a46976716493ee2242aa0c0dac4775bd4337963fbdaf",
}
# sources whose witnesses the orbit route picks differently: the digest
# leaves the witnesses out, and they are checked as isomorphisms instead
PINNED_TYPE_DIGESTS = {
    "planted:9": "9a24f90dba97197bc0bc598cc7579553bcc3872cf924b7630fd56b8b11c2171a",
    "sym:4": "f6e87e5d55879dcd5a029fc3c81129aec28e7015d5c6c4bf66ad69e1ed2e1f23",
}


@pytest.mark.parametrize("name", sorted(PINNED_SOURCES))
def test_registry_output_is_pinned(name):
    # ids, decks, reps, leads and witnesses as the registry produced them
    # before its extension tables were built once per type; a speed-up
    # must leave them unchanged.  The orbit route gives (3, 2, 3, 1) of
    # sym:4 another of its isomorphisms onto (1, 2, 3, 3) than the delta
    # route did, and it reaches the subsets of planted:9 that its
    # automorphisms relate, so there the witnesses are checked, not pinned
    build, degree = PINNED_SOURCES[name]
    registry = TypeRegistry(build())
    if name in PINNED_DIGESTS:
        assert registry_digest(registry, degree) == PINNED_DIGESTS[name]
    else:
        assert registry_digest(registry, degree, witnesses=False) == \
            PINNED_TYPE_DIGESTS[name]
        assert_witnesses_are_isomorphisms(registry, degree)


def count_searches(monkeypatch):
    """Counters of the canonical_code, find_isomorphism and instantiate
    calls made anywhere in the library: every loaded agealg module that
    binds one of those names gets a counting wrapper."""
    counts = Counter()
    for modname, module in list(sys.modules.items()):
        if modname != "agealg" and not modname.startswith("agealg."):
            continue
        for name in ("canonical_code", "find_isomorphism", "instantiate"):
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
    # their level boxes, and 344 instantiations when every composition that
    # shared a deck with an earlier one was instantiated for its check
    assert template_components(sym(4)).classes == ((0,), (1,), (2,), (3,))
    assert counts["canonical_code"] < 26
    assert counts["instantiate"] < 20
    counts.clear()
    # 502 searches when every marked restriction to the center and 1..9
    # leaves was compared with the first one of its size
    assert is_F_monomorphic_up_to(wheel_alone(), {1: 1}, 9)
    assert counts["find_isomorphism"] == 0


def test_profile_bounded_by_composition_count(registries):
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


def bareiss_rank(rows):
    """Rank over the rationals by fraction-free (Bareiss) elimination, the
    oracle for the row elimination of `_int_matrix_rank`."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    rows_n, cols_n = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols_n):
        pivot = next((i for i in range(r, rows_n) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows_n):
            for j in range(c + 1, cols_n):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows_n:
            break
    return r


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda w: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3, -6, 35]), min_size=w,
             max_size=w), max_size=8)))
def test_int_matrix_rank_matches_bareiss(rows):
    assert _int_matrix_rank(rows) == bareiss_rank(rows)


def test_int_matrix_rank_matches_bareiss_on_e_matrices(registries):
    for name in GALLERY:
        t, registry = registries(name)
        for n in range(8):
            rows = _e_rows(registry, n)
            assert _int_matrix_rank(rows) == bareiss_rank(rows)


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
