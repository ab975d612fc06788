"""Monomorphic parts and minimal decompositions against exhaustive oracles."""

import itertools
import operator
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agealg.algebra
import agealg.decomposition
from agealg.algebra import TypeRegistry
from agealg.decomposition import (_UnionFind, _coarsening, _is_part,
                                  _pair_verdicts, _presentation, _presents,
                                  _twin_classes,
                                  is_F_monomorphic_struct,
                                  is_F_monomorphic_up_to, is_monomorphic_part,
                                  minimal_decomposition, pair_mergeable,
                                  template_components)
from agealg.errors import ConsistencyError, InputError
from agealg.hilbert import partition_lower_bound
from agealg.structures import (FiniteRelStruct, Signature, find_isomorphism,
                               restrict)
from agealg.templates import (INF, block_spans, clique_plus_coclique,
                              clique_sum, coclique, groupoid_example,
                              instantiate, lex_sum, present, qsym, rqsym,
                              subcompositions, sym, wheel_plus_coclique)
from agealg.verify import random_template
from strategies import (ARC, GRAPH, MARKED, SIGNATURE_ARITIES, TERNARY,
                        bijections, cubic_graph, digraphs, graph,
                        lex_sum_structure, near_equal_blocks, paley_graph,
                        partitions_into_at_most, planted,
                        presents_by_building, random_structure,
                        random_templates, subset_code, to_networkx,
                        wheel_alone)


def oracle_part(s, part):
    """Definition-level oracle: pairs of equal-size subsets with the same
    trace outside the part must be isomorphic (decided by networkx)."""
    part = set(part)
    for a in itertools.chain.from_iterable(
            itertools.combinations(range(s.size), m) for m in range(s.size + 1)):
        for b in itertools.chain.from_iterable(
                itertools.combinations(range(s.size), m) for m in range(s.size + 1)):
            if len(a) != len(b):
                continue
            if set(a) - part != set(b) - part:
                continue
            if not nx.is_isomorphic(to_networkx(restrict(s, a)),
                                    to_networkx(restrict(s, b))):
                return False
    return True


def subset_pair_mergeable(s, a, b):
    """The pair test over subsets: every B avoiding a and b has
    B+{a} isomorphic to B+{b}."""
    rest = [x for x in range(s.size) if x not in (a, b)]
    return all(subset_code(s, back + (a,)) == subset_code(s, back + (b,))
               for size in range(len(rest) + 1)
               for back in itertools.combinations(rest, size))


def subset_is_part(s, part):
    """The part test over subsets: for every trace B outside the part, the
    nonempty inside subsets of one size give one type."""
    part = sorted(set(part))
    rest = [x for x in range(s.size) if x not in part]
    for size in range(len(rest) + 1):
        for back in itertools.combinations(rest, size):
            for j in range(1, len(part) + 1):
                codes = {subset_code(s, back + inside)
                         for inside in itertools.combinations(part, j)}
                if len(codes) > 1:
                    return False
    return True


def test_singletons_are_always_parts():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(2, 5)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.4]
        s = graph(n, edges)
        for v in range(n):
            assert is_monomorphic_part(s, [v])


def test_clique_side_is_a_part():
    s = instantiate(clique_plus_coclique(), (3, 3))
    assert is_monomorphic_part(s, [0, 1, 2])
    assert oracle_part(s, [0, 1, 2])


def test_center_plus_leaf_is_not_a_part():
    # star on {center, three leaves}: B = two leaves separates
    s = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_monomorphic_part(s, [0, 1])
    assert not oracle_part(s, [0, 1])


def test_pair_mergeable_examples():
    s = instantiate(clique_sum(2), (2, 2))
    assert pair_mergeable(s, 0, 1)
    t = instantiate(clique_plus_coclique(), (2, 2))
    assert not pair_mergeable(t, 0, 2)
    with pytest.raises(InputError):
        pair_mergeable(t, 1, 1)


def test_minimal_decomposition_k3():
    assert minimal_decomposition(graph(3, [(0, 1), (0, 2), (1, 2)])) == [[0, 1, 2]]


def test_minimal_decomposition_wheel():
    s = instantiate(wheel_plus_coclique(), (3, 3, 1))
    assert minimal_decomposition(s) == [[0, 1, 2], [3, 4, 5], [6]]


def test_minimal_decomposition_two_disjoint_edges():
    # B = {partner of a} separates a from both vertices of the other edge,
    # so the two edges are distinct blocks (exhaustive oracle agrees)
    s = graph(4, [(0, 1), (2, 3)])
    assert not oracle_part(s, [0, 2])
    assert minimal_decomposition(s) == [[0, 1], [2, 3]]


def test_minimal_decomposition_agrees_with_oracle_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(8):
        n = rng.randint(3, 5)
        s = graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.5])
        blocks = minimal_decomposition(s)
        for block in blocks:
            assert oracle_part(s, block)
        # maximality: no union of two blocks is again a part
        for b1, b2 in itertools.combinations(blocks, 2):
            assert not oracle_part(s, b1 + b2)


@settings(max_examples=100, deadline=None)
@given(digraphs(1, 6), st.data())
def test_decomposition_matches_subset_oracles_on_random_digraphs(s, data):
    part = data.draw(st.lists(st.integers(0, s.size - 1), unique=True,
                              max_size=s.size))
    blocks = minimal_decomposition(s)
    assert sorted(x for block in blocks for x in block) == list(range(s.size))
    owner = {x: i for i, block in enumerate(blocks) for x in block}
    for a, b in itertools.combinations(range(s.size), 2):
        mergeable = subset_pair_mergeable(s, a, b)
        assert pair_mergeable(s, a, b) == mergeable
        assert (owner[a] == owner[b]) == mergeable
    for block in blocks:
        assert is_monomorphic_part(s, block)
        assert subset_is_part(s, block)
        assert oracle_part(s, block)
    for b1, b2 in itertools.combinations(blocks, 2):
        assert not subset_is_part(s, b1 + b2)
    assert is_monomorphic_part(s, part) == subset_is_part(s, part) \
        == oracle_part(s, part)


def test_missed_subset_isomorphism_is_a_consistency_error(
        miss_every_isomorphism):
    # 0 -> 1 <- 2 is presented by the blocks {0, 2} and {1}, whose degree-1
    # compositions (1, 0) and (0, 1) are single points with one deck; on the
    # exhaustive route the subsets {0, 1} and {1, 2} induce isomorphic,
    # unequal structures with one deck.  If the witness extension misses
    # such a pair and the map composed from their equal codes' labellings
    # fails its check too, that is a library bug on either route
    s = FiniteRelStruct(GRAPH, 3, {"adj": [(0, 1), (2, 1)]})
    assert _presentation(s)[1] == [[0, 2], [1]]
    assert restrict(s, [0, 1]) != restrict(s, [1, 2])
    with pytest.raises(ConsistencyError):
        minimal_decomposition(s)
    with pytest.raises(ConsistencyError):
        pair_mergeable(s, 0, 2)


# ---------------------------------------------------------------------------
# the presented route against the route over all subsets


def subset_route(s):
    """The minimal decomposition over all 2^n subsets, classified by the
    type registry of the structure's singleton presentation."""
    return _coarsening((1,) * s.size, TypeRegistry(present(s)).id_of)


ORACLE_CASES = {
    "planted": [planted(random.Random(i), 8 + i % 5, 2 + i % 3, 0)
                for i in range(5)],
    "noisy": [planted(random.Random(10 + i), 8 + i % 5, 2 + i % 3, 1 + i % 3)
              for i in range(5)],
    "random": [random_structure(random.Random(20 + i), 6 + i, density=0.4)
               for i in range(5)],
    "unary-binary": [planted(random.Random(30 + i), 7 + i, 3, i % 2, MARKED)
                     for i in range(4)],
    "ternary": [planted(random.Random(40 + i), 6 + i % 2, 2 + i % 2, i % 2,
                        TERNARY) for i in range(4)]
    + [instantiate(lex_sum(
        FiniteRelStruct(TERNARY, 2, {"between": [(0, 1, 0)]}),
        ["chain", "clique"], [INF, INF]), (3, 3))],
    "4-ary": [instantiate(rqsym(2, 2), comp) for comp in ((3, 2), (2, 3))],
    "tiny": [FiniteRelStruct(ARC, 0, {}), FiniteRelStruct(ARC, 1, {}),
             FiniteRelStruct(ARC, 1, {"arc": [(0, 0)]})],
}

# {0, 2, 3} is one twin class; its orders (2, 0, 3) and (3, 0, 2) present
# the tuples, but the order its degrees pick does not
UNPRESENTABLE = FiniteRelStruct(
    TERNARY, 4, {"between": [(0, 2, 1), (3, 0, 1), (3, 2, 1)]})
# {0, 1, 2, 3} is one twin class, and no order of it presents the tuples
UNORDERABLE = FiniteRelStruct(
    TERNARY, 4, {"between": [(0, 2, 1), (3, 0, 1), (3, 2, 0), (3, 2, 1)]})


def presenting_orders(s):
    """Every ordering of the twin classes of `s` under which they present
    it, by building the tuples of each."""
    return [classes for classes in map(list, itertools.product(
                *(map(list, itertools.permutations(cls))
                  for cls in _twin_classes(s))))
            if presents_by_building(s, present(s, classes), classes)]


@pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
def test_presented_route_matches_the_subset_route(kind):
    for s in ORACLE_CASES[kind]:
        assert minimal_decomposition(s) == subset_route(s)


def test_unverified_presentation_takes_the_subset_route():
    assert len(_twin_classes(UNPRESENTABLE)) == 2
    assert _presentation(UNPRESENTABLE) == (
        present(UNPRESENTABLE), [[0], [1], [2], [3]])
    assert minimal_decomposition(UNPRESENTABLE) == subset_route(UNPRESENTABLE)
    assert presenting_orders(UNPRESENTABLE) == [[[2, 0, 3], [1]],
                                                [[3, 0, 2], [1]]]


def test_structure_that_no_order_presents_takes_the_subset_route():
    assert _twin_classes(UNORDERABLE) == [[0, 1, 2, 3]]
    assert presenting_orders(UNORDERABLE) == []
    assert _presentation(UNORDERABLE) == (
        present(UNORDERABLE), [[0], [1], [2], [3]])
    assert minimal_decomposition(UNORDERABLE) == subset_route(UNORDERABLE)


def test_noise_free_inputs_are_presented():
    for kind in ("planted", "4-ary"):
        for s in ORACLE_CASES[kind]:
            t, classes = _presentation(s)
            assert presents_by_building(s, t, classes)


def infinite_templates(max_blocks):
    """Templates on up to `max_blocks` infinite blocks with up to five
    patterns per symbol, over the arities of ARC, MARKED or TERNARY."""
    return random_templates(max_blocks, st.just(INF),
                            st.sampled_from(SIGNATURE_ARITIES), max_patterns=5)


@st.composite
def templated_structure(draw):
    """The instantiation of a random template on at most 4 blocks with up to
    two random tuples toggled."""
    t = draw(infinite_templates(4))
    sig = t.signature
    comp = draw(st.tuples(*[st.integers(0, 3)] * len(t.blocks)))
    s = instantiate(t, comp)
    rels = [set(r) for r in s.rels]
    if s.size:
        for _ in range(draw(st.integers(0, 2))):
            si = draw(st.integers(0, len(rels) - 1))
            rels[si] ^= {tuple(draw(st.integers(0, s.size - 1))
                               for _ in range(sig.symbols[si][1]))}
    return FiniteRelStruct(sig, s.size, rels)


@settings(max_examples=120, deadline=None)
@given(templated_structure())
@example(UNPRESENTABLE)
@example(FiniteRelStruct(MARKED, 0, {}))
def test_presented_route_matches_the_subset_route_on_random_templates(s):
    t, classes = _presentation(s)
    assert sorted(x for cls in classes for x in cls) == list(range(s.size))
    assert t.capacities == tuple(map(len, classes))
    assert minimal_decomposition(s) == subset_route(s)


@st.composite
def randomly_ordered_twin_classes(draw):
    """(s, the twin classes of s, each in a random order), s a structure
    over ARC, MARKED or TERNARY, or over their arities: a planted sum of
    two or three blocks, a toggled instantiation, or a random digraph."""
    s = draw(st.builds(planted, st.randoms(use_true_random=False),
                       st.integers(4, 8), st.integers(2, 3), st.just(0),
                       st.sampled_from([ARC, MARKED, TERNARY]))
             | templated_structure() | digraphs(1, 8))
    return s, [draw(st.permutations(cls)) for cls in _twin_classes(s)]


@settings(max_examples=200, deadline=None)
@given(randomly_ordered_twin_classes())
@example((UNPRESENTABLE, [[0, 2, 3], [1]]))
@example((UNPRESENTABLE, [[2, 0, 3], [1]]))
@example((UNORDERABLE, [[0, 1, 2, 3]]))
def test_presentation_count_matches_the_built_tuples(case):
    # a random order of a class with a chain inside it mostly fails the
    # check, so both verdicts are drawn
    s, classes = case
    t = present(s, classes)
    assert _presents(s, t) == presents_by_building(s, t, classes)


def all_pairs_twin_classes(struct):
    """`_twin_classes` testing every pair, not only those of equal tuple
    counts."""
    occurrences = struct._occurrences()
    rels = struct.rels

    def twins(x, y):
        for a, b in ((x, y), (y, x)):
            for si, _, t in occurrences[a]:
                if b not in t and tuple(
                        b if v == a else v for v in t) not in rels[si]:
                    return False
        return True

    uf = _UnionFind(struct.size)
    for x, y in itertools.combinations(range(struct.size), 2):
        if uf.find(x) != uf.find(y) and twins(x, y):
            uf.union(x, y)
    classes = {}
    for x in range(struct.size):
        classes.setdefault(uf.find(x), []).append(x)
    return list(classes.values())


@settings(max_examples=200, deadline=None)
@given(templated_structure() | digraphs(1, 8))
@example(UNPRESENTABLE)
def test_twin_classes_match_the_all_pairs_oracle(s):
    assert _twin_classes(s) == all_pairs_twin_classes(s)


def test_twin_classes_match_the_all_pairs_oracle_on_the_oracle_cases():
    for s in itertools.chain(*ORACLE_CASES.values()):
        assert _twin_classes(s) == all_pairs_twin_classes(s)


def test_failed_verification_takes_the_subset_route(monkeypatch):
    s = ORACLE_CASES["planted"][0]
    expected = minimal_decomposition(s)
    sources = []

    def recording(source):
        sources.append(source)
        return TypeRegistry(source)
    monkeypatch.setattr(agealg.decomposition, "TypeRegistry", recording)
    monkeypatch.setattr(agealg.decomposition, "_presents",
                        lambda struct, t: False)
    singletons = present(s), [[x] for x in range(s.size)]
    assert _presentation(s) == singletons
    assert minimal_decomposition(s) == expected
    assert sources == [singletons[0]]


def planted_16():
    """16 elements in four planted blocks of four, scattered: a chain, a
    clique, a coclique and a chain, with arcs from every block to the
    blocks after it and from the last block back to the first."""
    blocks = near_equal_blocks(random.Random(16).sample(range(16), 16), 4)
    links = list(itertools.combinations(range(4), 2)) + [(3, 0)]
    return lex_sum_structure(ARC, blocks, ("chain", "clique", "coclique", "chain"),
                             links), blocks


def test_presentation_spares_the_subsets(monkeypatch):
    s, blocks = planted_16()
    classified = Counter()
    compositions = agealg.algebra.compositions

    def counted(t, n):
        for comp in compositions(t, n):
            classified["compositions"] += 1
            yield comp
    monkeypatch.setattr(agealg.algebra, "compositions", counted)
    codes = Counter()
    canonical = agealg.algebra.canonical_code

    def counted_code(struct):
        codes["calls"] += 1
        return canonical(struct)
    monkeypatch.setattr(agealg.algebra, "canonical_code", counted_code)
    assert minimal_decomposition(s) == sorted(map(sorted, blocks))
    # the route over all subsets classifies 2^16 = 65,536 compositions
    # (both routes make 14 canonical codes, the witnesses spare the rest)
    assert classified["compositions"] <= 5 ** 4
    assert codes["calls"] <= 30


def per_pair_coarsening(comp, type_of):
    """`_coarsening` with each pair of blocks tested on its own: the c' <=
    comp - e_i - e_j of one pair go degree by degree up to its first
    difference, and the classes are the union of the mergeable pairs."""
    def mergeable(i, j):
        rest = [d - (b in (i, j)) for b, d in enumerate(comp)]
        return all(type_of(c[:i] + (c[i] + 1,) + c[i + 1:])
                   == type_of(c[:j] + (c[j] + 1,) + c[j + 1:])
                   for m in range(sum(rest) + 1)
                   for c in subcompositions(rest, m))

    classes = [{b} for b in range(len(comp))]
    for i, j in itertools.combinations(range(len(comp)), 2):
        if mergeable(i, j):
            a, b = (next(cls for cls in classes if x in cls) for x in (i, j))
            if a is not b:
                classes.remove(b)
                a |= b
    classes = sorted(sorted(cls) for cls in classes)
    assert all(_is_part(comp, set(cls), type_of) for cls in classes)
    return classes


def assert_walk_classifies_as_the_oracle(s):
    """The one walk over every pair finds the classes of the per-pair
    oracle and leaves the same compositions in its registry."""
    t, _ = _presentation(s)
    walk, oracle = TypeRegistry(t), TypeRegistry(t)
    assert _coarsening(t.capacities, walk.id_of) \
        == per_pair_coarsening(t.capacities, oracle.id_of)
    assert walk._comp_id.keys() == oracle._comp_id.keys()


@settings(max_examples=60, deadline=None)
@given(digraphs(1, 7))
def test_one_walk_classifies_as_the_per_pair_tests(s):
    assert_walk_classifies_as_the_oracle(s)


def test_one_walk_classifies_as_the_per_pair_tests_on_larger_digraphs():
    assert_walk_classifies_as_the_oracle(planted_16()[0])
    assert_walk_classifies_as_the_oracle(
        random_structure(random.Random(14), 14, density=0.5))


def test_decompositions_classify_only_the_degrees_they_need(monkeypatch):
    classified = Counter()
    compositions = agealg.algebra.compositions

    def counted(t, n):
        for comp in compositions(t, n):
            classified[n] += 1
            yield comp
    monkeypatch.setattr(agealg.algebra, "compositions", counted)
    s, blocks = planted_16()
    assert minimal_decomposition(s) == sorted(map(sorted, blocks))
    # every pair of blocks differs by degree 2, and a class of one block
    # passes its part test without a type: the 1 + 4 + 10 compositions of
    # degree at most 2 are classified
    assert sum(classified.values()) <= 20
    # an asymmetric digraph has a witness against each pair at a low degree
    # (here 2, where c' in plain lex order would reach 4), and its 2^14
    # subsets reach degree 14
    classified.clear()
    s = random_structure(random.Random(14), 14, density=0.5)
    assert not agealg.algebra._block_automorphisms(present(s))
    assert minimal_decomposition(s) == [[x] for x in range(14)]
    assert max(classified) <= 3


@pytest.mark.parametrize("s", [cubic_graph(0, 20), cubic_graph(0, 30),
                               paley_graph(13)],
                         ids=["cubic20", "cubic30", "paley13"])
def test_regular_graphs_decompose_into_singletons(s):
    # rigid or vertex-transitive, these regular graphs give refinement
    # nothing to split at the root, so the block automorphisms of their
    # presentations take a search that refines after each choice; one that
    # does not is exponential on the rigid cubic graphs
    assert minimal_decomposition(s) == [[x] for x in range(s.size)]


# ---------------------------------------------------------------------------
# the pair and part tests against their plain enumerations


def lex_mergeable(comp, i, j, type_of):
    """The pair test over c' <= comp - e_i - e_j in plain lex order: the
    comparisons that `_pair_verdicts` makes for the pair (i, j), degree by
    degree."""
    def plus(up, other):
        # c' + e_up for every c' <= comp - e_up - e_other
        return itertools.product(*(range(b == up, d + (b != other))
                                   for b, d in enumerate(comp)))
    return all(type_of(x) == type_of(y)
               for x, y in zip(plus(i, j), plus(j, i)))


def grouped_is_part(comp, cls, type_of):
    """The part test over every size group of inside counts, where
    `_is_part` skips the groups of one count."""
    inside = tuple(d if b in cls else 0 for b, d in enumerate(comp))
    outside = tuple(d - x for d, x in zip(comp, inside))
    by_size = {}
    for c_in in itertools.product(*(range(d + 1) for d in inside)):
        if any(c_in):
            by_size.setdefault(sum(c_in), []).append(c_in)
    for c_out in itertools.product(*(range(d + 1) for d in outside)):
        for group in by_size.values():
            if len({type_of(tuple(map(operator.add, c_out, c_in)))
                    for c_in in group}) > 1:
                return False
    return True


@st.composite
def labelled_composition(draw):
    """(comp, type_of) for a composition of at most 5 blocks, counts at most
    3, labelled one of three ways: 0 except on a few random compositions,
    which are 1, so that differences land at random degrees; by the
    registry of a random template; or by the registry of the presentation
    of a random digraph, with the counts cut to at most 3."""
    kind = draw(st.sampled_from(["bits", "template", "presented"]))
    t = None
    if kind == "presented":
        s = draw(digraphs(1, 5))
        t = draw(st.sampled_from([_presentation(s)[0], present(s)]))
        caps = [min(c, 3) for c in t.capacities]
    elif kind == "template":
        t = draw(infinite_templates(5))
        caps = [3] * len(t.blocks)
    else:
        caps = [3] * draw(st.integers(1, 5))
    comp = tuple(draw(st.integers(0, c)) for c in caps)
    if t is not None:
        return comp, TypeRegistry(t).id_of
    subs = list(itertools.product(*(range(d + 1) for d in comp)))
    ones = draw(st.sets(st.sampled_from(subs), max_size=4))
    return comp, lambda c: int(c in ones)


@settings(max_examples=150, deadline=None)
@given(labelled_composition())
def test_pair_and_part_tests_match_their_plain_enumerations(case):
    comp, type_of = case
    blocks = range(len(comp))
    pairs = list(itertools.permutations(blocks, 2))
    assert _pair_verdicts(comp, type_of, pairs) == {
        (i, j): lex_mergeable(comp, i, j, type_of) for i, j in pairs}
    for size in range(len(comp) + 1):
        for cls in itertools.combinations(blocks, size):
            assert _is_part(comp, set(cls), type_of) \
                == grouped_is_part(comp, set(cls), type_of)


# ---------------------------------------------------------------------------
# goodness axioms


def test_subset_axiom():
    s = instantiate(clique_plus_coclique(), (3, 2))
    assert is_monomorphic_part(s, [0, 1, 2])
    for sub in itertools.combinations([0, 1, 2], 2):
        assert is_monomorphic_part(s, sub)


def test_union_axiom_on_random_graphs():
    rng = random.Random(31337)
    for _ in range(6):
        n = rng.randint(3, 5)
        s = graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.5])
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(n), m) for m in (1, 2, 3)))
        good = [set(f) for f in subsets if is_monomorphic_part(s, f)]
        for f1, f2 in itertools.combinations(good, 2):
            if f1 & f2:
                assert is_monomorphic_part(s, f1 | f2)


def test_refinement_law():
    # every partition into monomorphic parts refines the minimal one
    def partitions(elems):
        if not elems:
            yield []
            return
        head, *rest = elems
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1:]
            yield [[head]] + part

    s = instantiate(wheel_plus_coclique(), (2, 2, 1))
    minimal = [set(b) for b in minimal_decomposition(s)]
    for q in partitions(list(range(s.size))):
        if all(is_monomorphic_part(s, block) for block in q):
            for block in q:
                assert any(set(block) <= m for m in minimal)


# ---------------------------------------------------------------------------
# template components and fatness


def test_template_components_examples():
    cases = [
        (clique_plus_coclique(), 2, 2),
        (groupoid_example(), 3, 3),
        (sym(3), 3, 3),
        (wheel_plus_coclique(), 3, 2),
        (qsym(2), 2, 2),
        (coclique(), 1, 1),
    ]
    for t, count, k in cases:
        comps = template_components(t)
        assert comps.count == count
        assert comps.dimension == k


def test_fatness_thresholds_are_small():
    assert template_components(clique_sum(1)).fatness == 1
    assert template_components(wheel_plus_coclique()).fatness <= 3
    assert template_components(groupoid_example()).fatness == 1


def test_fatness_certificate_levels_agree():
    comps = template_components(clique_plus_coclique())
    assert comps.certificate == (comps.fatness, comps.fatness + 1)


def test_fatness_cap_reports_undetermined():
    # the wheel merges leaves with the center at level 1 and separates them
    # at level 2, so a cap of 1 cannot certify stability
    from agealg.errors import UndeterminedError
    with pytest.raises(UndeterminedError):
        template_components(wheel_plus_coclique(), d_max=1)


def test_shape_invariance_on_fat_subsets():
    # isomorphic d-fat subsets of a fat instantiation have equal shape
    t = clique_plus_coclique()
    d = template_components(t).fatness
    s = instantiate(t, (d + 2, d + 2))
    n = s.size
    groups = {}
    for subset in itertools.combinations(range(n), 2 * d + 1):
        counts = (sum(1 for x in subset if x < d + 2),
                  sum(1 for x in subset if x >= d + 2))
        if min(counts) < d:  # not d-fat
            continue
        shape = tuple(sorted(counts, reverse=True))
        groups.setdefault(subset_code(s, subset), set()).add(shape)
    for shapes in groups.values():
        assert len(shapes) == 1


@settings(max_examples=100, deadline=None)
@given(random_templates(max_blocks=4,
                        arities=st.sampled_from([(2,), (3,), (1, 2)])))
def test_components_are_the_parts_of_a_fat_instantiation(t):
    # past the fatness level, the minimal decomposition of the instantiation
    # is the block coarsening: each part is a union of whole blocks, and the
    # parts are the component classes
    comps = template_components(t)
    for level in (comps.fatness + 1, comps.fatness + 2):
        spans = block_spans(t.max_composition(level))
        owner = {x: b for b, (lo, hi) in enumerate(spans) for x in range(lo, hi)}
        parts = minimal_decomposition(instantiate(t, t.max_composition(level)))
        classes = [sorted({owner[x] for x in part}) for part in parts]
        for part, cls in zip(parts, classes):
            assert part == [x for b in cls for x in range(*spans[b])], (level, parts)
        assert sorted(map(tuple, classes)) == sorted(comps.classes), level


# ---------------------------------------------------------------------------
# partition counting


def test_partition_lower_bound_values():
    assert partition_lower_bound(2, 4, 0) == 3  # 4, 3+1, 2+2
    assert partition_lower_bound(3, 0, 0) == 1
    assert all(partition_lower_bound(1, m, 0) == 1 for m in range(6))
    assert partition_lower_bound(2, 3, 5) == 0


def test_partition_lower_bound_oracle():
    for k in (1, 2, 3):
        for m in range(8):
            assert partition_lower_bound(k, m, 0) == partitions_into_at_most(k, m)


def test_partition_lower_bound_into_three_parts_is_the_nearest_integer():
    # p_3(n) is the integer nearest (n + 3)^2 / 12; at n = 3000 a recursion
    # about n / k levels deep passes Python's default recursion limit
    for n in range(3001):
        assert partition_lower_bound(3, n, 0) == round((n + 3) ** 2 / 12)
    assert partition_lower_bound(3, 3005, 5) == 751_501


def test_partition_lower_bound_needs_positive_k():
    with pytest.raises(InputError):
        partition_lower_bound(0, 3, 0)


def test_profile_floor_params_wheel():
    comps = template_components(wheel_plus_coclique())
    assert comps.dimension == 2
    # two infinite components, and the center contributes 1
    assert comps.offset == 2 * comps.fatness + 1


# ---------------------------------------------------------------------------
# F-monomorphy up to a bound


def test_coclique_is_monomorphic():
    assert is_F_monomorphic_up_to(coclique(), {}, 4)


def test_cpc_is_not_almost_monomorphic_at_small_bound():
    t = clique_plus_coclique()
    assert not is_F_monomorphic_up_to(t, {}, 3)
    assert not is_F_monomorphic_up_to(t, {0: 1}, 3)
    assert not is_F_monomorphic_up_to(t, {0: 2, 1: 1}, 3)


def test_wheel_alone_is_center_monomorphic():
    # fixing the center, any two equal-size leaf sets are exchangeable
    t = wheel_alone()
    assert is_F_monomorphic_up_to(t, {1: 1}, 4)
    assert not is_F_monomorphic_up_to(t, {}, 2)


def preserves(s, m):
    """Whether the bijection `m` (a dict from one subset onto another) maps
    the restriction of `s` to its domain onto the restriction to its
    range."""
    return all((t in rel) == (tuple(m[x] for x in t) in rel)
               for (_, arity), rel in zip(s.signature.symbols, s.rels)
               for t in itertools.product(m, repeat=arity))


def brute_F_monomorphic(s, f_set, bound):
    """Oracle: for every n <= bound, the first n-set A avoiding F and every
    other one B admit a bijection A -> B whose extension by the identity on
    F preserves the restrictions to A+F and B+F."""
    fixed = {f: f for f in f_set}
    rest = [x for x in range(s.size) if x not in fixed]
    for n in range(1, min(bound, len(rest)) + 1):
        first, *others = itertools.combinations(rest, n)
        for other in others:
            if not any(preserves(s, {**m, **fixed})
                       for m in bijections(first, other)):
                return False
    return True


def _marked(s, f_set):
    """`s` plus a fresh binary symbol (named F, primed while that name is
    taken) holding the reflexive order of F, so that every element of F has
    a position of its own in each restriction containing F."""
    mark = "F"
    while mark in s.signature.names:
        mark += "'"
    sig = Signature(s.signature.symbols + ((mark, 2),))
    order = [(f, g) for f in f_set for g in f_set if f <= g]
    return FiniteRelStruct(sig, s.size, s.rels + (order,))


def subset_F_monomorphic(s, f_set, bound):
    """Oracle over subsets: for every n <= bound, the restrictions of `s`
    with F marked to A+F, for the n-sets A avoiding F, are pairwise
    isomorphic (decided by `find_isomorphism`)."""
    f_set = sorted(set(f_set))
    marked = _marked(s, f_set)
    rest = [x for x in range(s.size) if x not in f_set]
    for n in range(1, min(bound, len(rest)) + 1):
        subs = (restrict(marked, f_set + list(a))
                for a in itertools.combinations(rest, n))
        ref = next(subs)
        if any(find_isomorphism(ref, sub) is None for sub in subs):
            return False
    return True


@st.composite
def digraph_F_bound(draw):
    """A digraph with loops on up to 6 elements, its relation sometimes
    named F, an F of up to 3 elements and a bound 1..4.  Half the digraphs
    are circulants, whose symmetries make many restrictions isomorphic by
    maps that move F."""
    sig = draw(st.sampled_from([ARC, Signature((("F", 2),))]))
    s = draw(digraphs(1, 6, ("random", "circulant"), sig))
    return s, draw(st.sets(st.integers(0, s.size - 1), max_size=3)), \
        draw(st.integers(1, 4))


# a star whose arcs are the relation F, its center 3 marked by F'
MARKED_STAR = FiniteRelStruct(
    Signature((("F", 2), ("F'", 1))), 4,
    {"F": [(0, 3), (1, 3), (2, 3)], "F'": [(3,)]})


@settings(max_examples=200, deadline=None)
@given(digraph_F_bound())
@example((graph(3, [(0, 1), (1, 2)]), {0}, 2))
# {0, 1} and {0, 2} are isomorphic only by a map that moves 0
@example((FiniteRelStruct(GRAPH, 3, {"adj": [(0, 1), (2, 0)]}), {0}, 1))
@example((MARKED_STAR, {3}, 3))
@example((MARKED_STAR, {0}, 3))
# every tuple lies inside F: the expansion has no relation
@example((graph(4, [(0, 1)]), {0, 1}, 2))
# F is the whole base set
@example((graph(3, [(0, 1), (1, 2)]), {0, 1, 2}, 3))
# the relation named F, an arc from F to each element outside it but one
@example((FiniteRelStruct(Signature((("F", 2),)), 4,
                          {"F": [(0, 1), (0, 2), (0, 0)]}), {0}, 3))
def test_F_monomorphy_matches_brute_force(case):
    s, f_set, bound = case
    answer = is_F_monomorphic_struct(s, f_set, bound)
    assert answer == brute_F_monomorphic(s, f_set, bound)
    assert answer == subset_F_monomorphic(s, f_set, bound)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False),
       st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 3))
def test_template_F_monomorphy_matches_brute_force(rng, f_counts, bound):
    # the box holds f + bound elements of each block, its first f in F
    t = random_template(rng)
    box = tuple(f + bound for f in f_counts)
    s = instantiate(t, box)
    f_set = [x for (lo, _), f in zip(block_spans(box), f_counts)
             for x in range(lo, lo + f)]
    answer = is_F_monomorphic_up_to(t, dict(enumerate(f_counts)), bound)
    assert answer == brute_F_monomorphic(s, f_set, bound)
    assert answer == subset_F_monomorphic(s, f_set, bound)


@pytest.mark.parametrize("call, what", [
    (lambda t: is_F_monomorphic_up_to(t, {1: True}, 4), "F count"),
    (lambda t: is_F_monomorphic_up_to(t, {1: -1}, 4), "F count"),
    (lambda t: is_F_monomorphic_up_to(t, {0: -2}, 4), "F count"),
    (lambda t: is_F_monomorphic_up_to(t, {0: 1.5}, 4), "F count"),
    (lambda t: is_F_monomorphic_up_to(t, {1: 1}, -1), "bound"),
    (lambda t: is_F_monomorphic_up_to(t, {1: 1}, 2.5), "bound"),
    (lambda t: is_F_monomorphic_up_to(instantiate(t, (3, 1)), {3}, -1),
     "bound"),
    (lambda t: is_F_monomorphic_up_to(instantiate(t, (3, 1)), {3}, 2.5),
     "bound"),
    (lambda t: is_F_monomorphic_up_to(instantiate(t, (3, 1)), {3.0}, 2),
     "F element"),
    (lambda t: is_monomorphic_part(instantiate(t, (3, 1)), [0.5]),
     "part element"),
    (lambda t: pair_mergeable(instantiate(t, (3, 1)), True, 2), "element"),
    (lambda t: template_components(t, d_max=0), "d_max"),
    (lambda t: template_components(t, d_max=-1), "d_max"),
    (lambda t: template_components(t, d_max=2.5), "d_max"),
    (lambda t: template_components(t, d_max=True), "d_max"),
    (lambda t: template_components(t, d_max=1.5), "d_max"),
    (lambda t: partition_lower_bound(2, 2.5, 0), "^n must"),
    (lambda t: partition_lower_bound(True, 5, 0), "^k must"),
    (lambda t: partition_lower_bound(2, 5, 1.0), "^n0 must"),
    (lambda t: is_monomorphic_part(instantiate(t, (3, 1)), [4]),
     "^part element out of range"),
    (lambda t: is_F_monomorphic_up_to(t, {2: 1}, 2),
     "^F block index out of range"),
], ids=["bool-count", "negative-count", "negative-infinite-count",
        "fractional-count", "negative-bound", "fractional-bound",
        "negative-bound-struct", "fractional-bound-struct",
        "fractional-F-element", "fractional-part", "bool-pair-element",
        "d-max-0", "d-max-negative", "fractional-d-max", "bool-d-max",
        "fractional-d-max-components", "fractional-partition-n",
        "bool-partition-k", "fractional-partition-n0",
        "part-element-out-of-range", "F-block-out-of-range"])
def test_bad_bounds_are_refused(call, what):
    # each refusal names the argument at fault
    with pytest.raises(InputError, match=what):
        call(wheel_alone())
