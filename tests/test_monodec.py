"""Monomorphic parts and minimal decompositions against exhaustive oracles."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agealg.decomposition import (fatness_threshold, is_F_monomorphic_struct,
                                  is_F_monomorphic_up_to, is_monomorphic_part,
                                  minimal_decomposition, pair_mergeable,
                                  partition_lower_bound, profile_floor_params,
                                  template_components)
from agealg.errors import ConsistencyError, InputError
from agealg.structures import FiniteRelStruct, Signature, canonical_code, restrict
from agealg.templates import (INF, BlockTemplate, clique_plus_coclique,
                              clique_sum, coclique, groupoid_example,
                              instantiate, qsym, sym, wheel_plus_coclique)

GRAPH = Signature((("adj", 2),))


def graph(n, edges):
    pairs = []
    for a, b in edges:
        pairs += [(a, b), (b, a)]
    return FiniteRelStruct(GRAPH, n, {"adj": pairs})


def to_networkx(s):
    g = nx.DiGraph()
    g.add_nodes_from(range(s.size))
    g.add_edges_from(s.relation("adj"))
    return g


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


def subset_code(s, subset):
    return canonical_code(restrict(s, subset))


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


@st.composite
def digraph_and_part(draw):
    n = draw(st.integers(1, 6))
    arcs = [(a, b) for a in range(n) for b in range(n) if draw(st.booleans())]
    part = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return FiniteRelStruct(GRAPH, n, {"adj": arcs}), part


@settings(max_examples=100, deadline=None)
@given(digraph_and_part())
def test_decomposition_matches_subset_oracles_on_random_digraphs(case):
    s, part = case
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
    # the subsets {0, 1} and {1, 2} of 0 -> 1 <- 2 induce isomorphic, unequal
    # structures with one deck: if the witness extension misses that and the
    # map composed from their equal codes' labellings fails its check too,
    # that is a library bug
    s = FiniteRelStruct(GRAPH, 3, {"adj": [(0, 1), (2, 1)]})
    assert restrict(s, [0, 1]) != restrict(s, [1, 2])
    with pytest.raises(ConsistencyError):
        minimal_decomposition(s)


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
    assert fatness_threshold(clique_sum(1))[0] == 1
    assert fatness_threshold(wheel_plus_coclique())[0] <= 3
    assert fatness_threshold(groupoid_example())[0] == 1


def test_fatness_certificate_levels_agree():
    d, cert = fatness_threshold(clique_plus_coclique())
    assert cert == (d, d + 1)


def test_fatness_cap_reports_undetermined():
    # the wheel merges leaves with the center at level 1 and separates them
    # at level 2, so a cap of 1 cannot certify stability
    from agealg.errors import UndeterminedError
    with pytest.raises(UndeterminedError):
        fatness_threshold(wheel_plus_coclique(), d_max=1)


def test_shape_invariance_on_fat_subsets():
    # isomorphic d-fat subsets of a fat instantiation have equal shape
    t = clique_plus_coclique()
    d = fatness_threshold(t)[0]
    s = instantiate(t, (d + 2, d + 2))
    n = s.size
    from agealg.structures import canonical_code
    groups = {}
    for subset in itertools.combinations(range(n), 2 * d + 1):
        counts = (sum(1 for x in subset if x < d + 2),
                  sum(1 for x in subset if x >= d + 2))
        if min(counts) < d:  # not d-fat
            continue
        shape = tuple(sorted(counts, reverse=True))
        groups.setdefault(canonical_code(restrict(s, subset)), set()).add(shape)
    for shapes in groups.values():
        assert len(shapes) == 1


# ---------------------------------------------------------------------------
# partition counting


def test_partition_lower_bound_values():
    assert partition_lower_bound(2, 4, 0) == 3  # 4, 3+1, 2+2
    assert partition_lower_bound(3, 0, 0) == 1
    assert all(partition_lower_bound(1, m, 0) == 1 for m in range(6))
    assert partition_lower_bound(2, 3, 5) == 0


def test_partition_lower_bound_oracle():
    def brute(m, k):
        if m == 0:
            return 1
        count = 0
        for parts in itertools.product(range(m + 1), repeat=k):
            if sum(parts) == m and list(parts) == sorted(parts, reverse=True):
                count += 1
        return count

    for k in (1, 2, 3):
        for m in range(8):
            assert partition_lower_bound(k, m, 0) == brute(m, k)


def test_partition_lower_bound_needs_positive_k():
    with pytest.raises(InputError):
        partition_lower_bound(0, 3, 0)


def test_profile_floor_params_wheel():
    t = wheel_plus_coclique()
    k, n0 = profile_floor_params(t)
    assert k == 2
    comps = template_components(t)
    d = comps.fatness
    assert n0 == 2 * d + 1  # two big components, the center contributes 1


# ---------------------------------------------------------------------------
# F-monomorphy up to a bound


def test_coclique_is_monomorphic():
    assert is_F_monomorphic_up_to(coclique(), {}, 4)


def test_cpc_is_not_almost_monomorphic_at_small_bound():
    t = clique_plus_coclique()
    assert not is_F_monomorphic_up_to(t, {}, 3)
    assert not is_F_monomorphic_up_to(t, {0: 1}, 3)
    assert not is_F_monomorphic_up_to(t, {0: 2, 1: 1}, 3)


def wheel_alone():
    """Leaves + center of the wheel, without the coclique."""
    return BlockTemplate.make(
        GRAPH, [("leaves", INF), ("center", 1)],
        {"adj": [((0, 1), (0, 0)), ((1, 0), (0, 0))]})


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
    f_set = tuple(sorted(f_set))
    rest = [x for x in range(s.size) if x not in f_set]
    for n in range(1, min(bound, len(rest)) + 1):
        first, *others = itertools.combinations(rest, n)
        for other in others:
            if not any(preserves(s, dict(zip(first + f_set, image + f_set)))
                       for image in itertools.permutations(other)):
                return False
    return True


@st.composite
def digraph_F_bound(draw):
    """A digraph with loops on up to 6 elements, its relation sometimes
    named F, an F of up to 3 elements and a bound 1..4.  Half the digraphs
    are circulants, whose symmetries make many restrictions isomorphic by
    maps that move F."""
    n = draw(st.integers(1, 6))
    name = draw(st.sampled_from(["arc", "F"]))
    if draw(st.booleans()):
        offsets = draw(st.sets(st.integers(0, n - 1)))
        arcs = [(a, (a + d) % n) for a in range(n) for d in offsets]
    else:
        arcs = [(a, b) for a in range(n) for b in range(n)
                if draw(st.booleans())]
    s = FiniteRelStruct(Signature(((name, 2),)), n, {name: arcs})
    return s, draw(st.sets(st.integers(0, n - 1), max_size=3)), \
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
def test_F_monomorphy_matches_brute_force(case):
    s, f_set, bound = case
    assert is_F_monomorphic_struct(s, f_set, bound) == \
        brute_F_monomorphic(s, f_set, bound)


@pytest.mark.parametrize("call", [
    lambda t: is_F_monomorphic_up_to(t, {1: True}, 4),
    lambda t: is_F_monomorphic_up_to(t, {1: -1}, 4),
    lambda t: is_F_monomorphic_up_to(t, {0: -2}, 4),
    lambda t: is_F_monomorphic_up_to(t, {0: 1.5}, 4),
    lambda t: fatness_threshold(t, d_max=0),
    lambda t: template_components(t, d_max=-1),
], ids=["bool-count", "negative-count", "negative-infinite-count",
        "fractional-count", "d-max-0", "d-max-negative"])
def test_bad_bounds_are_refused(call):
    with pytest.raises(InputError):
        call(wheel_alone())
