"""Core structure operations against brute-force oracles."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agealg.errors import InputError
from agealg.structures import (FiniteRelStruct, Signature, canonical_code,
                               find_isomorphism, isomorphic, relabel, restrict,
                               subset_types)

GRAPH = Signature((("adj", 2),))


def graph(n, edges):
    pairs = []
    for a, b in edges:
        pairs += [(a, b), (b, a)]
    return FiniteRelStruct(GRAPH, n, {"adj": pairs})


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def brute_isomorphic(s1, s2):
    """Oracle: try every bijection."""
    if s1.size != s2.size:
        return False
    for perm in itertools.permutations(range(s1.size)):
        if all(
            frozenset(tuple(perm[x] for x in t) for t in r1) == r2
            for r1, r2 in zip(s1.rels, s2.rels)
        ):
            return True
    return False


def random_struct(rng, size, sig=GRAPH, density=0.3):
    rels = {}
    for name, arity in sig.symbols:
        tuples = [
            t for t in itertools.product(range(size), repeat=arity)
            if rng.random() < density
        ]
        rels[name] = tuples
    return FiniteRelStruct(sig, size, rels)


# ---------------------------------------------------------------------------
# restrict


def test_restrict_full_set_is_identity():
    s = path(4)
    assert restrict(s, range(4)) == s


def test_restrict_triangle_to_edge():
    s = clique(3)
    r = restrict(s, [0, 1])
    assert r.size == 2
    assert r.relation("adj") == frozenset({(0, 1), (1, 0)})


def test_restrict_path_endpoints_edgeless():
    # a-b-c restricted to {a, c}: listing tuples shows none survive
    s = path(3)
    r = restrict(s, [0, 2])
    assert r.relation("adj") == frozenset()


def test_restrict_rejects_bad_subsets():
    s = path(3)
    with pytest.raises(InputError):
        restrict(s, [0, 0])
    with pytest.raises(InputError):
        restrict(s, [0, 7])


def test_restrict_keeps_tuples_with_repeats():
    s = FiniteRelStruct(GRAPH, 3, {"adj": [(1, 1), (0, 1)]})
    r = restrict(s, [1, 2])
    assert r.relation("adj") == frozenset({(0, 0)})


# ---------------------------------------------------------------------------
# find_isomorphism


def test_self_isomorphism_exists():
    s = path(4)
    f = find_isomorphism(s, s)
    assert f is not None and sorted(f) == [0, 1, 2, 3]


def test_edge_vs_edgeless_pair():
    assert find_isomorphism(graph(2, [(0, 1)]), graph(2, [])) is None


def test_reversed_path_has_witness():
    s1 = path(3)
    s2 = graph(3, [(2, 1), (1, 0)])
    f = find_isomorphism(s1, s2)
    assert f is not None
    for a, b in s1.relation("adj"):
        assert (f[a], f[b]) in s2.relation("adj")


def test_signature_mismatch_raises():
    other = FiniteRelStruct(Signature((("r", 1),)), 2, {"r": [(0,)]})
    with pytest.raises(InputError):
        find_isomorphism(path(2), other)


def test_find_isomorphism_matches_brute_force():
    rng = random.Random(12345)
    sig = Signature((("adj", 2), ("mark", 1)))
    for trial in range(120):
        size = rng.randint(1, 5)
        s1 = random_struct(rng, size, sig)
        if trial % 2 == 0:
            perm = list(range(size))
            rng.shuffle(perm)
            s2 = relabel(s1, perm)
        else:
            s2 = random_struct(rng, size, sig)
        assert (find_isomorphism(s1, s2) is not None) == brute_isomorphic(s1, s2)


@st.composite
def digraph_pair(draw):
    """Two digraphs with loops on up to 7 vertices (half the time the second
    is a relabelled copy of the first).  Some are circulants, on which
    colour refinement leaves one cell to search."""
    n = draw(st.integers(1, 7))

    def digraph():
        if draw(st.booleans()):
            offsets = draw(st.sets(st.integers(0, n - 1)))
            arcs = [(a, (a + d) % n) for a in range(n) for d in offsets]
        else:
            arcs = [(a, b) for a in range(n) for b in range(n) if draw(st.booleans())]
        return FiniteRelStruct(GRAPH, n, {"adj": arcs})

    s1 = digraph()
    s2 = relabel(s1, draw(st.permutations(range(n)))) if draw(st.booleans()) else digraph()
    return s1, s2


def to_networkx(s):
    g = nx.DiGraph()
    g.add_nodes_from(range(s.size))
    g.add_edges_from(s.relation("adj"))
    return g


@settings(max_examples=150, deadline=None)
@given(digraph_pair())
def test_find_isomorphism_matches_networkx_on_random_digraphs(case):
    s1, s2 = case
    f = find_isomorphism(s1, s2)
    assert (f is not None) == nx.is_isomorphic(to_networkx(s1), to_networkx(s2))
    if f is not None:
        assert relabel(s1, list(f)) == s2


# ---------------------------------------------------------------------------
# canonical_code


def test_code_invariant_under_relabeling():
    s = graph(2, [(0, 1)])
    assert canonical_code(s) == canonical_code(relabel(s, [1, 0]))


def test_code_separates_edge_from_nonedge():
    assert canonical_code(graph(2, [(0, 1)])) != canonical_code(graph(2, []))


def test_eleven_unlabelled_graphs_on_four_vertices():
    # oracle: classify all 2^6 labelled graphs by brute-force isomorphism
    all_edges = list(itertools.combinations(range(4), 2))
    labelled = []
    for mask in range(64):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        labelled.append(graph(4, edges))
    reps = []
    for g in labelled:
        if not any(brute_isomorphic(g, h) for h in reps):
            reps.append(g)
    assert len(reps) == 11
    assert len({canonical_code(g) for g in labelled}) == 11


def test_code_agreement_iff_isomorphic():
    rng = random.Random(777)
    sig = Signature((("r", 2), ("u", 1)))
    pool = [random_struct(rng, rng.randint(1, 6), sig) for _ in range(40)]
    pool += [relabel(s, rng.sample(range(s.size), s.size)) for s in pool[:20]]
    for s1, s2 in itertools.combinations(rng.sample(pool, 24), 2):
        if s1.size != s2.size:
            continue
        same = canonical_code(s1) == canonical_code(s2)
        assert same == brute_isomorphic(s1, s2)


def test_code_is_version_tagged():
    assert canonical_code(path(2)).startswith("rs1:")


def test_code_separates_refinement_equivalent_pair():
    # C6 and two triangles are both 2-regular (colour refinement alone
    # cannot tell them apart); the ordering search must
    c6 = graph(6, [(i, (i + 1) % 6) for i in range(6)])
    kk = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_code(c6) != canonical_code(kk)
    assert find_isomorphism(c6, kk) is None


def test_code_separates_strongly_regular_pair():
    # 4x4 rook graph vs Shrikhande graph: the classic SRG(16,6,2,2) pair
    rook_edges = []
    for a, b in itertools.combinations(range(16), 2):
        r1, c1 = divmod(a, 4)
        r2, c2 = divmod(b, 4)
        if r1 == r2 or c1 == c2:
            rook_edges.append((a, b))
    diffs = {(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)}
    shrik_edges = set()
    for a, b in itertools.combinations(range(16), 2):
        r1, c1 = divmod(a, 4)
        r2, c2 = divmod(b, 4)
        if ((r1 - r2) % 4, (c1 - c2) % 4) in diffs:
            shrik_edges.add((a, b))
    rook = graph(16, rook_edges)
    shrik = graph(16, shrik_edges)
    assert canonical_code(rook) != canonical_code(shrik)
    assert find_isomorphism(rook, shrik) is None  # refinement cannot separate them
    rng = random.Random(5)
    perm = list(range(16))
    rng.shuffle(perm)
    assert canonical_code(relabel(rook, perm)) == canonical_code(rook)
    assert canonical_code(relabel(shrik, perm)) == canonical_code(shrik)


def test_code_of_empty_and_singleton():
    empty = FiniteRelStruct(GRAPH, 0, {})
    single = FiniteRelStruct(GRAPH, 1, {"adj": [(0, 0)]})
    bare = FiniteRelStruct(GRAPH, 1, {})
    assert canonical_code(empty) != canonical_code(bare)
    assert canonical_code(single) != canonical_code(bare)


def test_code_handles_ternary_relations():
    sig = Signature((("t", 3),))
    s1 = FiniteRelStruct(sig, 3, {"t": [(0, 1, 2), (0, 2, 1)]})
    s2 = FiniteRelStruct(sig, 3, {"t": [(1, 0, 2), (1, 2, 0)]})
    s3 = FiniteRelStruct(sig, 3, {"t": [(0, 1, 2), (1, 2, 0)]})
    assert canonical_code(s1) == canonical_code(s2)
    assert canonical_code(s1) != canonical_code(s3)


# ---------------------------------------------------------------------------
# equivalence-relation laws


def test_isomorphism_is_an_equivalence():
    rng = random.Random(2024)
    pool = [random_struct(rng, 4) for _ in range(12)]
    for s in pool:
        assert isomorphic(s, s)
    for s1, s2 in itertools.combinations(pool, 2):
        f = find_isomorphism(s1, s2)
        g = find_isomorphism(s2, s1)
        assert (f is None) == (g is None)
        if f is not None:
            inv = [0] * len(f)
            for a, b in enumerate(f):
                inv[b] = a
            assert relabel(s2, inv) == relabel(s1, list(range(s1.size))) or isomorphic(s2, s1)
    # transitivity via composed witnesses
    for s1, s2, s3 in itertools.combinations(pool, 3):
        f = find_isomorphism(s1, s2)
        g = find_isomorphism(s2, s3)
        if f is not None and g is not None:
            h = tuple(g[f[x]] for x in range(s1.size))
            assert relabel(s1, list(h)) == s3 or isomorphic(s1, s3)


# ---------------------------------------------------------------------------
# subset_types


def test_subset_types_empty_degree():
    s = path(5)
    out = subset_types(s, 0)
    assert len(out) == 1 and sum(out.values()) == 1


def test_subset_types_k4_pairs():
    out = subset_types(clique(4), 2)
    assert len(out) == 1
    assert sum(out.values()) == 6


def test_subset_types_path5_triples():
    # enumerate all 10 triples by hand: 3 x P3, 6 x (P2+P1), 1 x 3P1
    out = subset_types(path(5), 3)
    assert sorted(out.values()) == [1, 3, 6]
    assert sum(out.values()) == 10
    code_p3 = canonical_code(path(3))
    assert out[code_p3] == 3


def test_subset_types_range_check():
    with pytest.raises(InputError):
        subset_types(path(3), 4)


def test_restrict_commutes_with_automorphisms():
    # code of a restriction is unchanged when an automorphism moves the subset
    s = path(4)
    autos = []
    for perm in itertools.permutations(range(4)):
        if relabel(s, list(perm)) == s:
            autos.append(perm)
    assert len(autos) == 2
    for subset in itertools.combinations(range(4), 2):
        for g in autos:
            image = [g[x] for x in subset]
            assert canonical_code(restrict(s, subset)) == canonical_code(
                restrict(s, image))


def test_json_round_trip():
    s = path(3)
    again = FiniteRelStruct.from_json_dict(s.to_json_dict())
    assert again == s
