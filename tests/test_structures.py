"""Core structure operations against brute-force oracles."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agealg.structures
from agealg.errors import InputError
from agealg.gallery import GALLERY
from agealg.structures import (CODE_VERSION, FiniteRelStruct, Signature,
                               _encode, _individualized, _refine, _UnionFind,
                               automorphisms, canonical_code, find_isomorphism,
                               restrict)
from agealg.templates import compositions, instantiate, sym
from strategies import (GRAPH, brute_isomorphic, circulant_arcs, clique,
                        cube_graph, digraphs, graph, isomorphic, path,
                        petersen_graph, random_structure, relabel, rook_graph,
                        shrikhande_graph, structures, subset_types,
                        to_networkx)


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
        s1 = random_structure(rng, size, sig)
        if trial % 2 == 0:
            perm = list(range(size))
            rng.shuffle(perm)
            s2 = relabel(s1, perm)
        else:
            s2 = random_structure(rng, size, sig)
        assert (find_isomorphism(s1, s2) is not None) == brute_isomorphic(s1, s2)


@st.composite
def digraph_pair(draw):
    """Two digraphs with loops on up to 7 vertices (half the time the second
    is a relabelled copy of the first).  Half are circulants, on which
    colour refinement leaves one cell to search."""
    kinds = ("random", "circulant")
    s1 = draw(digraphs(1, 7, kinds))
    n = s1.size
    s2 = (relabel(s1, draw(st.permutations(range(n)))) if draw(st.booleans())
          else draw(digraphs(n, n, kinds)))
    return s1, s2


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
    pool = [random_structure(rng, rng.randint(1, 6), sig) for _ in range(40)]
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
    rook = rook_graph()
    shrik = shrikhande_graph()
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
    assert canonical_code(empty) == CODE_VERSION + ":" + _encode(empty, [])
    assert empty._label == () and automorphisms(empty) == []


def test_code_handles_ternary_relations():
    sig = Signature((("t", 3),))
    s1 = FiniteRelStruct(sig, 3, {"t": [(0, 1, 2), (0, 2, 1)]})
    s2 = FiniteRelStruct(sig, 3, {"t": [(1, 0, 2), (1, 2, 0)]})
    s3 = FiniteRelStruct(sig, 3, {"t": [(0, 1, 2), (1, 2, 0)]})
    assert canonical_code(s1) == canonical_code(s2)
    assert canonical_code(s1) != canonical_code(s3)


# ---------------------------------------------------------------------------
# the search against an oracle: the canonicalizer without the automorphism
# backjump and with every cell refined must give the same code and labelling


def oracle_refine(struct, colors):
    n = struct.size
    occ = struct._occurrences()
    while True:
        sigs = []
        for e in range(n):
            items = sorted(
                (si, pos, tuple(colors[x] for x in t))
                for (si, pos, t) in occ[e]
            )
            sigs.append((colors[e], tuple(items)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return colors
        colors = new
        if len(set(colors)) == n:
            return colors


def oracle_code(struct):
    """(code, labelling): every child of a node is searched unless an
    automorphism fixing the path maps it onto an explored one."""
    n = struct.size
    if n == 0:
        return CODE_VERSION + ":" + _encode(struct, []), ()

    start = oracle_refine(struct, [0] * n)
    best = [None, None]  # encoding, perm
    autos = []

    def handle_leaf(colors):
        perm = colors
        enc = _encode(struct, perm)
        if best[0] is None or enc < best[0]:
            best[0] = enc
            best[1] = perm
        elif enc == best[0]:
            inv = [0] * n
            for e in range(n):
                inv[best[1][e]] = e
            g = tuple(inv[perm[x]] for x in range(n))
            if any(g[x] != x for x in range(n)):
                autos.append(g)

    def search(colors, prefix):
        cells = {}
        for e, c in enumerate(colors):
            cells.setdefault(c, []).append(e)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            handle_leaf(colors)
            return
        explored = []
        uf = None
        uf_generation = -1
        for v in target:
            if explored:
                if uf_generation != len(autos):
                    uf = _UnionFind(n)
                    for g in autos:
                        if all(g[p] == p for p in prefix):
                            for x in target:
                                uf.union(x, g[x])
                    uf_generation = len(autos)
                rv = uf.find(v)
                if any(uf.find(u) == rv for u in explored):
                    continue
            search(oracle_refine(struct, _individualized(colors, v)), prefix + (v,))
            explored.append(v)

    search(start, ())
    return CODE_VERSION + ":" + best[0], tuple(best[1])


def assert_matches_oracle(struct):
    fresh = FiniteRelStruct(struct.signature, struct.size, struct.rels)
    code = canonical_code(fresh)
    assert (code, fresh._label) == oracle_code(struct), struct


def test_code_and_label_match_the_oracle_on_the_gallery():
    for entry in GALLERY.values():
        t = entry.build()
        for comp in compositions(t, None, max_degree=7):
            assert_matches_oracle(instantiate(t, comp))


def test_code_and_label_match_the_oracle_on_symmetric_graphs():
    for s in (rook_graph(), shrikhande_graph(), clique(8), petersen_graph(),
              cube_graph(4)):
        assert_matches_oracle(s)
    # regular, not vertex-transitive: a directed 3-cycle beside a 2-cycle,
    # and a 4-cycle beside a triangle
    for s in (FiniteRelStruct(GRAPH, 5, {"adj": [(0, 1), (1, 4), (4, 0), (2, 3), (3, 2)]}),
              graph(7, [(0, 5), (5, 1), (1, 6), (6, 0), (2, 3), (3, 4), (4, 2)])):
        assert_matches_oracle(s)


@st.composite
def symmetric_or_random(draw):
    """A relabelled structure of at most 10 elements: a union of cliques, a
    complete multipartite graph, a union of one or two circulant digraphs,
    the arcs of a few permutations, or a random structure with one to three
    symbols of arity 1-3.  Unions of different circulants and most
    permutation digraphs are regular without being vertex-transitive, so
    refinement leaves cells whose elements lie in different orbits."""
    kind = draw(st.sampled_from(
        ["cliques", "multipartite", "circulants", "permutations", "random"]))
    if kind == "random":
        s = draw(structures(min_size=1, max_size=10, max_tuples=30))
    elif kind == "circulants":
        n1 = draw(st.integers(1, 10))
        n2 = draw(st.integers(0, 10 - n1))
        arcs = circulant_arcs(n1, draw(st.sets(st.integers(0, n1 - 1), max_size=3)))
        if n2:
            arcs += circulant_arcs(n2, draw(st.sets(st.integers(0, n2 - 1), max_size=3)), n1)
        if draw(st.booleans()):
            arcs += [(b, a) for a, b in arcs]
        s = FiniteRelStruct(GRAPH, n1 + n2, {"adj": arcs})
    elif kind == "permutations":
        n = draw(st.integers(1, 10))
        perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        s = FiniteRelStruct(GRAPH, n, {"adj": [(i, p[i]) for p in perms for i in range(n)]})
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        while sum(sizes) > 10:
            sizes.pop()
        block = [b for b, z in enumerate(sizes) for _ in range(z)]
        same = kind == "cliques"
        s = graph(len(block), [(a, b) for a, b in itertools.combinations(range(len(block)), 2)
                               if (block[a] == block[b]) == same])
    return relabel(s, draw(st.permutations(range(s.size))))


@settings(max_examples=300, deadline=None)
@given(symmetric_or_random())
def test_code_and_label_match_the_oracle_on_relabelled_structures(s):
    assert_matches_oracle(s)


@settings(max_examples=200, deadline=None)
@given(symmetric_or_random(), st.data())
def test_refine_matches_the_oracle_refine(s, data):
    n = s.size
    colors = data.draw(st.lists(st.integers(-2, 5), min_size=n, max_size=n))
    assert _refine(s, list(colors)) == oracle_refine(s, colors)
    stable = oracle_refine(s, [0] * n)
    v = data.draw(st.integers(0, n - 1))
    assert _refine(s, _individualized(stable, v)) == oracle_refine(
        s, _individualized(stable, v))


def refine_calls(monkeypatch, struct, run=canonical_code):
    """The colourings `run(struct)` passes to `_refine`."""
    calls = []
    refine = agealg.structures._refine

    def counted(struct, colors):
        calls.append(list(colors))
        return refine(struct, colors)

    monkeypatch.setattr(agealg.structures, "_refine", counted)
    run(struct)
    monkeypatch.undo()
    return calls


def test_backjumps_bound_the_refinements(monkeypatch):
    # the oracle search refines 41 times on the complete loop graph on 6
    # points, and 92 times on K8
    assert len(refine_calls(monkeypatch, instantiate(sym(3), (0, 0, 6)))) <= 21
    assert len(refine_calls(monkeypatch, clique(8))) <= 36


def test_automorphisms_refine_the_root_once(monkeypatch):
    # the root refinement of the 5-cycle is one cell; the generators are
    # those that the canonical search records
    s = graph(5, [(i, (i + 1) % 5) for i in range(5)])
    calls = refine_calls(monkeypatch, s, automorphisms)
    assert calls.count([0] * 5) == 1
    assert automorphisms(s) == list(s._autos) != []


# ---------------------------------------------------------------------------
# equivalence-relation laws


def test_isomorphism_is_an_equivalence():
    rng = random.Random(2024)
    pool = [random_structure(rng, 4, GRAPH) for _ in range(12)]
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
