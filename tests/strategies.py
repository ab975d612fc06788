"""The test suite's generators and shared oracles, each defined once.

* Named structures and templates: graphs, circulants, cubic and strongly
  regular graphs, and the planted lexicographic sums.
* Random inputs: seeded structures, and the hypothesis strategies for
  templates (all drawn by `agealg.verify.random_template`), digraphs and
  structures.
* Oracles over subsets and bijections: canonical codes of induced
  substructures, grouped per type or composition, brute-force
  isomorphism, and presentations checked by building their tuples.  They
  restate by exhaustive enumeration what the library computes by
  composition arithmetic, pruned search and counting.

`tests/test_strategies.py` fails when a module of the suite defines a
helper of its own under a name defined here or in another module.
"""

import itertools
import random
from collections import Counter

import networkx as nx
from hypothesis import strategies as st

from agealg.errors import InputError
from agealg.structures import (FiniteRelStruct, Signature, canonical_code,
                               find_isomorphism, restrict)
from agealg.templates import INF, BlockTemplate, compositions, instantiate
from agealg.verify import random_template

GRAPH = Signature((("adj", 2),))
ARC = Signature((("arc", 2),))
MARKED = Signature((("mark", 1), ("arc", 2)))
TERNARY = Signature((("between", 3),))
# the arities of ARC, MARKED and TERNARY
SIGNATURE_ARITIES = ((2,), (1, 2), (3,))


# ---------------------------------------------------------------------------
# named structures


def graph(n, edges):
    """The undirected graph on 0..n-1 with the given edges, both ways."""
    pairs = []
    for a, b in edges:
        pairs += [(a, b), (b, a)]
    return FiniteRelStruct(GRAPH, n, {"adj": pairs})


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def rook_graph():
    """The 4x4 rook graph, one of the SRG(16,6,2,2) pair."""
    return graph(16, [(a, b) for a, b in itertools.combinations(range(16), 2)
                      if a // 4 == b // 4 or a % 4 == b % 4])


def shrikhande_graph():
    """The Shrikhande graph, the other of the SRG(16,6,2,2) pair."""
    diffs = {(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)}
    return graph(16, [(a, b) for a, b in itertools.combinations(range(16), 2)
                      if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4) in diffs])


def petersen_graph():
    return graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)])


def cube_graph(d):
    return graph(2 ** d, [(a, a ^ (1 << i)) for a in range(2 ** d) for i in range(d)])


def paley_graph(p):
    squares = {x * x % p for x in range(1, p)}
    return graph(p, [(x, y) for x in range(p) for y in range(x + 1, p)
                     if (y - x) % p in squares])


def cubic_graph(seed, n):
    """A 3-regular graph on n elements: three stubs per element, shuffled
    by `random.Random(seed)` and paired, drawn again until no pair is a loop
    or repeats an edge."""
    rng = random.Random(seed)
    while True:
        stubs = [x for x in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return graph(n, edges)


def circulant_arcs(n, steps, offset=0):
    """The arcs x -> x + d (mod n) for d in steps, on offset..offset+n-1."""
    return [(offset + i, offset + (i + d) % n) for i in range(n) for d in steps]


def circulant(n, steps):
    return FiniteRelStruct(ARC, n, {"arc": circulant_arcs(n, steps)})


def wheel_alone():
    """Leaves + center of the wheel, without the coclique."""
    return BlockTemplate.make(
        GRAPH, [("leaves", INF), ("center", 1)],
        {"adj": [((0, 1), (0, 0)), ((1, 0), (0, 0))]})


def relabel(struct, perm):
    """`struct` with each element x renamed perm[x]; perm is a bijection."""
    assert sorted(perm) == list(range(struct.size)), perm
    return FiniteRelStruct(struct.signature, struct.size, [
        [tuple(perm[x] for x in t) for t in rel] for rel in struct.rels])


def to_networkx(s):
    """The networkx digraph of a structure's one binary relation."""
    (rel,) = s.rels
    g = nx.DiGraph()
    g.add_nodes_from(range(s.size))
    g.add_edges_from(rel)
    return g


# ---------------------------------------------------------------------------
# planted lexicographic sums


def near_equal_blocks(order, k):
    """`order` cut into k consecutive blocks of near-equal sizes, the larger
    first."""
    n = len(order)
    blocks, start = [], 0
    for j in range(k):
        size = n // k + (j < n % k)
        blocks.append(order[start:start + size])
        start += size
    return blocks


def lex_sum_structure(sig, blocks, kinds, links, marked=(), toggles=()):
    """The lexicographic sum on the members of `blocks` over the last symbol
    of `sig`: a "chain" block holds the tuples that run along its member
    list, a "clique" block its injective tuples, a "coclique" none.  Each
    tuple of blocks in `links` adds every tuple with its entries in those
    blocks, the members of the `marked` blocks carry the first, unary,
    symbol, and the (symbol, tuple) pairs of `toggles` are flipped in turn."""
    main, arity = sig.symbols[-1]
    rels = {name: set() for name in sig.names}
    for kind, members in zip(kinds, blocks):
        if kind == "chain":
            rels[main].update(itertools.combinations(members, arity))
        elif kind == "clique":
            rels[main].update(itertools.permutations(members, arity))
    for b in marked:
        rels[sig.names[0]].update((x,) for x in blocks[b])
    for link in links:
        rels[main].update(itertools.product(*(blocks[q] for q in link)))
    for name, tup in toggles:
        rels[name] ^= {tup}
    return FiniteRelStruct(sig, sum(map(len, blocks)), rels)


def planted(rng, n, k, noise, sig=ARC):
    """A lexicographic sum of k chain, clique or coclique blocks of
    near-equal sizes over a random quotient, its members scattered over
    0..n-1, with `noise` random tuples toggled.  Over MARKED some blocks
    carry the unary mark; over TERNARY the quotient, the chains and the
    cliques are ternary."""
    blocks = near_equal_blocks(rng.sample(range(n), n), k)
    arity = dict(sig.symbols)
    kinds, marked = [], []
    for b in range(k):
        kinds.append(rng.choice(("chain", "clique", "coclique")))
        if "mark" in arity and rng.random() < 0.5:
            marked.append(b)
    links = [q for q in itertools.product(range(k), repeat=sig.symbols[-1][1])
             if len(set(q)) > 1 and rng.random() < 0.4]
    toggles = []
    for _ in range(noise):
        name = rng.choice(sig.names)
        toggles.append((name, tuple(rng.randrange(n) for _ in range(arity[name]))))
    return lex_sum_structure(sig, blocks, kinds, links, marked, toggles)


def planted_digraph(n, kinds, links, toggles):
    """A lexicographic sum of chain, clique and coclique blocks of
    near-equal sizes on 0..n-1, the members of a block spread by
    x -> 7x + 2 mod n, blocks p < q linked as `links[p, q]` says
    ("forward", "back", "both" or "none"), and the arcs `toggles` flipped."""
    blocks = near_equal_blocks([(7 * x + 2) % n for x in range(n)], len(kinds))
    quotient = []
    for (p, q), link in links.items():
        if link in ("forward", "both"):
            quotient.append((p, q))
        if link in ("back", "both"):
            quotient.append((q, p))
    return lex_sum_structure(ARC, blocks, kinds, quotient,
                             toggles=[("arc", t) for t in toggles])


# ---------------------------------------------------------------------------
# random inputs


def random_structure(rng, n, sig=ARC, density=0.3):
    """Each tuple over 0..n-1 of each symbol present with chance `density`."""
    return FiniteRelStruct(sig, n, {
        name: [t for t in itertools.product(range(n), repeat=arity)
               if rng.random() < density]
        for name, arity in sig.symbols})


@st.composite
def random_templates(draw, max_blocks=3, caps=st.sampled_from([INF, 1, 2, 3]),
                     arities=st.sampled_from([(1,), (2,), (1, 2)]),
                     max_patterns=None, symmetric=False):
    """A template of `verify.random_template` on 1..max_blocks blocks whose
    capacities and arities the given strategies draw.  Each symbol accepts
    each pattern of its universe with chance 1/2, or, given max_patterns, a
    set of at most that many.  If symmetric, half the templates are closed
    under a random permutation of the blocks."""
    k = draw(st.integers(1, max_blocks))
    block_caps = [draw(caps) for _ in range(k)]
    sigma = (draw(st.permutations(range(k)))
             if symmetric and draw(st.booleans()) else None)

    def keep(universe):
        if max_patterns is None:
            return [p for p in universe if draw(st.booleans())]
        return draw(st.sets(st.sampled_from(universe), max_size=max_patterns))
    return random_template(None, keep, block_caps, draw(arities), sigma)


@st.composite
def digraphs(draw, min_size=0, max_size=7, kinds=("random",), sig=ARC):
    """A digraph with loops over the one binary symbol of `sig`: each arc
    present or not ("random"), or a circulant on a random set of steps."""
    n = draw(st.integers(min_size, max_size))
    if draw(st.sampled_from(kinds)) == "circulant":
        arcs = circulant_arcs(n, draw(st.sets(st.integers(0, n - 1))))
    else:
        arcs = [(a, b) for a in range(n) for b in range(n) if draw(st.booleans())]
    return FiniteRelStruct(sig, n, {sig.names[0]: arcs})


@st.composite
def structures(draw, sig=None, min_size=0, max_size=5, max_tuples=8):
    """A structure over `sig`, or over 1-3 symbols of arity 1-3, with up to
    `max_tuples` tuples per symbol; entries may repeat (loops included)."""
    if sig is None:
        arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        sig = Signature(tuple((f"r{i}", a) for i, a in enumerate(arities)))
    n = draw(st.integers(min_size, max_size))
    return FiniteRelStruct(sig, n, {
        name: draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * arity),
                           max_size=max_tuples)) if n else []
        for name, arity in sig.symbols})


# ---------------------------------------------------------------------------
# oracles over subsets and bijections


def partitions_into_at_most(k, n):
    """Partitions of n into at most k parts, each part at most the one
    before it: p(n, k, largest) over the first part."""
    def count(n, parts, largest):
        if n == 0:
            return 1
        if parts == 0:
            return 0
        return sum(count(n - first, parts - 1, first)
                   for first in range(1, min(n, largest) + 1))
    return count(n, k, n)


def subset_code(s, subset):
    return canonical_code(restrict(s, subset))


def subset_types(struct, n):
    """The n-element induced substructures classified by one canonical code
    each, as {code: multiplicity}; the multiplicities add up to
    C(size, n)."""
    if n < 0 or n > struct.size:
        raise InputError(f"subset size {n} out of range 0..{struct.size}")
    return Counter(subset_code(struct, sub)
                   for sub in itertools.combinations(range(struct.size), n))


def code_classes(t, n, induce=None):
    """Degree-n compositions of t grouped by the canonical code of their
    instantiations, or of the structures `induce(comp)`, classes in order of
    first appearance."""
    classes = {}
    for comp in compositions(t, n):
        s = instantiate(t, comp) if induce is None else induce(comp)
        classes.setdefault(canonical_code(s), []).append(comp)
    return list(classes.values())


def subset_splits(t, registry, comp, m):
    """Counts of (type(A1), type(A2)) over ordered splits with |A1| = m of
    the instantiation of `comp`, one canonical code per subset, translated
    to registry ids."""
    s = instantiate(t, comp)
    left_ids, right_ids = ({e.code: e.id for e in registry.types_at(d)}
                           for d in (m, s.size - m))
    return Counter(
        (left_ids[subset_code(s, left)],
         right_ids[subset_code(s, [x for x in range(s.size) if x not in left])])
        for left in itertools.combinations(range(s.size), m))


def subset_e_rows(t, registry, n):
    """The matrix of multiplication by e from degree n, row per degree-n+1
    type: how many of its element deletions leave each degree-n type."""
    width = len(registry.types_at(n))
    rows = []
    for entry in registry.types_at(n + 1):
        splits = subset_splits(t, registry, entry.reps[0], n)
        row = [0] * width
        for (left, _), count in splits.items():
            row[left] += count
        rows.append(row)
    return rows


def bijections(xs, ys):
    """Every bijection from the sequence xs onto ys, as a dict."""
    return (dict(zip(xs, image)) for image in itertools.permutations(ys))


def brute_isomorphic(s1, s2):
    """Oracle: try every bijection."""
    return s1.size == s2.size and any(
        all(frozenset(tuple(m[x] for x in t) for t in r1) == r2
            for r1, r2 in zip(s1.rels, s2.rels))
        for m in bijections(range(s1.size), range(s2.size)))


def isomorphic(s1, s2):
    return find_isomorphism(s1, s2) is not None


def presents_by_building(struct, t, classes):
    """Whether the template `t` instantiated at its capacities is `struct`
    relabelled to the element order of `classes`, by building both tuple
    sets: the oracle of the count that `decomposition._presents` makes."""
    position = [0] * struct.size
    for k, x in enumerate(x for cls in classes for x in cls):
        position[x] = k
    return instantiate(t, t.capacities) == relabel(struct, position)
