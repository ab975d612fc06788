"""Finite relational structures: restriction, isomorphism, canonical forms.

A structure is a finite base set {0..n-1} together with, for every symbol of
a fixed signature, a set of tuples of that symbol's arity (repeated entries
allowed).  Element identity is purely positional; structures never carry
external labels.

One isomorphism engine serves everything here.  Canonical forms are computed
by backtracking over vertex orderings, pruned by colour refinement
(`_refine`) and by automorphisms discovered along the way (a small
individualization-refinement canonicalizer).  The code is the smallest leaf
encoding, and its labelling the first leaf that reaches it.  Two structures
get the same code if and only if they are isomorphic, and the labelling that
produced each code is kept, so `find_isomorphism` composes the two
labellings instead of searching.  The search also yields a generating set
of the automorphism group (`automorphisms`): the automorphisms it records
at leaves that encode like the best one.  The registry's block
automorphisms are those of a template's block structure, read off the same
search.

Two prunings from McKay's "Practical graph isomorphism" (1981) keep the
search short without changing any code or labelling:

* Backjump on an automorphism.  A vertex individualized at some node ends at
  the leaf position where that node's target cell starts.  So when a leaf
  encodes like the best leaf, the automorphism taking it to the best leaf
  fixes the path the two share and maps this path's next vertex onto the
  best path's.  The rest of the current child subtree at the node where the
  paths part is the image of a subtree already searched.  It holds no
  smaller encoding, and each of its leaves comes after the leaf it is the
  image of, so the search returns straight to that node.
* Refine only the cells that can split.  Refinement ranks signatures by
  colour first, so an element alone in its cell keeps its rank whatever its
  tuples are, and its tuples are not read.

The test suite checks codes and isomorphisms against a brute-force search
over all bijections and against networkx, and codes and labellings against
the search without either pruning.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ConsistencyError, InputError, UndeterminedError

# Bump whenever codes or labellings change: codes are only comparable within
# one version.  A faster search with the same output keeps the version.
CODE_VERSION = "rs1"


def json_int(value, what):
    """An integer argument or one read from JSON: exact ints only, so 2.9,
    2.0, "2" and true are refused instead of truncated."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def nonnegative_int(value, what):
    """`json_int`, refusing values below 0."""
    if json_int(value, what) < 0:
        raise InputError(f"{what} must be at least 0")
    return value


@dataclass(frozen=True)
class Signature:
    """An ordered list of (name, arity) relation symbols."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(
            (str(n), json_int(a, f"arity of {n!r}")) for n, a in self.symbols))
        names = [n for n, _ in self.symbols]
        if not names:
            raise InputError("signature must contain at least one symbol")
        if len(set(names)) != len(names):
            raise InputError("duplicate symbol names in signature")
        for n, a in self.symbols:
            if a < 1:
                raise InputError(f"symbol {n!r} has arity {a} < 1")

    @property
    def names(self):
        return tuple(n for n, _ in self.symbols)

    def index(self, name):
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise InputError(f"unknown symbol {name!r}")


class FiniteRelStruct:
    """Immutable finite relational structure over {0..size-1}."""

    __slots__ = ("signature", "size", "rels", "_hash", "_occ", "_code", "_label",
                 "_autos")

    def __init__(self, signature, size, relations):
        if json_int(size, "size") < 0:
            raise InputError("size must be >= 0")
        self.signature = signature
        self.size = size
        rels = []
        if isinstance(relations, dict):
            extra = set(relations) - set(signature.names)
            if extra:
                raise InputError(f"relations for unknown symbols: {sorted(extra)}")
            items = [(name, relations.get(name, ())) for name, _ in signature.symbols]
        else:
            items = list(zip(signature.names, relations))
        for (name, arity), (_, tuples) in zip(signature.symbols, items):
            tuples = list(map(tuple, tuples))
            for t in tuples:
                if len(t) != arity:
                    raise InputError(f"tuple {t} has wrong arity for symbol {name!r}")
                for x in t:
                    if type(x) is not int:
                        raise InputError(f"tuple entry must be an integer, got {x!r} in {t}")
                    if not 0 <= x < size:
                        raise InputError(f"tuple {t} out of range for size {size}")
            rels.append(frozenset(tuples))
        self.rels = tuple(rels)
        self._hash = None
        self._occ = None
        self._code = None
        self._label = None
        self._autos = None

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteRelStruct)
            and self.signature == other.signature
            and self.size == other.size
            and self.rels == other.rels
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.signature, self.size, self.rels))
        return self._hash

    def __repr__(self):
        counts = ", ".join(f"{n}:{len(r)}" for n, r in zip(self.signature.names, self.rels))
        return f"FiniteRelStruct(size={self.size}, {counts})"

    def relation(self, name):
        return self.rels[self.signature.index(name)]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "signature": [{"name": n, "arity": a} for n, a in self.signature.symbols],
            "size": self.size,
            "relations": {
                n: sorted(list(t) for t in rel)
                for n, rel in zip(self.signature.names, self.rels)
            },
        }

    @staticmethod
    def from_json_dict(data):
        try:
            sig = Signature(tuple((s["name"], s["arity"]) for s in data["signature"]))
            relations = data.get("relations", {})
            if not isinstance(relations, dict):
                raise InputError("relations must map symbol names to tuples")
            return FiniteRelStruct(sig, data["size"], relations)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed structure JSON: {exc}") from exc

    # -- occurrence index for refinement ------------------------------------

    def _occurrences(self):
        if self._occ is None:
            occ = [[] for _ in range(self.size)]
            for si, rel in enumerate(self.rels):
                for t in rel:
                    positions = {}
                    for i, e in enumerate(t):
                        positions.setdefault(e, []).append(i)
                    for e, pos in positions.items():
                        occ[e].append((si, tuple(pos), t))
            self._occ = occ
        return self._occ


def keyed_structure(size, rels):
    """The structure on `size` elements with one relation per key of the
    dict `rels`, which maps keys to nonempty tuple lists: symbols r0, r1,
    ... in the order of the sorted keys, each of the arity of its tuples."""
    keys = sorted(rels)
    sig = Signature(tuple((f"r{i}", len(rels[k][0])) for i, k in enumerate(keys)))
    return FiniteRelStruct(sig, size, [rels[k] for k in keys])


def restrict(struct, subset):
    """Induced substructure on `subset` (kept iff all entries lie inside).

    Elements are reindexed by their position in the sorted subset.
    """
    elems = list(subset)
    if len(set(elems)) != len(elems):
        raise InputError("restriction subset contains duplicates")
    if any(x < 0 or x >= struct.size for x in elems):
        raise InputError("restriction subset out of range")
    elems = sorted(elems)
    index = {e: i for i, e in enumerate(elems)}
    keep = set(elems)
    rels = []
    for rel in struct.rels:
        rels.append(frozenset(
            tuple(index[x] for x in t) for t in rel if keep.issuperset(t)
        ))
    return FiniteRelStruct(struct.signature, len(elems), rels)


# ---------------------------------------------------------------------------
# colour refinement


def _refine(struct, colors):
    """Iterated colour refinement to a stable, canonically-numbered colouring.

    The signature of an element combines its colour with, for every tuple it
    occurs in, the symbol, its positions inside the tuple and the colours of
    all entries.  New colours are ranks of sorted signatures, so the result
    is isomorphism-invariant.  Signatures sort by colour first, so an element
    alone in its cell keeps its rank whatever its tuples say: it gets an
    empty tuple list, and only cells that can split are read.
    """
    n = struct.size
    occ = struct._occurrences()
    while True:
        cell_size = Counter(colors)
        get = colors.__getitem__
        sigs = []
        for e in range(n):
            c = colors[e]
            if cell_size[c] == 1:
                sigs.append((c, ()))
                continue
            items = sorted(
                (si, pos, tuple(map(get, t)))
                for (si, pos, t) in occ[e]
            )
            sigs.append((c, tuple(items)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return colors
        colors = new
        if len(ranks) == n:
            return colors


def _individualized(colors, v):
    # v gets a colour strictly below its former cell-mates; parity keeps it
    # unique, the next refinement round renumbers canonically.
    out = [2 * c for c in colors]
    out[v] = 2 * colors[v] - 1
    return out


def _encode(struct, perm):
    parts = [struct.signature.symbols, struct.size]
    for rel in struct.rels:
        parts.append(sorted(tuple(perm[x] for x in t) for t in rel))
    return repr(parts)


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def canonical_code(struct):
    """Version-tagged canonical form; equal iff the structures are isomorphic.

    The labelling behind it (element -> canonical position) is kept on the
    structure for `find_isomorphism`."""
    if struct._code is not None:
        return struct._code
    n = struct.size
    start = _refine(struct, [0] * n)
    best = [None, None, None]  # encoding, perm, prefix
    autos = []

    def search(colors, prefix):
        # returns the depth of the node to resume at: its own when the
        # subtree is done, an ancestor's when an automorphism found at a leaf
        # maps the rest of that ancestor's current child subtree onto one
        # already explored
        cells = {}
        for e, c in enumerate(colors):
            cells.setdefault(c, []).append(e)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = colors  # discrete colouring is already a rank permutation
            enc = _encode(struct, perm)
            if best[0] is None or enc < best[0]:
                best[:] = enc, perm, prefix
            elif enc == best[0]:
                inv = [0] * n
                for e in range(n):
                    inv[best[1][e]] = e
                autos.append(tuple(inv[perm[x]] for x in range(n)))
                # the automorphism fixes the prefix this path shares with the
                # best one and maps this path's next vertex onto the best
                # path's, whose subtree was explored first
                return next(i for i, (a, b) in enumerate(zip(prefix, best[2]))
                            if a != b)
            return len(prefix)
        explored = []
        uf = None
        uf_generation = -1
        for v in target:
            if explored:
                if uf_generation != len(autos):
                    # automorphisms fixing the prefix permute the cell;
                    # rebuild orbits only when new ones arrived
                    uf = _UnionFind(n)
                    for g in autos:
                        if all(g[p] == p for p in prefix):
                            for x in target:
                                uf.union(x, g[x])
                    uf_generation = len(autos)
                rv = uf.find(v)
                if any(uf.find(u) == rv for u in explored):
                    continue
            depth = search(_refine(struct, _individualized(colors, v)), prefix + (v,))
            if depth < len(prefix):
                return depth
            explored.append(v)
        return len(prefix)

    try:
        search(start, ())
    except RecursionError:
        # the search recurses once per individualized element
        raise UndeterminedError(
            f"the canonical search of a {n}-element structure goes deeper "
            f"than the interpreter's recursion limit") from None
    struct._code = CODE_VERSION + ":" + best[0]
    struct._label = tuple(best[1])
    struct._autos = tuple(autos)
    return struct._code


def automorphisms(struct):
    """A generating set of the automorphism group of `struct`, each a tuple
    g with g[x] the image of x: the automorphisms that `canonical_code`
    records, one for each leaf that encodes like the best leaf.  The search
    prunes only by those, so they generate the group, and the identity is
    not among them."""
    canonical_code(struct)
    return list(struct._autos)


# ---------------------------------------------------------------------------
# isomorphisms


def find_isomorphism(s1, s2):
    """An isomorphism s1 -> s2 as a tuple, or None.

    Equal codes come from canonical labellings that map both structures onto
    one encoding, so the second labelling's inverse after the first is an
    isomorphism; it is checked before it is returned.  Structures whose
    sizes or relation sizes differ are refused before either code is
    computed.  To fix elements, give them a relation of their own."""
    if s1.signature != s2.signature:
        raise InputError("cannot compare structures over different signatures")
    if s1.size != s2.size or any(
            len(r1) != len(r2) for r1, r2 in zip(s1.rels, s2.rels)):
        return None
    if canonical_code(s1) != canonical_code(s2):
        return None
    inv2 = [0] * s2.size
    for x, y in enumerate(s2._label):
        inv2[y] = x
    perm = tuple(inv2[y] for y in s1._label)
    if not maps_onto(s1.rels, s2.rels, perm):
        raise ConsistencyError("equal canonical codes without an isomorphism")
    return perm


def maps_onto(source, target, perm):
    """Whether the bijection `perm` maps, relation by relation, the tuples of
    `source` (per relation, a collection without repeats) onto the set of
    `target` at the same place.  On the relations of two structures of one
    signature and size this says whether `perm` is an isomorphism."""
    for tuples, image in zip(source, target):
        if len(tuples) != len(image):
            return False
        for t in tuples:
            if tuple(map(perm.__getitem__, t)) not in image:
                return False
    return True

