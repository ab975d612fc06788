"""Finite relational structures: restriction, isomorphism, canonical forms.

A structure is a finite base set {0..n-1} together with, for every symbol of
a fixed signature, a set of tuples of that symbol's arity (repeated entries
allowed).  Element identity is purely positional; structures never carry
external labels.

One isomorphism engine serves everything here.  Canonical forms are computed
by backtracking over vertex orderings, pruned by colour refinement
(`_refine`) and by automorphisms discovered along the way (a small
individualization-refinement canonicalizer).  Two structures get the same
code if and only if they are isomorphic, and the labelling that produced each
code is kept, so `find_isomorphism` composes the two labellings instead of
searching.  The test suite checks codes and isomorphisms against a
brute-force search over all bijections and against networkx.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import ConsistencyError, InputError

# Bump whenever the canonicalization algorithm changes: codes are only
# comparable within one version.
CODE_VERSION = "rs1"


def json_int(value, what):
    """An integer read from JSON: exact ints only, so 2.9, 2.0 and true are
    refused instead of truncated."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Signature:
    """An ordered list of (name, arity) relation symbols."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple((str(n), int(a)) for n, a in self.symbols))
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

    def arity(self, name):
        for n, a in self.symbols:
            if n == name:
                return a
        raise InputError(f"unknown symbol {name!r}")

    def index(self, name):
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise InputError(f"unknown symbol {name!r}")


class FiniteRelStruct:
    """Immutable finite relational structure over {0..size-1}."""

    __slots__ = ("signature", "size", "rels", "_hash", "_occ", "_code", "_label")

    def __init__(self, signature, size, relations):
        if size < 0:
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
            rel = frozenset(tuple(int(x) for x in t) for t in tuples)
            for t in rel:
                if len(t) != arity:
                    raise InputError(f"tuple {t} has wrong arity for symbol {name!r}")
                if any(x < 0 or x >= size for x in t):
                    raise InputError(f"tuple {t} out of range for size {size}")
            rels.append(rel)
        self.rels = tuple(rels)
        self._hash = None
        self._occ = None
        self._code = None
        self._label = None

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
            sig = Signature(tuple((s["name"], json_int(s["arity"], "arity"))
                                  for s in data["signature"]))
            size = json_int(data["size"], "size")
            relations = {k: [tuple(json_int(x, "tuple entry") for x in t) for t in v]
                         for k, v in data.get("relations", {}).items()}
            return FiniteRelStruct(sig, size, relations)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed structure JSON: {exc}") from exc

    @staticmethod
    def from_json(text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return FiniteRelStruct.from_json_dict(data)

    # -- occurrence index for refinement ------------------------------------

    def _occurrences(self):
        if self._occ is None:
            occ = [[] for _ in range(self.size)]
            for si, rel in enumerate(self.rels):
                for t in rel:
                    for e in set(t):
                        pos = tuple(i for i, x in enumerate(t) if x == e)
                        occ[e].append((si, pos, t))
            self._occ = occ
        return self._occ


def relabel(struct, perm):
    """Apply a bijection perm (element -> new index) to a structure."""
    if sorted(perm) != list(range(struct.size)):
        raise InputError("perm is not a bijection of the base set")
    rels = [
        frozenset(tuple(perm[x] for x in t) for t in rel)
        for rel in struct.rels
    ]
    return FiniteRelStruct(struct.signature, struct.size, rels)


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
    is isomorphism-invariant.
    """
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
    if n == 0:
        struct._code = CODE_VERSION + ":" + _encode(struct, [])
        struct._label = ()
        return struct._code

    start = _refine(struct, [0] * n)
    best = [None, None]  # encoding, perm
    autos = []

    def handle_leaf(colors):
        perm = colors  # discrete colouring is already a rank permutation
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
            search(_refine(struct, _individualized(colors, v)), prefix + (v,))
            explored.append(v)

    search(start, ())
    struct._code = CODE_VERSION + ":" + best[0]
    struct._label = tuple(best[1])
    return struct._code


# ---------------------------------------------------------------------------
# isomorphisms


def find_isomorphism(s1, s2):
    """An isomorphism s1 -> s2 as a tuple, or None.

    Equal codes come from canonical labellings that map both structures onto
    one encoding, so the second labelling's inverse after the first is an
    isomorphism; it is checked before it is returned.  To fix elements, give
    them a relation of their own."""
    if s1.signature != s2.signature:
        raise InputError("cannot compare structures over different signatures")
    if s1.size != s2.size or canonical_code(s1) != canonical_code(s2):
        return None
    inv2 = [0] * s2.size
    for x, y in enumerate(s2._label):
        inv2[y] = x
    perm = tuple(inv2[y] for y in s1._label)
    if not is_isomorphism(s1, s2, perm):
        raise ConsistencyError("equal canonical codes without an isomorphism")
    return perm


def is_isomorphism(s1, s2, perm):
    """Whether the bijection `perm` (element of s1 -> element of s2) maps
    every relation of s1 onto the same relation of s2.  The structures share
    a signature and a size."""
    for r1, r2 in zip(s1.rels, s2.rels):
        if len(r1) != len(r2):
            return False
        for t in r1:
            if tuple(perm[x] for x in t) not in r2:
                return False
    return True


def isomorphic(s1, s2):
    return find_isomorphism(s1, s2) is not None


def subset_types(struct, n):
    """Classify all n-element induced substructures by isomorphism type.

    Returns {code: multiplicity}; multiplicities add up to C(size, n).
    """
    if n < 0 or n > struct.size:
        raise InputError(f"subset size {n} out of range 0..{struct.size}")
    out = {}
    for comb in itertools.combinations(range(struct.size), n):
        code = canonical_code(restrict(struct, comb))
        out[code] = out.get(code, 0) + 1
    return out

