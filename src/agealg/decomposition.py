"""Monomorphic parts, minimal decompositions, fatness levels, growth floor.

A subset F of a finite structure is a monomorphic part when the isomorphism
type of an induced substructure depends only on its trace outside F together
with its size.  The maximal monomorphic parts partition the base set (the
minimal monomorphic decomposition); testing is exhaustive, which is fine at
desk scale (sizes up to ~12) thanks to memoized subset codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConsistencyError, InputError, UndeterminedError
from .structures import (SubsetCodes, _UnionFind, canonical_code,
                         find_isomorphism, restrict)
from .templates import block_spans, instantiate, subcompositions


def is_monomorphic_part(struct, part, codes=None):
    """Exhaustively test the defining property of a monomorphic part:
    equal-size subsets with the same trace outside `part` are isomorphic."""
    part = sorted(set(part))
    if any(x < 0 or x >= struct.size for x in part):
        raise InputError("part out of range")
    codes = codes or SubsetCodes(struct)
    rest = [x for x in range(struct.size) if x not in part]
    for b_size in range(len(rest) + 1):
        for b in itertools.combinations(rest, b_size):
            for j in range(1, len(part) + 1):
                ref = None
                for inside in itertools.combinations(part, j):
                    c = codes.code(b + inside)
                    if ref is None:
                        ref = c
                    elif c != ref:
                        return False
    return True


def pair_mergeable(struct, a, b, codes=None):
    """Whether {a, b} is a monomorphic part: every B avoiding both satisfies
    restrict(B+{a}) isomorphic to restrict(B+{b}).  Exits on first witness."""
    if a == b:
        raise InputError("pair_mergeable needs two distinct elements")
    if not (0 <= a < struct.size and 0 <= b < struct.size):
        raise InputError("element out of range")
    codes = codes or SubsetCodes(struct)
    rest = [x for x in range(struct.size) if x != a and x != b]
    for size in range(len(rest) + 1):
        for back in itertools.combinations(rest, size):
            if codes.code(back + (a,)) != codes.code(back + (b,)):
                return False
    return True


def minimal_decomposition(struct, codes=None):
    """Blocks of the minimal monomorphic decomposition, as sorted lists.

    Equivalence classes of pair mergeability; transitivity and the goodness
    of every class are re-verified (a failure would be a library bug).
    """
    n = struct.size
    codes = codes or SubsetCodes(struct)
    merge = {}
    for a in range(n):
        for b in range(a + 1, n):
            merge[(a, b)] = pair_mergeable(struct, a, b, codes)
    blocks = _merge_classes(n, merge)
    for block in blocks:
        for a, b in itertools.combinations(block, 2):
            if not merge[(a, b)]:
                raise ConsistencyError(
                    f"pair mergeability is not transitive on {block}: ({a},{b})")
        if not is_monomorphic_part(struct, block, codes):
            raise ConsistencyError(f"class {block} fails the part test")
    return blocks


def _merge_classes(n, merge):
    """Classes of the equivalence generated by the true pairs of `merge`."""
    uf = _UnionFind(n)
    for (a, b), ok in merge.items():
        if ok:
            uf.union(a, b)
    classes = {}
    for x in range(n):
        classes.setdefault(uf.find(x), []).append(x)
    return sorted(sorted(c) for c in classes.values())


# ---------------------------------------------------------------------------
# template-level decompositions
#
# A subset of an instantiation with block counts c' induces exactly the
# instantiation of c', so the pair and part tests below run over
# sub-compositions, one canonical code each, instead of over subsets.


def _block_coarsening(t, level, codes=None):
    """Partition of the template's blocks into the monomorphic components of
    the instantiation of t.max_composition(level).

    An element of block i and one of block j are mergeable iff c' + e_i and
    c' + e_j have the same type for every c' <= comp - e_i - e_j; two
    elements of one block always are, so the minimal decomposition of the
    instantiation is a coarsening of the blocks.  Transitivity and the part
    test of every class are re-verified (a failure would be a library bug).
    `codes` memoizes composition -> canonical code across calls.
    """
    comp = t.max_composition(level)
    codes = {} if codes is None else codes

    def code(c):
        if c not in codes:
            codes[c] = canonical_code(instantiate(t, c))
        return codes[c]

    def plus(c, b):
        return c[:b] + (c[b] + 1,) + c[b + 1:]

    nblocks = len(comp)
    merge = {}
    for i, j in itertools.combinations(range(nblocks), 2):
        rest = tuple(d - (b in (i, j)) for b, d in enumerate(comp))
        merge[(i, j)] = all(code(plus(c, i)) == code(plus(c, j))
                            for c in subcompositions(rest))
    classes = _merge_classes(nblocks, merge)
    for cls in classes:
        for i, j in itertools.combinations(cls, 2):
            if not merge[(i, j)]:
                raise ConsistencyError(
                    f"pair mergeability is not transitive on blocks {cls}: "
                    f"({i},{j})")
        if not _is_part_of_composition(comp, cls, code):
            raise ConsistencyError(f"block class {cls} fails the part test")
    return classes


def _is_part_of_composition(comp, cls, code):
    """The part test of `is_monomorphic_part` for the union of the blocks in
    `cls`: for every trace c_out outside the class, all inside counts c_in
    of one size give the same type."""
    inside = tuple(d if b in cls else 0 for b, d in enumerate(comp))
    outside = tuple(d - x for d, x in zip(comp, inside))
    for c_out in subcompositions(outside):
        by_size = {}
        for c_in in subcompositions(inside):
            c = code(tuple(a + b for a, b in zip(c_out, c_in)))
            if by_size.setdefault(sum(c_in), c) != c:
                return False
    return True


def _fatness(t, d_max):
    """(d, certificate, classes at level d) for `fatness_threshold`; the
    levels share one canonical code per composition."""
    codes = {}
    prev = _block_coarsening(t, 1, codes)
    for d in range(1, d_max + 1):
        nxt = _block_coarsening(t, d + 1, codes)
        if nxt == prev:
            return d, (d, d + 1), prev
        prev = nxt
    raise UndeterminedError(
        f"block coarsening did not stabilize up to level {d_max}; "
        f"level-{d_max} guess: {prev}")


def fatness_threshold(t, d_max=6):
    """Smallest level d <= d_max whose block coarsening agrees with level
    d+1, plus the (d, d+1) stability certificate."""
    d, cert, _ = _fatness(t, d_max)
    return d, cert


@dataclass(frozen=True)
class TemplateComponents:
    """Monomorphic components of a template, at block granularity."""

    classes: tuple          # tuple of tuples of block indices
    dimension: int          # number of classes containing an infinite block
    fatness: int
    certificate: tuple

    @property
    def count(self):
        return len(self.classes)


def template_components(t, d_max=6):
    """Coarsen the declared blocks into monomorphic components via pair
    tests on a fat instantiation; the dimension counts infinite classes."""
    d, cert, classes = _fatness(t, d_max)
    caps = t.capacities
    k = sum(1 for cls in classes if any(caps[b] is None for b in cls))
    return TemplateComponents(tuple(tuple(c) for c in classes), k, d, cert)


def component_sizes(t, comps):
    """Total capacity of each component class (None = infinite)."""
    sizes = []
    for cls in comps.classes:
        caps = [t.capacities[b] for b in cls]
        sizes.append(None if any(c is None for c in caps) else sum(caps))
    return sizes


def profile_floor_params(t, comps=None, d_max=6):
    """(k, n0) for the lower bound phi(n) >= p_k(n - n0): n0 = k1*d + m with
    k1 the number of components of size >= d and m the total size of the
    remaining finite components."""
    comps = comps or template_components(t, d_max)
    d = comps.fatness
    k1 = 0
    m = 0
    for size in component_sizes(t, comps):
        if size is None or size >= d:
            k1 += 1
        else:
            m += size
    return comps.dimension, k1 * d + m


@lru_cache(maxsize=None)
def _partitions_at_most(m, k):
    if m < 0:
        return 0
    if m == 0:
        return 1
    if k == 0:
        return 0
    return _partitions_at_most(m, k - 1) + _partitions_at_most(m - k, k)


def partition_lower_bound(k, n, n0):
    """p_k(n - n0): integer partitions of n - n0 into at most k parts
    (0 below n0, 1 at n0 for the empty partition)."""
    if k < 1:
        raise InputError("partition_lower_bound needs k >= 1")
    return _partitions_at_most(n - n0, k)


# ---------------------------------------------------------------------------
# F-monomorphy up to a degree bound


def is_F_monomorphic_struct(struct, f_set, bound):
    """For all n <= bound and A, A' of size n avoiding F: the restrictions
    to A+F and A'+F are isomorphic by a map fixing F pointwise."""
    f_set = sorted(set(f_set))
    if any(x < 0 or x >= struct.size for x in f_set):
        raise InputError("F out of range")
    rest = [x for x in range(struct.size) if x not in f_set]
    for n in range(1, min(bound, len(rest)) + 1):
        ref = None
        ref_struct = None
        for a in itertools.combinations(rest, n):
            subset = sorted(f_set + list(a))
            pos = {e: i for i, e in enumerate(subset)}
            sub = restrict(struct, subset)
            marked = {pos[f]: f for f in f_set}
            if ref is None:
                ref, ref_struct = marked, sub
                continue
            # match F by original element identity (its relative position
            # inside the two restrictions may differ)
            by_elem_ref = {f: p for p, f in ref.items()}
            by_elem_cur = {f: q for q, f in marked.items()}
            fixed = {by_elem_ref[f]: by_elem_cur[f] for f in f_set}
            if find_isomorphism(ref_struct, sub, fixed=fixed) is None:
                return False
    return True


def is_F_monomorphic_up_to(subject, f_spec, bound):
    """Bounded F-monomorphy check.

    For a finite structure, `f_spec` is a set of elements.  For a template,
    `f_spec` maps block index -> number of F elements, taken as the initial
    segment of that block's chain; the check runs on the instantiation with
    min(capacity, f + bound) elements per block, which realizes every
    composition a degree-<= bound subset avoiding F can have.
    """
    if hasattr(subject, "rels"):
        return is_F_monomorphic_struct(subject, f_spec, bound)
    t = subject
    f_counts = [0] * len(t.blocks)
    for b, c in dict(f_spec).items():
        if not 0 <= b < len(t.blocks):
            raise InputError("F block index out of range")
        cap = t.capacities[b]
        if cap is not None and c > cap:
            raise InputError("F exceeds block capacity")
        f_counts[b] = int(c)
    comp = tuple(
        (f + bound) if cap is None else min(cap, f + bound)
        for f, cap in zip(f_counts, t.capacities)
    )
    s = instantiate(t, comp)
    spans = block_spans(comp)
    f_set = [x for (lo, _), f in zip(spans, f_counts) for x in range(lo, lo + f)]
    return is_F_monomorphic_struct(s, f_set, bound)
