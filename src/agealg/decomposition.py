"""Monomorphic parts, minimal decompositions, fatness levels, growth floor.

A subset F of a finite structure is a monomorphic part when the isomorphism
type of an induced substructure depends only on its trace outside F together
with its size.  The maximal monomorphic parts partition the base set (the
minimal monomorphic decomposition).

Both finite structures and templates are decomposed by one routine,
`_coarsening`, over a composition: a vector of block counts.  The
instantiation of a template's composition c has blocks of c_i elements, and
its subset with block counts c' induces exactly the instantiation of c'.  A
finite structure is presented as a template (`_presentation`): its blocks
are the twin classes, its patterns are read off the tuples
(`templates.present`), and the presentation counts only if its
instantiation equals the structure under that element order; else, or when
no class has two elements, the blocks are the n elements, and the 2^n
compositions of (1,)*n are the subsets.  Either way the blocks are
monomorphic parts, the compositions stand for the subsets, and a
`TypeRegistry` of the template classifies them for `_coarsening`, one degree
per pass, extending isomorphism witnesses from the degree below without a
canonical code for every composition.  A template's fatness level d
classifies only the compositions inside its level box `t.max_composition(d)`,
through one `TypeRegistry` of the template shared by every level and by
the Hilbert routes that run after it.
All pair tests are decided together, degree by degree, in one walk over
the sub-compositions: a pair drops out at its first witness against the
merge and the walk ends when no pair is left undecided, and the part test
skips the sizes with a single inside count, so the registry is built only
to the degrees the answer needs; a merge is still checked on every
sub-composition.  `pair_mergeable` and `is_monomorphic_part` always take the
subsets, as the oracles of the twin-class presentation.  On a 2-vCPU Xeon
VM a planted 16-element digraph (four blocks of four) decomposes in about
0.002 s, over 15 of its 625 compositions, and about 3 s over its 2^16
subsets.
F-monomorphy uses a registry of the presentation of the expansion of the
structure by the constants of F, on the elements outside F.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .algebra import TypeRegistry
from .errors import ConsistencyError, InputError, UndeterminedError
from .hilbert import expand
from .structures import (FiniteRelStruct, Signature, _UnionFind, json_int,
                         nonnegative_int)
from .templates import (block_spans, instantiate, present, spans_tuples,
                        subcompositions)

# highest fatness level tried before the coarsening counts as undetermined
DEFAULT_D_MAX = 6


def _elements(struct, xs, what):
    """The set of `xs`, each an exact int naming an element of `struct`."""
    xs = {json_int(x, what) for x in xs}
    if any(x < 0 or x >= struct.size for x in xs):
        raise InputError(f"{what} out of range")
    return xs


def is_monomorphic_part(struct, part):
    """Exhaustively test the defining property of a monomorphic part:
    equal-size subsets with the same trace outside `part` are isomorphic."""
    part = _elements(struct, part, "part element")
    return _is_part((1,) * struct.size, part,
                    TypeRegistry(present(struct)).id_of)


def pair_mergeable(struct, a, b):
    """Whether {a, b} is a monomorphic part: every B avoiding both satisfies
    restrict(B+{a}) isomorphic to restrict(B+{b}).  The B go by size, and
    the first witness ends the test."""
    if len(_elements(struct, (a, b), "element")) < 2:
        raise InputError("pair_mergeable needs two distinct elements")
    return _pair_verdicts((1,) * struct.size,
                          TypeRegistry(present(struct)).id_of, [(a, b)])[a, b]


def minimal_decomposition(struct):
    """Blocks of the minimal monomorphic decomposition, as sorted lists,
    through the template presentation of `struct`: its compositions stand
    for the subsets, and its blocks are parts already."""
    t, classes = _presentation(struct)
    return sorted(sorted(x for b in cls for x in classes[b])
                  for cls in _coarsening(t.capacities, TypeRegistry(t).id_of))


def _twin_classes(struct):
    """The classes of the union of twin pairs, as lists of elements in order
    of their least element.  x and y are twins when every tuple through one
    of them and not the other stays in its relation after x and y are
    swapped.  Over a binary signature a union of overlapping twin pairs is a
    module; whatever the arities, `_presentation` checks the classes.

    Swapping twins x and y maps the tuples through x and not y onto those
    through y and not x, so twins lie in as many tuples of each relation:
    only pairs with equal counts are tested."""
    occurrences = struct._occurrences()
    rels = struct.rels
    groups = {}
    for x in range(struct.size):
        counts = [0] * len(rels)
        for si, _, _ in occurrences[x]:
            counts[si] += 1
        groups.setdefault(tuple(counts), []).append(x)

    def twins(x, y):
        for a, b in ((x, y), (y, x)):
            for si, _, t in occurrences[a]:
                if b not in t and tuple(
                        b if v == a else v for v in t) not in rels[si]:
                    return False
        return True

    uf = _UnionFind(struct.size)
    for group in groups.values():
        for x, y in itertools.combinations(group, 2):
            if uf.find(x) != uf.find(y) and twins(x, y):
                uf.union(x, y)
    classes = {}
    for x in range(struct.size):
        classes.setdefault(uf.find(x), []).append(x)
    return list(classes.values())


def _presentation(struct):
    """(t, classes) with `instantiate(t, sizes of the classes)` equal to
    `struct` relabelled to the element order the classes list.

    The blocks are the twin classes, each ordered by its degrees inside the
    class: per relation and coordinate, the number of tuples inside the
    class that hold the element there, out-degree first, larger first.  The
    template is `present(struct, classes)`, kept only if, per relation, the
    tuples of its accepted patterns at the class sizes are the structure's
    tuples relabelled.  When that check fails, or every class is a
    singleton, the structure is presented as its n singletons, which always
    holds."""
    classes = _twin_classes(struct)
    if len(classes) < struct.size:
        owner = {x: b for b, cls in enumerate(classes) for x in cls}
        occurrences = struct._occurrences()
        offsets = list(itertools.accumulate(
            (a for _, a in struct.signature.symbols), initial=0))

        def degrees(x):
            counts = [0] * offsets[-1]
            for si, pos, t in occurrences[x]:
                if all(owner[v] == owner[x] for v in t):
                    for p in pos:
                        counts[offsets[si] + p] -= 1
            return counts

        classes = [sorted(cls, key=lambda x: (degrees(x), x))
                   for cls in classes]
        t = present(struct, classes)
        position = [0] * struct.size
        for k, x in enumerate(x for cls in classes for x in cls):
            position[x] = k
        if all(set(tuples) == {tuple(position[x] for x in tup) for tup in rel}
               for tuples, rel in zip(
                   spans_tuples(t, block_spans(t.capacities)), struct.rels)):
            return t, classes
    return present(struct), [[x] for x in range(struct.size)]


def _coarsening(comp, type_of):
    """Partition of the blocks of `comp` into the monomorphic components of
    the structure it stands for, as sorted lists of block indices.

    `type_of` maps every composition c' <= comp to a label of the type of
    the substructure with block counts c'; labels are compared only between
    compositions of one degree.  Two elements of one block are always
    mergeable, so the minimal decomposition is a coarsening of the blocks:
    the classes of pair mergeability between blocks.  Transitivity and the
    part test of every class are re-verified (a failure would be a library
    bug).
    """
    nblocks = len(comp)
    merge = _pair_verdicts(comp, type_of,
                           itertools.combinations(range(nblocks), 2))
    uf = _UnionFind(nblocks)
    for (i, j), ok in merge.items():
        if ok:
            uf.union(i, j)
    classes = {}
    for b in range(nblocks):
        classes.setdefault(uf.find(b), []).append(b)
    classes = sorted(classes.values())
    for cls in classes:
        for i, j in itertools.combinations(cls, 2):
            if not merge[(i, j)]:
                raise ConsistencyError(
                    f"pair mergeability is not transitive on {cls}: ({i},{j})")
        if not _is_part(comp, set(cls), type_of):
            raise ConsistencyError(f"class {cls} fails the part test")
    return classes


def _pair_verdicts(comp, type_of, pairs):
    """{(i, j): whether an element of block i and one of block j are
    mergeable} over the block pairs in `pairs`: c' + e_i and c' + e_j have
    the same type for every c' <= comp - e_i - e_j.

    One walk decides every pair: the c' <= comp go degree by degree, and at
    each c' every undecided pair with c'_i < comp_i and c'_j < comp_j
    compares the types of its two neighbours, each read once per c'.  A pair
    drops out at its first difference, and the walk ends when none is left,
    so a witness against the last open merge at degree m needs the types of
    degree m + 1 only."""
    verdict = dict.fromkeys(pairs, True)
    undecided = list(verdict)
    for m in range(sum(comp) - 1):
        if not undecided:
            break
        for c in subcompositions(comp, m):
            up = {}
            split = False
            for pair in undecided:
                i, j = pair
                if c[i] < comp[i] and c[j] < comp[j]:
                    for b in pair:
                        if b not in up:
                            up[b] = type_of(c[:b] + (c[b] + 1,) + c[b + 1:])
                    if up[i] != up[j]:
                        verdict[pair] = False
                        split = True
            if split:
                undecided = [p for p in undecided if verdict[p]]
                if not undecided:
                    break
    return verdict


def _is_part(comp, cls, type_of):
    """The part test for the union of the blocks in the set `cls`: for every
    trace c_out outside the class, all nonzero inside counts c_in of one size
    give the same type.  A size with a single inside count cannot fail, so a
    class of one block passes without a type."""
    inside = tuple(d if b in cls else 0 for b, d in enumerate(comp))
    outside = tuple(d - x for d, x in zip(comp, inside))
    for m in range(1, sum(inside) + 1):
        group = subcompositions(inside, m)
        if len(group) == 1:
            continue
        for c_out in subcompositions(outside):
            if len({type_of(tuple(map(operator.add, c_out, c_in)))
                    for c_in in group}) > 1:
                return False
    return True


def _level_classes(t, d, registry):
    """Block coarsening at level d: `_coarsening` over the level box
    `t.max_composition(d)`, classified by `registry`, a registry of `t`.
    Its labels are compared within a degree only, and a composition inside
    the box instantiates the same structure whatever else the registry
    holds, so one registry serves every level."""
    return _coarsening(t.max_composition(d), registry.id_of)


def _fatness(t, d_max, registry=None):
    """(d, classes at level d) for `fatness_threshold`: the first level
    whose block coarsening level d+1 repeats."""
    if json_int(d_max, "d_max") < 1:
        raise InputError("d_max must be at least 1")
    registry = registry or TypeRegistry(t)
    prev = _level_classes(t, 1, registry)
    for d in range(1, d_max + 1):
        nxt = _level_classes(t, d + 1, registry)
        if nxt == prev:
            return d, prev
        prev = nxt
    raise UndeterminedError(
        f"block coarsening did not stabilize up to level {d_max}; "
        f"level-{d_max} guess: {prev}")


def fatness_threshold(t, d_max=DEFAULT_D_MAX):
    """Smallest level d <= d_max whose block coarsening agrees with level
    d+1, plus the (d, d+1) stability certificate."""
    d, _ = _fatness(t, d_max)
    return d, (d, d + 1)


@dataclass(frozen=True)
class TemplateComponents:
    """Monomorphic components of a template, at block granularity."""

    classes: tuple          # tuple of tuples of block indices
    dimension: int          # number of classes containing an infinite block
    fatness: int

    @property
    def count(self):
        return len(self.classes)

    @property
    def certificate(self):
        """The levels whose block coarsenings agree."""
        return (self.fatness, self.fatness + 1)


def template_components(t, d_max=DEFAULT_D_MAX, registry=None):
    """Coarsen the declared blocks into monomorphic components via pair
    tests on a fat instantiation; the dimension counts infinite classes.
    The pair and part tests classify through `registry` (default: a new
    registry of `t`)."""
    d, classes = _fatness(t, d_max, registry)
    caps = t.capacities
    k = sum(1 for cls in classes if any(caps[b] is None for b in cls))
    return TemplateComponents(tuple(tuple(c) for c in classes), k, d)


def component_sizes(t, comps):
    """Total capacity of each component class (None = infinite)."""
    sizes = []
    for cls in comps.classes:
        caps = [t.capacities[b] for b in cls]
        sizes.append(None if any(c is None for c in caps) else sum(caps))
    return sizes


def profile_floor_params(t, comps=None, d_max=DEFAULT_D_MAX):
    """(k, n0) for the lower bound phi(n) >= p_k(n - n0): n0 = k1*d + m with
    k1 the number of components of size >= d and m the total size of the
    remaining finite components."""
    json_int(d_max, "d_max")
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


def partition_lower_bound(k, n, n0):
    """p_k(n - n0): integer partitions of n - n0 into at most k parts
    (0 below n0, 1 at n0 for the empty partition), which are the partitions
    into parts of size at most k: the coefficient of Z^(n - n0) in
    1/((1-Z)...(1-Z^k)), where factors past n - n0 change nothing."""
    if json_int(k, "k") < 1:
        raise InputError("partition_lower_bound needs k >= 1")
    m = json_int(n, "n") - json_int(n0, "n0")
    if m < 0:
        return 0
    return expand([1], range(1, min(k, m) + 1), m)[m]


# ---------------------------------------------------------------------------
# F-monomorphy up to a degree bound


def _expansion(struct, f_set):
    """The expansion of `struct` by the constants of `f_set`: the elements
    outside F, in order, with one relation per pair (relation of `struct`,
    placement of F entries in its tuples) holding the tuples' other
    entries; None when no tuple has an entry outside F.  An isomorphism of
    A+F onto A'+F fixing F pointwise is exactly an isomorphism of A onto A'
    in the expansion."""
    rest = [x for x in range(struct.size) if x not in f_set]
    position = {x: k for k, x in enumerate(rest)}
    rels = {}
    for si, rel in enumerate(struct.rels):
        for tup in rel:
            placed = tuple((p, x) for p, x in enumerate(tup) if x in f_set)
            if len(placed) < len(tup):
                rels.setdefault((si, placed), []).append(
                    tuple(position[x] for x in tup if x not in f_set))
    if not rels:
        return None
    keys = sorted(rels)
    sig = Signature(tuple((f"r{i}", len(rels[k][0])) for i, k in enumerate(keys)))
    return FiniteRelStruct(sig, len(rest), [rels[k] for k in keys])


def is_F_monomorphic_struct(struct, f_set, bound):
    """For all n <= bound and A, A' of size n avoiding F: the restrictions
    to A+F and A'+F are isomorphic by a map fixing F pointwise, that is,
    the expansion of the structure by the constants of F (`_expansion`)
    has one isomorphism type of n-sets: the profile of the registry of its
    presentation is 1 at every n from 1 to the bound."""
    nonnegative_int(bound, "bound")
    expansion = _expansion(struct, _elements(struct, f_set, "F element"))
    if expansion is None:
        return True
    registry = TypeRegistry(_presentation(expansion)[0])
    return all(registry.profile(n) == 1
               for n in range(1, min(bound, expansion.size) + 1))


def is_F_monomorphic_up_to(subject, f_spec, bound):
    """Bounded F-monomorphy check.

    For a finite structure, `f_spec` is a set of elements.  For a template,
    `f_spec` maps block index -> number of F elements (an int from 0 to the
    capacity), taken as the initial segment of that block's chain; the check
    runs on the instantiation with min(capacity, f + bound) elements per
    block, which realizes every composition a degree-<= bound subset avoiding
    F can have.
    """
    if hasattr(subject, "rels"):
        return is_F_monomorphic_struct(subject, f_spec, bound)
    nonnegative_int(bound, "bound")
    t = subject
    f_counts = [0] * len(t.blocks)
    for b, c in dict(f_spec).items():
        b, c = json_int(b, "F block index"), json_int(c, "F count")
        if not 0 <= b < len(t.blocks):
            raise InputError("F block index out of range")
        cap = t.capacities[b]
        if c < 0 or (cap is not None and c > cap):
            raise InputError("F count must lie between 0 and the block capacity")
        f_counts[b] = c
    comp = tuple(
        (f + bound) if cap is None else min(cap, f + bound)
        for f, cap in zip(f_counts, t.capacities)
    )
    s = instantiate(t, comp)
    spans = block_spans(comp)
    f_set = [x for (lo, _), f in zip(spans, f_counts) for x in range(lo, lo + f)]
    return is_F_monomorphic_struct(s, f_set, bound)
