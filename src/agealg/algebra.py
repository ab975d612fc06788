"""Profiles and the age algebra: orbit sums, structure constants, e-rank.

The registry classifies, degree by degree, the instantiations of all
capacity-respecting compositions of a template into isomorphism types, and
names the types of each degree by dense ids in discovery order.  (A finite
structure is registered as `templates.present` of it: n blocks of capacity
1, whose 0/1 compositions stand for the substructures induced on their
supports.)  The elements of block i come in a run after those of the blocks
before it, and removing the last element of block i leaves the
instantiation of c - e_i.  So the deck of c (the ids of the c - e_i, each
counted c_i times) is read off the degree below without building a
structure.  By Kelly's lemma the deck fixes, per relation, the number of
tuples that miss some element.  What it misses is the top count, the number
of tuples whose entries cover all the elements.  A pattern gives such a
tuple iff its blocks and widths (`TuplePattern.shape`) are those of the
support of c, and then exactly one, so the top counts are read off the
template; above the largest arity they are 0.  Compositions are bucketed by
deck and top counts, both isomorphism invariants, so a different bucket
proves two compositions non-isomorphic, and a composition that finds its
bucket empty starts a new type with no check at all.

A template's block automorphisms spare most of what follows.  A permutation
a of the blocks that keeps the capacities and maps every accepted pattern
(blocks, ranks) onto an accepted (a(blocks), ranks) makes the instantiation
of c∘a, whose block b holds c[a[b]] elements, isomorphic to that of c: the
k-th element of block b goes to the k-th element of block a[b].  So once a
composition is classified, the rest of its orbit under the automorphism
group takes its type, with the composition's witness after that map as
witness: no deck, no through-tuples, no structure.  The orbit comes later
in the degree, since its first member in lex order is the one classified,
and it is walked over a generating set of the automorphisms
(`_block_automorphisms`).  The blocks, read as a finite structure
(`templates.block_structure`), have exactly the block automorphisms as
automorphisms, so the generators are those that its canonical search
records, once per registry.  (Those of a presented finite structure are its
automorphisms.)
The compositions that no automorphism reaches from an earlier one take the
route below.

Within a bucket, membership is certified by an isomorphism.  The registry
keeps for every composition a witness: an isomorphism from its structure
onto that of its type's first composition.  The witnesses of c - e_i and of
r - e_j, when both have one type, give a bijection from c to r that sends
p, the last element of block i, to q, the last element of block j.  Removing
p and q leaves the structures of c - e_i and r - e_j, which the witnesses
already map onto each other, so the bijection is an isomorphism iff it maps
the tuples through p onto the tuples through q (`structures.maps_onto`).  Only
those tuples are read, enumerated over the patterns that use the block.  The
inverse witnesses of the r - e_j, shifted past q, are the extension tables
of r's type: the witnesses they read are fixed once the degree below is
built, so they are built once per type, and each candidate is a lookup of
the witness of c - e_i in one of them.

The structure of a composition is built only when no such bijection passes.
Then canonical codes decide: a type of the bucket with an equal code is the
type, and `find_isomorphism` turns the two canonical labellings into the
witness; otherwise the composition starts a new type, which keeps the
structure.  The structure of any other type is built on first use.  Codes
are also labels, computed on request (the type ids of `constants` reports).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import comb, gcd, prod

from .errors import ConsistencyError, InputError
from .hilbert import monomial_key
from .structures import (automorphisms, canonical_code, find_isomorphism,
                         maps_onto, nonnegative_int)
from .templates import (block_spans, block_structure, compositions,
                        instantiate, spans_through, subcompositions)


@dataclass(eq=False)
class TypeEntry:
    """One isomorphism type: its id among the types of its degree, its deck
    (sorted (id, multiplicity) pairs) and the realizing compositions (in
    discovery = graded-lex order); `lead` is the maximal one.  The lead, the
    representative structure, that of reps[0], its canonical code, its
    tuples through the last element of each block and its extension tables
    (`TypeRegistry._tables`) are computed on first use."""

    template: object = field(repr=False)
    id: int
    deck: tuple
    reps: list
    _struct: object = field(default=None, repr=False)
    _through: dict = field(default_factory=dict, repr=False)
    _tables: dict = field(default=None, repr=False)

    @property
    def degree(self):
        return sum(self.reps[0])

    @functools.cached_property
    def lead(self):
        """The realizing composition that is largest in the monomial order
        (`hilbert.compare_monomials`, through `hilbert.monomial_key`).  The
        reps grow only while their degree is built, and `types_at` finishes
        that degree first."""
        return max(self.reps, key=monomial_key)

    @property
    def struct(self):
        if self._struct is None:
            self._struct = instantiate(self.template, self.reps[0])
        return self._struct

    @property
    def code(self):
        return canonical_code(self.struct)

    def through(self, j):
        """Per relation, the set of tuples of the representative structure
        that contain the last element of block j."""
        if j not in self._through:
            self._through[j] = [frozenset(r) for r in spans_through(
                self.template, block_spans(self.reps[0]), j)]
        return self._through[j]


def _block_automorphisms(t):
    """A generating set of the block automorphisms of the template t, a[b]
    the image of block b: the automorphisms of `templates.block_structure`
    that its canonical search records (`structures.automorphisms`).  A
    template with no blocks, such as a presented empty structure, has
    none."""
    return automorphisms(block_structure(t)) if t.blocks else []


class TypeRegistry:
    """Per-degree lists of TypeEntry, indexed by type id, built incrementally
    for the template `template` (a finite structure is registered through
    `templates.present`, see the module docstring)."""

    def __init__(self, template):
        self.template = template
        self._automorphisms = _block_automorphisms(template)
        self._tops = Counter((p.shape[0], si) for si, pats in
                             enumerate(template.accepted) for p in pats)
        self._max_arity = max(a for _, a in template.signature.symbols)
        self._by_degree = {}
        self._comp_id = {}
        self._witness = {}
        self._built = -1

    def ensure_degree(self, n):
        while self._built < n:
            self._build(self._built + 1)

    def _build(self, n):
        entries = []
        buckets = {}
        reached = {}
        ids = self._comp_id
        for comp in compositions(self.template, n):
            if comp in reached:
                entry, witness = reached.pop(comp)
                entry.reps.append(comp)
                ids[comp] = entry.id
                self._witness[comp] = witness
                continue
            deck = {}
            for i, d in enumerate(comp):
                if d:
                    k = ids[comp[:i] + (d - 1,) + comp[i + 1:]]
                    deck[k] = deck.get(k, 0) + d
            deck = key = tuple(sorted(deck.items()))
            if n <= self._max_arity:
                key = deck, self._top_counts(comp)
            bucket = buckets.setdefault(key, [])
            entry = s = witness = None
            if bucket:
                entry, witness = self._certify(comp, bucket)
                if entry is None:
                    s = instantiate(self.template, comp)
                    entry, witness = self._by_code(s, bucket)
            if entry is None:
                witness = tuple(range(n))
                entry = TypeEntry(self.template, len(entries), deck, [comp], s)
                entries.append(entry)
                bucket.append(entry)
            else:
                entry.reps.append(comp)
            ids[comp] = entry.id
            self._witness[comp] = witness
            if self._automorphisms:
                for image, w in self._orbit(comp, witness).items():
                    reached[image] = entry, w
        self._by_degree[n] = entries
        self._built = n

    def _top_counts(self, comp):
        """Per relation, the number of tuples of the structure of comp whose
        entries cover all its elements: one for each pattern whose blocks
        and widths are those of comp's support."""
        support = tuple((b, d) for b, d in enumerate(comp) if d)
        return tuple(self._tops[support, si]
                     for si in range(len(self.template.accepted)))

    def _orbit(self, comp, witness):
        """The other compositions of the orbit of comp under the block
        automorphisms, each with its witness when `witness` is that of comp.
        For an automorphism a, the k-th element of block b of m∘a (block b
        holds m[a[b]] elements) goes to the k-th element of block a[b] of m,
        an isomorphism, so the witness of m after that map is one of m∘a.
        The orbit is walked over the generators."""
        found = {comp: witness}
        queue = [comp]
        for m in queue:
            w = found[m]
            starts = list(itertools.accumulate(m, initial=0))
            for a in self._automorphisms:
                image = tuple(map(m.__getitem__, a))
                if image not in found:
                    found[image] = tuple(itertools.chain.from_iterable(
                        w[starts[b]:starts[b + 1]] for b in a))
                    queue.append(image)
        del found[comp]
        return found

    def _certify(self, comp, bucket):
        """(entry, isomorphism from the structure of comp onto entry.struct)
        for the first witness extension onto a type of the bucket that
        passes the delta check, or (None, None).  The types of a bucket are
        pairwise non-isomorphic, so at most one can match, whichever route
        finds it: this one, or else `_by_code`."""
        through_of = functools.partial(spans_through, self.template,
                                       block_spans(comp))
        through = {}
        for entry in bucket:
            for i, j, perm in self._extensions(comp, entry):
                if i not in through:
                    through[i] = through_of(i)
                if maps_onto(through[i], entry.through(j), perm):
                    return entry, perm
        return None, None

    def _by_code(self, s, bucket):
        """(entry, isomorphism from s onto entry.struct) for the type of the
        bucket whose code equals that of s, or (None, None)."""
        code = canonical_code(s)
        for entry in bucket:
            if entry.code == code:
                return entry, find_isomorphism(s, entry.struct)
        return None, None

    def _tables(self, entry):
        """The extension tables of a type: per type id of r - e_j, where r is
        the type's first composition, the triples (j, q, table) with q the
        last element of block j of r.  tau, the witness of r - e_j, maps its
        structure onto that of the first composition of its type; table is
        tau^-1 shifted past q, which maps that structure into the structure
        of r.  The witnesses of degree sum(r) - 1 are fixed by the time r is
        classified, so the tables are built once per type."""
        if entry._tables is None:
            rep = entry.reps[0]
            tables = {}
            q = -1
            for j, d in enumerate(rep):
                q += d
                if d:
                    rest = rep[:j] + (d - 1,) + rep[j + 1:]
                    tau = self._witness[rest]
                    table = [0] * len(tau)
                    for x, y in enumerate(tau):
                        table[y] = x + (x >= q)
                    tables.setdefault(self._comp_id[rest], []).append(
                        (j, q, table))
            entry._tables = tables
        return entry._tables

    def _extensions(self, comp, entry):
        """Candidate bijections from the structure of comp onto that of the
        type's first composition r, as (i, j, bijection), one for each block
        i of comp and block j of r such that comp - e_i and r - e_j have one
        type.  Their witnesses sigma and tau map both onto the structure of
        that type's first composition, so tau^-1 sigma is an isomorphism
        between them; the candidate extends it, shifted past the removed
        positions, by sending p, the last element of block i, to q, the last
        element of block j."""
        ids, witness = self._comp_id, self._witness
        tables = self._tables(entry)
        p = -1
        for i, d in enumerate(comp):
            p += d
            if not d:
                continue
            rest = comp[:i] + (d - 1,) + comp[i + 1:]
            candidates = tables.get(ids[rest])
            if not candidates:
                continue
            sigma = witness[rest]
            for j, q, table in candidates:
                perm = list(map(table.__getitem__, sigma))
                perm.insert(p, q)
                yield i, j, perm

    def types_at(self, n):
        self.ensure_degree(nonnegative_int(n, "degree"))
        return self._by_degree[n]

    def id_of(self, comp):
        try:
            return self._comp_id[comp]
        except (KeyError, TypeError):
            pass
        self.ensure_degree(sum(comp))
        try:
            return self._comp_id[tuple(comp)]
        except KeyError:
            raise InputError(f"composition {comp} not realizable") from None

    def profile(self, n):
        return len(self.types_at(n))

    def leading_monomials(self, n):
        return {e.lead: e.id for e in self.types_at(n)}


def profile(t, n, registry=None):
    """phi(n): number of isomorphism types among degree-n instantiations."""
    registry = registry or TypeRegistry(t)
    return registry.profile(n)


def profile_series(t, degree, registry=None):
    """phi(0..degree) as a list; monotonicity is the caller's check."""
    nonnegative_int(degree, "degree")
    registry = registry or TypeRegistry(t)
    return [registry.profile(n) for n in range(degree + 1)]


# ---------------------------------------------------------------------------
# structure constants and orbit sums


class OrbitSum:
    """Finitely supported integer combination of the isomorphism types of
    one degree, keyed by type id."""

    def __init__(self, coeffs, degree=None):
        self.coeffs = {c: int(v) for c, v in dict(coeffs).items() if v}
        self.degree = degree

    def __eq__(self, other):
        return isinstance(other, OrbitSum) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"OrbitSum({len(self.coeffs)} terms, degree={self.degree})"


def _splits(registry, comp, m):
    """Counts of (type(A1), type(A2)) over ordered splits of the
    instantiation of `comp` with |A1| = m.

    A1 with block counts c1 induces the instantiation of c1 and its
    complement that of comp - c1, so one sub-composition stands for
    prod C(comp_i, c1_i) splits and no subset is ever canonicalized."""
    out = Counter()
    for c1 in subcompositions(comp, m):
        c2 = tuple(d - x for d, x in zip(comp, c1))
        weight = prod(comb(d, x) for d, x in zip(comp, c1))
        out[(registry.id_of(c1), registry.id_of(c2))] += weight
    return out


def split_census(registry, entry, m):
    """`_splits` of a representative of the type `entry` into halves of
    degree m and the rest.  The census of a second realizing composition,
    when there is one, must be the same."""
    census = _splits(registry, entry.reps[0], m)
    if len(entry.reps) > 1:
        other = _splits(registry, entry.reps[1], m)
        if other != census:
            raise ConsistencyError(
                f"split census depends on the representative: "
                f"{entry.reps[0]} vs {entry.reps[1]}")
    return census


def structure_constant(t, tau1, tau2, tau, registry=None):
    """c^tau_{tau1,tau2}: ordered splits of a representative of tau whose
    halves realize tau1 and tau2, read from its split census.

    The tau arguments are TypeEntry values of a registry of `t`; every
    registry of `t` numbers the types alike, in discovery order."""
    if tau.degree != tau1.degree + tau2.degree:
        raise InputError("degree mismatch: deg tau must be deg tau1 + deg tau2")
    registry = registry or TypeRegistry(t)
    census = split_census(registry, tau, tau1.degree)
    return census.get((tau1.id, tau2.id), 0)


def orbit_product(t, o1, o2, registry=None):
    """Bilinear extension of the structure constants to orbit sums of
    homogeneous degrees; the result is homogeneous of the summed degree."""
    if o1.degree is None or o2.degree is None:
        raise InputError("orbit_product needs homogeneous inputs")
    registry = registry or TypeRegistry(t)
    n = o1.degree + o2.degree
    out = {}
    for entry in registry.types_at(n):
        total = 0
        splits = _splits(registry, entry.reps[0], o1.degree)
        for (c1, c2), mult in splits.items():
            v1 = o1.coeffs.get(c1, 0)
            if not v1:
                continue
            v2 = o2.coeffs.get(c2, 0)
            if v2:
                total += mult * v1 * v2
        if total:
            out[entry.id] = total
    return OrbitSum(out, n)


def unit_orbit(t, registry=None):
    registry = registry or TypeRegistry(t)
    (entry,) = registry.types_at(0)
    return OrbitSum({entry.id: 1}, 0)


def e_orbit(t, registry=None):
    """e = sum of all degree-1 types (the sum of singletons)."""
    registry = registry or TypeRegistry(t)
    return OrbitSum({e.id: 1 for e in registry.types_at(1)}, 1)


def _int_matrix_rank(rows):
    """Rank over the rationals by integer row elimination.  Each pivot row
    clears its first nonzero column from the rows with an entry there, and
    each row so changed is divided by the gcd of its entries, or dropped
    when it is zero."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        c = next(j for j, x in enumerate(pivot) if x)
        p = pivot[c]
        rest = []
        for r in rows:
            f = r[c]
            if f:
                r = [p * x - f * y for x, y in zip(r, pivot)]
                g = gcd(*r)
                if not g:
                    continue
                r = [x // g for x in r]
            rest.append(r)
        rows = rest
        rank += 1
    return rank


def _e_rows(registry, n):
    """Matrix of multiplication by e from degree n to n+1: one row per type
    of degree n+1, one column per type of degree n (in id order).

    The entry at (tau', tau) counts elements a of a representative A' of
    tau' with type(A' - a) = tau, so the row of tau' is its deck."""
    width = registry.profile(n)
    rows = []
    for entry in registry.types_at(n + 1):
        row = [0] * width
        for i, mult in entry.deck:
            row[i] = mult
        rows.append(row)
    return rows


def mult_by_e_rank(t, n, registry=None):
    """Rank of multiplication by e from degree n to n+1; full rank phi(n)
    certifies injectivity and hence a non-decreasing profile."""
    registry = registry or TypeRegistry(t)
    return _int_matrix_rank(_e_rows(registry, n))


# ---------------------------------------------------------------------------
# bounded kernel


def kernel_elements_bounded(t, degree_bound):
    """Certified kernel members among finite-block elements.

    A finite block is flagged when dropping one of its elements (capacity
    minus one) loses some realized type at a degree <= degree_bound.  The
    smaller age consists of the instantiations of the compositions that
    leave the block below its capacity, so a type is lost exactly when every
    composition realizing it fills the block.  Within a block all elements
    are interchangeable, so whole blocks are reported.  Infinite blocks can
    never meet the kernel.  False negatives beyond the bound are possible
    and the bound is part of the report.
    """
    nonnegative_int(degree_bound, "degree_bound")
    registry = TypeRegistry(t)
    flagged = []
    for bi, cap in enumerate(t.capacities):
        if cap is None:
            continue
        if any(all(comp[bi] == cap for comp in entry.reps)
               for m in range(degree_bound + 1)
               for entry in registry.types_at(m)):
            flagged.append(bi)
    elements = [(bi, pos) for bi in flagged for pos in range(t.capacities[bi])]
    return {
        "blocks": [t.block_names[bi] for bi in flagged],
        "elements": elements,
        "degree_bound": degree_bound,
    }
