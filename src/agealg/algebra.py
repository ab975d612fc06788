"""Profiles and the age algebra: orbit sums, structure constants, e-rank.

The registry classifies, degree by degree, the structures of all
capacity-respecting compositions of a source into isomorphism types, and
names the types of each degree by dense ids in discovery order.  A source is
a template, whose composition c stands for its instantiation, or a finite
structure of size n, read as n blocks of capacity 1: a 0/1 composition picks
a subset and stands for the substructure induced on it.  Either way the
elements of block i come in a run after those of the blocks before it, and
removing the last element of block i leaves the structure of c - e_i.  So
the deck of c (the ids of the c - e_i, each counted c_i times) is read off
the degree below without building a structure, and different decks prove two
compositions non-isomorphic.

Within a deck, membership is certified by an isomorphism.  The registry
keeps for every composition a witness: an isomorphism from its structure
onto that of its type's first composition.  The witnesses of c - e_i and of
r - e_j, when both have one type, give a bijection from c to r that sends
the removed element to the removed element; a bijection that maps every
relation onto r's is an isomorphism, however it was found.  When no such
bijection passes, canonical codes decide: a type of the deck with an equal
code is the type, and `find_isomorphism` turns the two canonical labellings
into the witness; otherwise the composition starts a new type.  Codes are
also labels, computed on request (the type ids of `constants` reports).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, prod

from .errors import ConsistencyError, InputError
from .hilbert import compare_monomials
from .structures import (FiniteRelStruct, canonical_code, find_isomorphism,
                         is_isomorphism, restrict)
from .templates import compositions, instantiate, subcompositions


@dataclass(eq=False)
class TypeEntry:
    """One isomorphism type: its id among the types of its degree, its deck
    (sorted (id, multiplicity) pairs), the realizing compositions (in
    discovery = graded-lex order) and the maximal one.  The representative
    structure, that of reps[0], and its canonical code are computed on first
    use."""

    template: object = field(repr=False)
    id: int
    deck: tuple
    reps: list
    lead: tuple
    _struct: object = field(default=None, repr=False)

    @property
    def degree(self):
        return sum(self.reps[0])

    @property
    def struct(self):
        if self._struct is None:
            self._struct = _structure(self.template, self.reps[0])
        return self._struct

    @property
    def code(self):
        return canonical_code(self.struct)


@dataclass(frozen=True)
class Singletons:
    """A finite structure as a registry source: one block of capacity 1 per
    element."""

    struct: FiniteRelStruct

    @property
    def capacities(self):
        return (1,) * self.struct.size


def _structure(source, comp):
    """The structure a composition of a registry source stands for."""
    if isinstance(source, Singletons):
        return restrict(source.struct, [x for x, d in enumerate(comp) if d])
    return instantiate(source, comp)


def _last_of_block(comp, i):
    """Position of the last element of block i in the structure of comp."""
    return sum(comp[:i + 1]) - 1


class TypeRegistry:
    """Per-degree lists of TypeEntry, indexed by type id, built incrementally.

    The source is a template or a finite structure (see the module
    docstring); `template` is the template, or the `Singletons` of the
    structure."""

    def __init__(self, source):
        if isinstance(source, FiniteRelStruct):
            source = Singletons(source)
        self.template = source
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
        for comp in compositions(self.template, n):
            deck = Counter()
            for i, d in enumerate(comp):
                if d:
                    deck[self._comp_id[comp[:i] + (d - 1,) + comp[i + 1:]]] += d
            deck = tuple(sorted(deck.items()))
            bucket = buckets.setdefault(deck, [])
            entry = s = witness = None
            if bucket:
                s = _structure(self.template, comp)
                entry, witness = self._match(comp, s, bucket)
            if entry is None:
                witness = tuple(range(n))
                entry = TypeEntry(self.template, len(entries), deck, [comp], comp, s)
                entries.append(entry)
                bucket.append(entry)
            else:
                entry.reps.append(comp)
                if compare_monomials(comp, entry.lead) > 0:
                    entry.lead = comp
            self._comp_id[comp] = entry.id
            self._witness[comp] = witness
        self._by_degree[n] = entries
        self._built = n

    def _match(self, comp, s, bucket):
        """(entry, isomorphism from s onto entry.struct) for the type of the
        bucket that s, the structure of comp, belongs to, or (None, None).
        The types of a bucket are pairwise non-isomorphic, so at most one
        can match, whichever route finds it: a witness extension, or else an
        equal canonical code."""
        for entry in bucket:
            for perm in self._extensions(comp, entry.reps[0]):
                if is_isomorphism(s, entry.struct, perm):
                    return entry, perm
        code = canonical_code(s)
        for entry in bucket:
            if entry.code == code:
                return entry, find_isomorphism(s, entry.struct)
        return None, None

    def _extensions(self, comp, rep):
        """Candidate bijections from the structure of comp onto that of rep,
        one for each block i of comp and block j of rep such that comp - e_i
        and rep - e_j have one type.  Their witnesses sigma and tau map both
        onto the structure of that type's first composition, so tau^-1 sigma
        is an isomorphism between them; the candidate extends it, shifted
        past the removed positions, by sending the last element of block i
        to the last element of block j."""
        ids, witness = self._comp_id, self._witness
        by_rest_type = {}
        for j, d in enumerate(rep):
            if d:
                rest = rep[:j] + (d - 1,) + rep[j + 1:]
                tau_inv = [0] * len(witness[rest])
                for x, y in enumerate(witness[rest]):
                    tau_inv[y] = x
                by_rest_type.setdefault(ids[rest], []).append(
                    (_last_of_block(rep, j), tau_inv))
        for i, d in enumerate(comp):
            if not d:
                continue
            rest = comp[:i] + (d - 1,) + comp[i + 1:]
            p = _last_of_block(comp, i)
            for q, tau_inv in by_rest_type.get(ids[rest], ()):
                perm = [q] * (len(tau_inv) + 1)
                for x, y in enumerate(witness[rest]):
                    y = tau_inv[y]
                    perm[x + (x >= p)] = y + (y >= q)
                yield perm

    def types_at(self, n):
        self.ensure_degree(n)
        return self._by_degree[n]

    def id_of(self, comp):
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
    """Rank over the rationals by fraction-free (Bareiss-style) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    rows_n, cols_n = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols_n):
        pivot = None
        for i in range(r, rows_n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows_n):
            for j in range(c + 1, cols_n):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows_n:
            break
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
