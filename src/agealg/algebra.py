"""Profiles and the age algebra: orbit sums, structure constants, e-rank.

The registry classifies, degree by degree, the instantiations of all
capacity-respecting compositions of a template into isomorphism types.
Classification buckets structures by their refined quotient (the sorted
colour-refinement signatures, equal for isomorphic structures) and settles
membership with genuine isomorphism searches; the canonical code is computed
once per type and keys everything downstream (orbit sums, products, reports).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, prod

from .errors import ConsistencyError, InputError
from .hilbert import compare_monomials
from .structures import canonical_code, find_isomorphism, refined_quotient
from .templates import compositions, instantiate, subcompositions


@dataclass
class TypeEntry:
    """One isomorphism type: canonical code, realizing compositions (in
    discovery = graded-lex order), the maximal one, and a representative."""

    code: str
    reps: list
    lead: tuple
    struct: object = field(repr=False)


class TypeRegistry:
    """Per-degree map IsoType code -> TypeEntry, built incrementally."""

    def __init__(self, template):
        self.template = template
        self._by_degree = {}
        self._comp_code = {}
        self._built = -1

    def ensure_degree(self, n):
        while self._built < n:
            self._build(self._built + 1)

    def _build(self, n):
        entries = {}
        buckets = {}
        by_struct = {}
        for comp in compositions(self.template, n):
            s = instantiate(self.template, comp)
            code = by_struct.get(s)  # permuted compositions often coincide
            inv = None
            if code is None:
                inv = refined_quotient(s, [0] * s.size)[1]
                for cand in buckets.get(inv, ()):
                    if find_isomorphism(entries[cand].struct, s) is not None:
                        code = cand
                        break
            if code is None:
                code = canonical_code(s)
                if code in entries:  # same code must mean isomorphic
                    raise ConsistencyError("two types share a canonical code")
                entries[code] = TypeEntry(code, [comp], comp, s)
                buckets.setdefault(inv, []).append(code)
            else:
                e = entries[code]
                e.reps.append(comp)
                if compare_monomials(comp, e.lead) > 0:
                    e.lead = comp
            by_struct[s] = code
            self._comp_code[comp] = code
        self._by_degree[n] = entries
        self._built = n

    def types_at(self, n):
        self.ensure_degree(n)
        return self._by_degree[n]

    def code_of(self, comp):
        self.ensure_degree(sum(comp))
        try:
            return self._comp_code[tuple(comp)]
        except KeyError:
            raise InputError(f"composition {comp} not realizable") from None

    def entry(self, code, degree):
        e = self.types_at(degree).get(code)
        if e is None:
            raise InputError(f"type of degree {degree} not realized in this age")
        return e

    def profile(self, n):
        return len(self.types_at(n))

    def leading_monomials(self, n):
        return {e.lead: code for code, e in self.types_at(n).items()}


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
    """Finitely supported integer combination of isomorphism-type codes."""

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
        out[(registry.code_of(c1), registry.code_of(c2))] += weight
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

    The tau arguments are IsoType values (code + degree)."""
    if tau.degree != tau1.degree + tau2.degree:
        raise InputError("degree mismatch: deg tau must be deg tau1 + deg tau2")
    registry = registry or TypeRegistry(t)
    census = split_census(registry, registry.entry(tau.code, tau.degree),
                          tau1.degree)
    return census.get((tau1.code, tau2.code), 0)


def orbit_product(t, o1, o2, registry=None):
    """Bilinear extension of the structure constants to orbit sums of
    homogeneous degrees; the result is homogeneous of the summed degree."""
    if o1.degree is None or o2.degree is None:
        raise InputError("orbit_product needs homogeneous inputs")
    registry = registry or TypeRegistry(t)
    n = o1.degree + o2.degree
    out = {}
    for code, entry in registry.types_at(n).items():
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
            out[code] = total
    return OrbitSum(out, n)


def unit_orbit(t, registry=None):
    registry = registry or TypeRegistry(t)
    (code,) = registry.types_at(0).keys()
    return OrbitSum({code: 1}, 0)


def e_orbit(t, registry=None):
    """e = sum of all degree-1 types (the sum of singletons)."""
    registry = registry or TypeRegistry(t)
    return OrbitSum({c: 1 for c in registry.types_at(1)}, 1)


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
    of degree n+1, one column per type of degree n (registry order).

    The entry at (tau', tau) counts elements a of a representative A' of
    tau' with type(A' - a) = tau.  Dropping any of the c_i elements of block
    i from the instantiation of c leaves the instantiation of c - e_i, so
    the row of c is sum_i c_i [type(c - e_i)]."""
    col_index = {c: i for i, c in enumerate(registry.types_at(n))}
    rows = []
    for entry in registry.types_at(n + 1).values():
        comp = entry.reps[0]
        row = [0] * len(col_index)
        for i, d in enumerate(comp):
            if d:
                below = comp[:i] + (d - 1,) + comp[i + 1:]
                row[col_index[registry.code_of(below)]] += d
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
               for entry in registry.types_at(m).values()):
            flagged.append(bi)
    elements = [(bi, pos) for bi in flagged for pos in range(t.capacities[bi])]
    return {
        "blocks": [t.block_names[bi] for bi in flagged],
        "elements": elements,
        "degree_bound": degree_bound,
    }
