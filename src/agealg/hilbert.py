"""Leading monomials, monomial ideals, and exact Hilbert series assembly.

Monomials (exponent vectors over the template blocks) are ordered by
comparing shapes with the degree reverse lexicographic order and breaking
ties with plain lex in block-declaration order.  This order is well founded
but not a monomial order, so all ideal computations happen per chain support
in the layer-variable ring: for each chain S_1 c ... c S_l arising among
leading monomials, the span of those leading monomials together with the
over-capacity monomials is a monomial ideal there, and its Hilbert series
comes out of Bigatti's pivot recursion on the minimal generators.  Summing the
per-chain series over all chains rebuilds the profile generating series as
an explicit rational function with denominator (1-Z)...(1-Z^k).

Everything is exact: integer polynomial arithmetic and rational
interpolation via fractions.Fraction.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import itemgetter, le, mul, neg, sub

from .errors import ConsistencyError, InputError, NotRationalError, UndeterminedError
from .structures import json_int, nonnegative_int
from .templates import subcompositions

DEFAULT_GUARD = 5
# periods past its interpolation points on which a quasi-polynomial is checked
EXTRA_PERIODS = 2


# ---------------------------------------------------------------------------
# exact integer polynomial helpers (coefficient lists, index = degree)


def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    return ptrim(map(sum, itertools.zip_longest(p, q, fillvalue=0)))


def psub(p, q):
    return padd(p, [-c for c in q])


def mul_geom(p, j):
    """p * (1 - Z^j), in O(len(p))."""
    out = list(p) + [0] * j
    for i, c in enumerate(p):
        out[i + j] -= c
    return ptrim(out)


def div_geom(p, j):
    """Exact quotient p / (1 - Z^j) over the integers, or None if it does
    not divide, in O(len(p)): q_i = p_i + q_{i-j}, and the top j
    coefficients of p must be cancelled by q's top j."""
    if j < 1:
        raise InputError("division by zero polynomial")
    p = ptrim(p)
    n = len(p)
    q = p[: max(n - j, 0)]
    for i in range(j, len(q)):
        q[i] += q[i - j]
    for i in range(max(n - j, 0), n):
        if p[i] + (q[i - j] if i >= j else 0):
            return None
    return q


def expand(numerator, denominators, degree):
    """Series coefficients 0..degree of numerator / prod (1 - Z^j)."""
    out = list(numerator[:degree + 1]) + [0] * (degree + 1 - len(numerator))
    for j in denominators:
        for i in range(j, degree + 1):
            out[i] += out[i - j]
    return out


@dataclass(frozen=True)
class IntSeries:
    """Exact integer series truncated at a fixed order."""

    coefficients: tuple
    order: int

    @staticmethod
    def make(coeffs):
        coeffs = tuple(json_int(c, "series coefficient") for c in coeffs)
        return IntSeries(coeffs, len(coeffs) - 1)

    def __getitem__(self, n):
        if n < 0 or n > self.order:
            raise InputError(f"series index {n} beyond truncation {self.order}")
        return self.coefficients[n]


@dataclass(frozen=True)
class HilbertForm:
    """Integer numerator over a multiset of factors (1 - Z^{n_i})."""

    numerator: tuple
    denominators: tuple

    @staticmethod
    def make(numerator, denominators):
        denominators = tuple(sorted(json_int(d, "denominator exponent")
                                    for d in denominators))
        if denominators and denominators[0] < 1:
            raise InputError(f"denominator factor (1 - Z^{denominators[0]}): "
                             f"exponents must be >= 1")
        return HilbertForm(tuple(ptrim([json_int(c, "numerator coefficient")
                                        for c in numerator])), denominators)

    @property
    def is_zero(self):
        return not self.numerator

    def series(self, degree):
        return expand(self.numerator, self.denominators, degree)

    def normalized(self):
        """Cancel every factor (1 - Z^j) that divides the numerator, largest
        first, until none does; the result has P(1) != 0 (or is zero)."""
        num = list(self.numerator)
        dens = list(self.denominators)
        if not num:
            return HilbertForm.make([], [])
        changed = True
        while changed:
            changed = False
            for j in sorted(set(dens), reverse=True):
                q = div_geom(num, j)
                if q is not None:
                    num = q
                    dens.remove(j)
                    changed = True
                    break
        return HilbertForm.make(num, dens)

    def over(self, dens):
        """The numerator of this form over prod (1 - Z^j), j in the multiset
        `dens`, or None when that is not a polynomial.  A factor on both
        sides cancels; the others multiply or divide the numerator, and it is
        a polynomial iff every division is exact."""
        num = list(self.numerator)
        divide = list(self.denominators)
        for j in dens:
            if j < 1:
                raise InputError(f"denominator factor (1 - Z^{j}): "
                                 f"exponents must be >= 1")
            if j in divide:
                divide.remove(j)
            else:
                num = mul_geom(num, j)
        for j in divide:
            num = div_geom(num, j)
            if num is None:
                return None
        return num

    def same_series(self, other):
        """Exact equality as rational functions, over both denominators."""
        both = self.denominators + other.denominators
        return self.over(both) == other.over(both)

    def numerator_at_one(self):
        return sum(self.numerator)

    def pole_order_at_one(self):
        num = list(self.numerator)
        drop = 0
        while num and sum(num) == 0:
            num = div_geom(num, 1)
            drop += 1
        return len(self.denominators) - drop

    def pretty(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.numerator):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                z = "Z" if i == 1 else f"Z^{i}"
                terms.append(("-" if c < 0 else "+") + f" {mag}{z}"
                             if terms else (("-" if c < 0 else "") + f"{mag}{z}"))
        num = " ".join(terms) if terms else "0"
        if not self.denominators:
            return num
        den = "".join(f"(1-Z^{j})" if j > 1 else "(1-Z)" for j in self.denominators)
        return f"({num})/{den}"

    def to_json_dict(self):
        return {"numerator": list(self.numerator),
                "denominator": list(self.denominators)}


# ---------------------------------------------------------------------------
# monomial order, leading monomials, layers


def shape(comp):
    return tuple(sorted(comp, reverse=True))


def compare_monomials(a, b):
    """Total order: degree first, then revlex on shapes, then lex on the
    exponents in block-declaration order.  Returns -1, 0 or +1."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise InputError("compare_monomials needs a common block set")
    if a == b:
        return 0
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    sa, sb = shape(a), shape(b)
    if sa != sb:
        i = max(j for j in range(len(a)) if sa[j] != sb[j])
        # at the largest differing index, the larger entry loses
        return -1 if sa[i] > sb[i] else 1
    return -1 if a < b else 1


def monomial_key(a):
    """A sort key for the order of `compare_monomials`: the degree, then
    the ascending shape negated (the shapes' largest differing index comes
    first, and there the larger entry sorts lower), then the exponents."""
    return sum(a), tuple(map(neg, sorted(a))), tuple(a)


def layers(comp):
    """Unique square-free factorization m = x_{S_1}^{e_1} ... x_{S_r}^{e_r}
    with S_1 c ... c S_r; returns [(S_i, e_i)] with S_i sorted tuples, each
    layer the last one grown by the blocks of the next smaller value."""
    comp = tuple(comp)
    if not any(comp):
        raise InputError("the zero monomial has no layer factorization")
    order = sorted(((d, j) for j, d in enumerate(comp) if d > 0), reverse=True)
    out, members = [], []
    for (d, j), (below, _) in zip(order, order[1:] + [(0, None)]):
        members.append(j)
        if below != d:
            out.append((tuple(sorted(members)), d - below))
    return out


# ---------------------------------------------------------------------------
# weighted monomial ideals


@dataclass(frozen=True)
class WeightedMonomialIdeal:
    """Monomial ideal in variables of given positive degrees; the stored
    generators are minimal (pairwise non-dividing)."""

    degrees: tuple
    generators: tuple

    @staticmethod
    def make(degrees, generators):
        degrees = tuple(json_int(d, "variable degree") for d in degrees)
        if any(d < 1 for d in degrees):
            raise InputError("variable degrees must be positive")
        gens = []
        for g in generators:
            g = tuple(json_int(e, "generator exponent") for e in g)
            if len(g) != len(degrees):
                raise InputError("generator length != number of variables")
            if any(e < 0 for e in g):
                raise InputError("negative exponent in generator")
            gens.append(g)
        return WeightedMonomialIdeal(degrees, _minimal(degrees, gens))

    def weighted_degree(self, mono):
        return sum(e * d for e, d in zip(mono, self.degrees))

    def contains(self, mono):
        return any(all(x <= y for x, y in zip(g, mono)) for g in self.generators)


def _minimal(degrees, gens, i=None):
    """The minimal ones among the exponent vectors `gens`, in the order of
    (weighted degree, vector); a divisor comes before its multiples.  With
    `i`, `gens` is I : x_i^e for minimal generators of I.  Two that were
    lowered by e stay incomparable, so only those with x_i exponent 0 are
    tested as divisors."""
    minimal, divisors = [], []
    for g in sorted(set(gens), key=lambda g: (sum(map(mul, g, degrees)), g)):
        if not any(all(map(le, h, g)) for h in divisors):
            minimal.append(g)
            if i is None or not g[i]:
                divisors.append(g)
    return tuple(minimal)


def _quotient_numerator(degrees, gens):
    """N(I) with HS(R/I) = N(I) / prod (1 - Z^{d_i}), for minimal `gens`.

    Bigatti's pivot recursion: for a pivot p = x_i^e,
    N(I) = N(I + (p)) + Z^{e d_i} N(I : p).  x_i is the variable found in the
    most generators that involve two or more variables, and e the median of
    their x_i exponents.  Both branches have a smaller exponent sum over
    their minimal generators than I, so the recursion ends, at ideals of
    pure powers, whose numerator is prod (1 - Z^{deg g}).  The generators
    of I + (p) are p and those it does not divide: no generator divides p,
    since it would also divide a mixed one with x_i exponent e.  Those of
    I : p are minimalized.  A worklist keeps the recursion off the stack,
    and each leaf adds the terms of its product to one count per degree.
    """
    nvars = len(degrees)
    total = Counter()  # degree -> coefficient, summed over the leaves
    work = [(gens, 0)]
    while work:
        gens, shift = work.pop()
        mixed = [g for g in gens if len(g) - g.count(0) > 1]
        if not mixed:
            terms = [(shift, 1)]
            for g in gens:
                w = sum(map(mul, g, degrees))
                terms += [(at + w, -c) for at, c in terms]
            for at, c in terms:
                total[at] += c
            continue
        hits = [len(mixed) - col.count(0) for col in zip(*mixed)]
        i = hits.index(max(hits))
        exps = sorted(g[i] for g in mixed if g[i])
        e = exps[len(exps) // 2]
        pivot = tuple(e if j == i else 0 for j in range(nvars))
        work.append((tuple(g for g in gens if g[i] < e) + (pivot,), shift))
        colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens]
        work.append((_minimal(degrees, colon, i), shift + e * degrees[i]))
    return ptrim([total[at] for at in range(max(total, default=-1) + 1)])


def ideal_hilbert(ideal, degree):
    """Hilbert series of the ideal (the span of its monomials), as a form
    and as its expansion through `degree` (InputError if negative).

    Over prod (1 - Z^{d_i}) the ideal's numerator is 1 - N(I), with N(I)
    the numerator of the quotient ring from `_quotient_numerator`.  Every
    call cross-checks the expansion against `_brute_ideal_series`, a direct
    count that shares nothing with the pivot recursion.
    """
    nonnegative_int(degree, "degree")
    gens = ideal.generators
    if not gens:
        form = HilbertForm.make([], [])
        return form, IntSeries.make([0] * (degree + 1))
    form = HilbertForm.make(psub([1], _quotient_numerator(ideal.degrees, gens)),
                            ideal.degrees)
    series = IntSeries.make(form.series(degree))
    if list(series.coefficients) != _brute_ideal_series(ideal, degree):
        raise ConsistencyError(
            "pivot recursion disagrees with direct monomial counting")
    return form, series


def _brute_ideal_series(ideal, degree):
    """Number of monomials of the ideal in each weighted degree 0..degree,
    counted directly.  The exponents are chosen one variable at a time,
    carrying the generators that divide the prefix so far: sorted by the
    variable's exponent, they are a prefix growing with it.  In the last
    variable the ideal's monomials are those whose exponent reaches the
    least one those generators ask for, so each prefix of the others marks
    where its run starts, and a strided prefix sum counts the runs.  With
    no variables the only monomial is 1, in the ideal iff it has a
    generator."""
    counts = [0] * (degree + 1)
    degrees = ideal.degrees
    if not ideal.generators:
        return counts
    if not degrees:
        counts[0] = 1
        return counts
    last = len(degrees) - 1
    d_last = degrees[last]

    def rec(i, gens, used):
        # `gens` divide the prefix of weighted degree `used`, sorted by x_i;
        # at i = last - 1, `low` is the least x_last exponent in gens[:p]
        low = gens[0][last]
        p = 0
        for e in range(gens[0][i], (degree - used) // degrees[i] + 1):
            grown = p
            while p < len(gens) and gens[p][i] <= e:
                if gens[p][last] < low:
                    low = gens[p][last]
                p += 1
            at = used + e * degrees[i]
            if i < last - 1:
                if p > grown:
                    prefix = sorted(gens[:p], key=itemgetter(i + 1))
                rec(i + 1, prefix, at)
            elif at + low * d_last <= degree:
                counts[at + low * d_last] += 1

    if last:
        rec(0, sorted(ideal.generators), 0)
    elif min(ideal.generators)[0] * d_last <= degree:
        counts[min(ideal.generators)[0] * d_last] = 1
    for w in range(d_last, degree + 1):
        counts[w] += counts[w - d_last]
    return counts


# ---------------------------------------------------------------------------
# Lemma "add a layer" as an executable check


@dataclass(frozen=True)
class AddLayerReport:
    checked: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def check_addlayer(t, degree, registry=None):
    """For every leading monomial m of degree <= `degree` and every layer S
    of m whose blocks are not saturated, m * x_S must again be a leading
    monomial.  A violation contradicts the theory and fails the build."""
    from .algebra import TypeRegistry

    nonnegative_int(degree, "degree")
    registry = registry or TypeRegistry(t)
    nblocks = len(t.blocks)
    top = degree + nblocks
    lms = set()
    for n in range(top + 1):
        lms.update(registry.leading_monomials(n))
    caps = t.capacities
    checked = 0
    violations = []
    for m in sorted(lms):
        if sum(m) > degree or sum(m) == 0:
            continue
        for s, _ in layers(m):
            saturated = any(caps[i] is not None and m[i] >= caps[i] for i in s)
            if saturated:
                continue
            bumped = tuple(d + 1 if i in s else d for i, d in enumerate(m))
            checked += 1
            if bumped not in lms:
                violations.append((m, s))
    return AddLayerReport(checked, tuple(violations))


# ---------------------------------------------------------------------------
# chain-wise assembly of the Hilbert series from leading monomials


def _chain_generators(chain, caps, bound, leading):
    """(minimal generators of J, minimal generators of I) for the chain
    S_1 c ... c S_l, as exponent vectors of its layer variables x_{S_j}.

    I is spanned by the over-capacity monomials: those whose exponents on
    the layers containing some finite block i sum past its capacity cap_i.
    Each one is a multiple of a vector supported on those layers that sums
    to cap_i + 1, of no larger weighted degree, so below the bound these
    vectors generate I and its minimal generators are among them.  J is
    spanned by I and the chain's leading monomials, the vectors `leading`.
    Both are cut at weighted degree `bound`.  Dickson's lemma promises
    finitely many minimal generators of J but no bound on them;
    completeness is certified by the agreement of the assembled series with
    the profile."""
    weights = tuple(len(s) for s in chain)
    over = []
    for i in chain[-1]:  # the largest layer holds every block of the chain
        cap = caps[i]
        if cap is None:
            continue
        room = [cap + 1 if i in s else 0 for s in chain]
        over += [m for m in subcompositions(room, cap + 1)
                 if sum(e * w for e, w in zip(m, weights)) <= bound]
    return _minimal(weights, over + list(leading)), _minimal(weights, over)


def hilbert_via_leading(t, degree, gen_bound=None, registry=None):
    """Assemble the Hilbert series by summing per-chain monomial-ideal
    series of leading monomials, then put it over (1-Z)...(1-Z^k), k the
    largest all-infinite layer of any chain.

    The expansion is verified against the profile series up to `degree`; a
    mismatch means the generators (cut at `gen_bound`, default `degree`)
    missed something and asks for a larger bound, or, at the full bound,
    exposes a genuine bug.  So does a finite layer that does not cancel
    from a chain series, as generators cut too early leave it.
    """
    from .algebra import TypeRegistry, profile_series

    nonnegative_int(degree, "degree")
    bound = degree if gen_bound is None else min(
        nonnegative_int(gen_bound, "gen_bound"), degree)
    registry = registry or TypeRegistry(t)

    # chain -> the layer exponents of its leading monomials
    by_chain = {}
    for n in range(1, bound + 1):
        for lm in registry.leading_monomials(n):
            chain, exps = zip(*layers(lm))
            by_chain.setdefault(chain, set()).add(exps)

    caps = t.capacities
    # the empty leading monomial's 1, then one form per chain
    forms = [HilbertForm.make([1], [])]
    k = 0  # the largest all-infinite layer so far

    for chain in sorted(by_chain):
        weights = tuple(len(s) for s in chain)
        gens_j, gens_i = _chain_generators(chain, caps, bound, by_chain[chain])
        form_j, _ = ideal_hilbert(WeightedMonomialIdeal(weights, gens_j), bound)
        form_i, _ = ideal_hilbert(WeightedMonomialIdeal(weights, gens_i), bound)
        chain_form = HilbertForm.make(
            psub(list(form_j.numerator), list(form_i.numerator)), weights)
        # layers containing a finite block always cancel out of the series
        dens = [w for s, w in zip(chain, weights)
                if all(caps[i] is None for i in s)]
        num = chain_form.over(dens)
        if num is None:
            finite = [s for s in chain if any(caps[i] is not None for i in s)]
            raise UndeterminedError(
                f"finite-capacity layers {finite} did not cancel from the "
                f"chain series of {chain} with generators cut at degree "
                f"{bound}; retry with a larger bound")
        if len(set(dens)) != len(dens):
            raise ConsistencyError(f"repeated layer sizes in chain {chain}")
        k = max(k, max(dens, default=0))
        forms.append(HilbertForm.make(num, dens))

    # every kept layer size is at most k, so each chain form has a
    # numerator over the target denominator (1-Z)...(1-Z^k)
    total = []
    for f in forms:
        total = padd(total, f.over(range(1, k + 1)))
    form = HilbertForm.make(total, range(1, k + 1))

    want = profile_series(t, degree, registry)
    got = form.series(degree)
    if got != want:
        if bound < degree:
            raise UndeterminedError(
                f"chain-wise series disagrees with the profile beyond the "
                f"generator bound {bound}; retry with a larger gen bound")
        raise ConsistencyError(
            "chain-wise Hilbert series disagrees with the profile series: "
            f"{got} != {want}")
    return form.normalized()


# ---------------------------------------------------------------------------
# rational fitting and quasi-polynomials


def fit_rational(series, k, guard=DEFAULT_GUARD):
    """Fit series = P(Z) / ((1-Z)...(1-Z^k)) exactly.

    P is the series times the denominator; accepted only when the computed
    window ends with at least `guard` zero coefficients.  The result is
    normalized so that no denominator factor divides P.
    """
    if isinstance(series, IntSeries):
        coeffs = list(series.coefficients)
    else:
        coeffs = [json_int(c, "series coefficient") for c in series]
    nonnegative_int(k, "k")
    nonnegative_int(guard, "guard")
    degree = len(coeffs) - 1
    p = coeffs
    for j in range(1, k + 1):
        p = mul_geom(p, j)
    p = p[: degree + 1]
    p = ptrim(p)
    tail = degree - (len(p) - 1) if p else degree + 1
    if tail < guard:
        raise NotRationalError(
            f"series is not P/((1-Z)...(1-Z^{k})) within the window: "
            f"only {tail} trailing zero coefficients (need {guard})")
    return HilbertForm.make(p, range(1, k + 1)).normalized()


@dataclass(frozen=True)
class QuasiPolynomial:
    """Eventually-exact description: for n >= n_min, value(n) equals the
    polynomial attached to n mod period, with exact rational coefficients
    (ascending powers)."""

    period: int
    n_min: int
    residue_polys: tuple

    def value(self, n):
        if json_int(n, "n") < self.n_min:
            raise InputError(f"quasi-polynomial only valid from {self.n_min}")
        poly = self.residue_polys[n % self.period]
        acc = sum((c * n ** j for j, c in enumerate(poly)), Fraction(0))
        if acc.denominator != 1:
            raise ConsistencyError("quasi-polynomial value is not an integer")
        return int(acc)

    @property
    def degree(self):
        return max((j for poly in self.residue_polys
                    for j, c in enumerate(poly) if c), default=-1)

    @property
    def leading_coefficient(self):
        """The coefficient of n^degree, or None when it differs across
        residues (as for 1/(1-Z^2), whose values are 1, 0, 1, 0, ...)."""
        d = self.degree
        if d < 0:
            return Fraction(0)
        tops = {poly[d] if d < len(poly) else Fraction(0)
                for poly in self.residue_polys}
        return tops.pop() if len(tops) == 1 else None

    def to_json_dict(self):
        return {
            "period": self.period,
            "n_min": self.n_min,
            "residues": [
                [[c.numerator, c.denominator] for c in poly]
                for poly in self.residue_polys
            ],
        }


def quasi_polynomial(form):
    """Extract the eventual quasi-polynomial of a Hilbert form.

    Period = lcm of the denominator degrees; per residue class an exact
    polynomial of degree <= k-1 is read off the first k values of the
    expansion beyond n_min and re-verified on `EXTRA_PERIODS` further
    periods.  The values of one class are equally spaced, so they lie on
    one polynomial of degree < k exactly when all their k-th forward
    differences vanish, a check in integers; the first nonzero difference
    names the first value off the polynomial.  That polynomial is Newton's
    forward form sum_j Delta^j v_0 C((n - start)/period, j), expanded in
    integers times k! period^k, one Fraction per coefficient.
    """
    k = len(form.denominators)
    if k == 0:
        deg = len(form.numerator)
        return QuasiPolynomial(1, deg, ((Fraction(0),),))
    period = lcm(*form.denominators)
    total = sum(form.denominators)
    deg_p = len(form.numerator) - 1
    n_min = max(0, deg_p - total + 1)
    need = n_min + period * (k + EXTRA_PERIODS) + period
    series = form.series(need)
    scale = factorial(k) * period ** k
    polys = []
    for r in range(period):
        start = n_min + (r - n_min) % period
        values = series[start::period]
        poly = [0] * k
        basis = [scale]  # C((n - start)/period, j) times scale, in n
        diffs = values  # Delta^j of the values
        for j in range(k):
            for at, b in enumerate(basis):
                poly[at] += diffs[0] * b
            basis = [(low - (start + j * period) * b) // ((j + 1) * period)
                     for low, b in zip([0] + basis, basis + [0])]
            diffs = list(map(sub, diffs[1:], diffs))
        bad = next((i for i, d in enumerate(diffs) if d), None)
        if bad is not None:
            raise ConsistencyError(
                f"interpolated residue {r} fails at n={start + (bad + k) * period}")
        polys.append(tuple(Fraction(c, scale) for c in poly))
    return QuasiPolynomial(period, n_min, tuple(polys))


def _survivors(series, base, multisets):
    """The multisets, sorted tuples, at which `series` times their factors,
    a product shared along common prefixes, passes `nonnegative_form`'s
    screen."""
    products = [series]  # products[i]: the series times the first i factors
    prev = ()
    for dens in multisets:
        shared = 0
        while shared < len(prev) and prev[shared] == dens[shared]:
            shared += 1
        del products[shared + 1:]
        for j in dens[shared:]:
            p = products[-1]
            products.append(p[:j] + list(map(sub, p[j:], p)))
        prev = dens
        cut = max(base + sum(dens) + 1, 0)
        p = products[-1]
        if not any(p[cut:]) and min(p[:cut], default=0) >= 0:
            yield dens


def nonnegative_form(form, max_part=None, count=None):
    """Search denominator multisets (same size by default) for a
    representation with non-negative numerator; None if the bounded search
    finds nothing.  Completeness is not claimed.

    A multiset's numerator would have degree at most top = deg N -
    sum(denominators) + sum(multiset) and agree through it with the series
    times the multiset's factors.  The screen rules the multiset out if
    that product has a nonzero coefficient above top or a negative one
    up to it; `HilbertForm.over` decides the rest.  Raising a part d to a
    multiple d' multiplies the product by 1 + Z^d + ... + Z^{d'-d}, so a
    multiset passes only if its lift does: each part times the largest
    power of two keeping it <= P = `max_part`, in the band (P/2, P].  So
    the band is screened first, and the walk in
    `combinations_with_replacement` order skips each multiset whose lift
    failed.
    """
    k = len(form.denominators) if count is None else nonnegative_int(count, "count")
    if max_part is None:
        max_part = max(2 * max(form.denominators, default=1), 4)
    else:
        nonnegative_int(max_part, "max_part")
    base = len(form.numerator) - 1 - sum(form.denominators)
    series = form.series(max(len(form.numerator) - 1 + k * max_part, 0))
    parts = range(1, max_part + 1)
    band = set(_survivors(series, base, itertools.combinations_with_replacement(
        parts[max_part // 2:], k)))
    if not band:
        return None
    lift = {d: d << (max_part // d).bit_length() - 1 for d in parts}
    walk = (dens for dens in itertools.combinations_with_replacement(parts, k)
            if tuple(sorted(map(lift.get, dens))) in band)
    for dens in _survivors(series, base, walk):
        num = form.over(dens)
        if num is not None and all(c >= 0 for c in num):
            return HilbertForm.make(num, dens)
    return None


def two_path_hilbert(t, degree, gen_bound=None, guard=DEFAULT_GUARD,
                     registry=None, dimension=None):
    """Run both routes to the Hilbert series and return (fitted, leading)
    when they agree.  The fitted form has the denominator
    (1-Z)...(1-Z^dimension), by default the monomorphic dimension
    `template_components(t).dimension`.

    Each route has been checked against the profile through `degree`, so
    forms that differ only beyond it ask for a larger degree
    (UndeterminedError), and a difference within it is a bug
    (ConsistencyError).
    """
    from .algebra import TypeRegistry, profile_series
    from .decomposition import template_components

    nonnegative_int(degree, "degree")
    registry = registry or TypeRegistry(t)
    if dimension is None:
        dimension = template_components(t, registry=registry).dimension
    series = profile_series(t, degree, registry)
    fitted = fit_rational(series, dimension, guard)
    lead = hilbert_via_leading(t, degree, gen_bound, registry)
    if not fitted.same_series(lead):
        detail = f"{fitted.pretty()} vs {lead.pretty()}"
        if fitted.series(degree) != lead.series(degree):
            raise ConsistencyError(f"two-path disagreement: {detail}")
        raise UndeterminedError(
            f"the two routes agree through degree {degree} and differ "
            f"beyond it: {detail}; retry with --degree raised")
    return fitted, lead
