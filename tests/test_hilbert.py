"""Monomial order, ideals, rational fits, quasi-polynomials, two paths."""

import itertools
import math
import random
from fractions import Fraction
from operator import sub

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agealg.decomposition
import agealg.hilbert
from agealg.algebra import (TypeRegistry, kernel_elements_bounded,
                            mult_by_e_rank, profile_series)
from agealg.errors import (ConsistencyError, InputError, NotRationalError,
                           UndeterminedError)
from agealg.gallery import GALLERY, resolve_builtin
from agealg.hilbert import (HilbertForm, IntSeries, QuasiPolynomial,
                            WeightedMonomialIdeal,
                            _brute_ideal_series, _chain_generators,
                            _minimal, _quotient_numerator,
                            check_addlayer, compare_monomials,
                            div_geom, expand, fit_rational, hilbert_via_leading,
                            ideal_hilbert, layers, monomial_key, mul_geom,
                            nonnegative_form, padd, ptrim, quasi_polynomial,
                            two_path_hilbert)
from agealg.structures import canonical_code
from agealg.templates import (INF, clique_plus_coclique, instantiate, sym,
                              wheel_plus_coclique)
from strategies import random_templates


# ---------------------------------------------------------------------------
# long polynomial arithmetic: the oracle for the (1 - Z^j) helpers


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return ptrim(out)


def pdivexact(p, q):
    """Exact quotient p/q over the integers, or None if it does not divide."""
    p = ptrim(p)
    q = ptrim(q)
    if not q:
        raise InputError("division by zero polynomial")
    if not p:
        return []
    if len(p) < len(q):
        return None
    rem = list(p)
    out = [0] * (len(p) - len(q) + 1)
    lead = q[-1]
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(q) - 1]
        if c % lead != 0:
            return None
        f = c // lead
        out[i] = f
        if f:
            for j, b in enumerate(q):
                rem[i + j] -= f * b
    if any(rem):
        return None
    return ptrim(out)


def geom_factor(j):
    """1 - Z^j."""
    out = [0] * (j + 1)
    out[0] = 1
    out[j] = -1
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=12), st.integers(1, 6),
       st.booleans(), st.integers(0, 3))
@example([1], 3, False, 0)          # shorter than j: nothing to read below 0
@example([0, 2, 0], 4, False, 2)    # untrimmed, and shorter than j once trimmed
@example([1, 0, -1], 2, False, 0)   # divisible
@example([1, 0, 0, -2], 3, False, 0)  # the remainder check refuses
def test_geometric_factor_helpers_match_long_arithmetic(p, j, multiple, pad):
    q = p
    if multiple:
        p = pmul(q, geom_factor(j))
    p = p + [0] * pad
    assert mul_geom(p, j) == pmul(p, geom_factor(j))
    assert div_geom(p, j) == pdivexact(p, geom_factor(j))
    if multiple:
        assert div_geom(p, j) == ptrim(q)


def test_div_geom_refuses_j_zero():
    with pytest.raises(InputError):
        div_geom([1, -1], 0)


def test_forms_refuse_a_zero_factor():
    # (1 - Z^0) is the zero polynomial, not a factor a series can have
    with pytest.raises(InputError, match="exponents must be >= 1"):
        HilbertForm.make([1], [0])
    with pytest.raises(InputError, match="exponents must be >= 1"):
        HilbertForm.make([1], [2, -1])
    with pytest.raises(InputError, match="exponents must be >= 1"):
        HilbertForm.make([1], [1]).over([0])


# ---------------------------------------------------------------------------
# the order


def test_revlex_shape_examples():
    # (4,1,1) < (3,3,0) in revlex on shapes (equal degree here: 6 = 6)
    assert compare_monomials((4, 1, 1), (3, 3, 0)) == -1
    assert compare_monomials((3, 2, 0), (4, 1, 1)) == -1  # degree first
    assert compare_monomials((2, 2, 2), (2, 2, 2)) == 0


def test_lex_tie_break_uses_block_order():
    assert compare_monomials((1, 0), (0, 1)) == 1
    assert compare_monomials((0, 2, 0), (0, 0, 2)) == 1


def test_total_order_properties():
    rng = random.Random(5150)
    monos = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(40)]
    for a, b in itertools.combinations(monos, 2):
        assert compare_monomials(a, b) == -compare_monomials(b, a)
        assert (compare_monomials(a, b) == 0) == (a == b)
    for a, b, c in itertools.combinations(monos, 3):
        if compare_monomials(a, b) <= 0 and compare_monomials(b, c) <= 0:
            assert compare_monomials(a, c) <= 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda blocks: st.tuples(
    *[st.lists(st.integers(0, 4), min_size=blocks, max_size=blocks)] * 2)))
@example(([4, 1, 1], [3, 3, 0]))  # equal degree, revlex on shapes decides
@example(([0, 2, 0], [0, 0, 2]))  # equal shape, lex decides
@example(([2, 2], [2, 2]))
def test_monomial_key_orders_like_compare_monomials(pair):
    ka, kb = monomial_key(pair[0]), monomial_key(pair[1])
    assert (ka > kb) - (ka < kb) == compare_monomials(*pair)


def test_leading_monomial_cpc():
    t = clique_plus_coclique()
    registry = TypeRegistry(t)
    by_code = {entry.code: entry for entry in registry.types_at(2)}
    s = instantiate(t, (0, 2))  # edgeless pair
    assert by_code[canonical_code(s)].lead == (0, 2)
    e = instantiate(t, (2, 0))  # edge: unique realization
    assert by_code[canonical_code(e)].lead == (2, 0)


def test_leading_monomials_partition_profile(registries):
    for name in ("clique_plus_coclique", "sym:3", "groupoid"):
        t, registry = registries(name)
        for n in range(9):
            assert len(registry.leading_monomials(n)) == registry.profile(n)


# ---------------------------------------------------------------------------
# layers


def test_layers_examples():
    assert layers((2, 2, 1)) == [((0, 1), 1), ((0, 1, 2), 1)]
    assert layers((3, 0, 0)) == [((0,), 3)]
    assert layers((1, 1, 1)) == [((0, 1, 2), 1)]


def test_layers_reconstruct():
    rng = random.Random(808)
    for _ in range(50):
        m = tuple(rng.randint(0, 4) for _ in range(4))
        if not any(m):
            continue
        rebuilt = [0, 0, 0, 0]
        for s, e in layers(m):
            for i in s:
                rebuilt[i] += e
        assert tuple(rebuilt) == m
        chain = [s for s, _ in layers(m)]
        assert all(set(a) < set(b) for a, b in zip(chain, chain[1:]))


def test_layers_reject_zero():
    with pytest.raises(InputError):
        layers((0, 0))


def rescanning_layers(comp):
    """`layers` as it was: one scan of the composition per distinct value.
    The oracle for the one-pass factorization."""
    values = sorted({d for d in comp if d > 0}, reverse=True)
    out = []
    for i, v in enumerate(values):
        s = tuple(j for j, d in enumerate(comp) if d >= v)
        e = v - (values[i + 1] if i + 1 < len(values) else 0)
        out.append((s, e))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=7).filter(any))
@example([4])
@example([2, 2, 2])
@example([0, 3, 0, 1, 3])
def test_layers_match_the_rescanning_oracle(comp):
    assert layers(comp) == rescanning_layers(comp)


# ---------------------------------------------------------------------------
# monomial ideals


def test_principal_ideal():
    ideal = WeightedMonomialIdeal.make((1,), [(1,)])
    form, series = ideal_hilbert(ideal, 8)
    assert form.numerator == (0, 1)
    assert form.denominators == (1,)
    assert list(series.coefficients) == [0] + [1] * 8


def test_two_generator_example():
    # <x^2, xy> over degree-1 variables: (2Z^2 - Z^3)/(1-Z)^2 = 0,0,2,3,4,...
    ideal = WeightedMonomialIdeal.make((1, 1), [(2, 0), (1, 1)])
    form, series = ideal_hilbert(ideal, 8)
    assert form.numerator == (0, 0, 2, -1)
    assert list(series.coefficients) == [0, 0, 2, 3, 4, 5, 6, 7, 8]


def test_zero_ideal():
    ideal = WeightedMonomialIdeal.make((1, 2), [])
    form, series = ideal_hilbert(ideal, 5)
    assert form.is_zero
    assert list(series.coefficients) == [0] * 6


def test_generators_are_minimalized():
    ideal = WeightedMonomialIdeal.make((1, 1), [(1, 0), (2, 0), (1, 3)])
    assert ideal.generators == ((1, 0),)


def test_ideal_oracle_randomized():
    rng = random.Random(90210)
    for _ in range(15):
        nvars = rng.randint(1, 4)
        degrees = [rng.randint(1, 3) for _ in range(nvars)]
        gens = [tuple(rng.randint(0, 3) for _ in range(nvars))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        ideal = WeightedMonomialIdeal.make(degrees, gens)
        ideal_hilbert(ideal, 10)  # internal cross-check raises on mismatch


def inclusion_exclusion_numerator(ideal):
    """The ideal's numerator over prod (1 - Z^{d_i}) by inclusion-exclusion
    over the subsets of its minimal generators: the principal ideals meet in
    the principal ideal of their lcm, so each subset adds (+/-) Z^{deg lcm}.
    2^g terms."""
    num = [0]
    for r in range(1, len(ideal.generators) + 1):
        for sub in itertools.combinations(ideal.generators, r):
            d = ideal.weighted_degree(tuple(max(col) for col in zip(*sub)))
            num += [0] * (d + 1 - len(num))
            num[d] += 1 if r % 2 else -1
    return tuple(ptrim(num))


def sympy_series(form, degree):
    """Coefficients 0..degree of the form, expanded by sympy."""
    z = sympy.Symbol("z")
    expr = sympy.Add(*(c * z**i for i, c in enumerate(form.numerator)))
    expr /= sympy.Mul(*(1 - z**d for d in form.denominators))
    poly = sympy.series(expr, z, 0, degree + 1).removeO()
    return [int(poly.coeff(z, n)) for n in range(degree + 1)]


@st.composite
def random_ideals(draw):
    nvars = draw(st.integers(0, 4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=10))
    return WeightedMonomialIdeal.make(degrees, gens)


def ideal_examples(test):
    """The empty ideal, a single generator, pure powers only, and an ideal
    containing a variable, besides the random ones."""
    for ideal in (WeightedMonomialIdeal.make((1, 2), []),
                  WeightedMonomialIdeal.make((1, 2, 3), [(2, 1, 1)]),
                  WeightedMonomialIdeal.make((1, 2, 3), [(3, 0, 0), (0, 2, 0), (0, 0, 4)]),
                  WeightedMonomialIdeal.make((2, 1, 3), [(0, 1, 0), (2, 0, 3), (1, 2, 2)])):
        test = example(ideal)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(random_ideals())
@ideal_examples
def test_ideal_hilbert_matches_inclusion_exclusion(ideal):
    form, series = ideal_hilbert(ideal, 12)
    assert form.numerator == inclusion_exclusion_numerator(ideal)
    assert form.denominators == (tuple(sorted(ideal.degrees))
                                 if ideal.generators else ())
    assert list(series.coefficients) == _brute_ideal_series(ideal, 12)


# sympy's expansion costs about 0.1 s a form, hence fewer examples
@settings(max_examples=30, deadline=None)
@given(random_ideals())
@ideal_examples
def test_ideal_form_series_matches_sympy(ideal):
    form, _ = ideal_hilbert(ideal, 12)
    assert form.series(12) == sympy_series(form, 12)


def minimalizing_quotient_numerator(degrees, gens):
    """`_quotient_numerator` as it was before its pivot branch kept the
    generators the pivot does not divide: both branches re-run `_minimal`.
    The oracle for the pivot branch."""
    nvars = len(degrees)
    total = []
    work = [(gens, 0)]
    while work:
        gens, shift = work.pop()
        mixed = [g for g in gens if sum(1 for e in g if e) > 1]
        if not mixed:
            leaf = [0] * shift + [1]
            for g in gens:
                leaf = mul_geom(leaf, sum(e * d for e, d in zip(g, degrees)))
            total = padd(total, leaf)
            continue
        i = max(range(nvars), key=lambda i: sum(1 for g in mixed if g[i]))
        exps = sorted(g[i] for g in mixed if g[i])
        e = exps[len(exps) // 2]
        pivot = tuple(e if j == i else 0 for j in range(nvars))
        work.append((_minimal(degrees, gens + (pivot,)), shift))
        colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens]
        work.append((_minimal(degrees, colon), shift + e * degrees[i]))
    return total


@settings(max_examples=300, deadline=None)
@given(random_ideals())
@ideal_examples
def test_quotient_numerator_matches_the_minimalizing_oracle(ideal):
    assert _quotient_numerator(ideal.degrees, ideal.generators) == \
        minimalizing_quotient_numerator(ideal.degrees, ideal.generators)


@settings(max_examples=300, deadline=None)
@given(random_ideals().filter(lambda ideal: ideal.degrees), st.data())
def test_colon_minimal_matches_the_full_minimal(ideal, data):
    # the colon branch tests only divisors with x_i exponent 0
    i = data.draw(st.integers(0, len(ideal.degrees) - 1))
    e = data.draw(st.integers(1, 5))
    colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in ideal.generators]
    assert _minimal(ideal.degrees, colon, i) == _minimal(ideal.degrees, colon)


def test_ideal_beyond_twenty_generators():
    # 24 of the 28 degree-6 monomials in three variables: 2^24 lcm terms
    vectors = [v for v in itertools.product(range(7), repeat=3) if sum(v) == 6]
    ideal = WeightedMonomialIdeal.make((1, 1, 1), vectors[:24])
    assert len(ideal.generators) == 24
    form, _ = ideal_hilbert(ideal, 14)
    assert form.series(14) == _brute_ideal_series(ideal, 14)


def filtering_count(ideal, degree):
    """`_brute_ideal_series` as it was: at every exponent of every variable
    a fresh list of the carried generators that still divide, and in the
    last variable one increment per monomial.  The oracle for the sorted
    prefixes and the strided prefix sum."""
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
        if i == last:
            for e in range(min(g[last] for g in gens),
                           (degree - used) // d_last + 1):
                counts[used + e * d_last] += 1
            return
        d = degrees[i]
        for e in range((degree - used) // d + 1):
            divide = [g for g in gens if g[i] <= e]
            if divide:
                rec(i + 1, divide, used + e * d)

    rec(0, ideal.generators, 0)
    return counts


def per_monomial_count(ideal, degree):
    """The ideal's monomials per weighted degree, every monomial up to the
    degree tested against every generator (`contains`)."""
    counts = [0] * (degree + 1)
    nvars = len(ideal.degrees)

    def rec(i, acc, used):
        if i == nvars:
            if ideal.contains(acc):
                counts[used] += 1
            return
        d = ideal.degrees[i]
        for e in range((degree - used) // d + 1):
            rec(i + 1, acc + (e,), used + e * d)

    rec(0, (), 0)
    return counts


@settings(max_examples=300, deadline=None)
@given(random_ideals(), st.integers(0, 16))
@example(WeightedMonomialIdeal.make((), [()]), 0)     # the unit ideal of K
@example(WeightedMonomialIdeal.make((), [()]), 5)
@example(WeightedMonomialIdeal.make((), []), 3)
@example(WeightedMonomialIdeal.make((2,), [(3,)]), 16)
@example(WeightedMonomialIdeal.make((1, 1), [(0, 0)]), 16)  # the unit ideal
@example(WeightedMonomialIdeal.make((3,), [(6,)]), 16)  # nothing below 16
@example(WeightedMonomialIdeal.make((1, 2, 3), [(0, 0, 0)]), 9)
@example(WeightedMonomialIdeal.make((1, 2), [(1, 1)]), 0)  # degree 0
@example(WeightedMonomialIdeal.make((1, 2), [(0, 0)]), 0)
def test_direct_count_matches_per_monomial_count(ideal, degree):
    series = _brute_ideal_series(ideal, degree)
    assert series == per_monomial_count(ideal, degree)
    assert series == filtering_count(ideal, degree)


@st.composite
def workload_ideals(draw):
    """Ideals shaped like the benchmark's: 3 or 4 variables of weights 1-3
    and 10-16 distinct generators of one total degree, the least with at
    least twice as many monomials."""
    nvars = draw(st.integers(3, 4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    gens = draw(st.integers(10, 16))
    d = 1
    while math.comb(d + nvars - 1, nvars - 1) < 2 * gens:
        d += 1
    vectors = [v for v in itertools.product(range(d + 1), repeat=nvars)
               if sum(v) == d]
    chosen = draw(st.lists(st.sampled_from(vectors), min_size=gens,
                           max_size=gens, unique=True))
    return WeightedMonomialIdeal.make(degrees, chosen)


# the per-monomial count costs about 30 ms an ideal at D = 20
@settings(max_examples=40, deadline=None)
@given(workload_ideals())
def test_kernels_match_their_oracles_on_workload_shaped_ideals(ideal):
    series = _brute_ideal_series(ideal, 20)
    assert series == filtering_count(ideal, 20)
    assert series == per_monomial_count(ideal, 20)
    assert _quotient_numerator(ideal.degrees, ideal.generators) == \
        minimalizing_quotient_numerator(ideal.degrees, ideal.generators)
    form, _ = ideal_hilbert(ideal, 20)
    assert quasi_polynomial(form) == quasi_polynomial_by_points(form)


@pytest.mark.parametrize("wrong", [
    lambda num, top: [1],                       # the zero ideal's
    lambda num, top: padd(num, [0] * top + [1]),  # off at the last degree
])
def test_ideal_hilbert_cross_check_is_live(monkeypatch, wrong):
    # a pivot recursion gone wrong must not get past the direct count
    ideal = WeightedMonomialIdeal.make((1, 2, 3), [(2, 1, 0), (0, 1, 2), (3, 0, 1)])
    right = _quotient_numerator(ideal.degrees, ideal.generators)
    monkeypatch.setattr("agealg.hilbert._quotient_numerator",
                        lambda degrees, gens: wrong(right, 12))
    with pytest.raises(ConsistencyError, match="direct monomial counting"):
        ideal_hilbert(ideal, 12)


def test_unit_ideal_without_variables():
    form, series = ideal_hilbert(WeightedMonomialIdeal.make((), [()]), 4)
    assert form == HilbertForm.make([1], [])
    assert list(series.coefficients) == [1, 0, 0, 0, 0]


def test_ideal_hilbert_refuses_negative_degree():
    for gens in ([], [(1, 0)]):
        with pytest.raises(InputError, match="degree"):
            ideal_hilbert(WeightedMonomialIdeal.make((1, 1), gens), -1)


DEGREE_TAKERS = {
    "profile_series": lambda d: profile_series(sym(2), d),
    "hilbert_via_leading": lambda d: hilbert_via_leading(sym(2), d),
    "gen_bound": lambda d: hilbert_via_leading(sym(2), 4, gen_bound=d),
    "two_path_hilbert": lambda d: two_path_hilbert(sym(2), d),
    "check_addlayer": lambda d: check_addlayer(sym(2), d),
    "kernel_elements_bounded":
        lambda d: kernel_elements_bounded(wheel_plus_coclique(), d),
    "ideal_hilbert":
        lambda d: ideal_hilbert(WeightedMonomialIdeal.make((1, 1), [(1, 0)]), d),
}


@pytest.mark.parametrize("bad", [-1, -3, 2.5, 2.0, True, "2"])
@pytest.mark.parametrize("name", sorted(DEGREE_TAKERS))
def test_degree_arguments_are_refused(name, bad):
    # read as an exact int and refused below 0, naming the argument at fault
    what = "gen_bound" if name == "gen_bound" else "degree"
    with pytest.raises(InputError, match=f"^{what}"):
        DEGREE_TAKERS[name](bad)


@pytest.mark.parametrize("degrees,gens", [
    ((1.9, True), [(1.7, 2)]),
    ((2.0, 1), [(1, 1)]),
    ((True, 1), [(1, 1)]),
    ((1, 1), [(1.0, 2)]),
    ((1, 1), [(False, 2)]),
    ((1, 1), [("1", 2)]),
])
def test_ideal_refuses_non_integers(degrees, gens):
    with pytest.raises(InputError, match="must be an integer"):
        WeightedMonomialIdeal.make(degrees, gens)


def scan_minimal_generators(weights, member, bound):
    """Minimal generators of the monomial ideal given by the membership
    oracle `member`, by scanning the monomials of weighted degree <= bound
    in (weighted degree, vector) order, keeping each member that no kept
    one divides."""
    gens = []

    def divisible_by_gen(mono):
        return any(all(x <= y for x, y in zip(g, mono)) for g in gens)

    bounds = [bound // w for w in weights]
    monos = sorted(
        itertools.product(*(range(b + 1) for b in bounds)),
        key=lambda m: (sum(e * w for e, w in zip(m, weights)), m))
    for mono in monos:
        d = sum(e * w for e, w in zip(mono, weights))
        if d > bound:
            continue
        if member(mono) and not divisible_by_gen(mono):
            gens.append(mono)
    return gens


@st.composite
def upward_closed_oracles(draw):
    """(weights, membership oracle of the upward closure of random seeds,
    scan bound)."""
    nvars = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    seeds = draw(st.lists(st.tuples(*[st.integers(0, 5)] * nvars), max_size=8))

    def member(mono):
        return any(all(x <= y for x, y in zip(g, mono)) for g in seeds)

    return weights, member, draw(st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(upward_closed_oracles())
def test_minimal_of_the_box_matches_the_scan(oracle):
    weights, member, bound = oracle
    box = [m for m in itertools.product(*(range(bound // w + 1) for w in weights))
           if sum(e * w for e, w in zip(m, weights)) <= bound]
    assert (list(_minimal(weights, [m for m in box if member(m)]))
            == scan_minimal_generators(weights, member, bound))


def box_chain_generators(chain, caps, bound, leading):
    """(minimal generators of J, minimal generators of I) of a chain by
    scanning its box: every exponent vector of the layer variables of
    weighted degree <= bound, kept when it is over capacity (I) or the layer
    exponents of a leading monomial, given as the compositions `leading`."""
    weights = tuple(len(s) for s in chain)

    def to_comp(mono):
        out = [0] * len(caps)
        for s, e in zip(chain, mono):
            for i in s:
                out[i] += e
        return tuple(out)

    def over_capacity(mono):
        comp = to_comp(mono)
        return any(cap is not None and comp[i] > cap
                   for i, cap in enumerate(caps))

    box = [m for m in itertools.product(*(range(bound // w + 1) for w in weights))
           if sum(e * w for e, w in zip(m, weights)) <= bound]
    over = [m for m in box if over_capacity(m)]
    lead = [m for m in box if all(m) and to_comp(m) in leading]
    return _minimal(weights, over + lead), _minimal(weights, over)


def assert_chain_generators_match_the_box(t, registry, degree):
    for bound in (degree, degree - 3):
        by_chain = {}
        for n in range(1, bound + 1):
            for lm in registry.leading_monomials(n):
                chain = tuple(s for s, _ in layers(lm))
                by_chain.setdefault(chain, set()).add(lm)
        for chain, lms in by_chain.items():
            exps = {tuple(e for _, e in layers(lm)) for lm in lms}
            assert (_chain_generators(chain, t.capacities, bound, exps)
                    == box_chain_generators(chain, t.capacities, bound, lms)), \
                (chain, bound)


@pytest.mark.parametrize("degree", [8, 10])
@pytest.mark.parametrize("spec", ["rqsym:3:2", "rqsym:2:1", "wheel_plus_coclique",
                                  "clique_plus_coclique", "c3_chains"])
def test_chain_generators_match_the_box_scan(spec, degree):
    t = resolve_builtin(spec)
    assert_chain_generators_match_the_box(t, TypeRegistry(t), degree)


def test_chain_generators_match_the_box_scan_on_census_templates(census_plan):
    # every census-plan template has a finite block: 1, 2 or 3 elements
    for name, _, t in census_plan(0):
        assert any(cap is not None for cap in t.capacities), name
        registry = TypeRegistry(t)
        for degree in (8, 10):
            assert_chain_generators_match_the_box(t, registry, degree)


# ---------------------------------------------------------------------------
# add-layer lemma


def test_addlayer_no_violations(registries):
    for name in ("clique_plus_coclique", "sym:3", "wheel_plus_coclique"):
        t, registry = registries(name)
        report = check_addlayer(t, 6, registry)
        assert report.ok
        assert report.checked > 0


def test_addlayer_exempts_saturated_finite_blocks(registries):
    t, registry = registries("wheel_plus_coclique")
    report = check_addlayer(t, 6, registry)
    # the center block has capacity 1: monomials with center exponent 1 must
    # never be required to bump a center-containing layer
    assert report.ok


def test_sym_leading_monomials_are_sorted_vectors(registries):
    t, registry = registries("sym:3")
    for n in range(8):
        for lm in registry.leading_monomials(n):
            assert tuple(sorted(lm, reverse=True)) == lm


# ---------------------------------------------------------------------------
# rational fitting


def test_fit_constant_series():
    form = fit_rational([1] * 12, 1)
    assert form == HilbertForm.make([1], [1])


def test_fit_cpc_series():
    form = fit_rational([1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 2)
    assert form == HilbertForm.make([1, 0, 0, 1], [1, 2])


def test_fit_groupoid_series():
    series = expand([1, -1, 2, -1], [1, 1, 1], 14)
    form = fit_rational(series, 3)
    assert form.same_series(HilbertForm.make([1, -1, 2, -1], [1, 1, 1]))


def test_fit_rejects_nonrational_tail():
    with pytest.raises(NotRationalError):
        fit_rational([1, 1, 2, 4, 8, 16, 32, 64, 128, 256], 1)


def test_fit_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        num = [rng.randint(-3, 3) for _ in range(4)]
        num[0] = 1
        k = rng.randint(1, 3)
        dens = list(range(1, k + 1))
        series = expand(num, dens, 16)
        form = fit_rational(series, k)
        assert form.series(16) == series


def test_fit_overshooting_k_normalizes_down():
    form = fit_rational([1] * 14, 3)
    assert form == HilbertForm.make([1], [1])


# ---------------------------------------------------------------------------
# quasi-polynomials


def test_qpoly_sym2():
    form = HilbertForm.make([1], [1, 2])
    qp = quasi_polynomial(form)
    assert qp.period == 2
    assert qp.degree == 1
    assert qp.leading_coefficient == Fraction(1, 2)
    # p(n) = n/2 + 3/4 + (-1)^n / 4
    for n in range(qp.n_min, 18):
        expected = Fraction(n, 2) + Fraction(3, 4) + Fraction((-1) ** n, 4)
        assert qp.value(n) == expected


def test_qpoly_constant():
    qp = quasi_polynomial(HilbertForm.make([1], [1]))
    assert qp.period == 1
    assert qp.degree == 0
    assert qp.value(9) == 1


def test_qpoly_groupoid():
    form = HilbertForm.make([1, -1, 2, -1], [1, 1, 1])
    qp = quasi_polynomial(form)
    assert qp.degree == 2
    assert qp.leading_coefficient == Fraction(1, 2)
    series = form.series(24)
    for n in range(qp.n_min, 25):
        assert qp.value(n) == series[n]


def test_qpoly_periodic_leading_coefficient_is_none():
    # 1/(1 - Z^2) is 1, 0, 1, 0, ...: a valid form whose top coefficient
    # depends on the residue, so there is no leading coefficient
    qp = quasi_polynomial(HilbertForm.make([1], [2]))
    assert (qp.period, qp.degree) == (2, 0)
    assert qp.residue_polys == ((Fraction(1),), (Fraction(0),))
    assert qp.leading_coefficient is None


def test_qpoly_periodic_leading_coefficient_of_an_ideal_form():
    # the ideal (xy) in variables of weight 2: Z^4/(1 - Z^2)^2, which
    # counts (n - 2)/2 in even degrees and nothing in odd ones
    form, series = ideal_hilbert(WeightedMonomialIdeal.make([2, 2], [[1, 1]]), 20)
    assert form == HilbertForm.make([0, 0, 0, 0, 1], [2, 2])
    qp = quasi_polynomial(form)
    assert qp.degree == 1
    assert qp.leading_coefficient is None
    for n in range(qp.n_min, 21):
        assert qp.value(n) == series.coefficients[n]


@st.composite
def random_forms(draw):
    numerator = draw(st.lists(st.integers(-3, 3), max_size=8))
    denominators = draw(st.lists(st.integers(1, 4), max_size=3))
    return HilbertForm.make(numerator, denominators)


def interpolate(xs, ys):
    """Ascending coefficients, as Fractions, of the polynomial of degree
    < len(xs) through the points (xs[i], ys[i]): Newton's divided
    differences, expanded by Horner's rule.  `quasi_polynomial` used it
    before it expanded the forward differences in integers."""
    coef = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = [coef[-1]]
    for c, x in zip(coef[-2::-1], xs[-2::-1]):
        # poly * (X - x) + c
        poly = ([c - x * poly[0]]
                + [a - x * b for a, b in zip(poly, poly[1:])] + [poly[-1]])
    return poly


def quasi_polynomial_by_points(form, extra_checks=2):
    """`quasi_polynomial` by divided differences (`interpolate`), checking
    each residue's polynomial at every further point, in Fractions."""
    k = len(form.denominators)
    if k == 0:
        return QuasiPolynomial(1, len(form.numerator), ((Fraction(0),),))
    period = math.lcm(*form.denominators)
    n_min = max(0, len(form.numerator) - 1 - sum(form.denominators) + 1)
    need = n_min + period * (k + extra_checks) + period
    series = form.series(need)
    polys = []
    for r in range(period):
        points = [n for n in range(n_min, need + 1) if n % period == r]
        sample = points[:k]
        if len(sample) < k:
            raise InputError("expansion too short for interpolation")
        coeffs = interpolate(sample, [series[n] for n in sample])
        for n in points[k:]:
            if sum(c * n ** j for j, c in enumerate(coeffs)) != series[n]:
                raise ConsistencyError(f"interpolated residue {r} fails at n={n}")
        polys.append(tuple(coeffs))
    return QuasiPolynomial(period, n_min, tuple(polys))


@settings(max_examples=200, deadline=None)
@given(random_forms())
@example(HilbertForm.make([1, -1, 2, -1], [1, 1, 1]))
@example(HilbertForm.make([], [2, 3]))   # the zero form
@example(HilbertForm.make([1], []))      # a polynomial
def test_quasi_polynomial_matches_the_pointwise_check(form):
    assert quasi_polynomial(form) == quasi_polynomial_by_points(form)


@settings(max_examples=100, deadline=None)
@given(random_ideals())
@ideal_examples
def test_quasi_polynomial_of_ideal_forms_matches_the_pointwise_check(ideal):
    form, _ = ideal_hilbert(ideal, 0)
    assert quasi_polynomial(form) == quasi_polynomial_by_points(form)


@pytest.mark.parametrize("where", [0, 3, 7, 10])
def test_quasi_polynomial_names_the_first_bad_value(monkeypatch, where):
    # one coefficient off the quasi-polynomial of 1/((1-Z)(1-Z^2)) must be
    # reported at the same n as the pointwise check finds it, whether it
    # is an interpolation point (0) or a checked one
    form = HilbertForm.make([1], [1, 2])
    expand_series = HilbertForm.series

    def bumped(self, degree):
        out = expand_series(self, degree)
        out[where] += 1
        return out

    monkeypatch.setattr(HilbertForm, "series", bumped)
    messages = []
    for route in (quasi_polynomial, quasi_polynomial_by_points):
        with pytest.raises(ConsistencyError) as caught:
            route(form)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; matrix must be square regular."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


@st.composite
def interpolation_points(draw):
    xs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=7, unique=True))
    ys = draw(st.lists(st.integers(-50, 50), min_size=len(xs), max_size=len(xs)))
    return xs, ys


@settings(max_examples=300, deadline=None)
@given(interpolation_points())
@example(([0], [7]))
@example(([3, 9, 15, 21], [1, 4, 10, 20]))  # one residue class, period 6
def test_interpolate_matches_the_vandermonde_solve(points):
    xs, ys = points
    vandermonde = [[Fraction(x) ** j for j in range(len(xs))] for x in xs]
    coeffs = interpolate(xs, ys)
    assert coeffs == solve_exact(vandermonde, ys)
    assert all(type(c) is Fraction for c in coeffs)


# ---------------------------------------------------------------------------
# the two paths


@pytest.mark.parametrize("name,published", [
    ("coclique", ([1], [1])),
    ("sym:2", ([1], [1, 2])),
    ("sym:3", ([1], [1, 2, 3])),
    ("clique_plus_coclique", ([1, 0, 0, 1], [1, 2])),
    ("wheel_plus_coclique", ([1, 0, 0, 1], [1, 2])),
    ("qsym:2", ([1, 0, 0, 1], [1, 2])),
])
def test_two_paths_match_published_forms(name, published, registries):
    t, registry = registries(name)
    fitted, lead = two_path_hilbert(t, 10, registry=registry)
    assert fitted.same_series(lead)
    assert fitted.same_series(HilbertForm.make(*published))


def test_groupoid_two_paths_and_published_forms(registries):
    t, registry = registries("groupoid")
    fitted, lead = two_path_hilbert(t, 12, registry=registry)
    assert fitted.same_series(lead)
    assert fitted.same_series(HilbertForm.make([1, -1, 2, -1], [1, 1, 1]))
    assert fitted.same_series(HilbertForm.make([1, 0, 1, 1, -1], [1, 1, 2]))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_leading_route_reads_only_the_registry(name, registries, monkeypatch):
    # the denominator comes from the chains, so no decomposition is run
    t, registry = registries(name)
    _, lead = two_path_hilbert(t, 12, registry=registry)

    def refuse(*args, **kwargs):
        raise AssertionError("template_components called")

    monkeypatch.setattr(agealg.decomposition, "template_components", refuse)
    assert hilbert_via_leading(t, 12, registry=registry) == lead


def test_two_paths_differing_beyond_the_degree_are_undetermined(registries):
    # the leading route scanned to degree 5 misses sym(3)'s generator of
    # weighted degree 6; both forms match the profile through degree 5
    t, registry = registries("sym:3")
    with pytest.raises(UndeterminedError):
        two_path_hilbert(t, 5, registry=registry)


@settings(max_examples=100, deadline=None)
@given(random_templates(arities=st.sampled_from([(2,), (3,), (1, 2)]))
       .filter(lambda t: INF in t.capacities))
def test_random_templates_agree_or_refuse(t):
    # with an infinite block the profile never falls, and e is injective;
    # the routes agree, or a bound too small is a refusal (exit 3 or 5),
    # never a consistency violation (exit 4)
    registry = TypeRegistry(t)
    try:
        two_path_hilbert(t, 10, registry=registry)
    except (UndeterminedError, NotRationalError):
        pass
    assert all(mult_by_e_rank(t, n, registry) == registry.profile(n)
               for n in range(6))


@pytest.mark.parametrize("spec", ["sym:5", "qsym:4", "rqsym:3:2"])
def test_two_paths_agree_at_degree_16(spec):
    # reach: registries of these templates to degree 16, one of them with a
    # 4-ary relation, build in seconds; the routes must agree there
    fitted, lead = two_path_hilbert(resolve_builtin(spec), 16)
    assert fitted.same_series(lead)
    if spec == "sym:5":
        assert fitted.same_series(HilbertForm.make([1], [1, 2, 3, 4, 5]))


def test_gallery_forms_are_the_published_fractions():
    # written out independently of the gallery
    published = {
        "coclique": ([1], [1]),
        "sym:1": ([1], [1]),
        "sym:2": ([1], [1, 2]),
        "sym:3": ([1], [1, 2, 3]),
        "sym:4": ([1], [1, 2, 3, 4]),
        "clique_plus_coclique": ([1, 0, 0, 1], [1, 2]),
        "wheel_plus_coclique": ([1, 0, 0, 1], [1, 2]),
        "qsym:2": ([1, 0, 0, 1], [1, 2]),
        "groupoid": ([1, -1, 2, -1], [1, 1, 1]),
    }
    assert set(published) == set(GALLERY)
    for name, form in published.items():
        assert GALLERY[name].expected_hilbert.same_series(HilbertForm.make(*form)), name


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_form_series_matches_sympy(name):
    form = GALLERY[name].expected_hilbert
    assert form.series(12) == sympy_series(form, 12)


def test_pole_order_equals_dimension(registries):
    for name, k in [("sym:3", 3), ("clique_plus_coclique", 2),
                    ("wheel_plus_coclique", 2), ("groupoid", 3)]:
        t, registry = registries(name)
        fitted, _ = two_path_hilbert(t, 12, registry=registry)
        assert fitted.numerator_at_one() != 0
        assert fitted.pole_order_at_one() == k


def test_nonnegative_form_search():
    cpc = HilbertForm.make([1, 0, 0, 1], [1, 2])
    found = nonnegative_form(cpc)
    assert found is not None and all(c >= 0 for c in found.numerator)
    groupoid = HilbertForm.make([1, -1, 2, -1], [1, 1, 1])
    assert nonnegative_form(groupoid) is None  # provably impossible


def long_over(form, dens):
    """`HilbertForm.over` by long multiplication and division."""
    num = list(form.numerator)
    for j in dens:
        num = pmul(num, geom_factor(j))
    for j in form.denominators:
        num = pdivexact(num, geom_factor(j))
        if num is None:
            return None
    return num


def walk_nonnegative_form(form, max_part=None, count=None):
    """`nonnegative_form` without the band: every multiset is screened."""
    k = count if count is not None else len(form.denominators)
    if max_part is None:
        max_part = max(2 * max(form.denominators, default=1), 4)
    base = len(form.numerator) - 1 - sum(form.denominators)
    series = form.series(max(len(form.numerator) - 1 + k * max_part, 0))
    products = [series]  # products[i]: the series times the first i factors
    prev = ()
    for dens in itertools.combinations_with_replacement(range(1, max_part + 1), k):
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
        if any(p[cut:]) or min(p[:cut], default=0) < 0:
            continue
        num = form.over(dens)
        if num is not None and all(c >= 0 for c in num):
            return HilbertForm.make(num, dens)
    return None


def long_nonnegative_form(form, max_part=None, count=None):
    """`nonnegative_form` by long multiplication and division."""
    k = count if count is not None else len(form.denominators)
    if max_part is None:
        max_part = max(2 * max(form.denominators, default=1), 4)
    for dens in itertools.combinations_with_replacement(range(1, max_part + 1), k):
        num = long_over(form, dens)
        if num is not None and all(c >= 0 for c in num):
            return HilbertForm.make(num, dens)
    return None


@settings(max_examples=300, deadline=None)
@given(random_forms(), st.lists(st.integers(1, 5), max_size=4))
@example(HilbertForm.make([1, 0, 0, 1], [1, 2]), [1])     # not a polynomial
@example(HilbertForm.make([1, 0, 0, 1], [1, 2]), [2, 1])  # the same form
@example(HilbertForm.make([1, -2, 1], [1, 1]), [])        # (1-Z)^2/(1-Z)^2 = 1
def test_over_matches_long_arithmetic(form, dens):
    assert form.over(dens) == long_over(form, dens)


def test_over_is_none_when_the_denominator_is_too_small():
    cpc = HilbertForm.make([1, 0, 0, 1], [1, 2])
    assert cpc.over([1]) is None
    assert cpc.over([1, 2]) == [1, 0, 0, 1]
    assert cpc.over([1, 1, 2]) == [1, -1, 0, 1, -1]


@st.composite
def hit_forms(draw):
    """A non-negative numerator over 0-3 factors, normalized: the search
    over as many factors finds a non-negative form."""
    numerator = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    return HilbertForm.make(numerator, draw(
        st.lists(st.integers(1, 4), max_size=3))).normalized()


@settings(max_examples=300, deadline=None)
@given(random_forms() | hit_forms(), st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
       st.sampled_from([None, 0, 1, 2, 3, 4]))
@example(HilbertForm.make([1, 0, 0, 1], [1, 2]), None, None)
@example(HilbertForm.make([1, -1, 2, -1], [1, 1, 1]), None, None)
@example(HilbertForm.make([1, 1], [1, 2]), 4, 3)
@example(HilbertForm.make([1, 0, 1], [2, 3]), 6, 3)
def test_nonnegative_form_matches_long_arithmetic(form, max_part, count):
    # the band skips only multisets the walk rejects, so it calls `over`
    # no more often
    with pytest.MonkeyPatch.context() as mp:
        calls = count_over_calls(mp)
        found = nonnegative_form(form, max_part, count)
        banded = len(calls)
        assert found == walk_nonnegative_form(form, max_part, count)
        assert banded <= len(calls) - banded
    assert found == long_nonnegative_form(form, max_part, count)


def lift(dens, max_part):
    """Each part times the largest power of two keeping it <= max_part."""
    return tuple(sorted(d << (max_part // d).bit_length() - 1 for d in dens))


@settings(max_examples=300, deadline=None)
@given(random_forms() | hit_forms(), st.integers(1, 8).flatmap(
    lambda top: st.tuples(st.just(top), st.lists(
        st.integers(1, top), max_size=4).map(sorted).map(tuple))))
def test_the_screen_passes_at_the_lift_where_it_passes(form, case):
    max_part, dens = case
    lifted = lift(dens, max_part)
    assert all(max_part < 2 * d <= 2 * max_part for d in lifted)
    base = len(form.numerator) - 1 - sum(form.denominators)
    series = form.series(len(form.numerator) + len(dens) * max_part)
    passed = set(agealg.hilbert._survivors(series, base, [dens, lifted]))
    assert dens not in passed or lifted in passed


@settings(max_examples=100, deadline=None)
@given(random_ideals())
def test_nonnegative_form_of_ideal_forms_matches_long_arithmetic(ideal):
    form, _ = ideal_hilbert(ideal, 0)
    assert nonnegative_form(form) == long_nonnegative_form(form)


def test_nonnegative_form_refuses_a_negative_count():
    with pytest.raises(InputError, match="count"):
        nonnegative_form(HilbertForm.make([1], [1]), count=-1)


@pytest.mark.parametrize("kwargs", [
    {"max_part": -1}, {"count": 2.5}, {"max_part": 2.5}, {"count": True},
    {"max_part": True}, {"count": "2"}, {"max_part": 2.0},
])
def test_nonnegative_form_refuses_bad_arguments(kwargs):
    with pytest.raises(InputError, match=next(iter(kwargs))):
        nonnegative_form(HilbertForm.make([1], [1]), **kwargs)


@pytest.mark.parametrize("call, what", [
    (lambda s: fit_rational(s, 1.5), "^k "),
    (lambda s: fit_rational(s, True), "^k "),
    (lambda s: fit_rational(s, 1, guard=2.5), "^guard"),
    (lambda s: quasi_polynomial(fit_rational(s, 1)).value(2.5), "^n "),
    (lambda s: quasi_polynomial(fit_rational(s, 1)).value(True), "^n "),
    (lambda s: fit_rational([1.9] * len(s), 1), "^series coefficient"),
    (lambda s: fit_rational(["1"] * len(s), 1), "^series coefficient"),
    (lambda s: fit_rational([True] * len(s), 1), "^series coefficient"),
    (lambda s: IntSeries.make([*s[:-1], 1.0]), "^series coefficient"),
    (lambda s: HilbertForm.make([1], [1.9]), "^denominator exponent"),
    (lambda s: HilbertForm.make([1.5, 2], [1]), "^numerator coefficient"),
], ids=["fractional-k", "bool-k", "fractional-guard", "fractional-n", "bool-n",
        "fractional-series", "string-series", "bool-series", "float-int-series",
        "fractional-denominator", "fractional-numerator"])
def test_fit_rational_refuses_non_integers(call, what):
    with pytest.raises(InputError, match=what):
        call([1] * 12)


def antichain_ideal(rng, degrees, gens):
    """`gens` random distinct exponent vectors of the least total degree
    with at least 2 * `gens` of them, in variables of the given weights."""
    nvars = len(degrees)
    d = 1
    while math.comb(d + nvars - 1, nvars - 1) < 2 * gens:
        d += 1
    vectors = [v for v in itertools.product(range(d + 1), repeat=nvars)
               if sum(v) == d]
    return WeightedMonomialIdeal.make(degrees, sorted(rng.sample(vectors, gens)))


def seeded_ideal_forms(seed, count=56):
    """The forms of `count` random antichain ideals in 3 or 4 variables of
    weights 1-3, with 10-16 generators each."""
    rng = random.Random(f"ideals:{seed}")
    forms = []
    for i in range(count):
        nvars = 3 + i % 2
        degrees = [1 + (i // 2 + j) % 3 for j in range(nvars)]
        form, _ = ideal_hilbert(antichain_ideal(rng, degrees, 10 + i % 7), 0)
        forms.append(form)
    return forms


def count_over_calls(monkeypatch, result=None):
    """Count `HilbertForm.over` calls; with `result` given, every call
    returns it instead of the quotient."""
    calls = []
    original = HilbertForm.over

    def counting(self, dens):
        calls.append(tuple(dens))
        return original(self, dens) if result is None else result

    monkeypatch.setattr(HilbertForm, "over", counting)
    return calls


def test_nonnegative_form_screen_spares_the_exact_rewrites(monkeypatch):
    # without the screen every multiset costs one `over`: 5,096 here
    forms = seeded_ideal_forms(3)
    multisets = sum(
        math.comb(max(2 * max(f.denominators), 4) + len(f.denominators) - 1,
                  len(f.denominators))
        for f in forms)
    assert multisets == 5096
    calls = count_over_calls(monkeypatch)
    assert all(nonnegative_form(f) is None for f in forms)
    assert len(calls) <= 5


def test_nonnegative_form_screens_only_the_band_on_a_miss(monkeypatch):
    # with P = max_part, only the multisets of parts in (P/2, P] are screened
    forms = seeded_ideal_forms(3)
    band = sum(
        math.comb((max(2 * max(f.denominators), 4) + 1) // 2
                  + len(f.denominators) - 1, len(f.denominators))
        for f in forms)
    assert band == 700
    screened = []
    survivors = agealg.hilbert._survivors

    def counting(series, base, multisets):
        # `_survivors` screens each multiset it is given once
        return survivors(series, base, (screened.append(m) or m
                                        for m in multisets))

    monkeypatch.setattr(agealg.hilbert, "_survivors", counting)
    assert all(nonnegative_form(f) is None for f in forms)
    assert len(screened) <= 700


def test_nonnegative_form_confirms_every_survivor(monkeypatch):
    # the screen passes the form itself over (1-Z)(1-Z^2); only `over`
    # may accept it
    cpc = HilbertForm.make([1, 0, 0, 1], [1, 2])
    calls = count_over_calls(monkeypatch)
    assert nonnegative_form(cpc) == cpc
    assert calls == [(1, 2)]
    monkeypatch.undo()
    calls = count_over_calls(monkeypatch, result=[-1])
    assert nonnegative_form(cpc) is None
    assert calls


def test_via_leading_with_dimension_hint_mismatch(registries):
    t, registry = registries("clique_plus_coclique")
    with pytest.raises(NotRationalError):
        fit_rational(profile_series(t, 10, registry), 0)


def test_via_leading_small_gen_bound_is_undetermined(registries):
    # sym(3) has a chain generator of weighted degree 6; a bound of 4 misses
    # it and the assembled series diverges from the profile beyond 4
    t, registry = registries("sym:3")
    with pytest.raises(UndeterminedError):
        hilbert_via_leading(t, 12, gen_bound=4, registry=registry)
