"""Templates: validation, instantiation semantics, builders."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agealg.templates
from agealg.algebra import profile_series
from agealg.errors import InputError
from agealg.gallery import GALLERY
from agealg.structures import FiniteRelStruct, Signature, restrict
from agealg.templates import (INF, BlockTemplate, TuplePattern, c3_chains,
                              block_spans, clique_plus_coclique, clique_sum,
                              coclique, compositions, groupoid_example,
                              instantiate, lex_sum, normalize_ranks, present,
                              qsym, rqsym, spans_through, subcompositions, sym,
                              validate, wheel_plus_coclique)
from strategies import ARC, random_templates, structures


def test_pattern_normalization():
    p = TuplePattern.make((0, 0, 1), (5, 2, 7))
    assert p.ranks == (1, 0, 0)
    q = TuplePattern.make((0, 0), (3, 3))
    assert q.ranks == (0, 0)


def remapped_ranks(blocks, ranks):
    """Per block, the sorted distinct ranks remapped to 0..r: the oracle for
    `normalize_ranks`."""
    out = list(ranks)
    for b in set(blocks):
        positions = [i for i, x in enumerate(blocks) if x == b]
        values = sorted({ranks[i] for i in positions})
        remap = {v: j for j, v in enumerate(values)}
        for i in positions:
            out[i] = remap[ranks[i]]
    return tuple(out)


@settings(max_examples=300)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(
    st.lists(st.integers(0, 3), min_size=k, max_size=k),
    st.lists(st.integers(0, 9), min_size=k, max_size=k))))
def test_normalize_ranks_matches_the_remapping(case):
    blocks, ranks = case
    assert normalize_ranks(blocks, ranks) == remapped_ranks(blocks, ranks)


@pytest.mark.parametrize("build", [
    lambda: FiniteRelStruct(ARC, 3, {"arc": [(0, 1.7)]}),
    lambda: FiniteRelStruct(ARC, 3, {"arc": [("2", 1)]}),
    lambda: FiniteRelStruct(ARC, 3, {"arc": [(2, True)]}),
    lambda: FiniteRelStruct(ARC, 3, {"arc": [(0, 1), (0, 1.0)]}),
    lambda: FiniteRelStruct(ARC, 2.5, {"arc": []}),
    lambda: Signature((("arc", 2.5),)),
    lambda: Signature((("arc", "2"),)),
    lambda: TuplePattern.make((0, 1.9), (0, 0)),
    lambda: TuplePattern.make((0, 0), (0, "0")),
    lambda: BlockTemplate.make(ARC, [("b", 2.7)], {}),
    lambda: BlockTemplate.make(ARC, [("b", True)], {}),
    lambda: instantiate(coclique(), (1.5,)),
], ids=["float-entry", "str-entry", "bool-entry", "float-duplicate",
        "float-size", "float-arity", "str-arity", "float-block", "str-rank",
        "float-capacity", "bool-capacity", "float-count"])
def test_constructors_refuse_non_integers(build):
    # int() would truncate each of these to a different, valid input
    with pytest.raises(InputError, match="must be an integer"):
        build()


def test_validate_clique_template_ok():
    assert validate(clique_sum(1)) == []


def test_validate_rejects_out_of_range_block():
    sig = Signature((("adj", 2),))
    with pytest.raises(InputError):
        BlockTemplate.make(sig, [("a", INF), ("b", INF)],
                           {"adj": [((0, 3), (0, 0))]})


def test_validate_rejects_rank_above_capacity():
    sig = Signature((("adj", 2),))
    with pytest.raises(InputError):
        BlockTemplate.make(sig, [("a", 1)], {"adj": [((0, 0), (0, 1))]})


def test_wheel_passes_swap_check():
    assert validate(wheel_plus_coclique(), swap_degree=5) == []


@pytest.mark.parametrize("name", ["sym:2", "wheel_plus_coclique"])
def test_swap_check_catches_empty_three_element_instantiations(monkeypatch, name):
    # all subsets of one mutated instantiation still induce equal
    # structures, but not the instantiation of their block counts
    t = GALLERY[name].build()
    honest = agealg.templates._pattern_tuples

    def mutant(pattern, spans, through=None):
        return [] if spans[-1][1] == 3 else honest(pattern, spans, through)

    monkeypatch.setattr(agealg.templates, "_pattern_tuples", mutant)
    assert validate(t, swap_degree=4)


@pytest.mark.parametrize("name", sorted(set(GALLERY) - {"coclique"}))
def test_swap_check_deletes_the_last_element_too(monkeypatch, name):
    # every instantiation loses the tuples through the last element of
    # block 0; only deleting that element shows it
    t = GALLERY[name].build()
    honest = agealg.templates.spans_tuples

    def mutant(template, spans):
        last = spans[0][1] - 1
        return [[tup for tup in rel if last not in tup]
                for rel in honest(template, spans)]

    monkeypatch.setattr(agealg.templates, "spans_tuples", mutant)
    assert validate(t, swap_degree=4)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_swap_check_catches_one_dropped_tuple(monkeypatch, name):
    # instantiating any one composition of degree <= 3 loses one tuple
    t = GALLERY[name].build()
    honest = agealg.templates.spans_tuples
    for comp in compositions(t, None, max_degree=3):
        if not any(instantiate(t, comp).rels):
            continue

        def mutant(template, spans, target=block_spans(comp)):
            rels = honest(template, spans)
            if spans == target:
                rel = next(rel for rel in rels if rel)
                rel.remove(min(rel))
            return rels

        with monkeypatch.context() as patch:
            patch.setattr(agealg.templates, "spans_tuples", mutant)
            assert validate(t, swap_degree=4), comp


def test_instantiate_clique():
    s = instantiate(clique_sum(1), (3,))
    assert len(s.relation("adj")) == 6  # K3, both orders


def test_instantiate_cpc_cross_pair_is_edgeless():
    s = instantiate(clique_plus_coclique(), (1, 1))
    assert s.relation("adj") == frozenset()


def test_instantiate_qsym_single_arc():
    s = instantiate(qsym(2), (1, 1))
    assert s.relation("arc") == frozenset({(0, 1)})


def test_instantiate_respects_capacity():
    with pytest.raises(InputError):
        instantiate(wheel_plus_coclique(), (1, 1, 2))


def pattern_of_tuple(tup, block_of, pos_of):
    """Pattern realized by a concrete tuple of instantiation elements."""
    blocks = tuple(block_of[x] for x in tup)
    ranks = tuple(pos_of[x] for x in tup)
    return TuplePattern(blocks, normalize_ranks(blocks, ranks))


def filtered_relations(t, comp):
    """Per symbol, the set of tuples of the instantiation of comp found by
    filtering all size**arity tuples through their patterns."""
    block_of = [b for b, d in enumerate(comp) for _ in range(d)]
    pos_of = [j for d in comp for j in range(d)]
    return [frozenset(tup for tup in itertools.product(range(sum(comp)),
                                                       repeat=arity)
                      if pattern_of_tuple(tup, block_of, pos_of) in pats)
            for (_, arity), pats in zip(t.signature.symbols, t.accepted)]


@st.composite
def template_and_composition(draw):
    """A template with 1-3 blocks of capacity 1, 2, 3 or infinite, 1-2
    symbols of arity 1-4 and up to 6 accepted patterns per symbol, and a
    composition of at most 3 elements per block."""
    t = draw(random_templates(arities=st.lists(
        st.integers(1, 4), min_size=1, max_size=2).map(tuple), max_patterns=6))
    return t, tuple(draw(st.integers(0, 3 if cap is None else min(cap, 3)))
                    for cap in t.capacities)


@settings(max_examples=200, deadline=None)
@given(template_and_composition())
@example((rqsym(3, 2), (2, 3, 2)))
@example((c3_chains(), (2, 0, 3)))
def test_instantiate_matches_pattern_filter(case):
    # pattern by pattern enumeration finds exactly the tuples whose pattern
    # is accepted, and the tuples through the last element of a nonempty
    # block are exactly those of the instantiation that contain it
    t, comp = case
    s = instantiate(t, comp)
    assert list(s.rels) == filtered_relations(t, comp)
    spans = block_spans(comp)
    for i, (lo, hi) in enumerate(spans):
        if hi == lo:
            continue
        through = spans_through(t, spans, i)
        for rel, tuples in zip(s.rels, through):
            assert len(set(tuples)) == len(tuples)
            assert set(tuples) == {tup for tup in rel if hi - 1 in tup}


def test_compositions_graded_lex_and_caps():
    t = wheel_plus_coclique()  # center block has capacity 1
    comps = list(compositions(t, 2))
    assert comps == [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert all(c[2] <= 1 for c in comps)


def recursive_compositions(caps, n):
    """The recursive enumeration that the suffix tables of `compositions`
    replaced, kept as the oracle for their order."""
    def rec(i, remaining):
        if i == len(caps) - 1:
            cap = caps[i]
            if cap is None or remaining <= cap:
                yield (remaining,)
            return
        cap = remaining if caps[i] is None else min(caps[i], remaining)
        for d in range(cap + 1):
            for rest in rec(i + 1, remaining - d):
                yield (d,) + rest

    if len(caps) == 0:
        if n == 0:
            yield ()
        return
    yield from rec(0, n)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([None, 1, 2, 3]), max_size=5),
       st.integers(0, 8))
@example([], 0)
@example([], 3)
@example([None], 8)
@example([1, 1, 1, 1, 1], 3)
def test_compositions_match_the_recursive_oracle(caps, n):
    # compositions reads nothing of a source but its capacities
    source = SimpleNamespace(capacities=tuple(caps))
    comps = list(compositions(source, n))
    assert comps == list(recursive_compositions(caps, n))
    bounds = [range((n if c is None else c) + 1) for c in caps]
    assert set(comps) == {c for c in itertools.product(*bounds) if sum(c) == n}
    assert list(compositions(source, None, max_degree=n)) == [
        c for m in range(n + 1) for c in recursive_compositions(caps, m)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5), st.integers(-2, 22))
@example([], 0)
@example([], 1)
@example([2, 0, 3], -1)
@example([2, 0, 3], 6)
def test_subcompositions_of_a_total_match_the_product_filter(comp, total):
    product = itertools.product(*(range(d + 1) for d in comp))
    assert list(subcompositions(comp, total)) == [
        c for c in product if sum(c) == total]


# ---------------------------------------------------------------------------
# builder profiles against published values


def test_sym1_profile_all_ones():
    assert profile_series(sym(1), 6) == [1] * 7


def test_cpc_profile_is_n():
    assert profile_series(clique_plus_coclique(), 7) == [1, 1, 2, 3, 4, 5, 6, 7]


def test_groupoid_profile_matches_series_expansion():
    assert profile_series(groupoid_example(), 4) == [1, 2, 5, 9, 14]


def test_clique_sum_and_sym_share_a_profile():
    for k in (2, 3):
        assert profile_series(clique_sum(k), 7) == profile_series(sym(k), 7)


def test_rqsym_zero_is_sym():
    assert profile_series(rqsym(2, 0), 8) == profile_series(sym(2), 8)
    assert rqsym(3, 0).accepted == sym(3).accepted


def test_rqsym_one_matches_qsym_profile():
    assert profile_series(rqsym(2, 1), 6) == profile_series(qsym(2), 6)


def test_rqsym_r2_interpolates():
    # r = 2: a block holding < 2 points carries no rho tuple, so the block
    # order is visible only between parts >= 2.  Types at degree n are the
    # vectors (d1, d2) with parts >= 2 kept ordered and the rest unordered:
    # n=3 -> {3,0},{2,1}; n=4 -> {4,0},{3,1},(2,2); n=5 adds (3,2) vs (2,3).
    series = profile_series(rqsym(2, 2), 6)
    assert series == [1, 1, 2, 2, 3, 4, 5]


def test_coclique_profile():
    assert profile_series(coclique(), 5) == [1] * 6


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("build", [clique_plus_coclique, wheel_plus_coclique,
                                   lambda: qsym(2), groupoid_example])
def test_equal_counts_give_equal_restrictions(build):
    t = build()
    for comp in compositions(t, None, max_degree=5):
        if sum(comp) < 2:
            continue
        s = instantiate(t, comp)
        spans = block_spans(comp)
        sub = tuple(d // 2 for d in comp)
        if sum(sub) == 0:
            continue
        picks = [
            list(itertools.combinations(range(lo, hi), d))
            for (lo, hi), d in zip(spans, sub)
        ]
        seen = set()
        for choice in itertools.product(*picks):
            subset = [x for part in choice for x in part]
            seen.add(restrict(s, subset))
        assert len(seen) == 1


@pytest.mark.parametrize("build", [clique_plus_coclique, lambda: sym(2),
                                   lambda: qsym(2)])
def test_subcomposition_restriction_is_instantiation(build):
    t = build()
    for comp in compositions(t, 6):
        s = instantiate(t, comp)
        spans = block_spans(comp)
        for sub in itertools.product(*(range(d + 1) for d in comp)):
            subset = [x for (lo, _), c in zip(spans, sub) for x in range(lo, lo + c)]
            assert restrict(s, subset) == instantiate(t, sub)


MIXED = Signature((("mark", 1), ("arc", 2), ("between", 3)))


@settings(max_examples=80, deadline=None)
@given(structures(MIXED))
@example(FiniteRelStruct(MIXED, 0, {}))
@example(FiniteRelStruct(MIXED, 1, {"mark": [(0,)], "arc": [(0, 0)],
                                    "between": [(0, 0, 0)]}))
@example(FiniteRelStruct(MIXED, 3, {"arc": [(2, 2), (0, 2)],
                                    "between": [(1, 0, 1), (2, 2, 0)]}))
def test_singleton_presentation_instantiates_the_induced_substructures(s):
    # the identity a finite structure's registry rests on: a 0/1
    # composition of its presentation stands for the subset it selects
    t = present(s)
    assert t.capacities == (1,) * s.size
    for comp in itertools.product((0, 1), repeat=s.size):
        assert instantiate(t, comp) == restrict(
            s, [x for x, d in enumerate(comp) if d])


def test_lex_sum_point_with_clique_kind_is_clique_template():
    sig = Signature((("adj", 2),))
    point = FiniteRelStruct(sig, 1, {"adj": []})
    t = lex_sum(point, ["clique"], [INF])
    assert t.accepted == clique_sum(1).accepted


def test_lex_sum_c3_is_a_tournament():
    # every 2-subset carries exactly one arc, so phi(2) = 1; at degree 3 the
    # cyclic triangle (one point per chain) joins the transitive one; at
    # degree 4 only the transitive tournament and the doubled cycle occur
    t = c3_chains()
    s = instantiate(t, (2, 1, 1))
    arcs = s.relation("arc")
    for a in range(4):
        for b in range(a + 1, 4):
            assert ((a, b) in arcs) != ((b, a) in arcs)
    assert profile_series(t, 4) == [1, 1, 1, 2, 2]


def test_template_json_round_trip():
    t = wheel_plus_coclique()
    again = BlockTemplate.from_json(t.to_json())
    assert again == t
    assert again.to_json() == t.to_json()


def test_malformed_template_json():
    with pytest.raises(InputError):
        BlockTemplate.from_json("{nope")
    with pytest.raises(InputError):
        BlockTemplate.from_json('{"signature": [], "blocks": []}')


def test_template_json_ranks_must_be_an_initial_segment():
    data = clique_plus_coclique().to_json_dict()
    good = BlockTemplate.from_json_dict(data)
    assert good == clique_plus_coclique()
    for ranks in ([0, 5], [1, 2], [1, 1]):
        data["accepted"]["adj"][0]["ranks"] = ranks
        with pytest.raises(InputError, match="initial segment"):
            BlockTemplate.from_json_dict(data)
    # the builders still normalize
    assert TuplePattern.make([0, 0], [0, 5]).ranks == (0, 1)
