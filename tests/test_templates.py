"""Templates: validation, instantiation semantics, builders."""

import itertools

import pytest

from agealg.algebra import profile_series
from agealg.errors import InputError
from agealg.structures import FiniteRelStruct, Signature, restrict
from agealg.templates import (INF, BlockTemplate, TuplePattern, c3_chains,
                              block_spans, clique_plus_coclique, clique_sum,
                              coclique, compositions, groupoid_example,
                              instantiate, lex_sum, qsym, rqsym, sym, validate,
                              wheel_plus_coclique)


def test_pattern_normalization():
    p = TuplePattern.make((0, 0, 1), (5, 2, 7))
    assert p.ranks == (1, 0, 0)
    q = TuplePattern.make((0, 0), (3, 3))
    assert q.ranks == (0, 0)


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


def test_compositions_graded_lex_and_caps():
    t = wheel_plus_coclique()  # center block has capacity 1
    comps = list(compositions(t, 2))
    assert comps == [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert all(c[2] <= 1 for c in comps)


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
