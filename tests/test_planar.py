"""Reduced plane trees, contractions, reconstruction, shuffles."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import agealg.planar
from agealg.errors import ConsistencyError, InputError
from agealg.planar import (EMPTY, LEAF, SCHRODER, _common_prefix,
                           _interposed_witness, check_address, contract, default_sample,
                           embed, enumerate_reduced, leaves, no_pair_monopart,
                           planar_profile, planar_profile_report,
                           reconstruct_from_triples, reduce_tree,
                           shuffle_constant, tree_from_text, tree_restrict,
                           tree_to_text)

CARET = (LEAF, (LEAF, LEAF))      # (o,(o,o))
TENT = ((LEAF, LEAF), LEAF)       # ((o,o),o)


def test_text_round_trip():
    for text in ("o", "(o,o)", "(o,(o,o))", "((o,o),o,(o,o,o))", ""):
        assert tree_to_text(tree_from_text(text)) == text


def test_reduce_examples():
    assert reduce_tree((LEAF, LEAF)) == (LEAF, LEAF)
    assert reduce_tree(((((LEAF,),),),)) == LEAF
    assert reduce_tree(((LEAF, LEAF),)) == (LEAF, LEAF)


def test_contract_examples():
    assert contract([(1,)]) == LEAF
    assert contract([(2, 1), (2, 3)]) == (LEAF, LEAF)
    # the displayed witness: {a,c,d} vs {b,c,d} with c,d in a copy between
    assert contract([(1,), (2, 1), (2, 3)]) == CARET
    assert contract([(3,), (2, 1), (2, 3)]) == TENT


def test_contract_rejects_duplicates_and_bad_addresses():
    with pytest.raises(InputError):
        contract([(1,), (1,)])
    with pytest.raises(InputError):
        contract([(2,)])      # even index cannot end an address
    with pytest.raises(InputError):
        contract([(1, 1)])    # odd index cannot continue


@pytest.mark.parametrize("addr", [(1.5,), (True,), [2.9, 1], (2, 1.0), ("1",)])
def test_address_indices_must_be_integers(addr):
    with pytest.raises(InputError, match="must be an integer"):
        check_address(addr)
    with pytest.raises(InputError, match="must be an integer"):
        contract([addr])


@pytest.mark.parametrize("call", [
    lambda: enumerate_reduced(2.0), lambda: enumerate_reduced(True),
    lambda: default_sample(2.0), lambda: planar_profile(2.5),
    lambda: planar_profile(True), lambda: reconstruct_from_triples(3.0, {}),
    lambda: tree_restrict(CARET, [1.0]),
], ids=["float-leaves", "bool-leaves", "float-sample", "fractional-profile",
        "bool-profile", "float-reconstruction", "float-leaf-number"])
def test_counts_must_be_integers(call):
    with pytest.raises(InputError, match="must be an integer"):
        call()


@pytest.mark.parametrize("tree, keep", [
    ((LEAF, LEAF), [5]), ((LEAF, LEAF), [0, 1]), (CARET, [4]), (EMPTY, [1]),
], ids=["past-the-end", "zero", "caret-4", "empty-tree"])
def test_restriction_refuses_leaves_outside_the_tree(tree, keep):
    with pytest.raises(InputError, match="leaf numbers must lie in"):
        tree_restrict(tree, keep)


def test_enumerate_counts_match_schroder():
    for n in range(8):
        assert len(enumerate_reduced(n)) == SCHRODER[n]


def test_enumerate_three_leaves_exact():
    assert sorted(map(tree_to_text, enumerate_reduced(3))) == [
        "((o,o),o)", "(o,(o,o))", "(o,o,o)"]


def test_enumerate_is_duplicate_free():
    for n in range(7):
        trees = enumerate_reduced(n)
        assert len(set(trees)) == len(trees)
        assert all(leaves(t) == n for t in trees)


# ---------------------------------------------------------------------------
# embeddings and profiles


def pruned(tree, keep):
    """The restriction of `tree` to the leaf numbers `keep` by definition:
    drop the other leaves and the nodes left without leaves, and suppress
    the unary nodes."""
    number = itertools.count(1)

    def prune(node):
        if node == LEAF:
            return LEAF if next(number) in keep else EMPTY
        kids = [k for k in map(prune, node) if k is not EMPTY]
        return tuple(kids) if len(kids) > 1 else (kids[0] if kids else EMPTY)

    return EMPTY if tree is EMPTY else prune(tree)


def test_embed_round_trip_small():
    # and every leaf subset of an embedding contracts to the restriction
    for n in range(6):
        for tree in enumerate_reduced(n):
            addresses = embed(tree)
            assert contract(addresses) == tree
            for keep in itertools.chain.from_iterable(
                    itertools.combinations(range(1, n + 1), r) for r in range(n + 1)):
                assert contract([addresses[k - 1] for k in keep]) \
                    == tree_restrict(tree, keep) == pruned(tree, set(keep)), (tree, keep)


def test_embed_round_trip_shifted():
    # alternative embeddings: adding a constant even offset to the first
    # index of every address preserves order, parity and all meets
    rng = random.Random(64)
    for tree in enumerate_reduced(4):
        addresses = embed(tree)
        for _ in range(3):
            bump = rng.randrange(1, 4) * 2
            shifted = [(a[0] + bump,) + a[1:] for a in addresses]
            assert contract(shifted) == tree


def test_planar_profile_matches_schroder():
    for n in range(1, 5):
        assert planar_profile(n) == SCHRODER[n]


def test_planar_profile_poor_sample_reports_undercount():
    shallow = tuple(a for a in default_sample(4) if len(a) <= 1)
    count, report = planar_profile_report(4, sample=shallow)
    assert count < SCHRODER[4]
    assert report["missing"]


def test_profile_one_point():
    assert planar_profile(1) == 1


def report_by_contracting_every_subset(n, sample=None):
    """`planar_profile_report` with one contraction per subset."""
    if sample is None:
        sample = default_sample(n)
    sample = tuple(sorted(check_address(a) for a in sample))
    known = set(enumerate_reduced(n))
    seen = set()
    for subset in itertools.combinations(sample, n):
        tree = contract(subset)
        if tree not in known:
            raise ConsistencyError(tree_to_text(tree))
        seen.add(tree)
    return len(seen), {
        "sample_size": len(sample),
        "expected": len(known),
        "found": len(seen),
        "missing": sorted(tree_to_text(t) for t in known - seen),
    }


def report_by_walking_every_subset(n, sample=None):
    """`planar_profile_report` walking every subset, in lex order, and
    contracting the first subset of each rank pattern."""
    if sample is None:
        sample = default_sample(n)
    sample = tuple(sorted(check_address(a) for a in sample))
    if n >= 2 and len(sample) >= n and len(set(sample)) < len(sample):
        raise InputError("duplicate addresses")
    known = set(enumerate_reduced(n))
    by_pattern = {}
    for subset in itertools.combinations(sample, n):
        lengths = tuple(_common_prefix(a, b) for a, b in zip(subset, subset[1:]))
        ranks = sorted(set(lengths))
        pattern = tuple(ranks.index(x) for x in lengths)
        if pattern not in by_pattern:
            tree = agealg.planar.contract(subset)
            if tree not in known:
                raise ConsistencyError(tree_to_text(tree))
            by_pattern[pattern] = tree
    seen = set(by_pattern.values())
    return len(seen), {
        "sample_size": len(sample),
        "expected": len(known),
        "found": len(seen),
        "missing": sorted(tree_to_text(t) for t in known - seen),
    }


def contractions(monkeypatch, route, *args, **kwargs):
    """The result of `route` and the address tuples it contracted."""
    calls = []
    original = agealg.planar.contract

    def recording(addresses):
        calls.append(tuple(addresses))
        return original(addresses)

    with monkeypatch.context() as patch:
        patch.setattr(agealg.planar, "contract", recording)
        return route(*args, **kwargs), calls


def cut_samples(n, depths):
    """The default sample of n leaves, whole and cut to each of `depths`
    indices."""
    sample = default_sample(n)
    return [sample] + [tuple(a for a in sample if len(a) <= d) for d in depths]


@pytest.mark.parametrize("n", range(6))
def test_pruned_walk_contracts_what_the_full_walk_does(monkeypatch, n):
    for sample in cut_samples(n, range(n)):
        assert (contractions(monkeypatch, planar_profile_report, n, sample)
                == contractions(monkeypatch, report_by_walking_every_subset,
                                n, sample))


@pytest.mark.parametrize("n", range(6))
def test_profile_by_pattern_matches_every_subset(n):
    # default_sample(n) is at most n - 1 indices deep, so a cut to n - 1
    # or more keeps the whole sample
    for sample in cut_samples(n, range(1, n - 1)):
        assert (planar_profile_report(n, sample)
                == report_by_contracting_every_subset(n, sample))


def random_address(rng):
    return tuple(rng.randrange(2, 8, 2) for _ in range(rng.randrange(4))) + (
        rng.randrange(1, 8, 2),)


def test_profile_by_pattern_matches_every_subset_on_random_samples():
    rng = random.Random(2718)
    for _ in range(60):
        sample = {random_address(rng) for _ in range(rng.randrange(1, 12))}
        for n in range(min(len(sample), 5) + 1):
            assert (planar_profile_report(n, sample=sample)
                    == report_by_contracting_every_subset(n, sample=sample))


def test_pruned_walk_contracts_what_the_full_walk_does_on_random_samples(
        monkeypatch):
    rng = random.Random(1414)
    for _ in range(60):
        sample = {random_address(rng) for _ in range(rng.randrange(1, 12))}
        for n in range(min(len(sample), 5) + 1):
            assert (contractions(monkeypatch, planar_profile_report, n,
                                 sample=sample)
                    == contractions(monkeypatch, report_by_walking_every_subset,
                                    n, sample=sample))


def test_profile_refuses_duplicate_addresses_like_contract():
    sample = [(1,), (3,), (3,)]  # the repeated pair is not the first subset
    for n in (2, 3):
        with pytest.raises(InputError, match="duplicate"):
            planar_profile_report(n, sample=sample)
        with pytest.raises(InputError, match="duplicate"):
            report_by_contracting_every_subset(n, sample=sample)
    for n in (0, 1, 4):  # no subset repeats an address
        assert (planar_profile_report(n, sample=sample)
                == report_by_contracting_every_subset(n, sample=sample))


def test_profile_contracts_once_per_rank_pattern(monkeypatch):
    # four common-prefix lengths have Fubini(4) = 75 rank patterns; one
    # contraction per subset would be C(23, 5) = 33,649 calls
    calls = []
    original = agealg.planar.contract

    def counting(addresses):
        calls.append(addresses)
        return original(addresses)

    monkeypatch.setattr(agealg.planar, "contract", counting)
    count, report = planar_profile_report(5)
    assert count == SCHRODER[5] and report["sample_size"] == 23
    assert len(calls) <= 75


def test_profile_walk_prunes_repeated_states(monkeypatch):
    # walking every 5-subset of the 23-address sample visits C(23, 5) =
    # 33,649 leaves; the pruned walk visits 1,086 states
    walks = []
    original = agealg.planar._first_subsets

    def recording(common, n):
        walks.append(original(common, n))
        return walks[-1]

    monkeypatch.setattr(agealg.planar, "_first_subsets", recording)
    count, report = planar_profile_report(5)
    assert count == SCHRODER[5] and report["sample_size"] == 23
    (subsets, states), = walks
    assert states <= 1100 < comb(23, 5) // 30


# ---------------------------------------------------------------------------
# triple reconstruction


def triples_of(tree):
    d = leaves(tree)
    return {
        key: tree_restrict(tree, key)
        for key in itertools.combinations(range(1, d + 1), 3)
    }


def test_reconstruct_four_leaf_round_trip():
    for tree in enumerate_reduced(4):
        assert reconstruct_from_triples(4, triples_of(tree)) == tree


def test_reconstruct_d3_identity():
    for tree in enumerate_reduced(3):
        assert reconstruct_from_triples(3, {(1, 2, 3): tree}) == tree


def test_reconstruct_inconsistent_mix():
    t1, t2 = enumerate_reduced(5)[0], enumerate_reduced(5)[-1]
    mixed = triples_of(t1)
    bad = triples_of(t2)
    key = (1, 2, 3)
    if mixed[key] == bad[key]:
        key = (2, 3, 5)
    mixed[key] = bad[key]
    if mixed != triples_of(t1):
        assert reconstruct_from_triples(5, mixed) is None


def test_reconstruct_round_trip_up_to_six_leaves():
    for n in (5, 6):
        for tree in enumerate_reduced(n):
            assert reconstruct_from_triples(n, triples_of(tree)) == tree


# ---------------------------------------------------------------------------
# shuffle constants


def test_point_shuffle_point():
    assert shuffle_constant(LEAF, LEAF, (LEAF, LEAF)) == 2


def test_empty_tree_is_unit():
    for tree in enumerate_reduced(3):
        assert shuffle_constant(EMPTY, tree, tree) == 1
        other = enumerate_reduced(3)[0]
        if other != tree:
            assert shuffle_constant(EMPTY, other, tree) == 0


def test_point_shuffle_cherry():
    # every 2-subset of a 3-set contracts to the unique 2-leaf tree, so the
    # three singleton splits all qualify, for each of the three targets
    for tree in enumerate_reduced(3):
        assert shuffle_constant(LEAF, (LEAF, LEAF), tree) == 3


def test_shuffle_commutes():
    for t1 in enumerate_reduced(1) + enumerate_reduced(2):
        for t2 in enumerate_reduced(2):
            for target in enumerate_reduced(leaves(t1) + leaves(t2)):
                assert shuffle_constant(t1, t2, target) == \
                    shuffle_constant(t2, t1, target)


def test_shuffle_split_count_identity():
    # for a fixed target every split has some pair of types, so summing the
    # constants over all (t1, t2) recovers the number of splits
    for target in enumerate_reduced(4):
        total = sum(
            shuffle_constant(t1, t2, target)
            for t1 in enumerate_reduced(1)
            for t2 in enumerate_reduced(3))
        assert total == comb(4, 1)
    for target in enumerate_reduced(5)[:6]:
        total = sum(
            shuffle_constant(t1, t2, target)
            for t1 in enumerate_reduced(2)
            for t2 in enumerate_reduced(3))
        assert total == comb(5, 2)


def test_leaf_count_mismatch_rejected():
    with pytest.raises(InputError):
        shuffle_constant(LEAF, LEAF, CARET)


# ---------------------------------------------------------------------------
# no two-element monomorphic part


def test_no_pair_monopart_on_samples():
    assert no_pair_monopart(default_sample(3))
    assert no_pair_monopart(default_sample(4))
    assert no_pair_monopart(embed(enumerate_reduced(6)[17]))


def test_no_pair_adjacent_leaves_fall_back():
    # (1) and (2,1) have no host leaf strictly between them; the sibling-fan
    # witness still separates
    assert no_pair_monopart([(1,), (2, 1), (3,), (5,)])


def test_no_pair_requires_four_leaves():
    with pytest.raises(InputError):
        no_pair_monopart([(1,)])


def test_no_pair_refuses_duplicate_leaves():
    with pytest.raises(InputError, match="duplicate"):
        no_pair_monopart([(1,), (3,), (5,), (1,)])


def separates(a, b, witness):
    c, d = witness
    return contract((a, c, d)) != contract((b, c, d))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_interposed_witness_separates_sample_pairs(n):
    for a, b in itertools.combinations(default_sample(n), 2):
        assert separates(a, b, _interposed_witness(a, b))


# a host leaf: descents into copies (even indices), then a leaf (odd)
addresses = st.builds(lambda descents, leaf: (*descents, leaf),
                      st.lists(st.sampled_from([2, 4, 6, 8]), max_size=4),
                      st.sampled_from([1, 3, 5, 7, 9]))


@given(addresses, addresses)
def test_interposed_witness_separates_random_pairs(a, b):
    if a != b:
        assert separates(a, b, _interposed_witness(a, b))


def test_no_pair_monopart_fails_on_a_witness_that_does_not_separate(monkeypatch):
    # two leaves right of the whole sample see any a and b alike: (o,o,o)
    monkeypatch.setattr(agealg.planar, "_interposed_witness",
                        lambda a, b: ((101,), (103,)))
    assert not no_pair_monopart(default_sample(4))


def test_witness_already_in_sample():
    sample = [(1,), (3,), (2, 1), (2, 3), (4, 1)]
    assert no_pair_monopart(sample)
