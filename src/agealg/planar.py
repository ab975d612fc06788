"""Reduced plane trees, contractions, and the planar shuffle structure.

Trees are rooted, ordered, unlabelled; reduced means every internal node has
at least two children.  Representation: "o" for a leaf, a tuple of children
for an internal node, None for the empty reduced tree.  Counted by leaf
number these are the (super-Catalan / Schroeder) numbers 1,1,1,3,11,45,...

The infinite host tree is never materialized.  Its leaves are addressed by
paths of child indices, alternating: odd indices are leaves, even indices
descend into a fresh copy of the host (a frozen convention).  Contraction of
a finite address set builds the trie of the addresses and suppresses unary
nodes; left-right leaf order is address order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import ConsistencyError, InputError
from .structures import json_int, nonnegative_int
from .templates import subcompositions

LEAF = "o"
EMPTY = None

SCHRODER = (1, 1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049)


def leaves(tree):
    if tree is EMPTY:
        return 0
    if tree == LEAF:
        return 1
    return sum(leaves(c) for c in tree)


def tree_to_text(tree):
    if tree is EMPTY:
        return ""
    if tree == LEAF:
        return "o"
    return "(" + ",".join(tree_to_text(c) for c in tree) + ")"


def tree_from_text(text):
    text = text.strip().replace(" ", "")
    if text == "":
        return EMPTY
    pos = 0

    def parse():
        nonlocal pos
        if pos < len(text) and text[pos] == "o":
            pos += 1
            return LEAF
        if pos >= len(text) or text[pos] != "(":
            raise InputError(f"bad tree text at {pos}: {text!r}")
        pos += 1
        kids = [parse()]
        while pos < len(text) and text[pos] == ",":
            pos += 1
            kids.append(parse())
        if pos >= len(text) or text[pos] != ")":
            raise InputError(f"unbalanced tree text: {text!r}")
        pos += 1
        return tuple(kids)

    out = parse()
    if pos != len(text):
        raise InputError(f"trailing characters in tree text: {text!r}")
    return out


def reduce_tree(tree):
    """Contract unary chains; leaves keep their order."""
    if tree is EMPTY or tree == LEAF:
        return tree
    kids = [reduce_tree(c) for c in tree]
    if len(kids) == 1:
        return kids[0]
    return tuple(kids)


def enumerate_reduced(n):
    """All reduced trees with exactly n leaves (Schroeder many)."""
    return list(_enumerate_reduced(nonnegative_int(n, "leaf count")))


@lru_cache(maxsize=None)
def _enumerate_reduced(n):
    if n == 0:
        return (EMPTY,)
    if n == 1:
        return (LEAF,)
    out = []
    for m in range(2, n + 1):
        # the compositions of n into m positive parts, in lex order
        for comp in subcompositions((n - m,) * m, n - m):
            for kids in itertools.product(*(_enumerate_reduced(c + 1) for c in comp)):
                out.append(tuple(kids))
    return tuple(out)


def tree_restrict(tree, keep):
    """Contraction of a finite reduced tree onto a subset of its leaves
    (1-based leaf numbers in left-right order): the contraction of those
    leaves of its embedding into the host."""
    keep = {json_int(x, "leaf number") for x in keep}
    n = leaves(tree)
    if not all(1 <= x <= n for x in keep):
        raise InputError(f"leaf numbers must lie in 1..{n}, got {sorted(keep)}")
    addresses = embed(tree)
    return contract([addresses[k - 1] for k in keep])


# ---------------------------------------------------------------------------
# leaf addresses of the infinite host tree


def check_address(addr):
    addr = tuple(json_int(x, "address index") for x in addr)
    if not addr:
        raise InputError("empty address")
    if any(x < 1 for x in addr):
        raise InputError("address indices must be >= 1")
    if addr[-1] % 2 != 1:
        raise InputError("address must end at a leaf (odd last index)")
    for x in addr[:-1]:
        if x % 2 != 0:
            raise InputError("intermediate address indices descend (even)")
    return addr


def contract(addresses):
    """Reduced tree induced by a finite set of host-tree leaves: the trie of
    the addresses with unary nodes suppressed.  No valid address is a prefix
    of another (prefixes end on even indices), so the trie is well formed."""
    addrs = [check_address(a) for a in addresses]
    if len(set(addrs)) != len(addrs):
        raise InputError("duplicate addresses")
    if not addrs:
        return EMPTY
    root = {}
    for a in addrs:
        node = root
        for x in a:
            node = node.setdefault(x, {})

    def build(node):
        if not node:
            return LEAF
        kids = [build(child) for _, child in sorted(node.items())]
        return kids[0] if len(kids) == 1 else tuple(kids)

    return build(root)


def embed(tree):
    """Greedy smallest-slot embedding of a reduced tree into the host:
    produces addresses whose contraction is the tree; embeddings of
    different trees share prefixes, keeping sample unions small."""
    if tree is EMPTY:
        return ()
    out = []

    def place(node, prefix):
        if node == LEAF:
            out.append(prefix + (1,))
            return
        last = 0
        for child in node:
            if child == LEAF:
                slot = last + 1 if (last + 1) % 2 == 1 else last + 2
                out.append(prefix + (slot,))
            else:
                slot = last + 1 if (last + 1) % 2 == 0 else last + 2
                place(child, prefix + (slot,))
            last = slot

    place(tree, ())
    return tuple(out)


def default_sample(n):
    """Union of the greedy embeddings of every reduced tree with n leaves;
    hosts each of them by construction."""
    sample = set()
    for tree in enumerate_reduced(n):
        sample.update(embed(tree))
    return tuple(sorted(sample))


def planar_profile(n, sample=None):
    """Number of contraction types among n-subsets of a finite leaf sample.

    With the default sample this equals the Schroeder number; a poorer
    sample undercounts, which the report makes visible.
    """
    return planar_profile_report(n, sample)[0]


def planar_profile_report(n, sample=None):
    """Count and report the contraction types of the n-subsets of a sample
    (by default `default_sample(n)`).

    A sorted subset contracts to the Cartesian tree of its neighbours'
    common-prefix lengths, equal minima merged: the root sits at the least
    length and splits the subset where that length occurs.  So the tree
    depends only on the rank pattern of those n - 1 lengths.  Each pattern
    is contracted once, from its first subset, and checked to be a reduced
    tree with n leaves; every other subset of the pattern has that tree.
    The subsets come from `_first_subsets`, which reaches the first subset
    of every lengths tuple without walking all of them.
    """
    nonnegative_int(n, "n")
    if sample is None:
        sample = default_sample(n)
    sample = tuple(sorted(check_address(a) for a in sample))
    if n >= 2 and len(sample) >= n and len(set(sample)) < len(sample):
        raise InputError("duplicate addresses")  # some subset repeats one
    common = [[_common_prefix(a, b) for b in sample] for a in sample]
    known = set(enumerate_reduced(n))
    by_pattern = {}
    subsets, _ = _first_subsets(common, n)
    for subset, lengths in subsets:
        ranks = sorted(set(lengths))
        pattern = tuple(ranks.index(x) for x in lengths)
        if pattern not in by_pattern:
            tree = contract([sample[i] for i in subset])
            if tree not in known:
                raise ConsistencyError(
                    f"contraction produced a non-reduced or wrong-size tree: "
                    f"{tree_to_text(tree)}")
            by_pattern[pattern] = tree
    seen = set(by_pattern.values())
    report = {
        "sample_size": len(sample),
        "expected": len(known),
        "found": len(seen),
        "missing": sorted(tree_to_text(t) for t in known - seen),
    }
    return len(seen), report


def _first_subsets(common, n):
    """Walk the n-subsets of range(len(common)) in lex order, skipping
    repeated states, and return (leaves, states).  The leaves are
    (subset, lengths) pairs, in lex order, with lengths the neighbours'
    `common[i][j]`; among them is the lex-first subset of every lengths
    tuple.  `states` counts the states visited.

    A state is (last index, lengths so far).  The lengths still to come
    depend only on the last index, so a state met before adds no new
    tuple and its subtree is skipped.  The first subset with a given tuple
    is never skipped: were a prefix of it skipped for an earlier prefix
    with the same state, that prefix and the same rest would be an
    earlier subset with the same tuple.
    """
    size = len(common)
    if n == 0:
        return [((), ())], 0
    found = []
    visited = set()
    stack = [((i,), ()) for i in range(size - n, -1, -1)]
    while stack:
        subset, lengths = stack.pop()
        last = subset[-1]
        if (last, lengths) in visited:
            continue
        visited.add((last, lengths))
        if len(subset) == n:
            found.append((subset, lengths))
            continue
        row = common[last]
        stack.extend((subset + (j,), lengths + (row[j],))
                     for j in range(size - n + len(subset), last, -1))
    return found, len(visited)


def _common_prefix(a, b):
    p = 0
    while p < len(a) and p < len(b) and a[p] == b[p]:
        p += 1
    return p


def reconstruct_from_triples(d, triples):
    """Rebuild a reduced tree with leaves 1..d from the contractions of all
    its 3-subsets, or report inconsistency.

    An interval [i, j] of leaves (i < j) hangs under one internal node
    exactly when every triple {k, i, j} with k < i contracts to (o,(o,o))
    and every {i, j, k} with k > j contracts to ((o,o),o); the qualifying
    intervals are assembled greedily and the result is verified by
    recomputing all of its triples.
    """
    if json_int(d, "d") < 3:
        raise InputError("reconstruction needs d >= 3")
    table = {}
    for key, tree in dict(triples).items():
        key = frozenset(key)
        if len(key) != 3 or not key.issubset(range(1, d + 1)):
            raise InputError(f"bad triple key {sorted(key)}")
        table[key] = tree
    for key in itertools.combinations(range(1, d + 1), 3):
        if frozenset(key) not in table:
            raise InputError(f"triple map must be total; missing {key}")

    def qualifies(i, j):
        for k in range(1, i):
            if table[frozenset((k, i, j))] != WITNESS_LEFT:
                return False
        for k in range(j + 1, d + 1):
            if table[frozenset((i, j, k))] != WITNESS_RIGHT:
                return False
        return True

    node_intervals = {
        (i, j)
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
        if qualifies(i, j)
    }

    def build(i, j):
        kids = []
        p = i
        while p <= j:
            q = None
            for jj in range(j, p, -1):
                if (p, jj) in node_intervals and (p, jj) != (i, j):
                    q = jj
                    break
            if q is None:
                kids.append(LEAF)
                p += 1
            else:
                kids.append(build(p, q))
                p = q + 1
        if len(kids) < 2:
            return None
        return tuple(kids)

    if (1, d) not in node_intervals:
        return None  # cannot happen with consistent data (conditions vacuous)
    tree = build(1, d)
    if tree is None or leaves(tree) != d:
        return None
    for key in itertools.combinations(range(1, d + 1), 3):
        if tree_restrict(tree, key) != table[frozenset(key)]:
            return None
    return tree


def shuffle_constant(t1, t2, t):
    """Shuffle structure constant: ordered splits A = A1 + A2 of a
    realization of t with contractions t1 and t2."""
    n1, n2, n = leaves(t1), leaves(t2), leaves(t)
    if n1 + n2 != n:
        raise InputError("leaf counts must add up")
    addresses = embed(t)
    if contract(addresses) != t:
        raise InputError("tree is not realized by its own embedding")
    count = 0
    for left in itertools.combinations(addresses, n1):
        right = tuple(a for a in addresses if a not in left)
        if contract(left) == t1 and contract(right) == t2:
            count += 1
    return count


# ---------------------------------------------------------------------------
# no two-element monomorphic part


WITNESS_LEFT = (LEAF, (LEAF, LEAF))     # (o,(o,o))
WITNESS_RIGHT = ((LEAF, LEAF), LEAF)    # ((o,o),o)


def _interposed_witness(a, b):
    """Two leaves c, d with contract{a,c,d} != contract{b,c,d}.

    Prefers the pair strictly between a and b whose own meet is deeper (the
    canonical (o,(o,o)) vs ((o,o),o) separation); when the two leaves are
    adjacent in the host, falls back to a sibling fan after b, which yields
    (o,(o,o)) vs (o,o,o)."""
    a, b = sorted((check_address(a), check_address(b)))
    p = _common_prefix(a, b)
    prefix = a[:p]
    ia, ib = a[p], b[p]
    # room between the next indices
    e = ia + 1 if (ia + 1) % 2 == 0 else ia + 2
    if e < ib:
        return prefix + (e, 1), prefix + (e, 3)
    if len(a) > p + 1:
        # descend a's copy, after a
        m = a[p + 1] + 1 if (a[p + 1] + 1) % 2 == 0 else a[p + 1] + 2
        return prefix + (ia, m, 1), prefix + (ia, m, 3)
    if len(b) > p + 1 and b[p + 1] > 2:
        # descend b's copy, before b
        return prefix + (ib, 2, 1), prefix + (ib, 2, 3)
    # adjacent leaves: sibling fan after b inside b's copy
    base = b[p + 1] if len(b) > p + 1 else 1
    m = base + 1 if (base + 1) % 2 == 1 else base + 2
    return prefix + (ib, m), prefix + (ib, m + 2)


def no_pair_monopart(sample):
    """True iff every pair {a, b} of sample leaves is separated by the
    witness pair {c, d} that `_interposed_witness` constructs, checked by
    contracting: contract{a,c,d} != contract{b,c,d}, so {a, b} is not a
    monomorphic part of the host."""
    sample = [check_address(a) for a in sample]
    if len(sample) < 4:
        raise InputError("need a sample of at least 4 leaves")
    if len(set(sample)) < len(sample):
        raise InputError("duplicate addresses")
    for a, b in itertools.combinations(sample, 2):
        c, d = _interposed_witness(a, b)
        if contract((a, c, d)) == contract((b, c, d)):
            return False
    return True
