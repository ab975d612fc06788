"""Block templates: finite presentations of infinite relational structures.

A template lists ordered blocks (each an internal chain, capacity in N or
infinity) and, per relation symbol, the accepted tuple patterns.  A pattern
records for every tuple coordinate its block and a rank; ranks are compared
only among coordinates sharing a block (equal rank = equal element, rank
order = within-block chain order).  A tuple of a concrete instantiation is
present iff its pattern is accepted, so by construction the blocks form a
monomorphic decomposition of every instantiation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import InputError
from .structures import FiniteRelStruct, Signature, json_int, restrict

INF = None  # capacity marker for infinite blocks


def normalize_ranks(blocks, ranks):
    """Renumber ranks order-preservingly so that, within each block, the
    distinct values form an initial segment 0..r."""
    out = list(ranks)
    for b in set(blocks):
        positions = [i for i, x in enumerate(blocks) if x == b]
        values = sorted({ranks[i] for i in positions})
        remap = {v: j for j, v in enumerate(values)}
        for i in positions:
            out[i] = remap[ranks[i]]
    return tuple(out)


@dataclass(frozen=True)
class TuplePattern:
    """Block and rank assignment of one accepted tuple shape."""

    blocks: tuple
    ranks: tuple

    @staticmethod
    def make(blocks, ranks):
        blocks = tuple(int(b) for b in blocks)
        ranks = tuple(int(r) for r in ranks)
        if len(blocks) != len(ranks):
            raise InputError("pattern blocks and ranks must have equal length")
        if any(r < 0 for r in ranks):
            raise InputError("pattern ranks must be non-negative")
        return TuplePattern(blocks, normalize_ranks(blocks, ranks))

    def to_json_dict(self):
        return {"blocks": list(self.blocks), "ranks": list(self.ranks)}


def _pattern_from_json(blocks, ranks):
    """A pattern read from JSON, whose ranks must already be normalized."""
    blocks = [json_int(b, "pattern block") for b in blocks]
    ranks = [json_int(r, "pattern rank") for r in ranks]
    p = TuplePattern.make(blocks, ranks)
    if p.ranks != tuple(ranks):
        raise InputError(f"pattern ranks {ranks} on blocks {blocks} "
                         f"do not form an initial segment 0..r in each block")
    return p


def pattern_of_tuple(tup, block_of, pos_of):
    """Pattern realized by a concrete tuple of instantiation elements."""
    blocks = tuple(block_of[x] for x in tup)
    ranks = tuple(pos_of[x] for x in tup)
    return TuplePattern(blocks, normalize_ranks(blocks, ranks))


@dataclass(frozen=True)
class BlockTemplate:
    """Signature + ordered blocks (name, capacity) + accepted patterns."""

    signature: Signature
    blocks: tuple           # ((name, capacity|None), ...)
    accepted: tuple         # per symbol, frozenset of TuplePattern

    @staticmethod
    def make(signature, blocks, accepted):
        """Build and structurally validate a template.

        `accepted` maps symbol name -> iterable of TuplePattern (or
        (blocks, ranks) pairs, which are normalized here).
        """
        blocks = tuple((str(n), (None if c in (None, "inf") else int(c))) for n, c in blocks)
        acc = []
        for name, _ in signature.symbols:
            pats = []
            for p in accepted.get(name, ()):
                if not isinstance(p, TuplePattern):
                    p = TuplePattern.make(*p)
                pats.append(p)
            acc.append(frozenset(pats))
        t = BlockTemplate(signature, blocks, tuple(acc))
        diags = validate(t, swap_degree=0)
        if diags:
            raise InputError("invalid template: " + "; ".join(diags))
        return t

    # -- introspection -------------------------------------------------------

    @property
    def block_names(self):
        return tuple(n for n, _ in self.blocks)

    @property
    def capacities(self):
        return tuple(c for _, c in self.blocks)

    def max_composition(self, n):
        """Per-block cap for degree-n subsets: min(capacity, n)."""
        return tuple(n if c is None else min(c, n) for c in self.capacities)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "signature": [{"name": n, "arity": a} for n, a in self.signature.symbols],
            "blocks": [{"name": n, "capacity": ("inf" if c is None else c)}
                       for n, c in self.blocks],
            "accepted": {
                name: sorted((p.to_json_dict() for p in pats),
                             key=lambda d: (d["blocks"], d["ranks"]))
                for name, pats in zip(self.signature.names, self.accepted)
            },
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data):
        try:
            sig = Signature(tuple((s["name"], json_int(s["arity"], "arity"))
                                  for s in data["signature"]))
            blocks = [(b["name"], b["capacity"] if b["capacity"] in (None, "inf")
                       else json_int(b["capacity"], "capacity")) for b in data["blocks"]]
            accepted = {
                name: [_pattern_from_json(p["blocks"], p["ranks"]) for p in pats]
                for name, pats in data.get("accepted", {}).items()
            }
            extra = set(accepted) - set(sig.names)
            if extra:
                raise InputError(f"accepted patterns for unknown symbols: {sorted(extra)}")
            return BlockTemplate.make(sig, blocks, accepted)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed template JSON: {exc}") from exc

    @staticmethod
    def from_json(text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return BlockTemplate.from_json_dict(data)


# ---------------------------------------------------------------------------
# validation


def validate(t, swap_degree=5):
    """Structural diagnostics (empty list = ok).

    With swap_degree > 0, additionally asserts on every instantiation of
    total degree <= swap_degree that subsets with equal per-block counts
    induce equal substructures (the monomorphic-decomposition property that
    the pattern semantics promise).
    """
    diags = []
    names = [n for n, _ in t.blocks]
    if len(set(names)) != len(names):
        diags.append("duplicate block names")
    if not t.blocks:
        diags.append("template needs at least one block")
    for bi, (n, c) in enumerate(t.blocks):
        if c is not None and c < 1:
            diags.append(f"block {n!r} has capacity {c} < 1")
    nblocks = len(t.blocks)
    for (name, arity), pats in zip(t.signature.symbols, t.accepted):
        for pi, p in enumerate(sorted(pats, key=lambda q: (q.blocks, q.ranks))):
            if len(p.blocks) != arity:
                diags.append(f"symbol {name!r} pattern {pi}: length != arity {arity}")
                continue
            if any(b < 0 or b >= nblocks for b in p.blocks):
                diags.append(f"symbol {name!r} pattern {pi}: block index out of range")
                continue
            if p.ranks != normalize_ranks(p.blocks, p.ranks):
                diags.append(f"symbol {name!r} pattern {pi}: ranks not normalized")
            for b in set(p.blocks):
                cap = t.blocks[b][1]
                if cap is not None:
                    used = max(p.ranks[i] for i in range(arity) if p.blocks[i] == b) + 1
                    if used > cap:
                        diags.append(
                            f"symbol {name!r} pattern {pi}: needs {used} distinct "
                            f"elements in block {t.blocks[b][0]!r} of capacity {cap}")
    if diags or swap_degree <= 0:
        return diags

    for comp in compositions(t, None, max_degree=swap_degree):
        if sum(comp) < 2:
            continue
        s = instantiate(t, comp)
        spans = block_spans(comp)
        for sub in subcompositions(comp):
            if not 0 < sum(sub) < sum(comp):
                continue
            choices = [itertools.combinations(range(lo, hi), d)
                       for (lo, hi), d in zip(spans, sub)]
            seen = None
            for pick in itertools.product(*choices):
                subset = [x for part in pick for x in part]
                r = restrict(s, subset)
                if seen is None:
                    seen = r
                elif r != seen:
                    diags.append(
                        f"swap check failed at composition {comp}, counts {sub}")
                    return diags
    return diags


def subcompositions(comp, total=None):
    """Vectors c1 <= comp componentwise in lex order, only those summing to
    `total` when it is given."""
    subs = itertools.product(*(range(d + 1) for d in comp))
    if total is None:
        return subs
    return (c1 for c1 in subs if sum(c1) == total)


# ---------------------------------------------------------------------------
# instantiation


def block_spans(comp):
    """Half-open element ranges of each block inside the instantiation."""
    spans = []
    lo = 0
    for d in comp:
        spans.append((lo, lo + d))
        lo += d
    return spans


def instantiate(t, comp):
    """Finite structure on the disjoint union of chains of sizes comp.

    Blocks are laid out in declaration order; a tuple is present iff its
    pattern is accepted.
    """
    comp = tuple(int(d) for d in comp)
    if len(comp) != len(t.blocks):
        raise InputError("composition length != number of blocks")
    for d, (name, cap) in zip(comp, t.blocks):
        if d < 0:
            raise InputError("negative block count")
        if cap is not None and d > cap:
            raise InputError(f"composition exceeds capacity of block {name!r}")
    n = sum(comp)
    block_of = []
    pos_of = []
    for bi, d in enumerate(comp):
        for j in range(d):
            block_of.append(bi)
            pos_of.append(j)
    relations = {}
    for (name, arity), pats in zip(t.signature.symbols, t.accepted):
        if not pats:
            relations[name] = ()
            continue
        tuples = [
            tup for tup in itertools.product(range(n), repeat=arity)
            if pattern_of_tuple(tup, block_of, pos_of) in pats
        ]
        relations[name] = tuples
    return FiniteRelStruct(t.signature, n, relations)


def compositions(t, n, max_degree=None):
    """Capacity-respecting exponent vectors, in lex order within each degree.

    With n given, yields vectors of total degree n; with max_degree given,
    yields all degrees 0..max_degree in graded lex order.
    """
    caps = t.capacities
    if max_degree is not None:
        for m in range(max_degree + 1):
            yield from compositions(t, m)
        return

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


# ---------------------------------------------------------------------------
# builders for the gallery of worked examples


def _all_rank_patterns(blocks, distinct=False):
    """All normalized rank assignments for a fixed block vector."""
    arity = len(blocks)
    pats = set()
    for ranks in itertools.product(range(arity), repeat=arity):
        p = TuplePattern.make(blocks, ranks)
        if distinct:
            ok = all(
                len({p.ranks[i] for i in range(arity) if p.blocks[i] == b})
                == sum(1 for x in p.blocks if x == b)
                for b in set(p.blocks)
            )
            if not ok:
                continue
        pats.add(p)
    return pats


def coclique():
    """Infinite independent set; profile 1,1,1,..."""
    sig = Signature((("adj", 2),))
    return BlockTemplate.make(sig, [("b1", INF)], {"adj": []})


def clique_sum(k):
    """Direct sum of k infinite cliques; profile = partitions into <= k parts."""
    if k < 1:
        raise InputError("clique_sum needs k >= 1")
    sig = Signature((("adj", 2),))
    pats = []
    for b in range(k):
        pats += [((b, b), (0, 1)), ((b, b), (1, 0))]
    return BlockTemplate.make(sig, [(f"b{i+1}", INF) for i in range(k)], {"adj": pats})


def sym(k):
    """Same-block equivalence on k infinite blocks (wreath encoding of the
    symmetric-polynomial structure); same age as clique_sum(k)."""
    if k < 1:
        raise InputError("sym needs k >= 1")
    sig = Signature((("eq", 2),))
    pats = []
    for b in range(k):
        pats += [((b, b), (0, 0)), ((b, b), (0, 1)), ((b, b), (1, 0))]
    return BlockTemplate.make(sig, [(f"b{i+1}", INF) for i in range(k)], {"eq": pats})


def clique_plus_coclique():
    """Infinite clique next to an infinite independent set; profile n."""
    sig = Signature((("adj", 2),))
    pats = [((0, 0), (0, 1)), ((0, 0), (1, 0))]
    return BlockTemplate.make(sig, [("clique", INF), ("co", INF)], {"adj": pats})


def wheel_plus_coclique():
    """Infinite star (leaves + single center) next to an infinite
    independent set; same profile as clique_plus_coclique but with three
    monomorphic components."""
    sig = Signature((("adj", 2),))
    pats = [((0, 2), (0, 0)), ((2, 0), (0, 0))]
    return BlockTemplate.make(
        sig, [("leaves", INF), ("co", INF), ("center", 1)], {"adj": pats})


def qsym(k):
    """k linearly ordered infinite blocks with all cross arcs i < j; the age
    algebra is the quasi-symmetric polynomial ring on k variables."""
    if k < 1:
        raise InputError("qsym needs k >= 1")
    sig = Signature((("arc", 2),))
    pats = [((i, j), (0, 0)) for i in range(k) for j in range(i + 1, k)]
    return BlockTemplate.make(sig, [(f"b{i+1}", INF) for i in range(k)], {"arc": pats})


def rqsym(k, r):
    """The r-quasi-symmetric structure: the sym(k) blocks plus one 2r-ary
    relation linking r distinct elements of a block to r distinct elements
    of a later block.  r=0 degenerates to sym(k) itself, r=1 has the same
    age as qsym(k)."""
    if k < 1 or r < 0:
        raise InputError("rqsym needs k >= 1 and r >= 0")
    if r == 0:
        return sym(k)
    sig = Signature((("eq", 2), ("rho", 2 * r)))
    eq_pats = []
    for b in range(k):
        eq_pats += [((b, b), (0, 0)), ((b, b), (0, 1)), ((b, b), (1, 0))]
    rho_pats = []
    for i in range(k):
        for j in range(i + 1, k):
            blocks = (i,) * r + (j,) * r
            for p1 in itertools.permutations(range(r)):
                for p2 in itertools.permutations(range(r)):
                    rho_pats.append((blocks, p1 + p2))
    return BlockTemplate.make(
        sig, [(f"b{i+1}", INF) for i in range(k)],
        {"eq": eq_pats, "rho": rho_pats})


def groupoid_example():
    """Relational model of the invariant ring of the permutation groupoid
    generated by 1 -> 2 on three points: arcs b1->b2 and b1->b3 plus a mark
    on b3 make exactly the monomial orbits (a,0,0) ~ (0,a,0) collapse."""
    sig = Signature((("arc", 2), ("mark", 1)))
    pats_arc = [((0, 1), (0, 0)), ((0, 2), (0, 0))]
    pats_mark = [((2,), (0,))]
    return BlockTemplate.make(
        sig, [("b1", INF), ("b2", INF), ("b3", INF)],
        {"arc": pats_arc, "mark": pats_mark})


def lex_sum(quotient, block_kinds, capacities):
    """Lexicographical sum: substitute each element of a finite quotient
    structure by a block (clique / coclique / chain inside, quotient tuples
    lifted across blocks with every rank pattern accepted)."""
    m = quotient.size
    if len(block_kinds) != m or len(capacities) != m:
        raise InputError("need one kind and one capacity per quotient element")
    for kind in block_kinds:
        if kind not in ("clique", "coclique", "chain"):
            raise InputError(f"unknown block kind {kind!r}")
    blocks = [(f"b{i}", capacities[i]) for i in range(m)]
    accepted = {}
    for (name, arity), rel in zip(quotient.signature.symbols, quotient.rels):
        pats = set()
        # within-block tuples are governed solely by the block kind
        for b in range(m):
            kind = block_kinds[b]
            vec = (b,) * arity
            if kind == "clique":
                pats |= _all_rank_patterns(vec, distinct=True)
            elif kind == "chain":
                pats.add(TuplePattern.make(vec, tuple(range(arity))))
        # quotient tuples touching >= 2 blocks lift with all rank patterns
        for q in rel:
            if len(set(q)) >= 2:
                pats |= _all_rank_patterns(q)
        accepted[name] = pats
    return BlockTemplate.make(quotient.signature, blocks, accepted)


def c3_chains():
    """Tournament example: the 3-cycle with each point blown up to a chain."""
    sig = Signature((("arc", 2),))
    c3 = FiniteRelStruct(sig, 3, {"arc": [(0, 1), (1, 2), (2, 0)]})
    return lex_sum(c3, ["chain"] * 3, [INF] * 3)
