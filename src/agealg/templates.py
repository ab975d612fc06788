"""Block templates: finite presentations of infinite relational structures.

A template lists ordered blocks (each an internal chain, capacity in N or
infinity) and, per relation symbol, the accepted tuple patterns.  A pattern
records for every tuple coordinate its block and a rank; ranks are compared
only among coordinates sharing a block (equal rank = equal element, rank
order = within-block chain order).  A tuple of a concrete instantiation is
present iff its pattern is accepted, so by construction the blocks form a
monomorphic decomposition of every instantiation.

Instantiation enumerates tuples pattern by pattern: a pattern's tuples are
the choices of increasing positions for the distinct ranks of each block it
uses, and no tuple outside the accepted patterns is ever looked at.  The
same enumeration with the last element of one block held fixed gives the
tuples through that element (`spans_through`, from spans built once per
composition), which is what the type registry checks its isomorphism
candidates on; it visits only the patterns that use the block
(`BlockTemplate.patterns_through`).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .errors import InputError
from .structures import (FiniteRelStruct, Signature, json_int, keyed_structure,
                         restrict)

INF = None  # capacity marker for infinite blocks


def normalize_ranks(blocks, ranks):
    """Renumber ranks order-preservingly so that, within each block, the
    distinct values form an initial segment 0..r: each rank becomes the
    number of distinct smaller ranks in its block."""
    return tuple(len({s for c, s in zip(blocks, ranks) if c == b and s < r})
                 for b, r in zip(blocks, ranks))


def rank_patterns(blocks):
    """The normalized rank vectors of the block vector `blocks`, in lex
    order."""
    return [ranks for ranks in itertools.product(range(len(blocks)), repeat=len(blocks))
            if normalize_ranks(blocks, ranks) == ranks]


@dataclass(frozen=True)
class TuplePattern:
    """Block and rank assignment of one accepted tuple shape."""

    blocks: tuple
    ranks: tuple

    @staticmethod
    def make(blocks, ranks):
        blocks = tuple(json_int(b, "pattern block") for b in blocks)
        ranks = tuple(json_int(r, "pattern rank") for r in ranks)
        if len(blocks) != len(ranks):
            raise InputError("pattern blocks and ranks must have equal length")
        if any(r < 0 for r in ranks):
            raise InputError("pattern ranks must be non-negative")
        return TuplePattern(blocks, normalize_ranks(blocks, ranks))

    def to_json_dict(self):
        return {"blocks": list(self.blocks), "ranks": list(self.ranks)}

    @functools.cached_property
    def shape(self):
        """((block, number of distinct ranks) for each block the pattern
        uses, in block order; (index of its block in that list, rank) per
        coordinate)."""
        width = {}
        for b, r in zip(self.blocks, self.ranks):
            width[b] = max(width.get(b, 0), r + 1)
        used = sorted(width)
        slot = {b: k for k, b in enumerate(used)}
        return (tuple((b, width[b]) for b in used),
                tuple((slot[b], r) for b, r in zip(self.blocks, self.ranks)))


def _pattern_from_json(blocks, ranks):
    """A pattern read from JSON, whose ranks must already be normalized."""
    p = TuplePattern.make(blocks, ranks)
    if p.ranks != tuple(ranks):
        raise InputError(f"pattern ranks {ranks} on blocks {blocks} "
                         f"do not form an initial segment 0..r in each block")
    return p


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
        blocks = tuple((str(n), None if c is None or c == "inf"
                        else json_int(c, f"capacity of block {n!r}"))
                       for n, c in blocks)
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

    @functools.cached_property
    def patterns_through(self):
        """Per block b, per relation symbol, the accepted patterns that use
        b, in the iteration order of `accepted`: the only patterns with
        tuples through an element of b."""
        index = [[[] for _ in self.accepted] for _ in self.blocks]
        for si, pats in enumerate(self.accepted):
            for p in pats:
                for b in set(p.blocks):
                    index[b][si].append(p)
        return tuple(tuple(map(tuple, per_symbol)) for per_symbol in index)

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
            sig = Signature(tuple((s["name"], s["arity"]) for s in data["signature"]))
            blocks = [(b["name"], b["capacity"]) for b in data["blocks"]]
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

    With swap_degree > 0, additionally asserts on every composition c of
    total degree <= swap_degree that deleting any one element of block i
    from `instantiate(t, c)` leaves exactly `instantiate(t, c - e_i)`: |c|
    restrictions per composition.  By induction over deletions, every
    subset with block counts c' <= c then induces `instantiate(t, c')`,
    the monomorphic-decomposition property that the pattern semantics
    promise and that the type registry relies on.
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

    # each instantiation is built once and kept for the degree above
    built = {}
    for comp in compositions(t, None, max_degree=swap_degree):
        s = built[comp] = instantiate(t, comp)
        for i, (lo, hi) in enumerate(block_spans(comp)):
            less = built.get(comp[:i] + (comp[i] - 1,) + comp[i + 1:])
            for x in range(lo, hi):
                if restrict(s, [y for y in range(s.size) if y != x]) != less:
                    diags.append(f"swap check failed at composition {comp}: "
                                 f"deleting element {x - lo} of block {i}")
                    return diags
    return diags


def subcompositions(comp, total=None):
    """Vectors c1 <= comp componentwise in lex order, only those summing to
    `total` when it is given.  Those are built from the last entry back:
    `suffix[r]` lists, in lex order, the vectors of the entries from i on
    that sum to r, for the r that the entries before i can complete."""
    if total is None:
        return itertools.product(*(range(d + 1) for d in comp))
    room = list(itertools.accumulate(comp, initial=0))
    suffix = {0: [()]}
    for i in range(len(comp) - 1, -1, -1):
        suffix = {r: [(d,) + rest
                      for d in range(min(comp[i], r) + 1)
                      for rest in suffix.get(r - d, ())]
                  for r in range(max(total - room[i], 0), total + 1)}
    return suffix.get(total, [])


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


def _check_composition(t, comp):
    """comp as a tuple of ints, after checking it against t's blocks."""
    comp = tuple(json_int(d, "block count") for d in comp)
    if len(comp) != len(t.blocks):
        raise InputError("composition length != number of blocks")
    for d, (name, cap) in zip(comp, t.blocks):
        if d < 0:
            raise InputError("negative block count")
        if cap is not None and d > cap:
            raise InputError(f"composition exceeds capacity of block {name!r}")
    return comp


def _pattern_tuples(pattern, spans, through=None):
    """The tuples that realize `pattern` in the instantiation with the given
    `block_spans`; with `through` = i, a block the pattern uses, only those
    containing the last element of block i.

    A tuple of the pattern is a choice, in every block b it uses, of as many
    increasing positions as b has distinct ranks: rank r goes to the r-th
    chosen element.  The last element of block i can only take block i's
    top rank, so it is fixed there and the lower ranks are chosen below it."""
    used, coords = pattern.shape
    choices = []
    for b, width in used:
        lo, hi = spans[b]
        if hi - lo < width:
            return []
        if b == through:
            choices.append([pick + (hi - 1,) for pick in
                            itertools.combinations(range(lo, hi - 1), width - 1)])
        else:
            choices.append(itertools.combinations(range(lo, hi), width))
    return [tuple(pick[k][r] for k, r in coords)
            for pick in itertools.product(*choices)]


def instantiate(t, comp):
    """Finite structure on the disjoint union of chains of sizes comp.

    Blocks are laid out in declaration order; a tuple is present iff its
    pattern is accepted.  The tuples are enumerated pattern by pattern
    (distinct patterns give disjoint tuple sets), so the work is in
    proportion to the tuples produced, not to size**arity.
    """
    comp = _check_composition(t, comp)
    return FiniteRelStruct(t.signature, sum(comp),
                           spans_tuples(t, block_spans(comp)))


def spans_tuples(t, spans):
    """Per relation symbol, the list of tuples of the instantiation with the
    given `block_spans`, unchecked and without building the structure."""
    return [[tup for p in pats for tup in _pattern_tuples(p, spans)]
            for pats in t.accepted]


def present(struct, classes=None):
    """The finite structure `struct` read as a template: class b of
    `classes` (lists of elements; by default one singleton class per
    element) becomes block `b{b}` of capacity len(class), its elements
    ranked in the order the class lists them, and the accepted patterns are
    read off the tuples.  For singleton classes the instantiation of a 0/1
    composition is the substructure induced on its support; for other
    classes it is the caller's to check that instantiating the capacities
    gives `struct` back."""
    if classes is None:
        classes = [[x] for x in range(struct.size)]
    owner = {x: b for b, cls in enumerate(classes) for x in cls}
    rank = {x: r for cls in classes for r, x in enumerate(cls)}
    accepted = []
    for rel in struct.rels:
        keys = set()
        for tup in rel:
            blocks = tuple(owner[x] for x in tup)
            keys.add((blocks, normalize_ranks(
                blocks, tuple(rank[x] for x in tup))))
        accepted.append(frozenset(itertools.starmap(TuplePattern, keys)))
    blocks = tuple((f"b{b}", len(cls)) for b, cls in enumerate(classes))
    return BlockTemplate(struct.signature, blocks, tuple(accepted))


def block_structure(t):
    """The blocks of t as a finite structure whose automorphisms are the
    block automorphisms of t: the permutations a of the blocks that keep
    every capacity and map each accepted pattern (blocks, ranks) onto an
    accepted (a(blocks), ranks).  Element b is block b.  There is one
    relation per relation of t and rank vector, holding the block vectors
    of the accepted patterns with those ranks, and one unary relation per
    capacity (infinity as -1), holding the blocks of that capacity; they
    come in the order of their keys."""
    rels = {}
    for si, pats in enumerate(t.accepted):
        for p in pats:
            rels.setdefault((si, p.ranks), []).append(p.blocks)
    for b, cap in enumerate(t.capacities):
        rels.setdefault((-1, (-1 if cap is None else cap,)), []).append((b,))
    return keyed_structure(len(t.blocks), rels)


def spans_through(t, spans, i):
    """Per relation symbol, the list of tuples of the instantiation with the
    given `block_spans` that contain the last element of block i, which must
    be nonempty.  Unchecked: a caller that visits several blocks of one
    composition builds its spans once."""
    return [[tup for p in pats for tup in _pattern_tuples(p, spans, i)]
            for pats in t.patterns_through[i]]


def compositions(t, n, max_degree=None):
    """Capacity-respecting exponent vectors, in lex order within each degree.

    With n given, yields vectors of total degree n; with max_degree given,
    yields all degrees 0..max_degree in graded lex order.
    """
    if max_degree is not None:
        for m in range(max_degree + 1):
            yield from compositions(t, m)
        return
    caps = [n if c is None else c for c in t.capacities]
    yield from subcompositions(caps, n)


# ---------------------------------------------------------------------------
# builders for the gallery of worked examples


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
            if kind == "clique":  # distinct elements, in every order
                pats |= {TuplePattern(vec, ranks)
                         for ranks in itertools.permutations(range(arity))}
            elif kind == "chain":
                pats.add(TuplePattern.make(vec, tuple(range(arity))))
        # quotient tuples touching >= 2 blocks lift with all rank patterns
        for q in rel:
            if len(set(q)) >= 2:
                pats |= {TuplePattern(q, ranks) for ranks in rank_patterns(q)}
        accepted[name] = pats
    return BlockTemplate.make(quotient.signature, blocks, accepted)


def c3_chains():
    """Tournament example: the 3-cycle with each point blown up to a chain."""
    sig = Signature((("arc", 2),))
    c3 = FiniteRelStruct(sig, 3, {"arc": [(0, 1), (1, 2), (2, 0)]})
    return lex_sum(c3, ["chain"] * 3, [INF] * 3)
