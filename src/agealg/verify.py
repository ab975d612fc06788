"""The acceptance criteria as one table of checks, run at a bound set:
`agealg verify` runs it at `BUDGET`, `tests/test_acceptance.py` at `FULL`.

Template checks are methods of `Case`, global checks take the bound set.
A check returns (ok, detail), or None if the bounds leave nothing to check.
Only a false check or a ConsistencyError fails a row; an UndeterminedError
or NotRationalError (a bound too small) propagates: exit 3 or 5.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .algebra import TypeRegistry, mult_by_e_rank, profile_series
from .decomposition import partition_lower_bound, profile_floor_params, template_components
from .errors import ConsistencyError
from .gallery import GALLERY
from .hilbert import (WeightedMonomialIdeal, check_addlayer, ideal_hilbert,
                      nonnegative_form, quasi_polynomial, two_path_hilbert)
from .planar import (SCHRODER, default_sample, embed, enumerate_reduced,
                     no_pair_monopart, planar_profile,
                     reconstruct_from_triples, tree_restrict)
from .structures import Signature
from .templates import INF, BlockTemplate, TuplePattern, compositions, validate


@dataclass(frozen=True)
class Bounds:
    degree: int            # profile, two paths and growth through this degree
    addlayer: int          # add-layer lemma through this degree
    e_rank: int            # multiplication by e from degree n, n <= e_rank
    schroder: int          # reduced tree counts for 0..schroder leaves
    planar_profile: tuple  # leaf counts at which the profile is checked
    reconstruction: tuple  # leaf counts of the triple reconstruction
    embeddings: int        # seeded 6-leaf embeddings beside default_sample(3)
    ideals: int            # random weighted monomial ideals ...
    ideal_degree: int      # ... expanded through this degree ...
    ideal_exponent: int    # ... with generator exponents up to this
    ideal_seed: int
    random_templates: int  # random two-block templates (quasi-polynomial law)


BUDGET = Bounds(degree=12, addlayer=6, e_rank=5, schroder=6,
                planar_profile=(4,), reconstruction=(5,), embeddings=0,
                ideals=10, ideal_degree=10, ideal_exponent=3,
                ideal_seed=20240601, random_templates=0)
FULL = Bounds(degree=14, addlayer=10, e_rank=8, schroder=7,
              planar_profile=(1, 2, 3, 4, 5), reconstruction=(3, 4, 5, 6),
              embeddings=8, ideals=50, ideal_degree=12, ideal_exponent=4,
              ideal_seed=777000, random_templates=8)
# the same at every bound set
FAT_LEVEL = 4                           # largest accepted fatness level
EMBED_SEED = 1414                       # draws the seeded embeddings
RANDOM_DEGREE, RANDOM_SEED = 12, 90909  # the random templates' degree and draws


class Case:
    """One gallery template under a bound set, with its template checks;
    the results that several checks read are computed once."""

    def __init__(self, name, bounds, registry=None):
        self.name, self.bounds, self.entry = name, bounds, GALLERY[name]
        self.registry = registry or TypeRegistry(self.entry.build())
        self.t = self.registry.template

    @cached_property
    def components(self):
        return template_components(self.t)

    @cached_property
    def series(self):
        return profile_series(self.t, self.bounds.degree, self.registry)

    @cached_property
    def forms(self):
        return two_path_hilbert(self.t, self.bounds.degree, registry=self.registry)

    def valid(self):
        diags = validate(self.t, swap_degree=4)
        return not diags, "; ".join(diags) or "ok"

    def decomposed(self):
        comps, entry = self.components, self.entry
        ok = (comps.count == entry.expected_components
              and comps.dimension == entry.expected_dimension
              and comps.fatness <= FAT_LEVEL)
        return ok, f"count={comps.count} k={comps.dimension} fat={comps.fatness}"

    def non_decreasing(self):
        series = self.series
        return all(a <= b for a, b in zip(series, series[1:])), str(series)

    def two_paths(self):
        fitted, lead = self.forms  # raises unless they agree
        return True, f"fit={fitted.pretty()} lead={lead.pretty()}"

    def published(self):
        published = self.entry.expected_hilbert
        return self.forms[0].same_series(published), published.pretty()

    def qpoly_degree(self):
        qp = quasi_polynomial(self.forms[0])
        ok = (qp.degree == self.components.dimension - 1
              and qp.leading_coefficient > 0)  # also raises if non-constant
        return ok, f"degree={qp.degree} lead={qp.leading_coefficient}"

    def addlayer(self):
        report = check_addlayer(self.t, self.bounds.addlayer, self.registry)
        return report.ok, f"checked={report.checked} violations={len(report.violations)}"

    def growth(self):
        k, n0 = profile_floor_params(self.t, self.components)
        ok = all(partition_lower_bound(k, n, n0) <= phi
                 <= sum(1 for _ in compositions(self.t, n))
                 for n, phi in enumerate(self.series))
        return ok, f"k={k} n0={n0}"

    def e_injective(self):
        top = self.bounds.e_rank
        ok = all(mult_by_e_rank(self.t, n, self.registry) == self.registry.profile(n)
                 for n in range(top + 1))
        return ok, f"degrees 0..{top}"


def _schroder_counts(bounds):
    counts = [len(enumerate_reduced(n)) for n in range(bounds.schroder + 1)]
    return tuple(counts) == SCHRODER[:bounds.schroder + 1], str(counts)


def _planar_profile(bounds):
    ns = bounds.planar_profile
    ok = all(planar_profile(n) == SCHRODER[n] for n in ns)
    return ok, "n=" + ",".join(map(str, ns))


def _reconstruction(bounds):
    ns = bounds.reconstruction
    ok = all(reconstruct_from_triples(n, {
        key: tree_restrict(tree, key)
        for key in itertools.combinations(range(1, n + 1), 3)}) == tree
        for n in ns for tree in enumerate_reduced(n))
    return ok, ",".join(map(str, ns)) + " leaves"


def _no_pair_part(bounds):
    rng = random.Random(EMBED_SEED)
    samples = [default_sample(3)] + [
        embed(tree) for tree in rng.sample(enumerate_reduced(6), bounds.embeddings)]
    ok = all(no_pair_monopart(s) for s in samples if len(set(s)) >= 4)
    return ok, "sample from embeddings"


def _ideal_oracle(bounds):
    rng = random.Random(bounds.ideal_seed)
    tested = 0
    while tested < bounds.ideals:
        nvars = rng.randint(1, 4)
        degrees = [rng.randint(1, 3) for _ in range(nvars)]
        gens = [tuple(rng.randint(0, bounds.ideal_exponent) for _ in range(nvars))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if gens:  # raises ConsistencyError unless counting agrees
            ideal_hilbert(WeightedMonomialIdeal.make(degrees, gens),
                          bounds.ideal_degree)
            tested += 1
    return True, "all matched"


def random_template(rng, keep=0.4):
    """Two infinite blocks and a binary relation, each pattern kept w.p. keep."""
    sig = Signature((("r", 2),))
    universe = sorted({TuplePattern.make(blocks, ranks)
                       for blocks in itertools.product(range(2), repeat=2)
                       for ranks in itertools.product(range(2), repeat=2)},
                      key=lambda p: (p.blocks, p.ranks))
    picked = [p for p in universe if rng.random() < keep]
    return BlockTemplate.make(sig, [("a", INF), ("b", INF)], {"r": picked})


def _scope_replacements(bounds):
    if not bounds.random_templates:
        return None
    rng = random.Random(RANDOM_SEED)
    for i in range(bounds.random_templates):
        t = random_template(rng)
        registry = TypeRegistry(t)
        fitted, _ = two_path_hilbert(t, RANDOM_DEGREE, registry=registry)
        qp = quasi_polynomial(fitted)
        series = profile_series(t, RANDOM_DEGREE, registry)
        if (qp.degree > template_components(t).dimension - 1
                or any(qp.value(n) != series[n] for n in range(qp.n_min, len(series)))):
            return False, f"random template {i}: quasi-polynomial {qp.to_json_dict()}"
    # Cohen-Macaulayness is only reported, via the non-negativity search
    groupoid = nonnegative_form(GALLERY["groupoid"].expected_hilbert)
    return groupoid is None, "quasi-polynomial law holds; groupoid numerator reported"


# (criterion, row name, check), in the order `agealg verify` prints them
TEMPLATE_CHECKS = (
    (4, "template valid", Case.valid),
    (4, "components", Case.decomposed),
    (6, "profile non-decreasing", Case.non_decreasing),
    (2, "two-path agreement", Case.two_paths),
    (1, "matches published series", Case.published),
    (5, "quasi-polynomial degree", Case.qpoly_degree),
    (3, "add-layer lemma", Case.addlayer),
    (5, "growth bounds", Case.growth),
    (6, "multiplication by e injective", Case.e_injective),
)
GLOBAL_CHECKS = (
    (7, "planar: reduced tree counts", _schroder_counts),
    (7, "planar: profile matches Schroeder", _planar_profile),
    (7, "planar: triple reconstruction", _reconstruction),
    (7, "planar: no two-element monomorphic part", _no_pair_part),
    (8, "ideal oracle: pivot recursion vs counting", _ideal_oracle),
    (9, "scope replacements", _scope_replacements),
)


def rows(checks, subject, criterion=None):
    """(name, ok, detail) of the checks, or one criterion's, on a subject."""
    prefix = f"{subject.name}: " if isinstance(subject, Case) else ""
    out = []
    for number, name, check in checks:
        if criterion in (None, number):
            try:
                result = check(subject)
            except ConsistencyError as exc:
                result = (False, str(exc))
            if result is not None:
                out.append((prefix + name, *result))
    return out


def run_all(bounds=BUDGET):
    """Every row at `bounds`: the gallery templates, then the global checks."""
    out = []
    for name in GALLERY:
        out += rows(TEMPLATE_CHECKS, Case(name, bounds))
    return out + rows(GLOBAL_CHECKS, bounds)
