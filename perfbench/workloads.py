"""The four benchmark workloads: seeded inputs, job lists and answer checks.

A workload is a list of jobs that one process runs one after another (a
closed loop with one client).  A job is an ``agealg.cli.main([...])`` call
where the CLI has a command for it, and a direct library call otherwise.
Every random input is drawn from the seed, and the library sees only the
generated inputs.  Checks run after the timed job list and never look at
``rs1:`` codes.

Random inputs are stratified: the seed chooses the details of each input,
but the plan of sizes (digraph order, block count, generator count, template
shape) is the same for every seed, so that seeds change the inputs without
changing how much work a pass is.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# jobs call the library through its modules' attributes, so that a traced
# pass sees the traced functions
from agealg import algebra, cli, hilbert
from agealg.errors import (AgeAlgError, ConsistencyError, InputError,
                           NotRationalError, UndeterminedError)
from agealg.gallery import GALLERY
from agealg.templates import BlockTemplate

WORKLOADS = ("series", "census", "finite", "ideals")
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# the CLI's exit codes, applied to library jobs as well
EXIT_CODES = ((InputError, cli.EXIT_INPUT),
              (UndeterminedError, cli.EXIT_UNDETERMINED),
              (ConsistencyError, cli.EXIT_CONSISTENCY),
              (NotRationalError, cli.EXIT_FIT))


@dataclass
class Job:
    """One unit of work: `run()` returns (exit code, answer), and
    `check(exit code, answer)` returns None for an accepted outcome or the
    reason it is not accepted.  A reason starting with "wrong" marks a wrong
    answer, any other reason an error or an unaccepted refusal."""

    id: str
    run: object
    check: object


def cli_job(job_id, argv, check):
    """The answer is the report on stdout, or stderr when the exit is not 0."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, (out if code == 0 else err).getvalue()
    return Job(job_id, run, check)


def library_job(job_id, call, check):
    def run():
        try:
            return 0, call()
        except AgeAlgError as exc:
            for cls, code in EXIT_CODES:
                if isinstance(exc, cls):
                    return code, f"{type(exc).__name__}: {exc}"
            raise
    return Job(job_id, run, check)


# ---------------------------------------------------------------------------
# exact helpers for the checks, independent of the library's own


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def same_series(num1, den1, num2, den2):
    """num1 / prod(1 - Z^d for d in den1) == num2 / prod(...) exactly."""
    left, right = list(num1), list(num2)
    for d in den2:
        left = _pmul(left, [1] + [0] * (d - 1) + [-1])
    for d in den1:
        right = _pmul(right, [1] + [0] * (d - 1) + [-1])
    return _trim(left) == _trim(right)


def expand(num, dens, degree):
    out = [0] * (degree + 1)
    for i, c in enumerate(num[: degree + 1]):
        out[i] = c
    for d in dens:
        for i in range(d, degree + 1):
            out[i] += out[i - d]
    return out


def qpoly_values(report, degree):
    """Values n -> value of a QuasiPolynomial JSON report, n_min..degree."""
    out = {}
    for n in range(report["n_min"], degree + 1):
        poly = report["residues"][n % report["period"]]
        value = sum(Fraction(a, b) * n ** j for j, (a, b) in enumerate(poly))
        out[n] = value
    return out


def schroeder(count):
    """s(0..count-1): s(n) reduced plane trees with n leaves, the little
    Schroeder numbers (OEIS A001003 shifted by one, s(0) = 1), from their
    three-term recurrence."""
    s = [1, 1, 1]
    for n in range(3, count):
        s.append((3 * (2 * n - 3) * s[n - 1] - (n - 3) * s[n - 2]) // n)
    return s[:count]


def gallery_form(name):
    form = GALLERY[name].expected_hilbert
    return list(form.numerator), list(form.denominators)


def expect_exit0(check):
    """Wrap a report check: a non-zero exit is an error outcome."""
    def wrapped(code, answer):
        if code != 0:
            return f"exit {code}: {answer.strip()[:160]}"
        return check(answer)
    return wrapped


def check_hilbert_form(num, dens):
    def check(answer):
        form = json.loads(answer)["form"]
        if not same_series(form["numerator"], form["denominator"], num, dens):
            return f"wrong Hilbert series {form}"
        return None
    return expect_exit0(check)


# ---------------------------------------------------------------------------
# series: fixed builtin templates, no random inputs


def series_inputs(seed):
    return {}, {}


def series_jobs(files, truth, workdir):
    qsym = REFERENCE["qsym:3"]

    def qpoly(answer):
        report = json.loads(answer)
        values = qpoly_values(report, len(qsym["profile"]) - 1)
        bad = [n for n, v in values.items() if v != qsym["profile"][n]]
        lead = Fraction(*report["leading_coefficient"])
        if bad or report["degree"] != qsym["qpoly_degree"] \
                or lead != Fraction(*qsym["leading_coefficient"]):
            return f"wrong quasi-polynomial (first bad n: {bad[:1]})"
        return None

    def rqsym(answer):
        got = json.loads(answer)["profile"]
        if got != REFERENCE["rqsym:3:2"]["profile"][: len(got)]:
            return f"wrong profile {got}"
        return None

    c3 = REFERENCE["c3_chains"]["hilbert"]
    return [
        cli_job("hilbert-groupoid", ["hilbert", "--builtin", "groupoid",
                                     "--degree", "11"],
                check_hilbert_form(*gallery_form("groupoid"))),
        cli_job("hilbert-sym3", ["hilbert", "--builtin", "sym:3",
                                 "--degree", "9"],
                check_hilbert_form(*gallery_form("sym:3"))),
        cli_job("qpoly-qsym3", ["qpoly", "--builtin", "qsym:3",
                                "--degree", "10"], expect_exit0(qpoly)),
        cli_job("hilbert-c3chains", ["hilbert", "--builtin", "c3_chains",
                                     "--degree", "11"],
                check_hilbert_form(c3["numerator"], c3["denominator"])),
        cli_job("profile-rqsym32", ["profile", "--builtin", "rqsym:3:2",
                                    "--degree", "6"], expect_exit0(rqsym)),
    ]


# ---------------------------------------------------------------------------
# census: structure constants, e-rank and kernel on seeded templates

INF = "inf"
DISTINCT = {"chain": [(0, 1)], "clique": [(0, 1), (1, 0)], "coclique": []}
# Template shapes: (capacity, kind) of each block, where the kind says
# which arcs join two distinct elements of the block.  The seed draws loops
# and cross-block arcs.  Every shape has two infinite blocks, so that the
# templates cost about the same, and CENSUS_COUNT templates cycle through
# the shapes, so that the mix is the same for every seed.  Five shapes of
# twelve have a capacity-2 block whose kind uses both of its elements, the
# case on which `kernel` refuses valid templates when this benchmark was
# introduced (a known failure, counted in failed_ratio).
CENSUS_PLAN = (
    ((INF, "chain"), (INF, "clique"), (2, "chain")),
    ((INF, "chain"), (INF, "coclique"), (3, "clique")),
    ((2, "clique"), (INF, "clique"), (INF, "coclique")),
    ((INF, "chain"), (1, "coclique"), (INF, "chain")),
    ((INF, "clique"), (INF, "coclique"), (2, "coclique")),
    ((INF, "coclique"), (3, "chain"), (INF, "coclique")),
    ((INF, "clique"), (2, "chain"), (INF, "chain")),
    ((1, "coclique"), (INF, "clique"), (INF, "clique")),
    ((INF, "coclique"), (INF, "chain"), (2, "clique")),
    ((INF, "chain"), (INF, "clique"), (3, "coclique")),
    ((2, "chain"), (INF, "coclique"), (INF, "coclique")),
    ((INF, "clique"), (INF, "chain"), (1, "coclique")),
)
CENSUS_COUNT = 36
ERANK_DEGREE = 4
KERNEL_DEGREE = 6


def random_template(rng, plan):
    """Arity-2 template with the plan's blocks; every loop and every
    cross-block arc pattern is kept with probability 1/2."""
    patterns = []
    for b, (cap, kind) in enumerate(plan):
        ranks = DISTINCT[kind] if cap != 1 else []
        if rng.random() < 0.5:
            ranks = [(0, 0)] + ranks
        patterns += [{"blocks": [b, b], "ranks": list(r)} for r in ranks]
    for a, b in itertools.permutations(range(len(plan)), 2):
        if rng.random() < 0.5:
            patterns.append({"blocks": [a, b], "ranks": [0, 0]})
    return {
        "signature": [{"name": "r", "arity": 2}],
        "blocks": [{"name": f"b{i}", "capacity": cap}
                   for i, (cap, _) in enumerate(plan)],
        "accepted": {"r": sorted(patterns,
                                 key=lambda p: (p["blocks"], p["ranks"]))},
    }


def census_inputs(seed):
    rng = random.Random(f"census:{seed}")
    files = {f"template{i:02d}.json": json.dumps(
        random_template(rng, CENSUS_PLAN[i % len(CENSUS_PLAN)]), sort_keys=True)
        for i in range(CENSUS_COUNT)}
    return files, {}


def reduced_template(t, b):
    """`t` with block b one element smaller, dropping the patterns that no
    longer fit (a correct reduction, used as the kernel oracle)."""
    data = t.to_json_dict()
    cap = data["blocks"][b]["capacity"]
    keep = []
    for pats in data["accepted"].values():
        kept = []
        for p in pats:
            used = {r for blk, r in zip(p["blocks"], p["ranks"]) if blk == b}
            if len(used) <= cap - 1:
                kept.append(p)
        keep.append(kept)
    data["accepted"] = dict(zip(data["accepted"], keep))
    if cap - 1 == 0:
        del data["blocks"][b]
        for pats in data["accepted"].values():
            for p in pats:
                p["blocks"] = [x - (x > b) for x in p["blocks"]]
    else:
        data["blocks"][b]["capacity"] = cap - 1
    return BlockTemplate.from_json_dict(data)


def kernel_oracle(t, degree):
    """Finite blocks whose shrinking loses a type of degree <= `degree`.
    The reduced age is contained in the original one, so a lost type shows
    as a smaller profile value."""
    base = algebra.profile_series(t, degree)
    flagged = []
    for b, cap in enumerate(t.capacities):
        if cap is None:
            continue
        if cap == 1 and len(t.blocks) == 1:
            lost = degree >= 1
        else:
            small = algebra.profile_series(reduced_template(t, b), degree)
            lost = small != base
        if lost:
            flagged.append(t.block_names[b])
    return flagged


def census_jobs(files, truth, workdir):
    jobs = []
    for name, n, m in (("sym:3", 6, 2), ("groupoid", 4, 2)):
        phi = expand(*gallery_form(name), n)[n]

        def constants(answer, n=n, m=m, phi=phi):
            sums = {}
            for row in json.loads(answer)["constants"]:
                sums[row["tau"]] = sums.get(row["tau"], 0) + row["c"]
            want = math.comb(n, m)
            if len(sums) != phi or any(s != want for s in sums.values()):
                return (f"wrong constants: {len(sums)} types (want {phi}), "
                        f"sums {sorted(set(sums.values()))} (want {want})")
            return None
        jobs.append(cli_job(f"constants-{name.replace(':', '')}",
                            ["constants", "--builtin", name, "--degree", str(n),
                             "--left", str(m)], expect_exit0(constants)))

    # most of this job is the sym:4 pair tests of `template_components`
    def sym4(code, answer):
        # accepted: the published series, or a typed refusal (exit 3)
        if code == 3:
            return None
        return check_hilbert_form(*gallery_form("sym:4"))(code, answer)
    jobs.append(cli_job("hilbert-sym4", ["hilbert", "--builtin", "sym:4",
                                         "--degree", "9"], sym4))

    # one job per template: its e-rank to ERANK_DEGREE (library) and its
    # kernel to KERNEL_DEGREE (CLI); both always run, so the work per job
    # does not depend on the outcome
    for name, text in sorted(files.items()):
        t = BlockTemplate.from_json(text)
        kernel = cli_job(name, ["kernel", "--input", str(workdir / name),
                                "--degree", str(KERNEL_DEGREE)], None)

        def run(t=t, kernel=kernel):
            registry = algebra.TypeRegistry(t)
            ranks = [algebra.mult_by_e_rank(t, n, registry)
                     for n in range(ERANK_DEGREE + 1)]
            profile = [registry.profile(n) for n in range(ERANK_DEGREE + 1)]
            code, report = kernel.run()
            return code, {"ranks": ranks, "profile": profile, "kernel": report}

        def check(code, answer, t=t):
            if answer["ranks"] != answer["profile"]:
                return (f"wrong e-rank {answer['ranks']} "
                        f"!= profile {answer['profile']}")
            if code != 0:
                return f"kernel exit {code}: {answer['kernel'].strip()[:160]}"
            got = json.loads(answer["kernel"])["blocks"]
            want = kernel_oracle(t, KERNEL_DEGREE)
            if got != want:
                return f"wrong kernel blocks {got} (want {want})"
            return None
        jobs.append(Job(name[:-5], run, check))
    return jobs


# ---------------------------------------------------------------------------
# finite: minimal decompositions of planted lexicographic sums

FINITE_COUNT = 27


KINDS = ("chain", "clique", "coclique")
# links between two blocks of one kind under which their union would be one
# block of that kind again; they are never drawn, so no two blocks merge
MERGING = {"chain": ("forward", "back"), "clique": ("both",),
           "coclique": ("none",)}


def planted_digraph(rng, n, kinds, links, noise):
    """Lexicographic sum of chain/clique/coclique blocks of near-equal
    sizes, linked as `links[p, q]` says, with members scattered at random
    over 0..n-1, plus `noise` random toggled arcs.  Returns (structure JSON,
    planted blocks that no noise arc touches)."""
    k = len(kinds)
    sizes = [n // k + (j < n % k) for j in range(k)]
    order = list(range(n))
    rng.shuffle(order)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(order[start:start + size])
        start += size
    arcs = set()
    for kind, members in zip(kinds, blocks):
        for i, j in itertools.combinations(range(len(members)), 2):
            u, v = members[i], members[j]
            if kind != "coclique":
                arcs.add((u, v))
            if kind == "clique":
                arcs.add((v, u))
    for (p, q), link in links.items():
        for u in blocks[p]:
            for v in blocks[q]:
                if link in ("forward", "both"):
                    arcs.add((u, v))
                if link in ("back", "both"):
                    arcs.add((v, u))
    touched = set()
    for u, v in rng.sample(list(itertools.permutations(range(n), 2)), noise):
        arcs ^= {(u, v)}  # a noise arc is added where none was, else removed
        touched.update((u, v))
    structure = {"signature": [{"name": "arc", "arity": 2}], "size": n,
                 "relations": {"arc": sorted([u, v] for u, v in arcs)}}
    clean = [sorted(b) for b in blocks if touched.isdisjoint(b)]
    return structure, clean


def finite_plan(i):
    """(order, block kinds, quotient links, noise arcs) of digraph i: the
    same for every seed, so that seeds vary only where members and noise
    arcs fall.  Blocks of one kind are never linked so that they merge."""
    n, k, noise = 8 + i % 3, 2 + (i // 3) % 3, (i // 9) % 3
    kinds = [KINDS[(i + j) % 3] for j in range(k)]
    links = {}
    for p, q in itertools.combinations(range(k), 2):
        allowed = [x for x in ("none", "forward", "back", "both")
                   if kinds[p] != kinds[q] or x not in MERGING[kinds[p]]]
        links[p, q] = allowed[(i + p + 2 * q) % len(allowed)]
    return n, kinds, links, noise


def finite_inputs(seed):
    rng = random.Random(f"finite:{seed}")
    files, truth = {}, {}
    for i in range(FINITE_COUNT):
        structure, clean = planted_digraph(rng, *finite_plan(i))
        name = f"digraph{i:02d}.json"
        files[name] = json.dumps(structure, sort_keys=True)
        truth[name] = clean
    return files, truth


def finite_jobs(files, truth, workdir):
    jobs = []
    for name in sorted(files):
        size = json.loads(files[name])["size"]

        def check(answer, clean=truth[name], size=size):
            classes = json.loads(answer)["blocks"]
            if sorted(x for c in classes for x in c) != list(range(size)):
                return f"wrong: classes {classes} do not partition the base set"
            owner = {x: i for i, c in enumerate(classes) for x in c}
            for block in clean:
                if len({owner[x] for x in block}) != 1:
                    return f"wrong: planted block {block} split by {classes}"
            return None
        jobs.append(cli_job(f"decompose-{name[:-5]}",
                            ["decompose", "--input", str(workdir / name)],
                            expect_exit0(check)))
    return jobs


# ---------------------------------------------------------------------------
# ideals: Hilbert series of antichain ideals, planar, one small template

IDEAL_COUNT = 56
IDEAL_DEGREE = 20


def antichain_ideal(rng, degrees, gens):
    """`gens` random distinct exponent vectors of one total degree (so none
    divides another) in variables of the given weights."""
    nvars = len(degrees)
    d = 1
    while math.comb(d + nvars - 1, nvars - 1) < 2 * gens:
        d += 1
    vectors = [v for v in itertools.product(range(d + 1), repeat=nvars)
               if sum(v) == d]
    return {"degrees": list(degrees),
            "generators": sorted(rng.sample(vectors, gens))}


def ideal_plan(i):
    """(variable weights, generator count) of ideal i, the same for every
    seed: the weights set the cost of the brute-force check, the generator
    count that of inclusion-exclusion."""
    nvars = 3 + i % 2
    return [1 + (i // 2 + j) % 3 for j in range(nvars)], 10 + i % 7


def ideals_inputs(seed):
    rng = random.Random(f"ideals:{seed}")
    files = {f"ideal{i:02d}.json": json.dumps(
        antichain_ideal(rng, *ideal_plan(i)), sort_keys=True)
        for i in range(IDEAL_COUNT)}
    return files, {}


def ideals_jobs(files, truth, workdir):
    jobs = []
    for name, text in sorted(files.items()):
        data = json.loads(text)
        ideal = hilbert.WeightedMonomialIdeal.make(data["degrees"],
                                                   data["generators"])

        def call(ideal=ideal):
            form, series = hilbert.ideal_hilbert(ideal, IDEAL_DEGREE)
            nonneg = hilbert.nonnegative_form(form)
            return {"form": form.to_json_dict(),
                    "series": list(series.coefficients),
                    "qpoly": hilbert.quasi_polynomial(form).to_json_dict(),
                    "nonnegative": nonneg and nonneg.to_json_dict()}

        def check(answer):
            num = answer["form"]["numerator"]
            dens = answer["form"]["denominator"]
            series = expand(num, dens, IDEAL_DEGREE)
            if answer["series"] != series:
                return "wrong: series is not the expansion of the form"
            qpoly = answer["qpoly"]
            top = qpoly["n_min"] + 3 * qpoly["period"] + IDEAL_DEGREE
            long = expand(num, dens, top)
            for n, v in qpoly_values(qpoly, top).items():
                if v != long[n]:
                    return f"wrong: quasi-polynomial differs at n={n}"
            nonneg = answer["nonnegative"]
            if nonneg is not None and (
                    min(nonneg["numerator"], default=0) < 0
                    or not same_series(nonneg["numerator"],
                                       nonneg["denominator"], num, dens)):
                return "wrong: non-negative form is not the same series"
            return None
        jobs.append(library_job(f"ideal-{name[5:-5]}", call,
                                expect_exit0(check)))

    def planar(answer):
        report = json.loads(answer)
        want = schroeder(len(report["counts"]))
        if report["counts"] != want or report["profile"] != schroeder(6)[5]:
            return f"wrong planar counts {report['counts']}"
        return None
    jobs.append(cli_job("planar", ["planar", "--degree", "5"],
                        expect_exit0(planar)))
    jobs.append(cli_job("hilbert-qsym2", ["hilbert", "--builtin", "qsym:2",
                                          "--degree", "9"],
                        check_hilbert_form(*gallery_form("qsym:2"))))
    return jobs


INPUTS = {"series": series_inputs, "census": census_inputs,
          "finite": finite_inputs, "ideals": ideals_inputs}
JOBS = {"series": series_jobs, "census": census_jobs,
        "finite": finite_jobs, "ideals": ideals_jobs}


def setup(workload, seed, workdir):
    """Generate the inputs, write them to `workdir` and build the jobs."""
    files, truth = INPUTS[workload](seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    return JOBS[workload](files, truth, workdir)
