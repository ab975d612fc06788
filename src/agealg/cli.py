"""Batch front-end: read a template (builtin or JSON file), run one
computation, print a machine-readable report.

Exit codes: 0 ok, 2 input error, 3 undetermined bound, 4 internal
consistency violation, 5 rational fit failure.  All reports embed the tool
version, the bounds used and the block order, so leading-monomial-dependent
outputs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from .algebra import TypeRegistry, kernel_elements_bounded, profile_series, split_census
from .decomposition import DEFAULT_D_MAX, profile_floor_params, template_components
from .errors import (ConsistencyError, InputError, NotRationalError,
                     UndeterminedError)
from .gallery import builtin_names, resolve_builtin
from .hilbert import (DEFAULT_GUARD, nonnegative_form, quasi_polynomial,
                      two_path_hilbert)
from .planar import SCHRODER, enumerate_reduced, planar_profile_report
from .structures import FiniteRelStruct
from .templates import BlockTemplate

EXIT_INPUT = 2
EXIT_UNDETERMINED = 3
EXIT_CONSISTENCY = 4
EXIT_FIT = 5


def _read_input(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_template(args, text=None):
    if args.builtin and args.input:
        raise InputError("give --builtin or --input, not both")
    if args.builtin:
        return resolve_builtin(args.builtin), args.builtin
    if args.input:
        if text is None:
            text = _read_input(args.input)
        return BlockTemplate.from_json(text), args.input
    raise InputError("need --builtin NAME or --input FILE")


def _meta(args, t=None):
    meta = {
        "tool": "agealg",
        "version": __version__,
        "bounds": {
            "degree": args.degree,
            "dim": args.dim,
            "gen_bound": args.gen_bound,
            "guard": args.guard,
            "d_max": args.d_max,
        },
    }
    if t is not None:
        meta["block_order"] = list(t.block_names)
    return meta


def cmd_profile(args):
    t, source = _load_template(args)
    series = profile_series(t, args.degree)
    return {
        "command": "profile",
        "source": source,
        "profile": series,
        "non_decreasing": all(a <= b for a, b in zip(series, series[1:])),
        "meta": _meta(args, t),
    }


def cmd_decompose(args):
    text = None
    if args.input and not args.builtin:
        # a finite structure file is also accepted here
        text = _read_input(args.input)
        data = json.loads(text)
        if not isinstance(data, dict) or "blocks" not in data:
            from .decomposition import minimal_decomposition
            s = FiniteRelStruct.from_json_dict(data)
            blocks = minimal_decomposition(s)
            return {
                "command": "decompose",
                "source": args.input,
                "kind": "finite-structure",
                "blocks": blocks,
                "count": len(blocks),
                "meta": _meta(args),
            }
    t, source = _load_template(args, text)
    comps = template_components(t, d_max=args.d_max)
    k, n0 = profile_floor_params(t, comps)
    return {
        "command": "decompose",
        "source": source,
        "kind": "template",
        "components": [[t.block_names[b] for b in cls] for cls in comps.classes],
        "count": comps.count,
        "dimension": comps.dimension,
        "fatness": comps.fatness,
        "certificate": list(comps.certificate),
        "lower_bound_offset": n0,
        "meta": _meta(args, t),
    }


def _two_path(args, t):
    registry = TypeRegistry(t)
    components = template_components(t, d_max=args.d_max, registry=registry)
    dimension = components.dimension if args.dim is None else args.dim
    return two_path_hilbert(t, args.degree, gen_bound=args.gen_bound,
                            guard=args.guard, registry=registry,
                            dimension=dimension)


def cmd_hilbert(args):
    t, source = _load_template(args)
    fitted, lead = _two_path(args, t)
    nonneg = nonnegative_form(fitted)
    return {
        "command": "hilbert",
        "source": source,
        "form": fitted.to_json_dict(),
        "pretty": fitted.pretty(),
        "leading_form": lead.to_json_dict(),
        "agree": True,
        "nonnegative_form": nonneg.to_json_dict() if nonneg else None,
        "meta": _meta(args, t),
    }


def cmd_qpoly(args):
    t, source = _load_template(args)
    fitted, _ = _two_path(args, t)
    qp = quasi_polynomial(fitted)
    lead = qp.leading_coefficient
    payload = qp.to_json_dict()
    payload.update({
        "command": "qpoly",
        "source": source,
        "degree": qp.degree,
        "leading_coefficient": (None if lead is None
                                else [lead.numerator, lead.denominator]),
        "meta": _meta(args, t),
    })
    return payload


def _short(code):
    return hashlib.sha256(code.encode()).hexdigest()[:12]


def cmd_constants(args):
    t, source = _load_template(args)
    registry = TypeRegistry(t)
    n = args.degree
    m = args.left if args.left is not None else min(1, n)
    if not 0 <= m <= n:
        raise InputError("--left must be between 0 and --degree")
    # a type is labelled by the short id of its canonical code; the sidecar
    # decodes each label to a representative composition
    labels = {}
    sidecar = {}
    if registry.types_at(n):
        for d in {n, m, n - m}:
            labels[d] = [_short(e.code) for e in registry.types_at(d)]
            for label, e in zip(labels[d], registry.types_at(d)):
                sidecar[label] = list(e.reps[0])
    rows = []
    for entry in registry.types_at(n):
        # ids follow registry order, so sorting the census keeps the rows
        # in (tau1, tau2) registry order
        for (i1, i2), c in sorted(split_census(registry, entry, m).items()):
            rows.append({"tau1": labels[m][i1], "tau2": labels[n - m][i2],
                         "tau": labels[n][entry.id], "c": c})
    return {
        "command": "constants",
        "source": source,
        "degree": n,
        "left_degree": m,
        "constants": rows,
        "types": sidecar,
        "meta": _meta(args, t),
    }


def cmd_kernel(args):
    t, source = _load_template(args)
    report = kernel_elements_bounded(t, args.degree)
    report.update({"command": "kernel", "source": source, "meta": _meta(args, t)})
    return report


def cmd_planar(args):
    n = args.degree
    counts = [len(enumerate_reduced(m)) for m in range(min(n, 7) + 1)]
    out = {
        "command": "planar",
        "counts": counts,
        "expected": list(SCHRODER[: len(counts)]),
        "meta": _meta(args),
    }
    if n <= 5:
        found, report = planar_profile_report(n)
        out["profile"] = found
        out["profile_report"] = report
    return out


def cmd_verify(args):
    # imported here, as no other command needs the criteria table
    from dataclasses import replace

    from .verify import BUDGET, run_all
    results = run_all(replace(BUDGET, degree=args.degree))
    ok = all(r[1] for r in results)
    return {
        "command": "verify",
        "ok": ok,
        "checks": [
            {"name": name, "ok": good, "detail": detail}
            for name, good, detail in results
        ],
        "meta": _meta(args),
    }, (0 if ok else EXIT_CONSISTENCY)


@functools.cache
def build_parser():
    """The argument parser, built once per process: `parse_args` leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="agealg",
        description="Profiles, monomorphic decompositions and exact Hilbert "
                    "series of relational structures given by block templates.")
    parser.add_argument("command", choices=[
        "profile", "decompose", "hilbert", "qpoly", "constants", "kernel",
        "planar", "verify"])
    parser.add_argument("--builtin", help=f"one of {', '.join(builtin_names())} "
                        "(parameters after a colon, e.g. sym:3)")
    parser.add_argument("--input", help="template or structure JSON file")
    parser.add_argument("--degree", type=int, default=12,
                        help="degree bound D (default 12)")
    parser.add_argument("--left", type=int, default=None,
                        help="left degree for structure constants "
                        "(default 1, or 0 at degree 0)")
    parser.add_argument("--dim", type=int, default=None,
                        help="dimension hint k (default: computed)")
    parser.add_argument("--gen-bound", type=int, default=None,
                        help="generator discovery bound (default: degree)")
    parser.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                        help="trailing zero window for rational fits")
    parser.add_argument("--d-max", type=int, default=DEFAULT_D_MAX,
                        help="fatness level cap")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines = [f"{report.get('command')} report"]
    for key, value in sorted(report.items()):
        if key in ("command", "meta", "checks"):
            continue
        lines.append(f"  {key}: {value}")
    for check in report.get("checks", ()):
        mark = "PASS" if check["ok"] else "FAIL"
        lines.append(f"  [{mark}] {check['name']}: {check['detail']}")
    return "\n".join(lines)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value, least in (("--degree", args.degree, 0),
                               ("--dim", args.dim, 0),
                               ("--gen-bound", args.gen_bound, 0),
                               ("--guard", args.guard, 1),
                               ("--d-max", args.d_max, 1)):
        if value is not None and value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return EXIT_INPUT
    handlers = {
        "profile": cmd_profile,
        "decompose": cmd_decompose,
        "hilbert": cmd_hilbert,
        "qpoly": cmd_qpoly,
        "constants": cmd_constants,
        "kernel": cmd_kernel,
        "planar": cmd_planar,
        "verify": cmd_verify,
    }
    try:
        out = handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UndeterminedError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except NotRationalError as exc:
        print(f"not rational: {exc}", file=sys.stderr)
        return EXIT_FIT
    except ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    code = 0
    if isinstance(out, tuple):
        out, code = out
    print(_render(out, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
