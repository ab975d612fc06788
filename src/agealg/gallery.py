"""Builtin template registry: each entry realizes one worked example, with
the published Hilbert fraction and the expected decomposition data used by
the verify suite."""

from __future__ import annotations

from dataclasses import dataclass

from . import templates
from .errors import InputError
from .hilbert import HilbertForm


@dataclass(frozen=True)
class GalleryEntry:
    name: str               # a builtin spec for `resolve_builtin`
    description: str
    expected_hilbert: object    # HilbertForm
    expected_components: int
    expected_dimension: int

    def build(self):
        return resolve_builtin(self.name)


def _form(numerator, denominators):
    return HilbertForm.make(numerator, denominators)


GALLERY = {entry.name: entry for entry in (
    GalleryEntry(
        "coclique", "infinite independent set; profile 1,1,1,...",
        _form([1], [1]), 1, 1),
    GalleryEntry(
        "sym:1", "one block with full equivalence; profile 1,1,1,...",
        _form([1], [1]), 1, 1),
    GalleryEntry(
        "sym:2",
        "symmetric polynomials on 2 variables; partitions into <= 2 parts",
        _form([1], [1, 2]), 2, 2),
    GalleryEntry(
        "sym:3", "symmetric polynomials on 3 variables",
        _form([1], [1, 2, 3]), 3, 3),
    GalleryEntry(
        "sym:4", "symmetric polynomials on 4 variables",
        _form([1], [1, 2, 3, 4]), 4, 4),
    GalleryEntry(
        "clique_plus_coclique",
        "infinite clique + infinite independent set; profile n",
        _form([1, 0, 0, 1], [1, 2]), 2, 2),
    GalleryEntry(
        "wheel_plus_coclique",
        "infinite star + infinite independent set; profile n, three components",
        _form([1, 0, 0, 1], [1, 2]), 3, 2),
    GalleryEntry(
        "qsym:2", "quasi-symmetric polynomials on 2 variables; profile n",
        _form([1, 0, 0, 1], [1, 2]), 2, 2),
    GalleryEntry(
        "groupoid",
        "invariant ring of the groupoid generated by 1 -> 2 on three points",
        _form([1, -1, 2, -1], [1, 1, 1]), 3, 3),
)}


_BUILDERS = {
    "coclique": (templates.coclique, 0),
    "clique_sum": (templates.clique_sum, 1),
    "sym": (templates.sym, 1),
    "clique_plus_coclique": (templates.clique_plus_coclique, 0),
    "wheel_plus_coclique": (templates.wheel_plus_coclique, 0),
    "qsym": (templates.qsym, 1),
    "rqsym": (templates.rqsym, 2),
    "groupoid": (templates.groupoid_example, 0),
    "c3_chains": (templates.c3_chains, 0),
}


def resolve_builtin(spec):
    """Build a template from "name", "name:k" or "name:k:r"."""
    parts = str(spec).split(":")
    name, args = parts[0], parts[1:]
    if name not in _BUILDERS:
        raise InputError(
            f"unknown builtin {name!r}; available: {sorted(_BUILDERS)}")
    build, want = _BUILDERS[name]
    if len(args) != want:
        raise InputError(
            f"builtin {name!r} takes {want} parameter(s), got {len(args)}")
    try:
        values = [int(a) for a in args]
    except ValueError as exc:
        raise InputError(f"builtin parameters must be integers: {exc}") from exc
    return build(*values)


def builtin_names():
    return sorted(_BUILDERS)
