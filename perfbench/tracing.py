"""Span tracing of agealg's layers from outside the library.

`Tracer.install()` replaces each function in `TRACED` with a wrapper that
records a span (name, start, end, parent span).  A name import such as
``from .structures import canonical_code`` makes a second binding of the
same function object in another module, so every binding of the function in
every loaded ``agealg`` module is replaced; a function missing from its home
module, or held in a module-level container where it cannot be replaced,
stops the traced run with `TracingError`.

A span's self time is its duration minus the part of its interval that its
child spans cover.  `layer_metrics` turns the spans and counters into the
per-layer metrics named in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict


class TracingError(RuntimeError):
    """The library no longer has a binding the traced run expects."""


# (home module, qualified name): the layer boundaries
TRACED = (
    ("structures", "canonical_code"),
    ("structures", "find_isomorphism"),
    ("structures", "restrict"),
    ("templates", "instantiate"),
    ("algebra", "TypeRegistry.ensure_degree"),
    ("algebra", "mult_by_e_rank"),
    ("algebra", "structure_constant"),
    ("algebra", "kernel_elements_bounded"),
    ("decomposition", "template_components"),
    ("decomposition", "minimal_decomposition"),
    ("decomposition", "pair_mergeable"),
    ("hilbert", "two_path_hilbert"),
    ("hilbert", "hilbert_via_leading"),
    ("hilbert", "fit_rational"),
    ("hilbert", "quasi_polynomial"),
    ("hilbert", "ideal_hilbert"),
    ("hilbert", "nonnegative_form"),
    ("planar", "planar_profile_report"),
    ("cli", "main"),
)

# the caller layer that a canonical_code call is charged to
CODE_BUCKETS = (
    ("algebra.TypeRegistry.", "registry"),
    ("algebra.structure_constant", "census"),
    ("algebra.mult_by_e_rank", "census"),
    ("decomposition.", "decomp"),
)

LAYER_METRICS = (
    ("structures.canonical_code.calls", "count"),
    ("structures.canonical_code.self_s", "s"),
    ("structures.canonical_code.registry_s", "s"),
    ("structures.canonical_code.census_s", "s"),
    ("structures.canonical_code.decomp_s", "s"),
    ("structures.canonical_code.other_s", "s"),
    ("structures.find_isomorphism.calls", "count"),
    ("structures.find_isomorphism.self_s", "s"),
    ("structures.find_isomorphism.found_ratio", "ratio"),
    ("structures.restrict.calls", "count"),
    ("structures.restrict.self_s", "s"),
    ("templates.instantiate.calls", "count"),
    ("templates.instantiate.self_s", "s"),
    ("templates.instantiate.tuples", "count"),
    ("algebra.TypeRegistry.ensure_degree.self_s", "s"),
    ("algebra.registry.types", "count"),
    ("algebra.registry.compositions", "count"),
    ("algebra.registry.types_per_composition", "ratio"),
    ("algebra.mult_by_e_rank.calls", "count"),
    ("algebra.mult_by_e_rank.self_s", "s"),
    ("algebra.structure_constant.calls", "count"),
    ("algebra.structure_constant.self_s", "s"),
    ("algebra.kernel_elements_bounded.calls", "count"),
    ("algebra.kernel_elements_bounded.self_s", "s"),
    ("decomposition.template_components.calls", "count"),
    ("decomposition.template_components.self_s", "s"),
    ("decomposition.minimal_decomposition.calls", "count"),
    ("decomposition.minimal_decomposition.self_s", "s"),
    ("decomposition.pair_mergeable.calls", "count"),
    ("decomposition.pair_mergeable.self_s", "s"),
    ("decomposition.pair_mergeable.true_ratio", "ratio"),
    ("hilbert.two_path_hilbert.self_s", "s"),
    ("hilbert.hilbert_via_leading.self_s", "s"),
    ("hilbert.fit_rational.self_s", "s"),
    ("hilbert.quasi_polynomial.self_s", "s"),
    ("hilbert.ideal_hilbert.calls", "count"),
    ("hilbert.ideal_hilbert.self_s", "s"),
    ("hilbert.ideal_hilbert.generators", "count"),
    ("hilbert.nonnegative_form.self_s", "s"),
    ("hilbert.nonnegative_form.found_ratio", "ratio"),
    ("planar.planar_profile_report.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end, parent):
        self.name, self.start, self.end, self.parent = name, start, end, parent


def self_times(spans):
    """Per span: duration minus the union of its children's intervals,
    clipped to its own interval.  `parent` is an index into `spans` or -1."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for j in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[j].start, reach), min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _count_results(tracer, name, args, result):
    counts = tracer.counts
    if name == "structures.find_isomorphism":
        counts["find_isomorphism.found"] += result is not None
    elif name == "decomposition.pair_mergeable":
        counts["pair_mergeable.true"] += bool(result)
    elif name == "templates.instantiate":
        counts["instantiate.tuples"] += sum(len(r) for r in result.rels)
    elif name == "hilbert.ideal_hilbert":
        counts["ideal_hilbert.generators"] += len(args[0].generators)
    elif name == "hilbert.nonnegative_form":
        counts["nonnegative_form.found"] += result is not None
    elif name == "algebra.TypeRegistry.ensure_degree":
        registry, n = args[0], args[1]
        tracer.registries[registry] = max(tracer.registries.get(registry, -1), n)


class Tracer:
    """Spans and result counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.registries = {}
        self.bindings = {}
        self._restore = []
        self._stack = []
        self.active = True

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, clock(), None, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            _count_results(self, name, args, result)
            return result
        return traced

    def install(self):
        """Wrap every binding of every traced function in agealg."""
        import agealg
        modules = [agealg] + [
            importlib.import_module(f"agealg.{info.name}")
            for info in pkgutil.iter_modules(agealg.__path__)]
        for home, qualname in TRACED:
            owner = importlib.import_module(f"agealg.{home}")
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                raise TracingError(f"agealg.{home}.{qualname} is missing")
            wrapper = self.wrap(f"{home}.{qualname}", original)
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))
            bound = [f"agealg.{home}.{qualname}"]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
                        bound.append(f"{module.__name__}.{key}")
                    elif isinstance(value, (dict, list, tuple, set)) and any(
                            v is original for v in
                            (value.values() if isinstance(value, dict)
                             else value)):
                        raise TracingError(
                            f"{module.__name__}.{key} holds "
                            f"agealg.{home}.{qualname} and cannot be traced")
            self.bindings[f"{home}.{qualname}"] = bound

    def uninstall(self):
        """Put the original functions back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def collect_registries(self):
        """Count types and compositions of the registries used since the
        last call, with tracing paused."""
        from agealg.templates import compositions
        self.active = False
        try:
            for registry, built in self.registries.items():
                for n in range(built + 1):
                    self.counts["registry.types"] += registry.profile(n)
                    self.counts["registry.compositions"] += sum(
                        1 for _ in compositions(registry.template, n))
        finally:
            self.active = True
        self.registries.clear()


def layer_metrics(spans, counts):
    """Per-layer metric values from spans and counters (see LAYER_METRICS;
    `trace.overhead_s` is left to the caller)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    buckets = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        if span.name == "structures.canonical_code":
            caller = spans[span.parent].name if span.parent >= 0 else ""
            bucket = next((b for prefix, b in CODE_BUCKETS
                           if caller.startswith(prefix)), "other")
            buckets[bucket] += own

    def ratio(part, whole):
        return part / whole if whole else 0.0

    counts = defaultdict(int, counts)

    out = {}
    for name, _unit in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[layer]
        elif field == "self_s":
            out[name] = self_s[layer]
        elif layer == "structures.canonical_code":
            out[name] = buckets[field[:-2]]
    out["structures.find_isomorphism.found_ratio"] = ratio(
        counts["find_isomorphism.found"], calls["structures.find_isomorphism"])
    out["decomposition.pair_mergeable.true_ratio"] = ratio(
        counts["pair_mergeable.true"], calls["decomposition.pair_mergeable"])
    out["hilbert.nonnegative_form.found_ratio"] = ratio(
        counts["nonnegative_form.found"], calls["hilbert.nonnegative_form"])
    out["templates.instantiate.tuples"] = counts["instantiate.tuples"]
    out["hilbert.ideal_hilbert.generators"] = counts["ideal_hilbert.generators"]
    out["algebra.registry.types"] = counts["registry.types"]
    out["algebra.registry.compositions"] = counts["registry.compositions"]
    out["algebra.registry.types_per_composition"] = ratio(
        counts["registry.types"], counts["registry.compositions"])
    return out
