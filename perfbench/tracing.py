"""Per-layer tracing from outside the program.

``install`` replaces the public entry points of each orbigw layer with
wrappers that record a span (layer, start, end, parent, run id) per call
and a few counts taken from arguments and results.  Spans stay in memory
until the run ends.  Nothing inside ``src/`` is changed: the wrappers are
put on the classes and into every orbigw module that binds the function,
so calls through ``from .x import f`` are traced too.

A call made directly inside a span of its own layer (the recursion of
``surface_count``, ``second_partial`` calling ``partial_derivative``,
``kdv_check`` inside the mutation sweep) records no span and no counts:
its time is the enclosing span's self time, and counts are of outermost
calls only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import orbigw.algebra
import orbigw.cli
import orbigw.correlators
import orbigw.groups
import orbigw.series
import orbigw.virasoro

# Layers in pipeline order; each ``<layer>_s`` metric is that layer's self time.
TIME_LAYERS = (
    "groups.build", "groups.classes", "algebra.structure",
    "algebra.characters", "correlators.surface", "correlators.oracle",
    "correlators.potential", "series.exp", "series.derivative",
    "series.product", "series.linear", "virasoro.apply", "virasoro.compare",
    "cli.emit",
)
COUNTS = (
    "groups.elements", "algebra.classes", "correlators.surface_calls",
    "correlators.oracle_tuples", "correlators.potential_terms",
    "series.exp_terms", "series.derivative_terms", "series.product_terms",
    "virasoro.apply_calls", "virasoro.compared", "virasoro.reports",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [layer, start, end, parent index]
        self.stack = []          # indices of open spans
        self.counts = defaultdict(int)
        self._algebras = {}      # id -> algebra, for algebra.classes

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer, fn, count=None, pre=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            state = pre(args) if pre else None
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count:
                count(result, args, state)
            return result

        return wrapper

    def _patch_function(self, module, name, layer, count=None):
        original = getattr(module, name)
        wrapped = self._wrap(layer, original, count)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "orbigw" and not modname.startswith("orbigw."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, name, layer, count=None, pre=None):
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(layer, original, count, pre))

    def install(self):
        c = self.counts

        def tally(key, amount=lambda result: 1):
            def count(result, _args, _state):
                c[key] += amount(result)
            return count

        def terms(key):
            return tally(key, lambda result: len(result.terms))

        def algebra_classes(_result, args, _state):
            self._algebras.setdefault(id(args[0]), args[0])

        def enumerated(args):
            return args[0].profile()["enumerated_tuples"]

        def oracle_tuples(_result, args, before):
            c["correlators.oracle_tuples"] += enumerated(args) - before

        def reports(result, _args, _state):
            if isinstance(result, dict):        # mutation_sensitivity
                c["virasoro.reports"] += result["mutated"]
                return
            c["virasoro.reports"] += len(result)
            c["virasoro.compared"] += sum(r.checked_monomials for r in result)

        g, a, cr = orbigw.groups, orbigw.algebra, orbigw.correlators
        v, ts = orbigw.virasoro, orbigw.series.TruncatedSeries
        self._patch_function(g, "group_from_spec", "groups.build",
                             tally("groups.elements", lambda grp: grp.order))
        self._patch_function(g, "conjugacy_data", "groups.classes")
        self._patch_method(a.ClassAlgebra, "structure_constants",
                           "algebra.structure", algebra_classes)
        self._patch_function(a, "character_table", "algebra.characters")
        self._patch_function(a, "canonical_basis", "algebra.characters")
        self._patch_method(cr.OrbifoldTheory, "surface_count",
                           "correlators.surface",
                           tally("correlators.surface_calls"))
        self._patch_method(cr.OrbifoldTheory, "surface_count_brute",
                           "correlators.oracle", oracle_tuples, enumerated)
        self._patch_method(cr.OrbifoldTheory, "potential",
                           "correlators.potential",
                           terms("correlators.potential_terms"))
        self._patch_method(ts, "exponential", "series.exp",
                           terms("series.exp_terms"))
        for name in ("partial_derivative", "second_partial"):
            self._patch_method(ts, name, "series.derivative",
                               terms("series.derivative_terms"))
        for name in ("multiply", "multiply_by_monomial"):
            self._patch_method(ts, name, "series.product",
                               terms("series.product_terms"))
        for name in ("add", "scale", "truncated_to_degree"):
            self._patch_method(ts, name, "series.linear")
        self._patch_function(v, "apply_virasoro", "virasoro.apply",
                             tally("virasoro.apply_calls"))
        for name in ("virasoro_check", "kdv_check", "mutation_sensitivity"):
            self._patch_function(v, name, "virasoro.compare", reports)
        self._patch_function(orbigw.cli, "emit", "cli.emit")

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer: span length minus the length of its children."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIME_LAYERS, 0.0)
        for (layer, start, end, _parent), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return out

    def root_time(self) -> float:
        return sum(end - start for _l, start, end, parent in self.spans
                   if parent < 0)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of a traced run that took ``wall_s`` seconds."""
        metrics = {f"{layer}_s": (secs, "s")
                   for layer, secs in self.self_times().items()}
        counts = dict(self.counts)
        counts["algebra.classes"] = sum(alg.r for alg in self._algebras.values())
        for key in COUNTS:
            metrics[key] = (counts.get(key, 0), "count")
        oracle_s = metrics["correlators.oracle_s"][0]
        tuples = metrics["correlators.oracle_tuples"][0]
        metrics["correlators.oracle_tuples_per_s"] = (
            tuples / oracle_s if oracle_s > 0 else 0.0, "1/s")
        metrics["trace.unattributed_s"] = (wall_s - self.root_time(), "s")
        return metrics

    def dump(self, path: str):
        """Write the spans as JSON lines: layer, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps([layer, start, end, parent, self.run_id])
                         + "\n")
