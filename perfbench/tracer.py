"""Span tracer installed on korbits from outside the package.

`install` replaces the module attributes and class methods the package
calls through (for example `korbits.linalg.rank`, the `commutator` name
that `korbits.orbits` imported from `linalg`, and `SigmaLattice.box_bounds`)
with wrappers.  Each wrapped call records one span: id, parent id, name,
start and end (perf_counter ns).  All spans of one batch share the
tracer's run id.  Spans stay in memory; `summary` aggregates them and
`write_spans` writes them out when the batch ends.

Self time of a span is its duration minus the time its direct child spans
cover.  Calls nest strictly (one thread, no callbacks), so the child
intervals are disjoint and their durations simply add.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

# (module, attribute, metric name).  An attribute "Class.method" is
# replaced on the class; a plain attribute is replaced in every loaded
# korbits module that holds the same function object, so calls through a
# `from .x import name` binding are traced too.
TARGETS = [
    ("orbits", "build_triple", "orbits.build_triple"),
    ("orbits", "verify_triple", "orbits.verify_triple"),
    ("orbits", "jordan_type", "orbits.jordan_type"),
    ("orbits", "centralizer_dim", "orbits.centralizer_dim"),
    ("orbits", "adh_grading", "orbits.adh_grading"),
    ("orbits", "p_height", "orbits.p_height"),
    ("orbits", "is_spherical", "orbits.is_spherical"),
    ("orbits", "bicone_witness", "orbits.bicone_witness"),
    ("orbits", "realization", "orbits.realization"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "commutator", "linalg.commutator"),
    ("linalg", "simplex_max", "linalg.simplex_max"),
    ("semigroup", "SigmaLattice.box_bounds", "semigroup.box_bounds"),
    ("semigroup", "SigmaLattice.enumerate_sub", "semigroup.enumerate_sub"),
    ("semigroup", "SigmaLattice.nsigma_coords", "semigroup.nsigma_coords"),
    ("semigroup", "leq_sigma", "semigroup.leq_sigma"),
    ("semigroup", "is_minuscule", "semigroup.is_minuscule"),
    ("semigroup", "gamma_semigroup", "semigroup.gamma_semigroup"),
    ("semigroup", "normality_check", "semigroup.normality_check"),
    ("semigroup", "covering_differences", "semigroup.covering_differences"),
    ("semigroup", "closed_form_generators", "semigroup.closed_form_generators"),
    ("cg", "verify_gamma_product", "cg.verify_gamma_product"),
    ("cg", "cg_projection", "cg.cg_projection"),
    ("cg", "cg_injection", "cg.cg_injection"),
    ("cg", "product_contains", "cg.product_contains"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    """In-memory span recorder for one batch."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []        # (span id, parent id, name, start ns, end ns, child ns)
        self._stack = []       # [span id, child ns] of the open spans
        self._ids = itertools.count()
        # Per-layer observations beyond calls and time.
        self.realization_specs = set()
        self.product_hits = 0
        self.enum_kept = 0
        self.enum_volume = 0
        self._last_bounds = None

    def wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, parent, name, t0, t1, frame[1]))

        return traced

    # Observing wrappers: they run inside the span of the call they observe.

    def _observe_realization(self, fn):
        def observed(spec):
            self.realization_specs.add(spec)
            return fn(spec)
        return observed

    def _observe_product_contains(self, fn, cache):
        def observed(*args):
            before = len(cache)
            out = fn(*args)
            if len(cache) == before:
                self.product_hits += 1
            return out
        return observed

    def _observe_box_bounds(self, fn):
        def observed(lat, E):
            out = fn(lat, E)
            self._last_bounds = out
            return out
        return observed

    def _observe_enumerate_sub(self, fn):
        def observed(lat, E):
            self._last_bounds = None
            out = fn(lat, E)
            volume = 1
            for b in self._last_bounds or ():
                volume *= b + 1
            self.enum_kept += len(out)
            self.enum_volume += volume
            return out
        return observed

    def install(self):
        """Wrap every target on the loaded korbits modules."""
        import korbits.cli  # noqa: F401  (imports every module with a target)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "korbits" or name.startswith("korbits.")}
        for modname, attr, metric in TARGETS:
            module = mods[f"korbits.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self.wrap(metric, self._observed(metric, original)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(metric, self._observed(metric, original))
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _observed(self, metric, fn):
        if metric == "orbits.realization":
            return self._observe_realization(fn)
        if metric == "cg.product_contains":
            from korbits import cg
            return self._observe_product_contains(fn, cg._PRODUCT_CACHE)
        if metric == "semigroup.box_bounds":
            return self._observe_box_bounds(fn)
        if metric == "semigroup.enumerate_sub":
            return self._observe_enumerate_sub(fn)
        return fn

    def summary(self):
        """Per-layer metrics: calls, s, self_s per target plus the ratios."""
        totals = {metric: [0, 0, 0] for _, _, metric in TARGETS}
        for _sid, _parent, name, t0, t1, child in self.spans:
            row = totals[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        out = {}
        for name, (calls, ns, self_ns) in totals.items():
            if name == "orbits.realization":
                out[f"{name}.calls"] = calls
                out[f"{name}.distinct"] = len(self.realization_specs)
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = ns / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
        pc_calls = totals["cg.product_contains"][0]
        out["cg.product_contains.hit_ratio"] = (self.product_hits / pc_calls
                                                if pc_calls else 0.0)
        out["cg.product_contains.distinct"] = pc_calls - self.product_hits
        out["semigroup.enumerate_sub.yield_ratio"] = (self.enum_kept / self.enum_volume
                                                      if self.enum_volume else 0.0)
        return out

    def write_spans(self, path):
        """Tab-separated spans, one per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, t0, t1, _child in sorted(self.spans):
                fh.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t{t0}\t{t1}\n")
