"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the ``welltempered`` modules by
rebinding them, on the defining module and on every ``welltempered``
module (the package included) that imported the same object by name.
Methods and constructors are rebound on their classes.  Each wrapped call
records a span (name, item, parent, start, end) in flat in-memory columns;
self times are computed from those spans after the run.  ``uninstall``
puts every original object back, so an untraced run in the same process
sees the library exactly as it was.

Nothing here touches the library's private caches.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import tracemalloc

_MISSING = object()

# public functions, as "module:attribute" -> span name
FUNCTIONS = {
    "exactnum:cross_compare": "exactnum.cross_compare",
    "exactnum:certified_log2": "exactnum.certified_log2",
    "discretize:alpha_sweep": "discretize.alpha_sweep",
    "discretize:discretize": "discretize.discretize",
    "discretize:truncation_certificate": "discretize.truncation_certificate",
    # the certificate builder both entry points share; traced under the
    # public name so sweeps and direct discretizations show their
    # certificate cost (skipped if a later version drops it)
    "discretize:_certificate_with_values": "discretize.truncation_certificate",
    "semigroups:verify_semigroup": "semigroups.verify_semigroup",
    "semigroups:even_filterable_semigroup": "semigroups.even_filterable_semigroup",
    "semigroups:from_discretization": "semigroups.from_discretization",
    "semigroups:collapse": "semigroups.collapse",
    "theorems:simultaneous_search": "theorems.simultaneous_search",
    "theorems:multiplicity_census": "theorems.multiplicity_census",
    "theorems:even_filterable_census": "theorems.even_filterable_census",
    "theorems:tail_certificate": "theorems.tail_certificate",
    "theorems:h_uniqueness": "theorems.h_uniqueness",
    "render:render_compact": "render.render_compact",
    "render:render_decimal": "render.render_decimal",
    "render:render_exact": "render.render_exact",
    "cli:main": "cli.main",
}

# methods whose calls are only counted: "module:Class.method" -> counter.
# Constructions are counted at __init__, which every class here defines;
# a rebound __new__ cannot be undone cleanly in CPython.
COUNTED = {
    "exactnum:GoldenNumber.__init__": "exactnum.golden_new",
    "exactnum:LogValue.__init__": "exactnum.logvalue_new",
    "exactnum:CertifiedApprox.__init__": "exactnum.certified_approx_new",
    "exactnum:CertifiedApprox.refine": "exactnum.refine",
}

# span names reported with call count and self time, and with self time only
CALLS_AND_SELF = ("exactnum.cross_compare", "molds.element", "discretize.alpha_sweep",
                  "discretize.discretize", "semigroups.verify_semigroup",
                  "semigroups.even_filterable_semigroup", "semigroups.from_discretization",
                  "semigroups.collapse", "render.render_compact", "render.render_decimal",
                  "render.render_exact")
SELF_ONLY = ("exactnum.certified_log2", "discretize.truncation_certificate",
             "theorems.simultaneous_search", "theorems.multiplicity_census",
             "theorems.even_filterable_census", "theorems.tail_certificate",
             "theorems.h_uniqueness", "cli.main")
MATCHES = ("theorems.simultaneous_search", "theorems.multiplicity_census",
           "theorems.even_filterable_census")

# every metric Tracer.metrics() returns, with its unit
UNITS = {}
for _name in CALLS_AND_SELF:
    UNITS[_name + ".calls"] = "count"
    UNITS[_name + ".self_s"] = "s"
for _name in SELF_ONLY:
    UNITS[_name + ".self_s"] = "s"
for _name in MATCHES:
    UNITS[_name + ".matches"] = "count"
UNITS.update({
    "exactnum.golden_new.count": "count",
    "exactnum.logvalue_new.count": "count",
    "exactnum.certified_log2.calls": "count",
    "exactnum.certified_log2.misses": "count",
    "exactnum.certified_log2.max_prec_bits": "bits",
    "exactnum.refine.count": "count",
    "exactnum.refines_per_decision": "ratio",
    "molds.spacing_index.calls": "count",
    "discretize.cert_reuse_ratio": "ratio",
    "discretize.alpha_sweep.intervals": "count",
    "discretize.alpha_sweep.peak_mb": "MB",
    "trace.spans": "count",
})


def self_times(parents, starts, ends):
    """Per-span self time: duration minus the durations of direct children.

    Spans nest (a child lies inside its parent), so the children's total
    is the part of the parent's interval they cover.  ``parents[i]`` is
    the index of span i's parent, or -1 for a root.
    """
    own = [ends[i] - starts[i] for i in range(len(starts))]
    out = list(own)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= own[i]
    return out


class Tracer:
    """Span recorder plus the rebinding that routes calls through it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_item: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = {"exactnum.certified_log2.calls": 0,
                                       "exactnum.certified_log2.misses": 0}
        self._log2 = None
        self.max_prec_bits = 0
        self.mold_pairs: set = set()
        self.spacing_calls = 0
        self.sweep_intervals = 0
        self.sweep_peaks: list[int] = []
        self.matches: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_item.append(self.item)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: int):
        """A span opened by the benchmark itself, starting item ``item``."""
        self.item = item
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None, memory: bool = False):
        """A span-recording stand-in for fn; ``after(args, result)`` runs on return."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            started_tm = memory and not tracemalloc.is_tracing()
            if started_tm:
                tracemalloc.start()
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if started_tm:
                    tracer.sweep_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- rebinding -------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "welltempered"
                                      or modname.startswith("welltempered.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _after_hook(self, name: str):
        if name == "exactnum.certified_log2":
            def after(args, result):
                if args[1] > self.max_prec_bits:
                    self.max_prec_bits = args[1]
            return after
        if name == "discretize.alpha_sweep":
            def after(args, result):
                self.sweep_intervals += len(result)
            return after
        if name in ("theorems.simultaneous_search", "theorems.multiplicity_census",
                    "theorems.even_filterable_census"):
            def after(args, result):
                self.matches[name] = self.matches.get(name, 0) + len(result)
            return after
        return None

    def install(self) -> None:
        """Route every traced entry point of the loaded library through spans."""
        for target, name in FUNCTIONS.items():
            modname, attr = target.split(":")
            module = sys.modules.get("welltempered." + modname)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            if name == "exactnum.certified_log2":
                self._log2 = (original, original.cache_info())
            wrapped = self.wrap(name, original, self._after_hook(name),
                                memory=(name == "discretize.alpha_sweep"))
            self._rebind_everywhere(original, wrapped)
        for target, counter in COUNTED.items():
            modname, qualname = target.split(":")
            clsname, attr = qualname.split(".")
            self.counts.setdefault(counter, 0)
            cls = getattr(sys.modules["welltempered." + modname], clsname, None)
            if cls is not None and attr in vars(cls):  # absent in this version: stays 0
                self._count_calls(cls, attr, counter)
        molds = sys.modules["welltempered.molds"]
        for cls in vars(molds).values():
            if isinstance(cls, type) and issubclass(cls, molds.Mold):
                if "element" in vars(cls):
                    self._set(cls, "element", self.wrap("molds.element", vars(cls)["element"]))
                if "spacing_index" in vars(cls):
                    self._set(cls, "spacing_index", self._spacing_wrapper(vars(cls)["spacing_index"]))

    def _spacing_wrapper(self, fn):
        def after(args, result):
            self.spacing_calls += 1
            self.mold_pairs.add((args[0].name, args[1]))
        return self.wrap("molds.spacing_index", fn, after)

    def _count_calls(self, cls, attr: str, counter: str) -> None:
        counts = self.counts
        original = vars(cls)[attr]

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._set(cls, attr, counted)

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        if self._log2 is not None:  # cache traffic while installed
            cache, before = self._log2
            after = cache.cache_info()
            self.counts["exactnum.certified_log2.calls"] += (
                after.hits + after.misses - before.hits - before.misses)
            self.counts["exactnum.certified_log2.misses"] += after.misses - before.misses
            self._log2 = None
        while self._patches:
            obj, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), from the recorded spans."""
        own = self_times(self.span_parent, self.span_start, self.span_end)
        totals: dict[str, list] = {}
        for nid, t in zip(self.span_name, own):
            entry = totals.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += t
        return {name: (c, s) for name, (c, s) in totals.items()}

    def metrics(self) -> dict:
        """The per-layer metrics named in UNITS, for everything traced so far."""
        totals = self.layer_totals()
        out = {}
        for name in CALLS_AND_SELF:
            out[name + ".calls"] = totals.get(name, (0, 0.0))[0]
        for name in CALLS_AND_SELF + SELF_ONLY:
            out[name + ".self_s"] = totals.get(name, (0, 0.0))[1]
        for name in MATCHES:
            out[name + ".matches"] = self.matches.get(name, 0)
        counts = self.counts
        decisions = counts["exactnum.certified_approx_new"]
        out.update({
            "exactnum.golden_new.count": counts["exactnum.golden_new"],
            "exactnum.logvalue_new.count": counts["exactnum.logvalue_new"],
            "exactnum.certified_log2.calls": counts["exactnum.certified_log2.calls"],
            "exactnum.certified_log2.misses": counts["exactnum.certified_log2.misses"],
            "exactnum.certified_log2.max_prec_bits": self.max_prec_bits,
            "exactnum.refine.count": counts["exactnum.refine"],
            # refinements per certified comparison, one CertifiedApprox each
            "exactnum.refines_per_decision": (counts["exactnum.refine"] / decisions
                                              if decisions else 0.0),
            "molds.spacing_index.calls": self.spacing_calls,
            "discretize.cert_reuse_ratio": (len(self.mold_pairs) / self.spacing_calls
                                            if self.spacing_calls else 0.0),
            "discretize.alpha_sweep.intervals": self.sweep_intervals,
            "discretize.alpha_sweep.peak_mb": max(self.sweep_peaks, default=0) / 2 ** 20,
            "trace.spans": len(self.span_start),
        })
        return out

    def write_spans(self, path: str) -> None:
        """Spans as columns: names index the ``names`` list, -1 parent is a root."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name,
                "item": self.span_item,
                "parent": self.span_parent,
                "start": [round(t, 9) for t in self.span_start],
                "end": [round(t, 9) for t in self.span_end],
            }, fh, separators=(",", ":"))
