"""Spans and counters around euctype's public functions, installed from outside.

A traced function is replaced by a wrapper under every name that refers
to it: the attribute of each ``euctype`` module that imported it, or the
attribute of the ring class that defines it.  Spans record (name, start,
end, parent, job) in memory; warm functions (ordinal arithmetic and
formatting, element parsing) only count calls, because a span per call
would cost more than the call.  The hottest calls, ring additions and
multiplications and ordinal comparisons, run millions of times per round,
so they are counted in rounds of their own ("ops" rounds) and their
counting overhead stays out of the span timings.  ``uninstall`` puts
every original back, so untraced rounds run the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Dict, List

# module -> functions that get a span.  Some of them are not reported as
# metrics; their spans keep their time out of their callers' self time, so
# that cli.main.self_s is argument parsing, report building and JSON output.
SPAN_FUNCTIONS = {
    "rings": ["crt_decompose"],
    "euclidean": ["bottom_euclidean", "division_counterexample", "is_euclidean_function",
                  "make_table", "order_type", "quotient_euclidean", "nagata_product",
                  "collapse_pair_table", "table_to_dict"],
    "parsing": ["parse_ring_spec", "table_from_dict", "parse_ordinal"],
    "models": ["windowed_bottom_integers", "windowed_bottom_polynomials",
               "check_localization_euclidean", "order_type_of_spec", "product_bounds",
               "realize_ordinal"],
    "poset": ["brookfield_sum_finite", "length", "length_function", "product_poset", "chain"],
    "cli": ["main"],
}
# (module, class, method) -> span name
SPAN_METHODS = {
    ("rings", "FiniteRing", "principal_ideals"): "rings.principal_ideals",
    ("rings", "FiniteRing", "all_ideals"): "rings.all_ideals",
    ("rings", "FiniteRing", "units"): "rings.units",
    ("rings", "FiniteRing", "element_length"): "rings.element_length",
    ("rings", "FiniteRing", "is_principal"): "rings.is_principal",
    ("rings", "PolyQuotient", "__init__"): "rings.PolyQuotient.init",
    ("rings", "QuotientRing", "__init__"): "rings.QuotientRing.init",
}
COUNT_FUNCTIONS = {
    "ordinal": ["natural_sum", "left_subtract", "format_ordinal"],
    "parsing": ["parse_element"],
}
RING_CLASSES = ("Zmod", "PolyQuotient", "ProductRing", "QuotientRing", "TableRing")
OP_METHODS = {("rings", cls, op): f"rings.{op}" for cls in RING_CLASSES
              for op in ("mul", "add")}
OP_METHODS[("ordinal", "Ordinal", "__lt__")] = "ordinal.compare"

# The per-layer metrics a traced run reports, with their units.  A layer
# that did not run on a workload reads 0.
SPAN_METRICS = [
    "rings.principal_ideals.s", "rings.principal_ideals.calls",
    "rings.all_ideals.s", "rings.all_ideals.calls", "rings.units.s",
    "rings.element_length.s", "rings.crt_decompose.s", "rings.PolyQuotient.init.s",
    "rings.QuotientRing.init.s",
    "euclidean.bottom_euclidean.self_s", "euclidean.bottom_euclidean.calls",
    "euclidean.division_counterexample.s", "euclidean.division_counterexample.self_s",
    "euclidean.division_counterexample.calls", "euclidean.quotient_euclidean.s",
    "euclidean.nagata_product.s", "euclidean.collapse_pair_table.s",
    "euclidean.table_to_dict.s",
    "parsing.parse_ring_spec.s", "parsing.parse_ring_spec.calls",
    "parsing.table_from_dict.self_s", "parsing.parse_element.calls",
    "parsing.parse_ordinal.s", "parsing.parse_ordinal.calls",
    "models.windowed_bottom_integers.s", "models.windowed_bottom_polynomials.s",
    "models.check_localization_euclidean.s",
    "ordinal.natural_sum.calls", "ordinal.left_subtract.calls",
    "ordinal.format_ordinal.calls",
    "poset.brookfield_sum_finite.s", "poset.length_function.s", "poset.product_poset.s",
    "cli.main.self_s",
]
OP_METRICS = ["rings.mul.calls", "rings.add.calls", "ordinal.compare.calls"]
RATIO_METRICS = ["rings.principal_ideals.class_ratio", "models.window_useful_ratio"]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job id, time covered by children]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.job = -1
        self.class_sizes = [0, 0]      # distinct principal ideals, carrier elements
        self.windows = [0, 0]          # report_bound^2, sum of window^2
        self._undo: List = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            note = after(args, kwargs) if after else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if note is not None:
                note(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived counters -----------------------------------------------------

    def _principal_ideals_hook(self, args, kwargs):
        # hasattr, not ring.__dict__: reading __dict__ turns the instance's
        # inline attributes into a real dict and slows every later attribute
        # lookup on the ring, so the traced run would change what it measures
        if hasattr(args[0], "_pids"):
            return None

        def note(result):
            self.class_sizes[0] += len({id(v) for v in result.values()})
            self.class_sizes[1] += len(result)

        return note

    def _window_hook_factory(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments

            def note(result):
                # the windows that ran: every window of the schedule from the
                # first one at or above the reporting bound up to window_b
                w = result.certificate.window_b
                ran = []
                while w >= a["report_bound"] and w >= a["start_window"]:
                    ran.append(w)
                    w //= a["growth_factor"]
                self.windows[0] += a["report_bound"] ** 2
                self.windows[1] += sum(x * x for x in ran)

            return note

        return hook

    # -- install / uninstall --------------------------------------------------

    def install(self, kind: str):
        """Installs the "spans" or the "ops" instrumentation."""
        mods = {name[len("euctype."):]: mod for name, mod in sys.modules.items()
                if name.startswith("euctype.")}
        holders = [mod for name, mod in sys.modules.items()
                   if name == "euctype" or name.startswith("euctype.")]
        if kind == "ops":
            for (modname, cls_name, meth), name in OP_METHODS.items():
                cls = getattr(mods[modname], cls_name)
                self._set(cls, meth, self._count(name, cls.__dict__[meth]))
            return
        for modname, names in SPAN_FUNCTIONS.items():
            for fname in names:
                fn = getattr(mods[modname], fname)
                after = (self._window_hook_factory(fn)
                         if fname == "windowed_bottom_integers" else None)
                self._replace_everywhere(holders, fn,
                                         self._span(f"{modname}.{fname}", fn, after))
        for modname, names in COUNT_FUNCTIONS.items():
            for fname in names:
                fn = getattr(mods[modname], fname)
                self._replace_everywhere(holders, fn, self._count(f"{modname}.{fname}", fn))
        for (modname, cls_name, meth), name in SPAN_METHODS.items():
            cls = getattr(mods[modname], cls_name)
            fn = cls.__dict__[meth]
            after = self._principal_ideals_hook if meth == "principal_ideals" else None
            self._set(cls, meth, self._span(name, fn, after))

    def _replace_everywhere(self, holders, fn, wrapper):
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Marks the current state so a round's share can be taken later."""
        return len(self.spans), dict(self.counts), tuple(self.class_sizes), tuple(self.windows)

    def summary(self, mark) -> Dict[str, float]:
        """Per-name inclusive time, self time and calls since ``mark``.

        Inclusive time adds only the outermost span of each name, so a
        recursive function is not counted twice.
        """
        start, counts0, classes0, windows0 = mark
        spans = self.spans
        out: Dict[str, float] = {}
        active: Dict[int, set] = {}
        for i in range(start, len(spans)):
            name, t0, t1, parent, _, child = spans[i]
            names_above = active.get(parent, set()) if parent >= start else set()
            active[i] = names_above | {name}
            dur = t1 - t0
            if name not in names_above:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for name, value in self.counts.items():
            out[f"{name}.calls"] = value - counts0.get(name, 0)
        distinct = self.class_sizes[0] - classes0[0]
        size = self.class_sizes[1] - classes0[1]
        out["rings.principal_ideals.class_ratio"] = distinct / size if size else 0.0
        useful = self.windows[0] - windows0[0]
        work = self.windows[1] - windows0[1]
        out["models.window_useful_ratio"] = useful / work if work else 0.0
        return out
