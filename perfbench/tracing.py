"""Spans and counts around cubictrace's entry points, from outside the package.

``Tracer.install`` wraps the entry points of a freshly imported cubictrace:
every reference to a wrapped function in any cubictrace module is replaced,
so calls made through ``from x import y`` names are seen too.  A span is
recorded per call (name, round, parent, start, end); a layer's self time is
its spans' time minus the time of the spans they caused.

The small arithmetic methods of the cubic algebras are counted, not timed,
because timing each of millions of tiny calls would swamp them.  Counting
them still costs more than the work they do, so a tracer either records
spans or counts those calls, never both in one round: the self times are
then not inflated by the counting.

Self times are kept per clock segment, and converted to reference seconds
with the scale of the segment they fell in (see calib.Clock).
"""

import inspect
import time
from collections import Counter

SPANS = {
    "kernels.sweep": [("_kernels", "zero_class_sweep")],
    "kernels.hist": [("_kernels", "trace_norm_histogram")],
    "counts.brute": [("counts", "brute_force_count")],
    "counts.formula": [("counts", "count")],
    "torus.group": [("torus", "TorusGroup.__init__")],
    "torus.subgroups": [("torus", "TorusGroup.subgroups")],
    "torus.coset_bound": [("torus", "verify_coset_bound")],
    "torus.nodal": [("torus", "nodal_coset_check"), ("torus", "nodal_concentration_check")],
    "branch.context": [("branch", "BranchContext.__init__")],
    "branch.certified": [("branch", "certified_zero_set")],
    "branch.digit_recursion": [("branch", "digit_recursion")],
    "branch.oracle": [("branch", "brute_force_zero_oracle")],
}

CRITERIA = (
    "1-count-table", "2-factorization-census", "3-coset-bound", "4-nodal-coset",
    "5-branch-oracle", "6-census", "7-statistics", "8-rankd", "9-wieferich",
)

DESCRIPTOR_KINDS = (
    "all-solutions", "no-solutions", "dead-mod-p", "retained-mod-p",
    "transverse-simple", "singular-obstructed", "singular-all-mod-p2",
    "singular-no-root", "singular-simple-root", "quadratic-weierstrass-disk",
    "cubic-simple-root", "cubic-local-factor", "class-all-survive",
    "jet-no-root", "jet-simple-root", "jet-local-factor", "digit-list",
)

ALGEBRA_COUNTS = {"fp": ("mul", "pow", "trace", "norm"), "zp": ("mul", "pow", "trace")}


def _per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    extra = {
        "kernels.sweep": ("steps",), "kernels.hist": ("cells",),
        "torus.group": ("elements",), "torus.subgroups": ("found",),
        "branch.certified": ("classes",),
    }
    for span in SPANS:
        out.append((f"{span}.calls", "count"))
        out.extend((f"{span}.{x}", "count") for x in extra.get(span, ()))
        out.append((f"{span}.self_s", "s"))
    out.extend((f"branch.kind.{k}", "count") for k in DESCRIPTOR_KINDS + ("inflated", "other"))
    for field, methods in ALGEBRA_COUNTS.items():
        out.extend((f"algebra.{field}.{m}.calls", "count") for m in methods)
    out.extend((f"verify.{c}.self_s", "s") for c in CRITERIA)
    return out


PER_LAYER = _per_layer_names()
# per-layer metrics of the whole traced run, not of one tracer (see run.per_layer)
RUN_METRICS = (
    ("calibration.ref_s", "s"),
    ("tracing.untraced_run_s", "s"),
    ("tracing.traced_run_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.counting_overhead_s", "s"),
)


def _arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


class Tracer:
    """Per-round spans, counts and self times for one traced round."""

    def __init__(self, round_id, span_log, clock, count_algebra=False):
        self.round_id = round_id
        self.count_algebra = count_algebra
        self.span_log = span_log  # shared list of (name, round, id, parent, start, end)
        self.clock = clock
        self.counts = Counter()
        self.self_raw = Counter()  # raw self seconds by (span name, clock segment)
        self._stack = []
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.counts[f"{name}.calls"] += 1
                self.self_raw[name, len(self.clock.segments)] += (t1 - t0) - frame[1]
                self.span_log.append((name, self.round_id, span_id, parent, t0, t1))
            if on_exit is not None:
                on_exit(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, method, fn):
        counts = self.counts

        def wrapper(alg, *args, **kwargs):
            field = "fp" if getattr(alg, "k", 1) == 1 else "zp"
            counts[f"algebra.{field}.{method}.calls"] += 1
            return fn(alg, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, ct):
        """Wrap the entry points of the freshly imported package ``ct``."""
        modules = ct.modules
        if self.count_algebra:
            self._install_counts(modules["algebra"])
            return
        for name, targets in SPANS.items():
            for modname, attr in targets:
                mod = modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    fn = getattr(cls, meth)
                    setattr(cls, meth, self.span(name, fn, self._on_exit(name, fn)))
                else:
                    fn = getattr(mod, attr)
                    self._replace_everywhere(modules, fn, self.span(name, fn, self._on_exit(name, fn)))
        verify = modules["verify"]
        for cid, fn in list(verify.CHECKS.items()):
            label = next((c for c in CRITERIA if c.split("-")[0] == cid.split("-")[0]), cid)
            verify.CHECKS[cid] = self.span(f"verify.{label}", fn)

    def _install_counts(self, algebra):
        for cls in vars(algebra).values():
            if not (isinstance(cls, type) and cls.__module__ == algebra.__name__):
                continue
            if getattr(cls, "rank", None) != 3:
                continue
            for method in ("mul", "pow", "trace", "norm"):
                if method in vars(cls):
                    setattr(cls, method, self.counted(method, vars(cls)[method]))

    @staticmethod
    def _replace_everywhere(modules, fn, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _on_exit(self, name, fn):
        counts = self.counts
        if name == "kernels.sweep":
            return lambda a, kw, out: counts.update({"kernels.sweep.steps": _arg(fn, a, kw, "total") or 0})
        if name == "kernels.hist":
            return lambda a, kw, out: counts.update({"kernels.hist.cells": (_arg(fn, a, kw, "p") or 0) ** 3})
        if name == "torus.group":
            return lambda a, kw, out: counts.update({"torus.group.elements": a[0].order})
        if name == "torus.subgroups":
            return lambda a, kw, out: counts.update({"torus.subgroups.found": len(out)})
        if name == "branch.certified":
            return self._count_certified
        return None

    def _count_certified(self, args, kwargs, res):
        self.counts["branch.certified.classes"] += len(res.classes)
        for desc in res.descriptors:
            kind = desc.kind
            if kind.startswith("inflated-"):
                self.counts["branch.kind.inflated"] += 1
                kind = kind[len("inflated-"):]
            key = kind if kind in DESCRIPTOR_KINDS else "other"
            self.counts[f"branch.kind.{key}"] += 1

    # -- report ----------------------------------------------------------------------

    def metrics(self, scales):
        """The per-layer metrics this round measured (0 where a layer was not used)."""
        self_cal = Counter()
        for (name, segment), raw in self.self_raw.items():
            self_cal[name] += raw * scales[segment]
        out = {}
        for name, unit in PER_LAYER:
            if name.startswith("algebra.") != self.count_algebra:
                continue
            if unit == "s":
                out[name] = self_cal[name[: -len(".self_s")]]
            else:
                out[name] = self.counts[name]
        return out
