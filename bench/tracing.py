"""Per-layer spans and counts, recorded by wrapping fatcantor from outside.

Each module under ``src/fatcantor`` is a layer.  ``Tracer.install`` wraps
the layer's public functions (and the named methods of ``BoxUnion``,
``CantorSchedule`` and ``ExtendedRational``) in every module that binds
them, including ``from .x import f`` bindings.  ``Box`` methods and
per-number helpers (``rationals``, ``frac_to_json`` and the like) stay
unwrapped: they run per coordinate, so a wrapper would dominate them, and
their time counts as self time of the caller.

A wrapped call records a span (id, parent, request, layer, name, start,
end) and, for some functions, work counts taken from its arguments and
result.  Spans are kept in memory and folded into per-layer totals when
the next request starts; self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

import fatcantor
from fatcantor import cantor, cli, cover, geometry, hausdorff, packing, quadratic, ring, serialize

LAYERS = ("cli", "serialize", "ring", "geometry", "cantor", "cover", "packing", "hausdorff", "quadratic")
MODULE_LAYERS = {
    "serialize": serialize,
    "ring": ring,
    "geometry": geometry,
    "cantor": cantor,
    "cover": cover,
    "packing": packing,
    "hausdorff": hausdorff,
}
PER_NUMBER = {"frac_to_json", "frac_from_json", "opt_frac_to_json", "quad_to_json", "quad_from_json", "middle_half"}
METHODS = (
    ("geometry", geometry.BoxUnion, ("from_boxes", "empty", "single", "union", "intersect", "intersect_box",
                                     "subtract", "translate", "measure", "contains_point", "contains_union",
                                     "bounding_box")),
    ("cantor", cantor.CantorSchedule, ("stage_intervals_1d", "stage_approx", "_descend_overlapping",
                                       "first_free_subinterval", "interval_meets_stage_translate")),
    ("quadratic", quadratic.ExtendedRational, ("from_rational", "sqrt", "sqrt_fraction", "as_rational", "sign",
                                               "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                                               "__rmul__", "__pow__", "divide_by_rational", "divide_by_sqrt",
                                               "__eq__", "__lt__")),
)


def _boolean_op(c: Counter, args: tuple, result, *, pairwise: bool) -> None:
    a, b = args[0], args[1]
    c["geometry.ops"] += 1
    c["geometry.boxes_in"] += len(a.boxes) + len(b.boxes)
    c["geometry.boxes_out"] += len(result.boxes)
    if pairwise:
        c["geometry.pairs"] += len(a.boxes) * len(b.boxes)
        c["pair_out"] += len(result.boxes)


def _intersect_box(c: Counter, args: tuple, result) -> None:
    c["geometry.ops"] += 1
    c["geometry.boxes_in"] += len(args[0].boxes) + 1
    c["geometry.boxes_out"] += len(result.boxes)


def _find_gap(c: Counter, args: tuple, result) -> None:
    c["cantor.gap_calls"] += 1
    if isinstance(result, cantor.GapCertificate):
        c["gap_found"] += 1
        c["cantor.gap_stage_sum"] += result.stage


def _find_uncovered_box(c: Counter, args: tuple, result) -> None:
    c["cover.searches"] += 1
    if isinstance(result, cover.UncoveredWitness):
        c["cover.witness_leaves"] += len(result.certificates)


COUNT_HOOKS = {
    "union": functools.partial(_boolean_op, pairwise=False),
    "intersect": functools.partial(_boolean_op, pairwise=True),
    "subtract": functools.partial(_boolean_op, pairwise=True),
    "intersect_box": _intersect_box,
    "stage_approx": lambda c, args, r: c.update({"cantor.boxes_materialized": len(r.boxes)}),
    "_descend_overlapping": lambda c, args, r: c.update({"cantor.descents": 1}),
    "find_gap": _find_gap,
    "find_uncovered_box": _find_uncovered_box,
    "outer_upper": lambda c, args, r: c.update({"cover.searches": 1}),
    "merge_dyadic": lambda c, args, r: c.update({"packing.merge_steps": len(r[1])}),
    "pack_cover": lambda c, args, r: c.update({"packing.placements": len(r.placements)}),
    "solve_level": lambda c, args, r: c.update({"hausdorff.bisection_steps": r.iterations}),
}

# Inclusive time of these spans, by (layer, name), feeds the *_ms metrics.
INCLUSIVE = {
    "geometry.canonical_ms": {("geometry", "from_boxes")},
    "geometry.union_ms": {("geometry", "union")},
    "geometry.intersect_ms": {("geometry", "intersect"), ("geometry", "intersect_box")},
    "geometry.subtract_ms": {("geometry", "subtract")},
    "cover.validator_ms": {("cover", "uncovered_witness_valid"), ("cover", "verify_cover")},
    "packing.verify_ms": {("packing", "layout_covers"), ("packing", "_tiling_covers")},
}
CALL_COUNTS = {
    "ring.approx_set_calls": ("ring", "approx_set"),
    "ring.measure_bounds_calls": ("ring", "measure_bounds"),
    "hausdorff.range_function_calls": ("hausdorff", "range_function"),
}


def _targets() -> list[tuple[str, object, str]]:
    """(layer, owner, attribute) of every wrapped callable."""
    out: list[tuple[str, object, str]] = [("cli", cli, "main"), ("packing", packing, "_tiling_covers")]
    for layer, module in MODULE_LAYERS.items():
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name not in PER_NUMBER
                and not inspect.isgeneratorfunction(fn)
            ):
                out.append((layer, module, name))
    for layer, cls, names in METHODS:
        out.extend((layer, cls, name) for name in names)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, str, int, int]] = []
        self.stack = [0]
        self.next_id = 0
        self.request = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # (request, layer, name) -> [calls, inclusive ns, self ns]
        self.totals: dict[tuple[int, str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self._patched: list[tuple[object, str, object]] = []

    def start_request(self, index: int) -> None:
        self.fold()
        self.request = index

    def fold(self) -> None:
        """Reduce the recorded spans to per-request totals and drop them."""
        child_ns: Counter = Counter()
        for sid, parent, _, _, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        for sid, _, req, layer, name, t0, t1 in self.spans:
            entry = self.totals[(req, layer, name)]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child_ns[sid]
        self.spans.clear()

    def _wrap(self, layer: str, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.next_id += 1
            sid = self.next_id
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.request, layer, name, t0, t1))
            if hook is not None:
                hook(self.counts[self.request], args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [fatcantor, cli, serialize, ring, geometry, cantor, cover, packing, hausdorff, quadratic]
        for layer, owner, name in _targets():
            raw = vars(owner)[name]
            if isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(self._wrap(layer, name, raw.__func__)))
                self._patched.append((owner, name, raw))
                continue
            wrapped = self._wrap(layer, name, raw)
            # Rebind the function wherever a module imported it by name.
            for module in [owner] if inspect.isclass(owner) else modules:
                if vars(module).get(name) is raw:
                    setattr(module, name, wrapped)
                    self._patched.append((module, name, raw))

    def uninstall(self) -> None:
        self.fold()
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched.clear()


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> tuple[dict, dict]:
    """Per-layer metrics of the traced list, and a per-subcommand breakdown.

    ``untraced`` holds the outcomes of the list's first requests run
    without tracing; times are at nominal machine speed (see ``run.py``).
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    inclusive: Counter = Counter()
    kind_self: dict[str, Counter] = defaultdict(Counter)
    for (req, layer, name), (n, incl, own) in tracer.totals.items():
        calls[layer] += n
        calls[(layer, name)] += n
        self_ns[layer] += own
        inclusive[(layer, name)] += incl
        kind_self[traced[req].kind][layer] += own
    counts: Counter = Counter()
    for c in tracer.counts.values():
        counts.update(c)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_ms"] = (_ms(self_ns[layer]), "ms")
    m["cli.requests"] = m.pop("cli.calls")
    m["cli.emit_bytes"] = (sum(o.stdout_bytes for o in traced), "bytes")
    m["geometry.ops"] = m.pop("geometry.calls")
    for metric, names in INCLUSIVE.items():
        m[metric] = (_ms(sum(inclusive[k] for k in names)), "ms")
    for metric, key in CALL_COUNTS.items():
        m[metric] = (calls[key], "count")
    for metric in ("geometry.ops", "geometry.boxes_in", "geometry.boxes_out", "geometry.pairs",
                   "cantor.boxes_materialized", "cantor.descents", "cantor.gap_calls",
                   "cantor.gap_stage_sum", "cover.searches", "cover.witness_leaves",
                   "packing.merge_steps", "packing.placements", "hausdorff.bisection_steps"):
        m[metric] = (counts[metric], "count")
    m["geometry.pair_yield"] = (counts["pair_out"] / counts["geometry.pairs"] if counts["geometry.pairs"] else 0.0, "ratio")
    m["cantor.gap_yield"] = (counts["gap_found"] / counts["cantor.gap_calls"] if counts["cantor.gap_calls"] else 0.0, "ratio")
    same = traced[: len(untraced)]
    m["trace.overhead_ratio"] = (
        sum(o.wall * o.scale for o in same) / sum(o.wall * o.scale for o in untraced),
        "ratio",
    )

    breakdown = {}
    for kind in sorted({o.kind for o in traced}):
        own = kind_self[kind]
        total = sum(own.values()) or 1
        breakdown[kind] = {
            "requests": sum(o.kind == kind for o in traced),
            "p50_ms": round(statistics.median(o.wall * o.scale * 1000 for o in traced if o.kind == kind), 3),
            "self_share": {layer: round(own[layer] / total, 4) for layer in LAYERS if own[layer]},
        }
    return dict(sorted(m.items())), breakdown
