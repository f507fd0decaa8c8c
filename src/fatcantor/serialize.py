"""Lossless JSON encoding for every structure the CLI emits or reads.

Scalars are strings ("p/q", "inf", "-inf"), never floats, so encode/decode
round-trips are bit-exact.  Decoders validate shapes and raise
``PreconditionError`` on malformed input; they are the same functions the
``--verify`` replay path uses, which keeps "what we print" and "what we can
re-check" structurally identical by construction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .cantor import CantorSchedule, GapCertificate, NeedsDeeperStage
from .cover import (
    CoverAttempt,
    InfiniteCubeReport,
    LeafCertificate,
    SubsetWitnessRow,
    UncoveredWitness,
)
from .errors import PreconditionError
from .geometry import Box, BoxUnion, TileReport
from .hausdorff import (
    ChainChecks,
    CorollaryReport,
    DeltaCover,
    LevelSolution,
)
from .packing import CubeFamily, MergeStep, PackingLayout
from .quadratic import ExtendedRational
from .rationals import coord_from_json, coord_to_json, format_fraction, parse_fraction
from .ring import Diff, Gen, Inter, MeasureBounds, RingExpr, SplitReport, Union


def _expect(doc: Any, keys: Sequence[str], what: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise PreconditionError(f"{what}: expected an object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise PreconditionError(f"{what}: missing keys {missing}")
    return doc


# -- scalars ----------------------------------------------------------------


def _too_long() -> PreconditionError:
    # Python refuses to print an integer longer than this limit.
    return PreconditionError(
        f"result too large to print: a number in it has more than"
        f" {sys.get_int_max_str_digits()} digits"
    )


def frac_to_json(value: Fraction) -> str:
    try:
        return format_fraction(value)
    except ValueError as exc:
        raise _too_long() from exc


def int_to_json(value: int) -> int:
    """An unbounded integer field, checked to print like ``frac_to_json``."""
    try:
        str(value)
    except ValueError as exc:
        raise _too_long() from exc
    return value


def frac_from_json(text: Any) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise PreconditionError(f"expected a rational string, got {text!r}")
    return parse_fraction(str(text))


def opt_frac_to_json(value: "Fraction | None") -> "str | None":
    return None if value is None else frac_to_json(value)


def quad_to_json(value: ExtendedRational) -> dict:
    return {"a": frac_to_json(value.a), "b": frac_to_json(value.b), "sqrt": value.n}


def quad_from_json(doc: Any) -> ExtendedRational:
    m = _expect(doc, ("a", "b", "sqrt"), "quadratic value")
    return ExtendedRational(frac_from_json(m["a"]), frac_from_json(m["b"]), int(m["sqrt"]))


# -- geometry ---------------------------------------------------------------


def box_to_json(box: Box) -> dict:
    return {
        "lo": [coord_to_json(v) for v in box.lo],
        "hi": [coord_to_json(v) for v in box.hi],
    }


def box_from_json(doc: Any) -> Box:
    m = _expect(doc, ("lo", "hi"), "box")
    lo = tuple(coord_from_json(str(v)) for v in m["lo"])
    hi = tuple(coord_from_json(str(v)) for v in m["hi"])
    return Box(lo, hi)


def box_union_to_json(u: BoxUnion) -> dict:
    return {"dim": u.dim, "boxes": [box_to_json(b) for b in u.boxes]}


def box_union_from_json(doc: Any) -> BoxUnion:
    m = _expect(doc, ("dim", "boxes"), "box union")
    return BoxUnion.from_boxes(int(m["dim"]), [box_from_json(b) for b in m["boxes"]])


def schedule_to_json(s: CantorSchedule) -> dict:
    return {"d": s.d, "c": frac_to_json(s.c), "rho": frac_to_json(s.rho)}


def schedule_from_json(doc: Any) -> CantorSchedule:
    m = _expect(doc, ("d", "c", "rho"), "schedule")
    return CantorSchedule(int(m["d"]), frac_from_json(m["c"]), frac_from_json(m["rho"]))


# -- ring expressions ---------------------------------------------------------

_BINARY_OPS = {"union": Union, "diff": Diff, "inter": Inter}


def expr_to_json(e: "RingExpr") -> dict:
    """One-key objects: {"gen": {...}} or {"union"|"diff"|"inter": [l, r]}."""
    if isinstance(e, Gen):
        return {
            "gen": {
                "x": [frac_to_json(v) for v in e.translation],
                "clip": box_to_json(e.clip),
            }
        }
    name = {Union: "union", Diff: "diff", Inter: "inter"}[type(e)]
    return {name: [expr_to_json(e.left), expr_to_json(e.right)]}


def expr_from_json(doc: Any) -> "RingExpr":
    if not isinstance(doc, Mapping) or len(doc) != 1:
        raise PreconditionError(
            "expression must be an object with exactly one of the keys"
            " 'gen', 'union', 'diff', 'inter'"
        )
    (op, body), = doc.items()
    if op == "gen":
        g = _expect(body, ("x", "clip"), "generator expression")
        return Gen(
            tuple(frac_from_json(v) for v in g["x"]),
            box_from_json(g["clip"]),
        )
    if op in _BINARY_OPS:
        if not isinstance(body, Sequence) or isinstance(body, (str, bytes)) or len(body) != 2:
            raise PreconditionError(f"{op!r} expression needs a [left, right] pair")
        return _BINARY_OPS[op](expr_from_json(body[0]), expr_from_json(body[1]))
    raise PreconditionError(f"unknown expression op {op!r}")


def exprs_from_json(doc: Any) -> list["RingExpr"]:
    """A pool file: either one expression object or a list of them."""
    if isinstance(doc, Mapping):
        return [expr_from_json(doc)]
    if isinstance(doc, Sequence) and not isinstance(doc, (str, bytes)):
        return [expr_from_json(item) for item in doc]
    raise PreconditionError("expected an expression object or a list of them")


# -- reports ------------------------------------------------------------------


def measure_bounds_to_json(b: MeasureBounds) -> dict:
    return {
        "lower": frac_to_json(b.lower),
        "upper": frac_to_json(b.upper),
        "stage": b.stage,
        "leaf_count": b.leaf_count,
    }


def split_report_to_json(r: SplitReport) -> dict:
    return {
        "whole": frac_to_json(r.whole),
        "inside": frac_to_json(r.inside),
        "outside": frac_to_json(r.outside),
        "stage": r.stage,
        "equal": r.equal,
    }


def gap_certificate_to_json(c: GapCertificate) -> dict:
    return {"stage": c.stage, "box": box_to_json(c.box)}


def gap_certificate_from_json(doc: Any) -> GapCertificate:
    m = _expect(doc, ("stage", "box"), "gap certificate")
    return GapCertificate(stage=int(m["stage"]), box=box_from_json(m["box"]))


def needs_deeper_to_json(n: NeedsDeeperStage) -> dict:
    return {
        "deepest_stage": n.deepest_stage,
        "element_index": n.element_index,
        "leaf_index": n.leaf_index,
    }


def leaf_certificate_to_json(c: LeafCertificate) -> dict:
    return {
        "element_index": c.element_index,
        "leaf_index": c.leaf_index,
        "translation": [frac_to_json(v) for v in c.translation],
        "certificate": gap_certificate_to_json(c.certificate),
    }


def leaf_certificate_from_json(doc: Any) -> LeafCertificate:
    m = _expect(
        doc, ("element_index", "leaf_index", "translation", "certificate"), "leaf certificate"
    )
    return LeafCertificate(
        element_index=int(m["element_index"]),
        leaf_index=int(m["leaf_index"]),
        translation=tuple(frac_from_json(v) for v in m["translation"]),
        certificate=gap_certificate_from_json(m["certificate"]),
    )


def witness_to_json(w: UncoveredWitness) -> dict:
    return {
        "box": box_to_json(w.box),
        "stage": w.stage,
        "certificates": [leaf_certificate_to_json(c) for c in w.certificates],
    }


def witness_from_json(doc: Any) -> UncoveredWitness:
    m = _expect(doc, ("box", "stage", "certificates"), "uncovered witness")
    return UncoveredWitness(
        box=box_from_json(m["box"]),
        stage=int(m["stage"]),
        certificates=tuple(leaf_certificate_from_json(c) for c in m["certificates"]),
    )


def cover_attempt_to_json(a: CoverAttempt) -> dict:
    return {
        "subset": list(a.subset),
        "stage": a.stage,
        "total_premeasure_upper": opt_frac_to_json(a.total_premeasure_upper),
        "verified": a.verified,
        "infinite": a.infinite,
    }


def subset_row_to_json(r: SubsetWitnessRow) -> dict:
    return {
        "subset": list(r.subset),
        "witness": None if r.witness is None else witness_to_json(r.witness),
        "inconclusive_stage": r.inconclusive_stage,
        "verified": r.verified,
    }


def infinite_cube_to_json(r: InfiniteCubeReport) -> dict:
    return {
        "pool": [expr_to_json(e) for e in r.pool],
        "stage_cap": r.stage_cap,
        "rows": [subset_row_to_json(row) for row in r.rows],
        "all_witnessed": r.all_witnessed,
    }


# -- packing ------------------------------------------------------------------


def cube_family_to_json(f: CubeFamily) -> dict:
    return {"dim": f.dim, "sides": [frac_to_json(v) for v in f.sides]}


def cube_family_from_json(doc: Any) -> CubeFamily:
    m = _expect(doc, ("dim", "sides"), "cube family")
    return CubeFamily(int(m["dim"]), tuple(frac_from_json(v) for v in m["sides"]))


def merge_step_to_json(s: MergeStep) -> dict:
    return {
        "level": s.level,
        "constituents": list(s.constituents),
        "result": s.result,
        "offsets": [[frac_to_json(v) for v in off] for off in s.offsets],
    }


def merge_step_from_json(doc: Any) -> MergeStep:
    m = _expect(doc, ("level", "constituents", "result", "offsets"), "merge step")
    return MergeStep(
        level=int(m["level"]),
        constituents=tuple(int(v) for v in m["constituents"]),
        result=int(m["result"]),
        offsets=tuple(tuple(frac_from_json(v) for v in off) for off in m["offsets"]),
    )


def layout_to_json(layout: PackingLayout) -> dict:
    return {
        "placements": [
            {"index": idx, "translate": [frac_to_json(v) for v in pos]}
            for idx, pos in layout.placements
        ],
        "target": box_to_json(layout.target),
        "merge_tree": [merge_step_to_json(s) for s in layout.merge_tree],
    }


def layout_from_json(doc: Any) -> PackingLayout:
    m = _expect(doc, ("placements", "target", "merge_tree"), "packing layout")
    placements = []
    for p in m["placements"]:
        pm = _expect(p, ("index", "translate"), "placement")
        placements.append(
            (int(pm["index"]), tuple(frac_from_json(v) for v in pm["translate"]))
        )
    return PackingLayout(
        placements=tuple(placements),
        target=box_from_json(m["target"]),
        merge_tree=tuple(merge_step_from_json(s) for s in m["merge_tree"]),
    )


# -- gauges, pipelines, levels ------------------------------------------------


def delta_cover_to_json(c: DeltaCover) -> dict:
    return {
        "stage": c.stage,
        "delta": frac_to_json(c.delta),
        "count": int_to_json(c.count),
        "side": frac_to_json(c.side),
        "diam_squared": frac_to_json(c.diam_squared),
        "value": quad_to_json(c.value),
    }


def chain_checks_to_json(c: ChainChecks) -> dict:
    return {
        "sum_exceeds_half_a": c.sum_exceeds_half_a,
        "diam_preserved": c.diam_preserved,
        "alpha_consistent": c.alpha_consistent,
        "covers_target": c.covers_target,
        "gauge_dominates_covered_volume": c.gauge_dominates_covered_volume,
        "cube_constant": c.cube_constant,
    }


def corollary_to_json(r: CorollaryReport) -> dict:
    return {
        "d": r.d,
        "a": frac_to_json(r.a),
        "delta": frac_to_json(r.delta),
        "cover": delta_cover_to_json(r.cover),
        "alpha": frac_to_json(r.alpha),
        "alpha_exact": r.alpha_exact,
        "kept": r.kept,
        "family": cube_family_to_json(r.family),
        "layout": layout_to_json(r.layout),
        "covered_cube": box_to_json(r.covered_cube),
        "verified": r.verified,
        "checks": chain_checks_to_json(r.checks),
    }


def level_solution_to_json(s: LevelSolution) -> dict:
    return {
        "target": frac_to_json(s.target),
        "point": frac_to_json(s.point),
        "lo": frac_to_json(s.lo),
        "hi": frac_to_json(s.hi),
        "bracket": measure_bounds_to_json(s.bracket),
        "iterations": s.iterations,
        "status": s.status,
    }


def tile_report_to_json(r: TileReport) -> dict:
    return {
        "base": box_to_json(r.base),
        "q": [frac_to_json(v) for v in r.q],
        "scaled_box": box_to_json(r.scaled_box),
        "refinement": box_to_json(r.refinement),
        "counts_per_axis": list(r.counts_per_axis),
        "count": r.count,
        "scaled_volume": frac_to_json(r.scaled_volume),
        "tiles_volume": frac_to_json(r.tiles_volume),
        "equal": r.equal,
        "tiling_verified": r.tiling_verified,
    }
