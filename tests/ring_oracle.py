"""Slow reference evaluation of ring expressions, one Fraction leaf at a time.

This is the evaluation the integer lattice in ``ring`` replaced.  Each leaf
is built in Fractions from the construction's definition
(``clipped_translate``, on ``descent_oracle.brute_stage_intervals``; it
nests the product's slab tree itself, with no kernel call), the expression
is folded with ``BoxUnion`` operations, and measures add one box volume at
a time.
``generate_rn`` keys every candidate by ``approx_set`` of the whole
candidate tree, so each key rebuilds every leaf of a tree whose size
doubles per layer, and nothing reuses a parent's set.
``split_identity_check`` clips by both sides of the cut it is given
(axis, threshold, above) and measures each clipped set the same way.  None
of it touches ``StageLattice``, the schedule's length table or its lower
ends, so the differential tests compare the lattice against code that
shares none of it; kept only as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from fatcantor import Box, BoxUnion, CantorSchedule, Diff, Union
from fatcantor.errors import BudgetError, DimensionMismatchError, PreconditionError
from fatcantor.geometry import _POINT
from fatcantor.rationals import as_fraction, is_finite
from fatcantor.cantor import DEFAULT_BOX_CAP, check_stage
from fatcantor.ring import (
    DEFAULT_RN_CAP,
    DEFAULT_STAGE_CAP,
    MAX_RN_LAYER,
    REFERENCE_STAGE,
    Gen,
    MeasureBounds,
    RingExpr,
    SplitReport,
    clip_to_box,
    expr_dim,
    has_diff,
    leaf_count,
    simplify,
)

from descent_oracle import brute_stage_intervals


def clipped_translate(s: CantorSchedule, n: int, t: Sequence[object], clip: Box) -> BoxUnion:
    """``(A_n + t) ∩ clip``: the stage intervals from the definition
    (``descent_oracle.brute_stage_intervals``), each axis shifted and
    clipped in Fractions."""
    if len(t) != s.d or clip.dim != s.d:
        raise DimensionMismatchError(
            f"translation of length {len(t)}, clip of dimension {clip.dim},"
            f" schedule dimension {s.d}"
        )
    check_stage(n)
    if 1 << (n * s.d) > DEFAULT_BOX_CAP:
        raise BudgetError(
            f"stage {n} in dimension {s.d} needs 2^{n * s.d} boxes, above the cap of"
            f" {DEFAULT_BOX_CAP}; largest feasible stage is"
            f" {(DEFAULT_BOX_CAP.bit_length() - 1) // s.d}"
        )
    if clip.is_empty:
        return BoxUnion.empty(s.d)
    stage = brute_stage_intervals(s.c, s.rho, n)
    axes: list[list[tuple[Fraction, Fraction]]] = []
    for shift, lo_clip, hi_clip in zip(t, clip.lo, clip.hi):
        shift = as_fraction(shift)
        axis: list[tuple[Fraction, Fraction]] = []
        for lo, hi in stage:
            lo, hi = lo + shift, hi + shift
            if is_finite(hi_clip):
                if lo >= hi_clip:
                    break
                hi = min(hi, hi_clip)
            if is_finite(lo_clip):
                if hi <= lo_clip:
                    continue
                lo = max(lo, lo_clip)
            axis.append((lo, hi))
        if not axis:
            return BoxUnion.empty(s.d)
        axes.append(axis)
    # The product of canonical interval lists is canonical as it stands.
    tree = _POINT
    for axis in reversed(axes):
        tree = tuple((lo, hi, tree) for lo, hi in axis)
    return BoxUnion(s.d, tree)


def approx_set(e: "RingExpr", s: CantorSchedule, n: int) -> BoxUnion:
    if expr_dim(e) != s.d:
        raise DimensionMismatchError(f"expression dimension {expr_dim(e)} vs schedule {s.d}")

    def run(node: "RingExpr") -> BoxUnion:
        if isinstance(node, Gen):
            return clipped_translate(s, n, node.translation, node.clip)
        left = run(node.left)
        right = run(node.right)
        if isinstance(node, Union):
            return left.union(right)
        if isinstance(node, Diff):
            return left.subtract(right)
        return left.intersect(right)

    return run(e)


def measure(u: BoxUnion) -> Fraction:
    total = Fraction(0)
    for b in u.boxes:
        total += b.volume()
    return total


def measure_bounds(e: "RingExpr", s: CantorSchedule, n: int) -> MeasureBounds:
    simplified = simplify(e)
    if simplified is None:
        return MeasureBounds(Fraction(0), Fraction(0), stage=n, leaf_count=0)
    m = measure(approx_set(simplified, s, n))
    L = leaf_count(simplified)
    budget = L * s.stage_defect(n)
    lower = max(Fraction(0), m - budget)
    upper = m if not has_diff(simplified) else m + budget
    return MeasureBounds(lower, upper, stage=n, leaf_count=L)


def premeasure(
    e: "RingExpr", s: CantorSchedule, tol: Fraction, *, stage_cap: int = DEFAULT_STAGE_CAP
) -> MeasureBounds:
    tol = as_fraction(tol)
    if tol <= 0:
        raise PreconditionError(f"tolerance must be positive, got {tol}")
    best: MeasureBounds | None = None
    for n in range(1, stage_cap + 1):
        try:
            bounds = measure_bounds(e, s, n)
        except BudgetError as exc:
            raise BudgetError(
                f"box cap hit at stage {n} before reaching tolerance {tol}", partial=best
            ) from exc
        if best is None or bounds.width < best.width:
            best = bounds
        if bounds.width <= tol:
            return bounds
    raise BudgetError(
        f"stage cap {stage_cap} reached with width {best.width if best else '?'} > {tol}",
        partial=best,
    )


def split_identity_check(
    e: "RingExpr", s: CantorSchedule, n: int, *, axis: int, threshold: object, above: bool
) -> SplitReport:
    whole = measure(approx_set(e, s, n))
    inside = measure(approx_set(clip_to_box(e, Box.half_space(s.d, axis, threshold, above=above)), s, n))
    outside = measure(approx_set(clip_to_box(e, Box.half_space(s.d, axis, threshold, above=not above)), s, n))
    return SplitReport(
        whole=whole, inside=inside, outside=outside, stage=n, equal=whole == inside + outside
    )


def generate_rn(
    pool: Sequence["RingExpr"],
    n: int,
    s: CantorSchedule,
    *,
    reference_stage: int = REFERENCE_STAGE,
    max_size: int = DEFAULT_RN_CAP,
) -> list["RingExpr"]:
    """n-th layer of the ring tower: R_1 = pool, R_{k+1} = {A ∪ B, A \\ B}.

    Elements are deduplicated by their canonical stage evaluation at
    ``reference_stage`` (first occurrence wins, so the order is the
    deterministic enumeration order).  Two semantically distinct sets that
    agree at the reference stage would merge; callers who care can raise
    the reference stage.
    """
    if not 1 <= n <= MAX_RN_LAYER:
        raise PreconditionError(f"ring layers run from 1 to {MAX_RN_LAYER}, got {n}")
    if not pool:
        raise PreconditionError("empty generator pool")

    def key(expr: "RingExpr") -> BoxUnion:
        return approx_set(expr, s, reference_stage)

    current: list["RingExpr"] = []
    seen: dict[BoxUnion, int] = {}
    for e in pool:
        k = key(e)
        if k not in seen:
            seen[k] = len(current)
            current.append(e)
    for _ in range(n - 1):
        nxt: list["RingExpr"] = []
        keys: dict[BoxUnion, int] = {}
        for a in current:
            for b in current:
                for candidate in (Union(a, b), Diff(a, b)):
                    k = key(candidate)
                    if k not in keys:
                        keys[k] = len(nxt)
                        nxt.append(candidate)
                        if len(nxt) > max_size:
                            raise BudgetError(
                                f"ring layer exceeded {max_size} elements", partial=current
                            )
        current = nxt
        seen = keys
    return current
