"""Slow reference cover search, one Fraction ``BoxUnion`` per set.

This is the search the lattice walk in ``cover`` replaced.  The target and
every clipped element's positive hull are ``ring_oracle.approx_set`` sets,
each on its own denominators; each examined mask unions its whole subset
again and asks ``contains_union`` of the target, and the masks go in
increasing order.  Nothing here builds a ``StageLattice`` or calls
``cover``'s search, so the differential tests compare the lattice walk
against code that shares none of it.  Kept only as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import ring_oracle

from fatcantor import Box, BoxUnion, CantorSchedule, CoverAttempt, positive_hull
from fatcantor.errors import PreconditionError, UnboundedBoxError
from fatcantor.ring import RingExpr, clip_to_box


def target_union(target: "RingExpr | Box", s: CantorSchedule, stage: int) -> BoxUnion:
    """A bounded box as itself; an expression as its positive hull's stage set."""
    if isinstance(target, Box):
        if not target.is_bounded:
            raise UnboundedBoxError("cover target box must be bounded")
        return BoxUnion.single(target)
    return ring_oracle.approx_set(positive_hull(target), s, stage)


def clipped_pool(target: BoxUnion, pool: Sequence["RingExpr"], clip: bool) -> list["RingExpr"]:
    """With ``clip``, each element clipped to the target's bounding box."""
    bbox = target.bounding_box()
    if clip and bbox is not None:
        return [clip_to_box(e, bbox) for e in pool]
    return list(pool)


def verify_cover(
    target: "RingExpr | Box", elements: Sequence["RingExpr"], s: CantorSchedule, stage: int
) -> bool:
    covered = BoxUnion.empty(s.d)
    for e in elements:
        covered = covered.union(ring_oracle.approx_set(positive_hull(e), s, stage))
    return covered.contains_union(target_union(target, s, stage))


def outer_upper(
    target: "RingExpr | Box",
    pool: Sequence["RingExpr"],
    s: CantorSchedule,
    *,
    stage: int,
    budget: int,
    clip: bool = True,
) -> CoverAttempt:
    """Greedy, then every mask ``1..budget`` in order; a mask replaces the
    best cover only with a strictly smaller total."""
    if not pool:
        raise PreconditionError("empty cover pool")
    target_u = target_union(target, s, stage)
    elements = clipped_pool(target_u, pool, clip)
    hull_sets = [ring_oracle.approx_set(positive_hull(e), s, stage) for e in elements]
    uppers = [ring_oracle.measure_bounds(e, s, stage).upper for e in elements]

    def total(subset: tuple[int, ...]) -> Fraction:
        return sum((uppers[i] for i in subset), Fraction(0))

    def covers(subset: tuple[int, ...]) -> bool:
        covered = BoxUnion.empty(s.d)
        for i in subset:
            covered = covered.union(hull_sets[i])
        return covered.contains_union(target_u)

    best: tuple[Fraction, tuple[int, ...]] | None = None
    remaining = target_u
    chosen: list[int] = []
    available = list(range(len(elements)))
    while not remaining.is_empty and available:
        gains = [(ring_oracle.measure(remaining.intersect(hull_sets[i])), i) for i in available]
        gain, pick = max(gains, key=lambda g: (g[0], -g[1]))
        if gain <= 0:
            break
        chosen.append(pick)
        available.remove(pick)
        remaining = remaining.subtract(hull_sets[pick])
    if remaining.is_empty and chosen:
        subset = tuple(sorted(chosen))
        if covers(subset):
            best = (total(subset), subset)

    p = len(elements)
    for mask in range(1, min(budget, (1 << p) - 1) + 1):
        subset = tuple(i for i in range(p) if mask >> i & 1)
        t = total(subset)
        if (best is None or t < best[0]) and covers(subset):
            best = (t, subset)

    if best is None:
        return CoverAttempt(
            subset=(), stage=stage, total_premeasure_upper=None, verified=False, infinite=True
        )
    return CoverAttempt(
        subset=best[1], stage=stage, total_premeasure_upper=best[0], verified=True, infinite=False
    )
