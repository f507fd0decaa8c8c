"""Slow reference implementations of the BoxUnion boolean operations.

These are the pairwise loops the sweep kernel in ``geometry`` replaced:
intersect every box of one operand with every box of the other, or carve
each box of the left operand by every box of the right one, and hand the
pieces to the canonicaliser.  They are quadratic and kept only as an
oracle for differential tests.
"""

from __future__ import annotations

from fatcantor import Box, BoxUnion


def box_minus(a: Box, b: Box) -> list[Box]:
    """a \\ b as disjoint half-open boxes (possibly just [a])."""
    overlap = a.intersect(b)
    if overlap is None or overlap.is_empty:
        return [] if a.is_empty else [a]
    pieces: list[Box] = []
    lo = list(a.lo)
    hi = list(a.hi)
    for i in range(a.dim):
        if lo[i] < overlap.lo[i]:
            piece_hi = list(hi)
            piece_hi[i] = overlap.lo[i]
            pieces.append(Box(tuple(lo), tuple(piece_hi)))
        if overlap.hi[i] < hi[i]:
            piece_lo = list(lo)
            piece_lo[i] = overlap.hi[i]
            pieces.append(Box(tuple(piece_lo), tuple(hi)))
        lo[i] = overlap.lo[i]
        hi[i] = overlap.hi[i]
    return [p for p in pieces if not p.is_empty]


def union(a: BoxUnion, b: BoxUnion) -> BoxUnion:
    return BoxUnion.from_boxes(a.dim, a.boxes + b.boxes)


def intersect(a: BoxUnion, b: BoxUnion) -> BoxUnion:
    pieces: list[Box] = []
    for x in a.boxes:
        for y in b.boxes:
            xy = x.intersect(y)
            if xy is not None and not xy.is_empty:
                pieces.append(xy)
    return BoxUnion.from_boxes(a.dim, pieces)


def intersect_box(a: BoxUnion, box: Box) -> BoxUnion:
    pieces: list[Box] = []
    for x in a.boxes:
        xy = x.intersect(box)
        if xy is not None and not xy.is_empty:
            pieces.append(xy)
    return BoxUnion.from_boxes(a.dim, pieces)


def subtract(a: BoxUnion, b: BoxUnion) -> BoxUnion:
    pieces: list[Box] = []
    for x in a.boxes:
        parts = [x]
        for y in b.boxes:
            parts = [q for p in parts for q in box_minus(p, y)]
            if not parts:
                break
        pieces.extend(parts)
    return BoxUnion.from_boxes(a.dim, pieces)
