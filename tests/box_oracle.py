"""Slow reference implementations of the BoxUnion algebra.

These are the algorithms the sweep kernel in ``geometry`` replaced.  The
canonicaliser ``canonical`` is the recursive slab decomposition: cut
along axis 0 at every box endpoint, canonicalise each slab's
cross-section one axis down, and merge adjacent slabs with equal
cross-sections; the slabs it keeps are the slab tree a ``BoxUnion``
holds, built here.  The boolean ops are the pairwise loops over the
operands' ``boxes``: intersect every box of one operand with every box of
the other, or carve each box of the left operand by every box of the
right one, and hand the pieces to ``canonical``.  Nothing here calls the
kernel (``_combine``), ``BoxUnion.from_boxes`` or ``_box_tree``, so the
differential tests compare the kernel against code that shares none of
it.  All of it is quadratic or worse and kept only as an oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from fatcantor import Box, BoxUnion, DimensionMismatchError
from fatcantor.geometry import _POINT
from fatcantor.rationals import Coord, as_fraction

_Raw = tuple[tuple[Coord, ...], tuple[Coord, ...]]


def _canon_rec(raw: list[_Raw], d: int) -> tuple:
    """Canonical slab tree of a union of non-empty d-dim raw boxes."""
    if d == 0:
        return _POINT
    cuts = sorted({lo[0] for lo, _ in raw} | {hi[0] for _, hi in raw})
    slabs: list[tuple[Coord, Coord, tuple]] = []
    for x0, x1 in itertools.pairwise(cuts):
        tails = [(lo[1:], hi[1:]) for lo, hi in raw if lo[0] <= x0 and x1 <= hi[0]]
        if not tails:
            continue
        rest = _canon_rec(tails, d - 1)
        if slabs and slabs[-1][1] == x0 and slabs[-1][2] == rest:
            slabs[-1] = (slabs[-1][0], x1, rest)
        else:
            slabs.append((x0, x1, rest))
    return tuple(slabs)


def canonical(dim: int, boxes: Iterable[Box]) -> BoxUnion:
    """The canonical union of any boxes, by slab decomposition."""
    raw: list[_Raw] = []
    for b in boxes:
        if b.dim != dim:
            raise DimensionMismatchError(f"{b.dim}-dim box in {dim}-dim union")
        if not b.is_empty:
            raw.append((b.lo, b.hi))
    return BoxUnion(dim, _canon_rec(raw, dim))


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


def translate(box: Box, t: Sequence[object]) -> Box:
    """box + t, corner by corner; an unbounded side stays unbounded."""
    shift = [as_fraction(x) for x in t]
    return Box(tuple(a + x for a, x in zip(box.lo, shift)), tuple(b + x for b, x in zip(box.hi, shift)))


def union(a: BoxUnion, b: BoxUnion) -> BoxUnion:
    return canonical(a.dim, a.boxes + b.boxes)


def intersect(a: BoxUnion, b: BoxUnion) -> BoxUnion:
    pieces: list[Box] = []
    for x in a.boxes:
        for y in b.boxes:
            xy = x.intersect(y)
            if xy is not None and not xy.is_empty:
                pieces.append(xy)
    return canonical(a.dim, pieces)


def intersect_box(a: BoxUnion, box: Box) -> BoxUnion:
    pieces: list[Box] = []
    for x in a.boxes:
        xy = x.intersect(box)
        if xy is not None and not xy.is_empty:
            pieces.append(xy)
    return canonical(a.dim, pieces)


def subtract(a: BoxUnion, b: BoxUnion) -> BoxUnion:
    pieces: list[Box] = []
    for x in a.boxes:
        parts = [x]
        for y in b.boxes:
            parts = [q for p in parts for q in box_minus(p, y)]
            if not parts:
                break
        pieces.extend(parts)
    return canonical(a.dim, pieces)
