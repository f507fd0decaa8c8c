"""Exact axis-aligned box algebra with canonical disjoint unions.

The carrier of every set computation in this package is the half-open box
``[lo_1, hi_1) x ... x [lo_d, hi_d)``.  Half-open boxes tile exactly (no
double-counted faces), so finite unions admit a unique canonical form, the
slab tree: a tuple of the axis-0 slabs ``(x0, x1, section)`` where the
set's cross-section changes, each ``section`` the tree of its cross-section
one axis down; ``()`` is empty and ``_POINT`` is the nonempty 0-dim set.
The slab boundaries are intrinsic to the set, so equal sets produce
structurally equal trees and ``==`` is set equality.

All of the algebra runs through one kernel, ``_combine``, which takes and
returns trees.  It walks the slabs of two trees with two pointers, cutting
at every slab boundary of either side; a piece covered by one operand only
is kept or dropped by the operation's truth table, and a piece covered by
both recurses on the two sections.  Adjacent pieces with equal results
merge, so the output is canonical without a further pass.  A run of slabs
that one operand holds alone, up to the other's next slab, is found once a
second slab in a row ends short of that slab, by one bisect on the upper
ends, and copied as one slice: its slabs are canonical already, so only
the pieces on either side of it need the merge check.  At dimension 0 the
section is the point, so the same sweep is the 1-D interval merge.  The cost is linear in the points where the operands
interleave, plus one bisect and one slice per run, instead of the product
of the box counts.  ``BoxUnion`` holds the tree itself: each operation is one
kernel call on its operands' trees, ``from_boxes`` unions single-box trees
(``_box_tree``; a nonempty box is already canonical) with ``_union_all``,
and a translation maps the slab ends (``_map_ends``).  Its ``boxes``,
ordered by lower corner, are a view flattened (``_corners``) only when a
caller reads them.  The slab-decomposition canonicaliser this replaced is
kept only as the test oracle (``tests/box_oracle.py``).

``_union_all`` is the one union of many trees.  At d = 1 the slabs are
intervals, so it sorts them all once by lower end and merges them in one
pass; in more axes it folds the trees pairwise through the kernel, in a
balanced order.  Besides ``from_boxes``, ``packing.layout_covers`` unions
its placements' trees with it and ``tile_check`` each axis's run of
intervals; neither builds a ``Box`` or a ``BoxUnion`` per piece.

The kernel recurses once per axis and tree equality twice (a slab tuple
inside the axis's tuple), so the commands refuse box algebra in more than
``MAX_KERNEL_DIM`` axes before any work, inside Python's default recursion
limit of 1000.

Coordinates are rationals or the explicit infinity markers from
``rationals`` (so the same Box type expresses half-space clips); volume
and measure reject unbounded boxes.  No floating point anywhere.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, DimensionMismatchError, PreconditionError, UnboundedBoxError
from .rationals import NEG_INF, POS_INF, Coord, as_fraction, format_fraction, is_finite, printable

# Most intervals ``tile_check`` unions: ``sum(p_i)`` over the axes of ``q``.
DEFAULT_TILE_CAP = 1 << 16
# Most axes the commands admit in box algebra: tree equality recurses
# through 2*256 nested tuples, which with the callers' frames stays below
# the default recursion limit.
MAX_KERNEL_DIM = 256


def check_kernel_dim(d: int) -> int:
    """Refuse box algebra in more than ``MAX_KERNEL_DIM`` axes before any work; return d."""
    if d > MAX_KERNEL_DIM:
        raise PreconditionError(f"box algebra takes at most {MAX_KERNEL_DIM} axes, got {d}")
    return d


def _coerce_coord(value: object) -> Coord:
    if value is POS_INF or value is NEG_INF:
        return value  # type: ignore[return-value]
    return as_fraction(value)


@dataclass(frozen=True)
class Box:
    """A half-open box; sides may be infinite.

    ``lo_i <= hi_i`` always holds; the box is empty as soon as some
    ``lo_i == hi_i``.  Topological certificates elsewhere reinterpret a Box
    as its open interior where documented; the algebra here is half-open.
    """

    lo: tuple[Coord, ...]
    hi: tuple[Coord, ...]

    def __post_init__(self) -> None:
        lo = tuple(_coerce_coord(v) for v in self.lo)
        hi = tuple(_coerce_coord(v) for v in self.hi)
        if len(lo) != len(hi):
            raise DimensionMismatchError(f"corner dimensions differ: {len(lo)} vs {len(hi)}")
        if not lo:
            raise DimensionMismatchError("a box needs at least one axis")
        for a, b in zip(lo, hi):
            if a > b:
                raise PreconditionError(f"box side inverted: lo={printable(a)} > hi={printable(b)}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def interval(lo: object, hi: object) -> "Box":
        return Box((_coerce_coord(lo),), (_coerce_coord(hi),))

    @staticmethod
    def cube(corner: Sequence[object], side: object) -> "Box":
        lo = tuple(_coerce_coord(v) for v in corner)
        s = as_fraction(side)
        return Box(lo, tuple(v + s for v in lo))

    @staticmethod
    def unit_cube(dim: int) -> "Box":
        return Box.cube((Fraction(0),) * dim, Fraction(1))

    @staticmethod
    def empty(dim: int) -> "Box":
        zero = Fraction(0)
        return Box((zero,) * dim, (zero,) * dim)

    @staticmethod
    def whole_space(dim: int) -> "Box":
        return Box((NEG_INF,) * dim, (POS_INF,) * dim)

    @staticmethod
    def half_space(dim: int, axis: int, threshold: object, *, above: bool) -> "Box":
        """{x : x_axis >= threshold} when ``above`` else {x : x_axis < threshold}."""
        if not 0 <= axis < dim:
            raise PreconditionError(f"axis {axis} out of range for dimension {dim}")
        t = as_fraction(threshold)
        lo: list[Coord] = [NEG_INF] * dim
        hi: list[Coord] = [POS_INF] * dim
        if above:
            lo[axis] = t
        else:
            hi[axis] = t
        return Box(tuple(lo), tuple(hi))

    # -- queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return any(a == b for a, b in zip(self.lo, self.hi))

    @property
    def is_bounded(self) -> bool:
        return all(is_finite(v) for v in self.lo + self.hi)

    def sides(self) -> tuple[Fraction, ...]:
        if not self.is_bounded:
            raise UnboundedBoxError(f"side lengths of unbounded box {self}")
        return tuple(b - a for a, b in zip(self.lo, self.hi))  # type: ignore[operator]

    def volume(self) -> Fraction:
        if not self.is_bounded:
            raise UnboundedBoxError(f"volume of unbounded box {self}")
        return prod(self.sides(), start=Fraction(1))

    def intersect(self, other: "Box") -> "Box | None":
        """Exact intersection; ``None`` when the result is empty."""
        if other.dim != self.dim:
            raise DimensionMismatchError(f"intersect {self.dim}-dim with {other.dim}-dim box")
        lo = tuple(a if a >= c else c for a, c in zip(self.lo, other.lo))
        hi = tuple(b if b <= d else d for b, d in zip(self.hi, other.hi))
        for a, b in zip(lo, hi):
            if a >= b:
                return None
        return Box(lo, hi)

    def contains_point(self, x: Sequence[object]) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point of length {len(x)} in dimension {self.dim}")
        pt = tuple(as_fraction(v) for v in x)
        return all(a <= v and v < b for a, v, b in zip(self.lo, pt, self.hi))

    def contains_box(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError(f"contain {other.dim}-dim box in {self.dim}-dim box")
        if other.is_empty:
            return True
        return all(a <= c for a, c in zip(self.lo, other.lo)) and all(
            d <= b for b, d in zip(self.hi, other.hi)
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"[{a}, {b})" for a, b in zip(self.lo, self.hi))
        return f"Box({parts})"


_new_box = object.__new__


def _trusted_box(lo: tuple[Coord, ...], hi: tuple[Coord, ...]) -> Box:
    """A Box without ``__post_init__``: for coordinates taken from valid boxes."""
    box = _new_box(Box)
    box.__dict__.update(lo=lo, hi=hi)
    return box


# A boolean op is its truth table on (only in a, only in b, in both).
_Op = tuple[bool, bool, bool]
_UNION: _Op = (True, True, True)
_INTERSECT: _Op = (False, False, True)
_SUBTRACT: _Op = (True, False, False)

_Tree = tuple  # a slab tree: see the module docstring
_POINT: _Tree = ("point",)
_lower = operator.itemgetter(0)  # a slab's lower end
_upper = operator.itemgetter(1)  # a slab's upper end


def _combine(op: _Op, a: _Tree, b: _Tree, d: int) -> _Tree:
    """The canonical tree of ``a op b`` for canonical trees a, b.

    One two-pointer sweep over the axis-0 slabs of both operands; pieces
    covered by both recurse on their sections in dimension d - 1, except on
    the last axis, where both sections are the point.  A run of slabs one
    operand holds alone is stepped over, from its second slab, by one bisect
    and copied, when the op keeps it, as one slice, so the cost is linear in
    the points where the operands interleave, plus one bisect and one slice
    per run.  Only coordinate comparisons are used, never hashing.
    """
    only_a, only_b, both = op
    if d == 0:
        # Both operands hold the point.
        return a if both else ()
    if not a:
        return b if only_b else ()
    if not b:
        return a if only_a else ()

    out: list[tuple[Coord, Coord, _Tree]] = []

    def emit(x0: Coord, x1: Coord, section: _Tree) -> None:
        if not section:
            return
        if out:
            p0, p1, prev = out[-1]
            if (p1 is x0 or p1 == x0) and (prev is section or prev == section):
                out[-1] = (p0, x1, prev)
                return
        out.append((x0, x1, section))

    na, nb = len(a), len(b)
    i = j = 0
    a0, a1, ta = a[0]
    b0, b1, tb = b[0]
    # Invariant: [a0, a1) is the unswept rest of slab i of a, [b0, b1) of b.
    # gap_a is b0 as it stood when a's last slab ended short of it: b0 only
    # grows, so while it is still that object nothing of b was swept since,
    # and a second slab of a in a row ends short (gap_b likewise).
    gap_a = gap_b = None
    while True:
        if a0 is not b0 and a0 < b0:
            # a alone up to b's next slab or the end of its own.
            if b0 < a1:
                if only_a:
                    emit(a0, b0, ta)
                a0 = b0
                continue
            if b0 is gap_a:
                # Slab i - 1 ended short of b0 too, so slab i is whole and
                # starts a run of a alone: slabs i .. k-1, copied as one slice.
                # As a's own consecutive slabs they merge with no piece before
                # them, and emit merges the piece after them with the last one
                # where they touch.
                k = bisect_right(a, b0, i + 1, na, key=_upper)
                if only_a:
                    out.extend(a[i:k])
                i = k
            else:
                if only_a:
                    emit(a0, a1, ta)
                i += 1
                gap_a = b0
            if i == na:
                break
            a0, a1, ta = a[i]
        elif a0 is not b0 and b0 < a0:
            if a0 < b1:
                if only_b:
                    emit(b0, a0, tb)
                b0 = a0
                continue
            if a0 is gap_b:
                k = bisect_right(b, a0, j + 1, nb, key=_upper)
                if only_b:
                    out.extend(b[j:k])
                j = k
            else:
                if only_b:
                    emit(b0, b1, tb)
                j += 1
                gap_b = a0
            if j == nb:
                break
            b0, b1, tb = b[j]
        else:
            # Both cover [a0, min(a1, b1)).
            section = (ta if both else ()) if d == 1 else _combine(op, ta, tb, d - 1)
            if a1 is b1 or a1 == b1:
                emit(a0, a1, section)
                i += 1
                j += 1
                if i < na:
                    a0, a1, ta = a[i]
                if j < nb:
                    b0, b1, tb = b[j]
                if i == na or j == nb:
                    break
            elif a1 < b1:
                emit(a0, a1, section)
                b0 = a1
                i += 1
                if i == na:
                    break
                a0, a1, ta = a[i]
            else:
                emit(b0, b1, section)
                a0 = b1
                j += 1
                if j == nb:
                    break
                b0, b1, tb = b[j]
    # At most one operand has slabs left; they are covered by it alone.  A
    # whole slab after the first cannot merge: it is canonical in its operand.
    if i < na and only_a:
        emit(a0, a1, ta)
        out.extend(a[i + 1 :])
    if j < nb and only_b:
        emit(b0, b1, tb)
        out.extend(b[j + 1 :])
    return tuple(out)


def _box_tree(lo: Sequence[Coord], hi: Sequence[Coord]) -> _Tree:
    """The tree of one nonempty box with corners lo, hi: one slab per axis."""
    tree = _POINT
    for x0, x1 in zip(reversed(lo), reversed(hi)):
        tree = ((x0, x1, tree),)
    return tree


def _union_all(trees: list[_Tree], d: int) -> _Tree:
    """The union of canonical trees.

    At d = 1 the slabs are intervals: all of them are sorted once by lower
    end and merged in one pass, a slab that starts at or below the running
    upper end (touching included) extending it to the larger of the two, so
    n slabs cost one sort and one pass.  In more axes the sections must
    be merged too, so the trees go through a balanced fold of ``_combine``.
    Only coordinate comparisons are used, never hashing.
    """
    if d == 1:
        out: list[tuple[Coord, Coord, _Tree]] = []
        slabs = sorted([slab for tree in trees for slab in tree], key=_lower)
        if slabs:
            lo, hi, _ = slabs[0]
            for x0, x1, _ in slabs:
                if x0 <= hi:
                    if hi < x1:
                        hi = x1
                else:
                    out.append((lo, hi, _POINT))
                    lo, hi = x0, x1
            out.append((lo, hi, _POINT))
        return tuple(out)
    while len(trees) > 1:
        merged = [_combine(_UNION, trees[i], trees[i + 1], d) for i in range(0, len(trees) - 1, 2)]
        trees = merged + trees[2 * len(merged) :]
    return trees[0] if trees else ()


def _corners(tree: _Tree, d: int) -> list[tuple[tuple[Coord, ...], tuple[Coord, ...]]]:
    """The ``(lo, hi)`` corners of a tree's boxes, in lexicographic order."""
    rows: list[tuple[tuple[Coord, ...], tuple[Coord, ...], _Tree]] = [((), (), tree)]
    for _ in range(d):
        rows = [(lo + (x0,), hi + (x1,), sub) for lo, hi, section in rows for x0, x1, sub in section]
    return [(lo, hi) for lo, hi, _ in rows]


def _map_ends(tree: _Tree, maps: Sequence[Callable]) -> _Tree:
    """The tree with each slab end on axis i replaced by increasing ``maps[i]``
    of it, level by level: each section shared by identity is mapped once."""
    levels: list[dict[int, _Tree]] = [{id(tree): tree}]
    for _ in maps:
        levels.append({id(sub): sub for section in levels[-1].values() for _, _, sub in section})
    # The sections below the last axis are points, kept as they are.
    mapped = levels.pop()
    for fn, level in zip(reversed(maps), reversed(levels)):
        mapped = {
            key: tuple((fn(x0), fn(x1), mapped[id(sub)]) for x0, x1, sub in section)
            for key, section in level.items()
        }
    return mapped[id(tree)]


@dataclass(frozen=True)
class BoxUnion:
    """Canonical finite disjoint union of half-open boxes, held as its slab tree.

    Always construct through :meth:`from_boxes` (or the set operations);
    the constructor trusts its input.  Because the tree is canonical,
    structural equality is set equality and instances are usable as
    dictionary keys.  ``boxes`` is a read-only view: the tree's boxes
    ordered by lower corner, flattened on first access and cached.
    """

    dim: int
    tree: _Tree

    @staticmethod
    def from_boxes(dim: int, boxes: Iterable[Box]) -> "BoxUnion":
        # A nonempty box is its own canonical form, so the union of the
        # single boxes' trees canonicalises any list.
        parts: list[_Tree] = []
        for b in boxes:
            if b.dim != dim:
                raise DimensionMismatchError(f"{b.dim}-dim box in {dim}-dim union")
            if not b.is_empty:
                parts.append(_box_tree(b.lo, b.hi))
        return BoxUnion(dim, _union_all(parts, dim))

    @staticmethod
    def empty(dim: int) -> "BoxUnion":
        return BoxUnion(dim, ())

    @staticmethod
    def single(box: Box) -> "BoxUnion":
        return BoxUnion.from_boxes(box.dim, [box])

    @functools.cached_property
    def boxes(self) -> tuple[Box, ...]:
        return tuple(_trusted_box(lo, hi) for lo, hi in _corners(self.tree, self.dim))

    @property
    def is_empty(self) -> bool:
        return not self.tree

    def _apply(self, op: _Op, other: "BoxUnion") -> "BoxUnion":
        if other.dim != self.dim:
            raise DimensionMismatchError(f"union of dimension {self.dim} vs {other.dim}")
        return BoxUnion(self.dim, _combine(op, self.tree, other.tree, self.dim))

    def union(self, other: "BoxUnion") -> "BoxUnion":
        return self._apply(_UNION, other)

    def intersect(self, other: "BoxUnion") -> "BoxUnion":
        return self._apply(_INTERSECT, other)

    def intersect_box(self, box: Box) -> "BoxUnion":
        if box.dim != self.dim:
            raise DimensionMismatchError(f"intersect {self.dim}-dim union with {box.dim}-dim box")
        # A single nonempty box is its own canonical form.
        return self._apply(_INTERSECT, BoxUnion(self.dim, () if box.is_empty else _box_tree(box.lo, box.hi)))

    def subtract(self, other: "BoxUnion") -> "BoxUnion":
        return self._apply(_SUBTRACT, other)

    def translate(self, v: Sequence[object]) -> "BoxUnion":
        # A uniform shift preserves the canonical slab structure.
        if len(v) != self.dim:
            raise DimensionMismatchError(f"translation of length {len(v)} for dimension {self.dim}")
        shifts = [functools.partial(operator.add, as_fraction(x)) for x in v]
        return BoxUnion(self.dim, _map_ends(self.tree, shifts))

    def measure(self) -> Fraction:
        total = Fraction(0)
        for b in self.boxes:
            total += b.volume()
        return total

    def contains_point(self, x: Sequence[object]) -> bool:
        return any(b.contains_point(x) for b in self.boxes)

    def contains_union(self, other: "BoxUnion") -> bool:
        return other.subtract(self).is_empty

    def bounding_box(self) -> Box | None:
        if not self.boxes:
            return None
        lo = tuple(min(b.lo[i] for b in self.boxes) for i in range(self.dim))
        hi = tuple(max(b.hi[i] for b in self.boxes) for i in range(self.dim))
        return Box(lo, hi)

    def __repr__(self) -> str:
        return f"BoxUnion(dim={self.dim}, boxes={list(self.boxes)!r})"


@dataclass(frozen=True)
class TileReport:
    """Outcome of :func:`tile_check`: both sides of the tiling identity."""

    base: Box
    q: tuple[Fraction, ...]
    scaled_box: Box
    refinement: Box
    counts_per_axis: tuple[int, ...]
    count: int
    scaled_volume: Fraction
    tiles_volume: Fraction
    equal: bool
    tiling_verified: bool


def tile_check(base: Box, q: Sequence[object], *, max_tiles: int = DEFAULT_TILE_CAP) -> TileReport:
    """Decompose the q-scaled box into exact translates of a refinement box.

    With base side lengths ``a_i`` and positive rationals ``q_i = p_i/s_i``
    in lowest terms, the box ``[0, q_i * a_i)`` splits into exactly
    ``prod(p_i)`` translates of the refinement box ``[0, a_i / s_i)``:
    scaling by a rational never needs more than a common refinement.  Both
    the volume identity and the tiling are verified.  A tile is the product
    of one interval per axis, so the tiles' union is the product of each
    axis's union: the grid tiles the scaled box exactly when, on every axis,
    the ``p_i`` intervals ``[k a_i / s_i, (k + 1) a_i / s_i)`` union to
    ``[0, q_i * a_i)``.  That unions ``sum(p_i)`` intervals, each axis's by
    one sort and one merge (``_union_all`` at d = 1), not ``prod(p_i)``
    boxes, so ``max_tiles`` caps ``sum(p_i)``, checked before ``prod(p_i)``
    is computed.
    """
    check_kernel_dim(len(q))
    if max_tiles > DEFAULT_TILE_CAP:
        raise PreconditionError(f"max_tiles must be at most {DEFAULT_TILE_CAP}, got {max_tiles}")
    if not base.is_bounded:
        raise UnboundedBoxError("tile_check needs a bounded base box")
    if base.is_empty:
        raise PreconditionError("tile_check needs a base box with positive sides")
    scale = tuple(as_fraction(v) for v in q)
    if len(scale) != base.dim:
        raise DimensionMismatchError(f"q of length {len(scale)} for dimension {base.dim}")
    if any(v <= 0 for v in scale):
        raise PreconditionError(f"q must be positive, got {', '.join(map(format_fraction, scale))}")

    counts = tuple(v.numerator for v in scale)
    folded = sum(counts)
    if folded > max_tiles:
        # folded may have more digits than Python prints; its bit length never does
        raise BudgetError(
            f"tiling check would fold at least 2^{folded.bit_length() - 1} intervals,"
            f" above the cap of {max_tiles}"
        )
    sides = base.sides()
    ref_sides = tuple(a / v.denominator for a, v in zip(sides, scale))
    count = prod(counts)
    zero = Fraction(0)
    scaled_box = Box((zero,) * base.dim, tuple(v * a for v, a in zip(scale, sides)))
    refinement = Box((zero,) * base.dim, ref_sides)

    tiling_verified = all(
        _union_all([_box_tree((k * r,), ((k + 1) * r,)) for k in range(c)], 1) == _box_tree((zero,), (end,))
        for c, r, end in zip(counts, ref_sides, scaled_box.hi)
    )

    scaled_volume = scaled_box.volume()
    tiles_volume = count * refinement.volume()
    return TileReport(
        base=base,
        q=scale,
        scaled_box=scaled_box,
        refinement=refinement,
        counts_per_axis=counts,
        count=count,
        scaled_volume=scaled_volume,
        tiles_volume=tiles_volume,
        equal=scaled_volume == tiles_volume,
        tiling_verified=tiling_verified,
    )
