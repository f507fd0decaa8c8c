"""Dyadic rounding, cube merging, and explicit covering layouts.

Given cubes whose total volume is at least ``alpha**d``, a cube of side
``alpha/2`` can always be covered by translates of the given cubes.  The
construction is fully explicit: round each side down to a power of two
(losing at most a factor ``2**d`` of volume), repeatedly merge ``2**d``
equal cubes into one of the next level, and read translations back off the
merge tree.  If no merged cube ever reached side 1/2 (after normalizing by
``alpha``), the final family would have at most ``2**d - 1`` cubes per
level and total volume below ``sum_{k>=2} (2**d - 1) * 2**(-k*d) < 2**-d``,
contradicting the volume hypothesis; so an adequate cube always exists.

Everything is exact, and the per-cube checks run on integers.  The
coercion and sign test of a family's sides, their dyadic exponents and
their powers in the volume sum are each done once per distinct side
object: equal texts decode to one object, so an equal-sided family of
512 cubes costs one of each.  The volume hypothesis sums the numerators'
d-th powers as integers per side denominator, then adds one ``Fraction``
per distinct denominator in a balanced fold.  It does not put all sides
over one common denominator: for 8192 distinct prime denominators that
lcm has about 10^5 bits, and raising its numerators to the power d took
25 s at d = 2 and 82 s at d = 3, against 0.2 s grouped.  Each side's
dyadic exponent is the bit-length rule of ``rationals._floor_log2_ratio``
on the unreduced integer ratio side/alpha.  The merge is recorded one
entry per level, ``(level, ids merged in order, first result id)``:
group j of a level's ids, ``2**d`` of them, became cube ``first + j``,
and results are numbered consecutively from the number of inputs
(``MergeRecord``).  One walk places the inputs and proves the cover
(``_tiling_covers``): it descends the selected cube's tree a level at a
time, from the entry that made it down, with no object per merge step,
and checks each step of the induction over the record, the record's own
shape included, in integer arithmetic and without box algebra.  It skips
every constituent whose corner lies at or past the target's upper end on
some axis, with its whole subtree, so a layout places only cubes that meet
the target.  A layout holds only its unit, placements and target: the
record stays with that walk, and no document carries it.  Every cube the
walk places sits on one lattice, ``alpha * 2**base * Z^d``, so a layout
holds that unit once and each placement's position as an integer vector,
and its document writes them so: the unit as one ``"p/q"`` and each
position as a list of JSON ints.  No coordinate is a ``Fraction`` or a
rational text from the search to the check.
``layout_covers`` is the independent replay on the box kernel's slab
trees, built on one integer lattice: one tree per placed cube that meets
the target, from its position and side, united (at d = 1 by one sort and
one merge) and subtracted from the target's tree.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Sequence

from .errors import BudgetError, DimensionMismatchError, PreconditionError
from .geometry import _SUBTRACT, Box, _box_tree, _combine, _union_all, check_kernel_dim
from .rationals import _floor_log2_ratio, as_fraction, is_finite, pow2, printable


# Largest family ``pack_cover`` accepts; 8192 equal cubes at d = 1 pack in 0.13-0.2 s with or
# without ``--verify``, and 8192 cubes over distinct prime denominators at d = 3 in 0.75-0.8 s
# with it (whole CLI runs, CPU time, Python 3.11, 2-core x86 VM).
MAX_FAMILY_CUBES = 1 << 13
# The scale and target side of ``pack_cover`` unless told otherwise: the
# largest target side the covering guarantee admits.
DEFAULT_ALPHA = Fraction(1)
DEFAULT_TARGET_SIDE = Fraction(1, 2)


@dataclass(frozen=True)
class CubeFamily:
    """Axis-aligned cubes given by side lengths (positions are not inputs)."""

    dim: int
    sides: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise PreconditionError(f"dimension must be a positive integer, got {self.dim!r}")
        check_kernel_dim(self.dim)
        sides = tuple(self.sides)
        fractions = {key: as_fraction(v) for key, v in _distinct(sides).items()}
        if any(v.numerator <= 0 for v in fractions.values()):  # the denominator is positive
            raise PreconditionError("cube sides must be positive")
        object.__setattr__(self, "sides", tuple(map(fractions.__getitem__, map(id, sides))))


def _distinct(sides: Sequence[Any]) -> "dict[int, Any]":
    """Each distinct side object by its ``id``, in order of first occurrence.
    Equal texts decode to one object, so an equal-sided family holds one."""
    return dict(zip(map(id, sides), sides))


def _dyadic_exponents(sides: Sequence[Fraction], alpha: Fraction) -> list[int]:
    """The exponents k_j with ``2**k_j <= side_j / alpha < 2**(k_j + 1)``, by
    ``_floor_log2_ratio``'s bit-length rule on the unreduced integer ratios,
    once per distinct side object: no Fraction per side."""
    an, ad = alpha.numerator, alpha.denominator
    exponent = {
        key: _floor_log2_ratio(v.numerator * ad, v.denominator * an)
        for key, v in _distinct(sides).items()
    }
    return list(map(exponent.__getitem__, map(id, sides)))


@dataclass(frozen=True)
class MergeRecord:
    """The merges of ``merge_dyadic``, one entry ``(level, ids, first)`` per
    level that merged, levels increasing.  ``ids`` are the cubes of that
    level merged there, in order: group j of them, ``ids[j * 2**dim : (j +
    1) * 2**dim]``, became cube ``first + j``, its i-th member at the i-th
    corner of {0, 2**level}^d in lexicographic order, axis 0 slowest.
    Results are numbered consecutively from the number of inputs.  ``len()``
    is the number of merge steps, one per group."""

    dim: int
    levels: tuple[tuple[int, tuple[int, ...], int], ...]

    def __len__(self) -> int:
        return sum(len(ids) for _, ids, _ in self.levels) >> self.dim


def merge_dyadic(dim: int, exponents: Sequence[int]) -> tuple[list[tuple[int, int]], MergeRecord]:
    """Merge equal dyadic cubes bottom-up until every level holds < 2**d.

    Cubes are identified by index: inputs are 0..n-1, merged cubes extend
    the numbering.  Policy is deterministic: always merge the 2**d
    lowest-index cubes at the smallest eligible level; a merge only feeds
    the next level up and new indices are the largest, so one upward sweep
    over per-level queues makes those steps, each level's at once.  Returns
    the final alive family as (index, exponent) pairs in index order plus
    the record of the merges, one entry per level.
    """
    group = 1 << dim
    queues: dict[int, list[int]] = {}
    for idx, k in enumerate(exponents):
        queues.setdefault(k, []).append(idx)
    pending = sorted(queues, reverse=True)  # levels still to sweep, lowest last
    levels: list[tuple[int, tuple[int, ...], int]] = []
    next_id = len(exponents)
    while pending:
        level = pending.pop()
        ids = queues[level]
        merged = len(ids) - len(ids) % group
        if not merged:
            continue
        if level + 1 not in queues:
            pending.append(level + 1)
        made = merged // group
        levels.append((level, tuple(ids[:merged]), next_id))
        queues.setdefault(level + 1, []).extend(range(next_id, next_id + made))
        next_id += made
        del ids[:merged]
    final = sorted((idx, k) for k, ids in queues.items() for idx in ids)
    return final, MergeRecord(dim, tuple(levels))


@dataclass(frozen=True)
class PackingLayout:
    """Placements of input cubes that cover the target cube, on one lattice.

    ``unit`` is a positive rational and ``placements`` are (input index,
    position) pairs, the position a vector of integers: the input cube is
    translated by ``unit * position``.  Each input index occurs at most
    once.  That is all a check of the cover reads, so it is all a layout
    holds: the merge record that put the cubes there stays with
    ``pack_cover``'s own proof.  ``pack_cover`` takes ``alpha * 2**base``
    as the unit; a decoded layout's unit is its document's.
    """

    unit: Fraction
    placements: tuple[tuple[int, tuple[int, ...]], ...]
    target: Box


def layout_covers(family: CubeFamily, layout: PackingLayout) -> bool:
    """Exact coverage replay on the box kernel's trees: each placement places
    a distinct input of the family at a position of the family's dimension,
    and the target's tree less the union of the placed cubes' trees is
    empty.  Only the cubes whose half-open box meets the target's get a
    tree: the target lies in the union of all cubes exactly when it lies in
    the union of those that meet it.  The union is ``_union_all``'s: at
    d = 1 one sort and one merge of the placed intervals, so the kernel
    runs once, for the subtraction; in more axes a balanced fold.

    The trees hold integers: every finite coordinate is scaled by the lcm
    of the denominators of the unit, the placed cubes' sides and the
    target's finite ends, so each position is multiplied by one factor.  The
    kernel only compares coordinates, and a positive common scale keeps
    every comparison, so the verdict is the one on the rationals.  An
    infinite target end stays its marker, which the kernel compares with
    integers."""
    dim, sides, target, unit = family.dim, family.sides, layout.target, layout.unit
    indices = {index for index, _ in layout.placements}
    if len(indices) != len(layout.placements) or not indices.issubset(range(len(sides))):
        return False
    if any(len(position) != dim for _, position in layout.placements):
        return False
    if target.dim != dim:
        raise DimensionMismatchError(f"union of dimension {target.dim} vs {dim}")
    if target.is_empty:
        return True
    denominators = {sides[i].denominator for i in indices}
    denominators.update(x.denominator for x in target.lo + target.hi if is_finite(x))
    denominators.add(unit.denominator)
    scale = lcm(*denominators)
    factor = {q: scale // q for q in denominators}
    step = unit.numerator * factor[unit.denominator]
    t_lo, t_hi = ([x.numerator * factor[x.denominator] if is_finite(x) else x for x in corner]
                  for corner in (target.lo, target.hi))
    trees = []
    for i, position in layout.placements:
        side = sides[i]
        width = side.numerator * factor[side.denominator]
        lo = [p * step for p in position]
        hi = [x + width for x in lo]
        if all(map(operator.lt, lo, t_hi)) and all(map(operator.lt, t_lo, hi)):
            trees.append(_box_tree(lo, hi))
    return not _combine(_SUBTRACT, _box_tree(t_lo, t_hi), _union_all(trees, dim), dim)


def pack_cover(
    family: CubeFamily,
    *,
    target_side: Fraction | int = DEFAULT_TARGET_SIDE,
    alpha: Fraction | int = DEFAULT_ALPHA,
) -> PackingLayout:
    """Cover ``[0, alpha*target_side]^d`` by translates of the input cubes.

    Requires ``sum (side_j / alpha)**d >= 1`` and ``target_side <= 1/2``;
    under those hypotheses the merge process must produce a normalized cube
    of side >= 1/2 (see the module docstring), and walking its merge tree
    places the original cubes that meet the target so that their union
    covers it (``_tiling_covers``, which proves it as it goes).  The
    smallest adequate cube is selected, ties broken by lowest index.  A
    family above ``MAX_FAMILY_CUBES`` cubes is refused before any work.
    """
    size = len(family.sides)
    if size > MAX_FAMILY_CUBES:
        raise BudgetError(
            f"a family of at least 2^{size.bit_length() - 1} cubes is above the cap of"
            f" {MAX_FAMILY_CUBES} cubes"
        )
    target_side = as_fraction(target_side)
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise PreconditionError(f"alpha must be positive, got {printable(alpha)}")
    if not 0 < target_side <= Fraction(1, 2):
        raise PreconditionError(f"target side must be in (0, 1/2], got {printable(target_side)}")
    dim = family.dim
    # sum (side/alpha)**d, grouped by side denominator (see the module
    # docstring), one power per distinct side object times its count
    counts = Counter(map(id, family.sides))
    powers: dict[int, int] = {}
    for key, v in _distinct(family.sides).items():
        powers[v.denominator] = powers.get(v.denominator, 0) + counts[key] * v.numerator**dim
    terms = [Fraction(p, q**dim) for q, p in powers.items()] or [Fraction(0)]
    while len(terms) > 1:
        terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    hypothesis = terms[0] / alpha**dim
    if hypothesis < 1:
        raise PreconditionError(
            f"total normalized volume {printable(hypothesis)} is below 1;"
            " the covering guarantee needs sum (side/alpha)**d >= 1"
        )

    exponents = _dyadic_exponents(family.sides, alpha)
    final, record = merge_dyadic(dim, exponents)

    adequate = [(k, idx) for idx, k in final if pow2(k) >= target_side]
    if not adequate:
        raise AssertionError(
            "no adequate cube after merging; the volume hypothesis should forbid this"
        )
    _, selected = min(adequate)

    target = Box.cube((Fraction(0),) * dim, alpha * target_side)
    layout = _tiling_covers(family, record, alpha, selected, target)
    if layout is None:
        raise AssertionError("the merge record failed its own coverage proof")
    return layout


def _tiling_covers(
    family: CubeFamily, record: MergeRecord, alpha: Fraction, selected: int, target: Box
) -> PackingLayout | None:
    """The layout that places the selected cube's inputs over ``target``,
    proved by induction over the merge record as the walk descends, in
    integers; ``None`` if a step of the proof fails.

    Call a cube of side ``alpha * 2**k`` a cube of level k.  The record must
    have its shape: levels increasing, each entry's id count a multiple of
    2**d, and results numbered consecutively from the number of inputs, so
    each result has one group of constituents and one level.  A group of a
    level-k entry has 2**d constituents of level k: placed at the corners
    {0, 2**k}^d in lexicographic order, computed here, they tile its result,
    a cube of level k + 1.  The walk descends from the selected cube, of
    level ``top``, a level at a time from the entry that made it.
    Positions are integer vectors in units of ``alpha * 2**base``, ``base``
    the lowest level of the record, which is the layout's unit.  A
    constituent whose lower corner lies at or past the target's upper end
    on some axis is skipped with its whole subtree: every cube under it
    misses the half-open target.  Each constituent kept must be an input or
    a result of the entry exactly one level down, no input may be reached
    twice (so no result is: its inputs would be), and each input reached is
    placed where it was reached and must have a side of at least ``alpha *
    2**level``, so its placement contains its cube of the tiling.  By
    induction, the placed inputs cover the part of ``[0, alpha *
    2**top)^d`` that the target meets, and the target, whose lower ends
    must be 0 or more, must lie inside that cube.  A selected input is
    placed alone at the origin and must contain the target.  Nothing here
    is shared with the search: no box algebra, no rounding, and no corners
    from the merge.
    """
    dim, sides = family.dim, family.sides
    lo, hi = target.lo, target.hi
    if len(lo) != dim or len(hi) != dim:
        return None
    inputs, group, levels = len(sides), 1 << dim, record.levels
    made = inputs  # the number the next result must have
    for i, (level, ids, first) in enumerate(levels):
        if first != made or len(ids) % group or i and level <= levels[i - 1][0]:
            return None
        made += len(ids) // group
    if 0 <= selected < inputs:
        e, bound = -1, sides[selected]  # no entry: a selected input is placed alone
    elif inputs <= selected < made:
        e = len(levels) - 1  # the entry that made the selected cube
        while levels[e][2] > selected:
            e -= 1
        bound = _scaled(alpha, levels[e][0] + 1)
    else:
        return None
    if not all(0 <= a and b <= bound for a, b in zip(lo, hi)):
        return None

    base = levels[0][0] if levels else 0
    unit = _scaled(alpha, base)
    # a position at or past limit[axis] on some axis has its corner at or
    # past the target's upper end there
    limit = [-(-b // unit) for b in hi]
    an, ad = alpha.numerator, alpha.denominator
    placed: dict[int, tuple[int, ...]] = {}  # each input reached, at its position
    cubes = [(selected, (0,) * dim)]  # the tree's cubes of level k + 1, results of entry i
    for i in range(e, -1, -1):
        k, ids, first = levels[i]
        # the results of the entry one level down, if there is one
        low, high = (levels[i - 1][2], first) if i and levels[i - 1][0] == k - 1 else (0, 0)
        units = 1 << (k - base)
        corners = [
            tuple(units if mask >> (dim - 1 - axis) & 1 else 0 for axis in range(dim))
            for mask in range(group)
        ]
        below = []
        for cube, position in cubes:
            start = (cube - first) * group
            for cid, corner in zip(ids[start : start + group], corners):
                at = tuple(map(operator.add, position, corner))
                if any(map(operator.ge, at, limit)):
                    continue
                if 0 <= cid < inputs:
                    # side >= alpha * 2**k, cross-multiplied
                    side = sides[cid]
                    have, need = side.numerator * ad, an * side.denominator
                    if cid in placed or have << max(-k, 0) < need << max(k, 0):
                        return None
                    placed[cid] = at
                elif low <= cid < high:
                    below.append((cid, at))
                else:
                    return None
        cubes = below
        if not cubes:
            break
    placed.update(cubes)  # the selected cube, if it is an input
    return PackingLayout(unit=unit, placements=tuple(sorted(placed.items())), target=target)


def _scaled(alpha: Fraction, k: int) -> Fraction:
    """``alpha * 2**k`` by a shift."""
    return alpha * (1 << k) if k >= 0 else alpha / (1 << -k)
