"""Finite covers, certified upper bounds, and uncovered-box witnesses.

Covering questions about ring expressions are decided against stage
evaluations of their positive hulls.  The hull (drop every subtraction,
keep the positive side) only enlarges a set, so

* a failure certificate is sound against the true sets: a box missing
  every hull's stage approximation misses every true element;
* a success certificate is labeled for what it is: the target's stage
  evaluation is covered by the union of the elements' stage hulls.

The cover search and its check build the target and every hull on one
stage lattice (``_cover_sets``) as integer slab trees.  The search keeps
the target's uncovered rest: a subset mask's rest is its parent's (the
mask without its highest bit) less the newest element's hull, one
``_combine`` per mask, and the masks are walked depth first, so only the
rests along one path are held.

The witness search shrinks an open box through the elements one generator
leaf at a time, one ``find_gap`` per leaf, so each step only needs the 1-D
gap structure of a single translate; nothing d-dimensional is ever
materialized.

The claim a witness makes is monotone: a box that misses every translate
of a pool misses the union of any subfamily too.  So ``infinite-cube``
runs one search over its whole pool, and that one witness, its stages cut
down to the sublist of a subfamily's leaves, certifies every subfamily.
Checking is monotone the same way: a sub-box of a box that misses a closed
stage translate misses it too, so each leaf's stage is checked against the
witness's own box.  ``uncovered_witness_valid`` is the one witness check:
it reads the box once, pairs the i-th hull leaf of the elements with the
i-th stage, and runs one gap-certificate check per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cantor import (
    CantorSchedule,
    NeedsDeeperStage,
    StageLattice,
    _misses_stage_translate,
    find_gap,
    middle_half,
)
from .errors import BudgetError, DimensionMismatchError, PreconditionError, UnboundedBoxError
from .geometry import _INTERSECT, _SUBTRACT, Box, _combine, _Tree
from .ring import (
    Diff, Gen, Inter, RingExpr, Union, _evaluate, _lattice, clip_to_box, iter_leaves, measure_bounds
)

DEFAULT_SUBSET_BUDGET = 4096
DEFAULT_POOL_CAP = 12
# The stage cap of ``uncovered-box`` and ``infinite-cube`` unless told otherwise.
DEFAULT_WITNESS_STAGE_CAP = 12


def positive_hull(e: "RingExpr") -> "RingExpr":
    """Union-of-generators upper bound for an expression.

    Unions are kept, differences and intersections are replaced by their
    left side; the result contains only Gen and Union nodes and its set
    contains the original one.
    """
    if isinstance(e, Gen):
        return e
    if isinstance(e, Union):
        return Union(positive_hull(e.left), positive_hull(e.right))
    if isinstance(e, (Diff, Inter)):
        return positive_hull(e.left)
    raise PreconditionError(f"not a ring expression: {e!r}")


def hull_leaves(e: "RingExpr") -> list[Gen]:
    return list(iter_leaves(positive_hull(e)))


@dataclass(frozen=True)
class CoverAttempt:
    """Best cover found by :func:`outer_upper`.

    ``verified`` means the target's stage evaluation is exactly contained
    in the union of the chosen elements' stage-``stage`` hulls; since hulls
    only shrink with deeper stages while containing the true elements, the
    certified statement is "the true target set is covered by the stage
    hulls of the chosen elements".  ``infinite`` holds exactly when the
    pool's stage hulls leave part of the target's stage set uncovered, so
    that no subset of the pool covers it (and, for an empty target, when
    the budget admits no mask); no arithmetic infinity is involved.
    """

    subset: tuple[int, ...]
    stage: int
    total_premeasure_upper: Fraction | None
    verified: bool
    infinite: bool


def _cover_sets(
    target: "RingExpr | Box", pool: Sequence["RingExpr"], s: CantorSchedule, stage: int, clip: bool
) -> tuple[StageLattice, _Tree, list["RingExpr"], list[_Tree]]:
    """The lattice of a target and a pool, the target's tree (a bounded box, or
    an expression's positive hull), the elements, with ``clip`` clipped to the
    bounding box of the target's set (its ends are lattice points), and each
    element's hull tree."""
    if isinstance(target, Box):
        if target.dim != s.d:
            raise DimensionMismatchError(f"target dimension {target.dim} vs schedule {s.d}")
        if not target.is_bounded:
            raise UnboundedBoxError("cover target box must be bounded")
        # The box's ends join the lattice as the clip of an untranslated leaf.
        lattice = _lattice([Gen((0,) * s.d, target), *pool], s, stage)
        target_tree = lattice.box(target)
    else:
        lattice = _lattice([target, *pool], s, stage)
        target_tree = _evaluate(positive_hull(target), lattice)
    if clip and target_tree:
        bbox = lattice.bounding_box(target_tree)
        pool = [clip_to_box(e, bbox) for e in pool]
    return lattice, target_tree, list(pool), [_evaluate(positive_hull(e), lattice) for e in pool]


def verify_cover(
    target: "RingExpr | Box",
    elements: Sequence["RingExpr"],
    s: CantorSchedule,
    stage: int,
) -> bool:
    """Is the target's stage set inside the union of the elements' stage hulls?

    The target is taken as :func:`outer_upper` takes it, a bounded box or an
    expression's positive hull, and the elements as given (unclipped).  All
    of them are built on one lattice, and the target less each hull in turn
    must end empty.
    """
    _, rest, _, hulls = _cover_sets(target, elements, s, stage, clip=False)
    for hull in hulls:
        rest = _combine(_SUBTRACT, rest, hull, s.d)
    return not rest


def outer_upper(
    target: "RingExpr | Box",
    pool: Sequence["RingExpr"],
    s: CantorSchedule,
    *,
    stage: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
    clip: bool = True,
) -> CoverAttempt:
    """Search the pool for a verified cover with minimal total upper bound.

    All sets are slab trees on one lattice (:func:`_cover_sets`), and pool
    elements are optionally clipped to the bounding box of the target's
    set, which shrinks their premeasures but cannot break a cover.  Greedy
    first: take the element covering the most of the target's uncovered
    rest (ties by pool index) until the rest is empty, which proves the
    cover.  The pass stalls with a rest left only when no remaining hull
    meets it; then the whole pool misses the rest, no subset can cover the
    target, and the attempt is ``infinite`` at once.  Otherwise the masks
    ``1..budget``, depth first: a mask's rest is its parent's (the mask
    without its highest bit) less its newest element's hull, one
    subtraction per mask.  The least total wins; the greedy cover
    wins ties, and otherwise the first mask in mask order does.  A mask
    whose ``(total, mask)`` is not below the best so far, a mask above the
    budget and the descendants of a cover cannot do better, so the walk
    does not enter them.  Deterministic throughout.
    """
    if not pool:
        raise PreconditionError("empty cover pool")
    lattice, target_tree, elements, hulls = _cover_sets(target, pool, s, stage, clip)
    uppers = [measure_bounds(e, s, stage).upper for e in elements]
    d, p = s.d, len(elements)

    # Greedy pass.
    rest = target_tree
    chosen: list[int] = []
    available = list(range(p))
    while rest and available:
        gains = [(lattice.measure(_combine(_INTERSECT, rest, hulls[i], d)), i) for i in available]
        gain, pick = max(gains, key=lambda g: (g[0], -g[1]))
        if gain <= 0:
            break
        chosen.append(pick)
        available.remove(pick)
        rest = _combine(_SUBTRACT, rest, hulls[pick], d)
    if rest:
        # No hull left meets the rest, so the whole pool misses it.
        return CoverAttempt(
            subset=(), stage=stage, total_premeasure_upper=None, verified=False, infinite=True
        )
    # The least (total, mask) so far; the greedy cover's mask -1 wins ties.
    best: tuple[Fraction, int] | None = None
    if chosen:
        best = (sum((uppers[i] for i in chosen), Fraction(0)), -1)

    # Exhaustive pass, depth first: (mask, its parent's rest, its parent's total).
    stack = [(1 << k, target_tree, Fraction(0)) for k in reversed(range(p))]
    while stack:
        mask, rest, total = stack.pop()
        newest = mask.bit_length() - 1
        total += uppers[newest]
        if mask > budget or best is not None and (total, mask) >= best:
            continue
        rest = _combine(_SUBTRACT, rest, hulls[newest], d)
        if rest:
            stack.extend((mask | 1 << k, rest, total) for k in reversed(range(newest + 1, p)))
        else:
            best = (total, mask)

    if best is None:
        return CoverAttempt(
            subset=(), stage=stage, total_premeasure_upper=None, verified=False, infinite=True
        )
    total, mask = best
    return CoverAttempt(
        subset=tuple(sorted(chosen)) if mask < 0 else tuple(i for i in range(p) if mask >> i & 1),
        stage=stage,
        total_premeasure_upper=total,
        verified=True,
        infinite=False,
    )


@dataclass(frozen=True)
class UncoveredWitness:
    """Open box inside the target that misses every cover element.

    ``certificates`` holds one stage per hull leaf, elements in pool order
    and leaves left to right: the box sits inside the gap the search found
    for that leaf, hence misses the leaf's stage approximation at that
    stage, and a fortiori the true element set.  The leaf itself, its
    translation included, is read from the elements, never from the
    witness.
    """

    box: Box
    certificates: tuple[int, ...]


def find_uncovered_box(
    target: Box,
    elements: Sequence["RingExpr"],
    s: CantorSchedule,
    stage_cap: int,
) -> UncoveredWitness | NeedsDeeperStage:
    """Sequentially shrink an open box inside ``target`` past every element.

    Starting from the target itself, each generator leaf of each element's
    positive hull, elements in the given order and leaves left to right,
    shrinks the box to the gap :func:`find_gap` finds for it.  The final box
    is disjoint from every element; the first leaf with no gap up to the
    stage cap is reported instead.  With no elements the witness is the
    middle half of the target.
    """
    if target.dim != s.d:
        raise DimensionMismatchError(f"target dimension {target.dim} vs schedule {s.d}")
    if not target.is_bounded:
        raise UnboundedBoxError("witness target must be bounded")
    if target.is_empty:
        raise PreconditionError("witness target needs positive sides")

    box = target
    certificates: list[int] = []
    for ei, element in enumerate(elements):
        for li, leaf in enumerate(hull_leaves(element)):
            outcome = find_gap(s, leaf.translation, box, stage_cap)
            if isinstance(outcome, NeedsDeeperStage):
                return NeedsDeeperStage(outcome.deepest_stage, element_index=ei, leaf_index=li)
            certificates.append(outcome.stage)
            box = outcome.box
    if not certificates:
        lo, hi = zip(*(middle_half(*side) for side in zip(box.lo, box.hi)))  # type: ignore[arg-type]
        box = Box(lo, hi)
    return UncoveredWitness(box=box, certificates=tuple(certificates))


def uncovered_witness_valid(
    s: CantorSchedule,
    target: Box,
    elements: Sequence["RingExpr"],
    witness: UncoveredWitness,
) -> bool:
    """Re-verify a witness from serialized data alone.

    The witness is valid when its box is a bounded, nonempty box of
    dimension ``s.d`` inside the target, it holds one stage per hull leaf
    of the elements (elements in order, leaves left to right), and the box
    misses each leaf's closed translate, of dimension ``s.d``, at that
    leaf's stage.
    """
    box = witness.box
    if box.dim != s.d or not box.is_bounded or box.is_empty:
        return False
    if not target.contains_box(box):
        return False
    leaves = [leaf for element in elements for leaf in hull_leaves(element)]
    if len(leaves) != len(witness.certificates):
        return False
    # The box was checked once above; each leaf adds its translation.
    return all(
        len(leaf.translation) == s.d and _misses_stage_translate(s, leaf.translation, stage, box)
        for leaf, stage in zip(leaves, witness.certificates)
    )


def grid_translate_pool(s: CantorSchedule, size: int) -> list["RingExpr"]:
    """Diagonal grid of translates clipped to the unit cube: t_i = (i/size)*(1, ..., 1)."""
    if size < 0:
        raise PreconditionError(f"pool size must be nonnegative, got {size}")
    unit = Box.unit_cube(s.d)
    return [Gen((Fraction(i, size),) * s.d, unit) for i in range(size)]


def quartered_translate_pool(s: CantorSchedule, size: int) -> list["RingExpr"]:
    """Distinct ring elements from few translates: quarter-grid translates
    crossed with quarter clip boxes along axis 0.

    Useful for large families: the witness search only ever has to dodge
    four distinct translates, so its stage requirement stays flat while the
    family still consists of ``size`` pairwise distinct elements.
    """
    if size < 0:
        raise PreconditionError(f"pool size must be nonnegative, got {size}")
    unit = Box.unit_cube(s.d)
    pool: list[RingExpr] = []
    for i in range(size):
        t = Fraction(i % 4, 4)
        qlo = Fraction(i // 4 % 4, 4)
        lo = (qlo,) + (Fraction(0),) * (s.d - 1)
        hi = (qlo + Fraction(1, 4),) + (Fraction(1),) * (s.d - 1)
        clip = unit.intersect(Box(lo, hi))
        pool.append(Gen((t,) * s.d, clip if clip is not None else Box.empty(s.d)))
    return pool


def check_pool_size(size: int) -> int:
    """Refuse, before any search, an ``infinite-cube`` pool above
    ``DEFAULT_POOL_CAP`` elements; return the pool's size.  The witness fold
    shrinks its box once per hull leaf, so a much larger pool is not cheap."""
    if size > DEFAULT_POOL_CAP:
        raise BudgetError(f"pool of {size} elements is above the cap of {DEFAULT_POOL_CAP} elements")
    return size
