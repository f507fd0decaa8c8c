"""Set expressions over clipped Cantor translates, with certified bounds.

An expression tree denotes a set built from generators ``(C^d + x) ∩ J``
(``Gen``) by union, set difference, and intersection.  Evaluating the tree
with the stage-n approximation in place of ``C^d`` gives an exactly
computable box union whose measure brackets the true measure: each leaf's
approximation differs from its true set inside a shell of measure at most
``stage_defect(n)``, and symmetric differences propagate subadditively
through all three connectives.  That yields the certified interval

    [max(0, m - L*defect), m + L*defect],     m = stage measure, L = leaves,

tightened to upper = m when the tree has no ``Diff`` node (then the stage
evaluation is an outer approximation).

Evaluation runs on the integer lattice of the tree's leaves
(``CantorSchedule.lattice``): each leaf is the slab tree of a product of
integer interval lists, each connective is one ``geometry._combine`` of
two slab trees on integer coordinates, and a stage measure is one integer
sum over the result, reduced once.  The lattice keeps order and equality,
so results equal those of Fraction arithmetic.  The cover search
(``cover.outer_upper`` and ``cover.verify_cover``) evaluates its target and
hulls on one such lattice too (``_lattice``, ``_evaluate``).  No
evaluation converts its set back to Fractions.

``generate_rn`` lists the ring the pool generates, layer by layer, as set
algebra on cached stage sets: only the pool is evaluated from its leaves,
and each candidate costs one ``_combine`` of its parents' trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Sequence

from .cantor import CantorSchedule, StageLattice
from .errors import BudgetError, DimensionMismatchError, PreconditionError
from .geometry import _INTERSECT, _SUBTRACT, _UNION, Box, _combine, _Tree
from .rationals import as_fraction, printable

DEFAULT_STAGE_CAP = 24
DEFAULT_RN_CAP = 4096
# Highest ring layer ``generate_rn`` builds.  Its evaluation does not grow
# with tree size, but the printed trees do: the first candidate of each
# layer is ``Union(a, a)`` of the previous layer's first element, so trees
# double in size per layer.  Layer 8 of a three-element pool prints 3.2 MB.
MAX_RN_LAYER = 8
REFERENCE_STAGE = 4


@dataclass(frozen=True)
class Gen:
    """Generator leaf: the ambient Cantor product translated by ``translation``
    and clipped to ``clip`` (which may be unbounded or empty)."""

    translation: tuple[Fraction, ...]
    clip: Box

    def __post_init__(self) -> None:
        t = tuple(as_fraction(v) for v in self.translation)
        if len(t) != self.clip.dim:
            raise DimensionMismatchError(
                f"translation of length {len(t)} with clip of dimension {self.clip.dim}"
            )
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.clip.dim


@dataclass(frozen=True)
class Union:
    left: "RingExpr"
    right: "RingExpr"


@dataclass(frozen=True)
class Diff:
    left: "RingExpr"
    right: "RingExpr"


@dataclass(frozen=True)
class Inter:
    left: "RingExpr"
    right: "RingExpr"


RingExpr = "Gen | Union | Diff | Inter"


def expr_dim(e: "RingExpr") -> int:
    if isinstance(e, Gen):
        return e.dim
    left = expr_dim(e.left)
    right = expr_dim(e.right)
    if left != right:
        raise DimensionMismatchError(f"mixed dimensions {left} and {right} in expression")
    return left


def iter_leaves(e: "RingExpr") -> Iterator[Gen]:
    """Generator leaves in left-to-right order."""
    if isinstance(e, Gen):
        yield e
    else:
        yield from iter_leaves(e.left)
        yield from iter_leaves(e.right)


def leaf_count(e: "RingExpr") -> int:
    return sum(1 for _ in iter_leaves(e))


def has_diff(e: "RingExpr") -> bool:
    if isinstance(e, Gen):
        return False
    if isinstance(e, Diff):
        return True
    return has_diff(e.left) or has_diff(e.right)


def base_expr(s: CantorSchedule) -> Gen:
    """The untranslated ambient set clipped to the unit cube."""
    return Gen((Fraction(0),) * s.d, Box.unit_cube(s.d))


def simplify(e: "RingExpr") -> "RingExpr | None":
    """Structurally simplify; ``None`` denotes the empty set.

    Rules: a leaf with an empty clip is empty; X \\ X and ops with an empty
    side collapse; Union/Inter(X, X) -> X.  Structural equality implies set
    equality, so the denoted set is preserved exactly, and the leaf count
    never grows, so every bound proved for the simplified tree is at least
    as tight.
    """
    if isinstance(e, Gen):
        return None if e.clip.is_empty else e
    left = simplify(e.left)
    right = simplify(e.right)
    if isinstance(e, Union):
        if left is None:
            return right
        if right is None:
            return left
        return left if left == right else Union(left, right)
    if isinstance(e, Diff):
        if left is None:
            return None
        if right is None:
            return left
        return None if left == right else Diff(left, right)
    if left is None or right is None:
        return None
    return left if left == right else Inter(left, right)


def _lattice(exprs: Sequence["RingExpr"], s: CantorSchedule, n: int) -> StageLattice:
    """The stage-n lattice of every leaf of ``exprs``."""
    for e in exprs:
        if expr_dim(e) != s.d:
            raise DimensionMismatchError(f"expression dimension {expr_dim(e)} vs schedule {s.d}")
    return s.lattice(n, ((g.translation, g.clip) for e in exprs for g in iter_leaves(e)))


_OPS = {Union: _UNION, Diff: _SUBTRACT, Inter: _INTERSECT}


def _evaluate(e: "RingExpr", lattice: StageLattice) -> _Tree:
    """The expression's stage set on ``lattice``, as a canonical slab tree."""
    if isinstance(e, Gen):
        return lattice.leaf(e.translation, e.clip)
    left = _evaluate(e.left, lattice)
    right = _evaluate(e.right, lattice)
    return _combine(_OPS[type(e)], left, right, lattice.d)


def _stage_measure(e: "RingExpr", s: CantorSchedule, n: int) -> Fraction:
    lattice = _lattice([e], s, n)
    return lattice.measure(_evaluate(e, lattice))


@dataclass(frozen=True)
class MeasureBounds:
    """Certified rational interval around the true measure of an expression."""

    lower: Fraction
    upper: Fraction
    stage: int
    leaf_count: int

    def __post_init__(self) -> None:
        if self.lower < 0 or self.lower > self.upper:
            raise PreconditionError(f"malformed bounds [{self.lower}, {self.upper}]")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def measure_bounds(e: "RingExpr", s: CantorSchedule, n: int) -> MeasureBounds:
    """Bracket the true measure of ``e`` using the stage-n evaluation."""
    simplified = simplify(e)
    if simplified is None:
        return MeasureBounds(Fraction(0), Fraction(0), stage=n, leaf_count=0)
    m = _stage_measure(simplified, s, n)
    L = leaf_count(simplified)
    budget = L * s.stage_defect(n)
    lower = max(Fraction(0), m - budget)
    upper = m if not has_diff(simplified) else m + budget
    return MeasureBounds(lower, upper, stage=n, leaf_count=L)


def premeasure(
    e: "RingExpr",
    s: CantorSchedule,
    tol: Fraction,
    *,
    stage_cap: int = DEFAULT_STAGE_CAP,
) -> MeasureBounds:
    """The bracket of the first stage in ``1..stage_cap`` whose width is at most ``tol``.

    If no stage up to ``stage_cap`` reaches ``tol``, or the box cap stops
    the search first, a ``BudgetError`` carries the narrowest bracket
    evaluated (the earliest stage on ties).

    The width at stage n is ``budget + min(m, budget)`` with a ``Diff`` and
    ``min(m, budget)`` without one, where ``budget = L * stage_defect(n)``
    is a closed form and only the stage measure ``m`` needs an evaluation.
    So the stages before ``n_b``, the first whose budget is at most
    ``tol``, need none: with a ``Diff`` each is wider than its budget, and
    without one ``m`` never grows with n (``A_(n+1)`` lies in ``A_n`` and
    every connective keeps inclusion), so ``m > tol`` at ``n_b`` makes
    every earlier stage wider than ``tol`` and ``n_b`` the answer.  The
    scan starts at ``n_b`` when ``n_b`` is at most both ``stage_cap`` and
    ``CantorSchedule.feasible_stage``, else at stage 1.  Only when the
    skip cannot decide (no ``Diff`` and ``m <= tol`` at ``n_b``, or a cap
    after a skipped start) does it evaluate the skipped stages from 1 up.

    Cost: ``n_b``, the first stage whose defect is at most ``tol / L``,
    is the schedule's one stopping-stage search
    (``CantorSchedule._first_stage_within``).  A run evaluates each stage
    from its start to its answer once, so a ``Diff``-free run whose stage
    measure stays above ``tol`` costs one stage evaluation; a run the skip
    cannot decide evaluates the stages a scan from stage 1 would, plus
    those already evaluated.
    """
    tol = as_fraction(tol)
    if tol <= 0:
        raise PreconditionError(f"tolerance must be positive, got {printable(tol)}")
    simplified = simplify(e)
    start = 1
    if simplified is not None:
        start = s._first_stage_within(tol / leaf_count(simplified), min(stage_cap, s.feasible_stage)) or 1
    # every stage before ``start`` is known to be wider than ``tol``
    settled = start == 1 or has_diff(simplified)
    # Up from ``start``; at most one stage past the box cap, which refuses.
    # Without a ``Diff`` the width at ``start`` is at most ``tol``, so the
    # scan up stops there.
    last = min(stage_cap, s.feasible_stage + 1) if settled else start
    best: MeasureBounds | None = None
    capped: tuple[int, BudgetError] | None = None
    for n in chain(range(start, last + 1), range(1, start)):
        try:
            bounds = measure_bounds(e, s, n)
        except BudgetError as exc:
            capped = n, exc
            continue
        if best is None or (bounds.width, n) < (best.width, best.stage):
            best = bounds
        # without a ``Diff``, ``upper`` is the stage measure
        if bounds.width <= tol and (settled or n < start or bounds.upper > tol):
            return bounds
    # no ``Diff``, ``m <= tol`` at ``start`` and no earlier stage within ``tol``
    if best is not None and best.width <= tol:
        return best
    if capped is not None:
        n, exc = capped
        raise BudgetError(
            f"box cap hit at stage {n} before reaching tolerance {printable(tol)}", partial=best
        ) from exc
    raise BudgetError(
        f"stage cap {stage_cap} reached with width {printable(best.width) if best else '?'}"
        f" > {printable(tol)}",
        partial=best,
    )


def clip_to_box(e: "RingExpr", box: Box) -> "RingExpr":
    """Intersect an expression with a box, structurally.

    Clipping pushes to the leaves: generators absorb the box into their
    clip, unions and intersections distribute, and a difference clips only
    its left side ((A \\ B) ∩ I = (A ∩ I) \\ B).  The leaf count is
    unchanged and the denoted set is exactly the intersection.
    """
    if expr_dim(e) != box.dim:
        raise DimensionMismatchError(f"clip box dimension {box.dim} vs expression {expr_dim(e)}")
    if isinstance(e, Gen):
        new_clip = e.clip.intersect(box)
        return Gen(e.translation, new_clip if new_clip is not None else Box.empty(e.dim))
    if isinstance(e, Union):
        return Union(clip_to_box(e.left, box), clip_to_box(e.right, box))
    if isinstance(e, Diff):
        return Diff(clip_to_box(e.left, box), e.right)
    return Inter(clip_to_box(e.left, box), e.right)


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
    deterministic enumeration order).  Only the pool is evaluated from its
    leaves, all on one lattice; each layer is keyed by every element's
    reference-stage set as its integer slab tree, so a candidate costs one
    ``_combine`` of its parents' keys, and canonical form makes that key
    the expression's own stage evaluation.  Two
    semantically distinct sets that agree at the reference stage would
    merge; callers who care can raise the reference stage.
    """
    if not 1 <= n <= MAX_RN_LAYER:
        raise PreconditionError(f"ring layers run from 1 to {MAX_RN_LAYER}, got {n}")
    if not pool:
        raise PreconditionError("empty generator pool")

    lattice = _lattice(pool, s, reference_stage)
    layer: dict[_Tree, "RingExpr"] = {}
    for e in pool:
        layer.setdefault(_evaluate(e, lattice), e)
    for _ in range(n - 1):
        nxt: dict[_Tree, "RingExpr"] = {}
        for set_a, a in layer.items():
            for set_b, b in layer.items():
                for node, op in ((Union, _UNION), (Diff, _SUBTRACT)):
                    key = _combine(op, set_a, set_b, s.d)
                    if key not in nxt:
                        nxt[key] = node(a, b)
                        if len(nxt) > max_size:
                            raise BudgetError(
                                f"ring layer exceeded {max_size} elements",
                                partial=list(layer.values()),
                            )
        layer = nxt
    return list(layer.values())


@dataclass(frozen=True)
class SplitReport:
    """Exact additivity of a stage evaluation across an axis half-space."""

    whole: Fraction
    inside: Fraction
    outside: Fraction
    stage: int
    equal: bool


def split_identity_check(
    e: "RingExpr",
    s: CantorSchedule,
    n: int,
    *,
    axis: int,
    threshold: object,
    above: bool,
) -> SplitReport:
    """Check lambda(S_n(e)) = lambda(S_n(e ∩ A)) + lambda(S_n(e ∩ A^c)) exactly.

    ``A`` is the half-space ``{x : x_axis >= threshold}`` when ``above``,
    else ``{x : x_axis < threshold}``, and ``A^c`` is the other side of the
    same cut.  With half-open boxes the two clipped evaluations partition
    the original one, so the identity holds with exact rational
    arithmetic, not merely up to tolerance.
    """
    whole = _stage_measure(e, s, n)
    inside = _stage_measure(clip_to_box(e, Box.half_space(s.d, axis, threshold, above=above)), s, n)
    outside = _stage_measure(clip_to_box(e, Box.half_space(s.d, axis, threshold, above=not above)), s, n)
    return SplitReport(
        whole=whole,
        inside=inside,
        outside=outside,
        stage=n,
        equal=whole == inside + outside,
    )
