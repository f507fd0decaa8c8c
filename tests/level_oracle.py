"""Slow reference implementation of the level function and its inverse.

These are the routines the single-descent kernel in ``hausdorff``
replaced.  ``_stage_level`` descends the path of ``x`` afresh for one
stage ``n`` in ``Fraction`` arithmetic, recomputing every child length;
``_classify_point`` asks it for stages 1, 2, ... in turn until the
bracket decides, and ``solve_level`` bisects on that verdict.  Nothing
here calls the kernel, its tables or its thresholds, so the differential
tests compare it against code that shares none of it.  A midpoint costs
O(N^2) ``Fraction`` operations at the deciding stage N; it is kept only
as an oracle.
"""

from __future__ import annotations

from fractions import Fraction

from fatcantor import BudgetError, CantorSchedule, PreconditionError
from fatcantor.cantor import check_stage
from fatcantor.hausdorff import LevelSolution
from fatcantor.rationals import as_fraction, pow2
from fatcantor.ring import MeasureBounds


def _stage_level(s: CantorSchedule, x: Fraction, n: int) -> Fraction:
    """Exact ``measure(stage-n set ∩ [0, x])`` by descending one branch.

    Each stage-k block carries exactly ``lambda_n / 2**k`` of the stage-n
    set, so whole blocks to the left of ``x`` are summed in closed form and
    only the block containing ``x`` is ever split: O(n) work.
    """
    if x <= 0:
        return Fraction(0)
    if x >= 1:
        return s.stage_measure_1d(n)
    lam = s.stage_measure_1d(n)
    acc = Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    for k in range(1, n + 1):
        child = s.stage_interval_length(k)
        left_hi = lo + child
        right_lo = hi - child
        if x >= right_lo:
            acc += lam * pow2(-k)
            lo = right_lo
        elif x <= left_hi:
            hi = left_hi
        else:
            # x sits in the removed gap: the left child lies fully below it
            # and the right child fully above, so the sum is complete.
            return acc + lam * pow2(-k)
    return acc + max(Fraction(0), min(x, hi) - lo)


def range_function(s: CantorSchedule, x: Fraction, stage: int) -> MeasureBounds:
    """Certified bounds for ``measure(limit set ∩ {first coordinate <= x})``."""
    if stage < 0:
        raise PreconditionError("stage must be nonnegative")
    x = as_fraction(x)
    at = _stage_level(s, x, stage) * s.stage_measure_1d(stage) ** (s.d - 1)
    lower = at - s.stage_defect(stage)
    if lower < 0:
        lower = Fraction(0)
    return MeasureBounds(lower=lower, upper=at, stage=stage, leaf_count=1)


def _classify_point(
    s: CantorSchedule, x: Fraction, target: Fraction, tol: Fraction
) -> tuple[str, MeasureBounds]:
    """Certify level(x) <= target ("le"), >= target ("ge"), or "straddle".

    A bracket is never wider than the stage defect, so the search ends at
    stage ``_stage_for_width(s, tol)`` at the latest.
    """
    n = 1
    while True:
        br = range_function(s, x, n)
        if br.upper <= target:
            return "le", br
        if br.lower >= target:
            return "ge", br
        if br.width <= tol:
            return "straddle", br
        n += 1


def _stage_for_width(s: CantorSchedule, width: Fraction) -> int:
    """First stage whose defect is at most ``width``; refused above ``MAX_STAGE``."""
    n = 1
    while s.stage_defect(n) > width:
        n += 1
        check_stage(n)
    return n


def solve_level(
    s: CantorSchedule,
    target: Fraction,
    *,
    tol: Fraction = Fraction(1, 1 << 20),
    max_iter: int = 10_000,
) -> LevelSolution:
    """Find ``x`` whose level is ``target``, by certified bisection."""
    target = as_fraction(target)
    tol = as_fraction(tol)
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    top = s.limit_measure()
    if not 0 <= target <= top:
        raise PreconditionError(f"target must lie in [0, {top}], got {target}")
    half = tol / 2
    stage = _stage_for_width(s, half)
    lo, hi = Fraction(0), Fraction(1)
    iterations = 0
    while hi - lo > half:
        if iterations >= max_iter:
            raise BudgetError(
                f"bisection did not reach tolerance within {max_iter} iterations",
                partial=(lo, hi),
            )
        mid = (lo + hi) / 2
        verdict, br = _classify_point(s, mid, target, half)
        if verdict == "le":
            lo = mid
        elif verdict == "ge":
            hi = mid
        else:
            return LevelSolution(
                target=target,
                point=mid,
                lo=mid,
                hi=mid,
                bracket=br,
                iterations=iterations + 1,
                status="straddle",
            )
        iterations += 1
    point = (lo + hi) / 2
    pbr = range_function(s, point, stage)
    return LevelSolution(
        target=target,
        point=point,
        lo=lo,
        hi=hi,
        bracket=pbr,
        iterations=iterations,
        status="converged",
    )
