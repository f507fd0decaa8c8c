"""Gauge sums over stage covers, diameters, and level solving.

The stage-``n`` boxes of the construction form a cover of the limit set by
``2**(n*d)`` congruent cubes of side ``l_n``, the stage-n interval length,
so the sum of ``diam**s`` over the cover is a single closed-form quantity.  Its
diameter involves ``sqrt(d)``, hence values live in the quadratic field
ℚ[√d] rather than plain rationals; comparisons against rational thresholds
are done by squaring, never by floating point.

Also here: the explicit pipeline turning the measure of the limit set into
a covered cube, whose cover is a grid of equal cubes checked by two exact
comparisons, and the level function
``x -> measure(limit set ∩ {first coordinate <= x})`` together with a
certified bisection inverse.  Its stage-n value comes from one descent
along the path of ``x`` (``_levels``), which yields the levels of all
stages 1, 2, ... in turn as integer numerators over one common
denominator.  The stage lengths come from the schedule's one table
(``cantor._Ladder``).  A solve decides on that table's integers: its
stopping stage, its verdict cuts (one integer floor division each, made
once per solve) and its bisection, whose abscissas are numerators over
the table's common denominator.  A bisection midpoint thus costs O(N)
integer steps at its deciding stage N, and only a returned solution
becomes ``Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .cantor import CantorSchedule, _numerator_over, box_count, check_stage
from .errors import BudgetError, PreconditionError
from .geometry import Box
from .quadratic import ExtendedRational
from .rationals import as_fraction, printable
from .ring import MeasureBounds

# Largest gauge exponent.  A gauge sum is ``count * diam**exponent``, an
# exact number of about ``exponent`` times the stage's bits: exponent 1024
# at ``delta = 1/8`` prints, 4096 is over Python's 4300-digit print limit.
MAX_GAUGE_EXPONENT = 1024
# Finest dyadic grid, ``2**-MAX_ROOT_BITS``, that ``side_scale_for`` starts
# from; a grid that fine still prints.
MAX_ROOT_BITS = 4096
# Dyadic grid ``2**-DEFAULT_ROOT_BITS`` that ``side_scale_for`` starts from
# unless told otherwise.
DEFAULT_ROOT_BITS = 24
# Finest ``range-solve`` tolerance, ``2**-MAX_TOL_BITS``.  Bisection halves
# [0, 1] until it is at most ``tol/2`` wide, so an admitted tolerance needs
# at most ``MAX_TOL_BITS + 1`` steps, whatever stage the schedule reaches.
MAX_TOL_BITS = 4096
# The tolerance and bisection budget of ``solve_level`` unless told otherwise.
DEFAULT_LEVEL_TOL = Fraction(1, 1 << 20)
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class PowerGauge:
    """The gauge ``t -> t**exponent`` for an integer exponent in ``0..MAX_GAUGE_EXPONENT``."""

    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or not 0 <= self.exponent <= MAX_GAUGE_EXPONENT:
            raise PreconditionError(
                f"gauge exponent must be an integer from 0 to {MAX_GAUGE_EXPONENT},"
                f" got {self.exponent!r}"
            )


def _square_parts(n: int) -> tuple[int, int]:
    """``(r, f)`` with ``n = r**2 * f`` and ``f`` square-free, by trial
    division: ``sqrt(n) = r * sqrt(f)``.  A dimension is at most
    ``cantor.MAX_DIM``, so this takes under 71 divisors."""
    r, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            r *= p
        p += 1
    return r, n


def min_stage_for_delta(s: CantorSchedule, delta: Fraction) -> int:
    """Smallest stage whose boxes have diameter strictly below ``delta``.

    The stage-n boxes are cubes of side ``l_n``, so their diameter is
    ``l_n * sqrt(d)``; the comparison is done on squares to stay rational.
    A ``delta`` that needs a stage above ``cantor.MAX_STAGE`` is refused
    as soon as the search passes it.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {printable(delta)}")
    # l_n**2 * d >= delta**2 on integers: l_n is lengths[n] / dens[n].
    ladder, p, q = s._ladder, delta.numerator, delta.denominator
    n = 0
    while (ladder.lengths[n] * q) ** 2 * s.d >= (p * ladder.dens[n]) ** 2:
        n += 1
        check_stage(n)
        ladder.reach(n)
    return n


@dataclass(frozen=True)
class DeltaCover:
    """Closed-form summary of the stage cover used for a gauge sum."""

    stage: int
    delta: Fraction
    count: int
    side: Fraction
    diam_squared: Fraction
    value: ExtendedRational


def nu_delta_upper(
    s: CantorSchedule,
    gauge: PowerGauge,
    delta: Fraction,
    *,
    stage: int | None = None,
) -> DeltaCover:
    """Upper bound for the gauge sum at scale ``delta`` via a stage cover.

    By default the first stage fine enough for ``delta`` is used; passing
    ``stage`` explicitly selects a deeper (still admissible) cover, which
    can only improve the bound for decaying gauges.  The sum is
    ``count * (side * sqrt(d))**k``, that is ``count * side**k *
    d**(k//2) * sqrt(d)**(k%2)``, and ``sqrt(d) = r * sqrt(f)`` with ``f``
    the square-free part of ``d``, so its radicand is ``f``.
    """
    delta = as_fraction(delta)
    minimal = min_stage_for_delta(s, delta)
    if stage is None:
        stage = minimal
    elif stage < minimal:
        raise PreconditionError(
            f"stage {stage} boxes are not finer than delta={printable(delta)}; "
            f"the first admissible stage is {minimal}"
        )
    check_stage(stage)
    count = box_count(stage, s.d)
    side = s.stage_interval_length(stage)
    diam_sq = side * side * s.d
    half, odd = divmod(gauge.exponent, 2)
    r, f = _square_parts(s.d) if odd else (1, 1)
    value = ExtendedRational(Fraction(0), count * side**gauge.exponent * s.d**half * r, f)
    return DeltaCover(
        stage=stage,
        delta=delta,
        count=count,
        side=side,
        diam_squared=diam_sq,
        value=value,
    )


def _int_root_floor(x: int, k: int) -> int:
    """Largest integer r with r**k <= x (x >= 0, k >= 1)."""
    if x < 0:
        raise PreconditionError("integer root of a negative number")
    if x in (0, 1) or k == 1:
        return x
    # Integer Newton seeded above the root (2**ceil(bits/k) >= x**(1/k)),
    # descending monotonically; the final touch-up loops run O(1) times.
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def rational_root(q: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    q = as_fraction(q)
    if q < 0 or k < 1:
        raise PreconditionError("rational_root needs q >= 0 and k >= 1")
    rn = _int_root_floor(q.numerator, k)
    rd = _int_root_floor(q.denominator, k)
    if rn**k == q.numerator and rd**k == q.denominator:
        return Fraction(rn, rd)
    return None


def dyadic_root_floor(q: Fraction, k: int, bits: int) -> Fraction:
    """Largest dyadic ``m / 2**bits`` whose k-th power is <= q."""
    q = as_fraction(q)
    if q <= 0:
        raise PreconditionError("dyadic_root_floor needs q > 0")
    scaled = (q.numerator << (k * bits)) // q.denominator
    m = _int_root_floor(scaled, k)
    return Fraction(m, 1 << bits)


def side_scale_for(d: int, a: Fraction, *, bits: int = DEFAULT_ROOT_BITS) -> tuple[Fraction, bool]:
    """The scale ``alpha`` with ``alpha**d = a / (2 * d**(d/2))``.

    Returns ``(alpha, exact)``.  When the defining equation has no rational
    solution, the largest dyadic value on a ``2**-bits`` grid that does not
    exceed the true root is returned instead (``exact=False``); undershooting
    is sound for every downstream use: the volume hypothesis of the packing
    step only gets easier and the covered cube only shrinks.  ``bits`` must
    lie in ``1..MAX_ROOT_BITS``.
    """
    if not 1 <= bits <= MAX_ROOT_BITS:
        raise PreconditionError(f"bits must be between 1 and {MAX_ROOT_BITS}, got {bits}")
    a = as_fraction(a)
    if d < 1 or a <= 0:
        raise PreconditionError("need dimension >= 1 and a > 0")
    # alpha**(2d) = a**2 / (4 * d**d) is rational regardless of parity.
    q = a * a / (4 * Fraction(d) ** d)
    exact = rational_root(q, 2 * d)
    if exact is not None:
        return exact, True
    while True:
        approx = dyadic_root_floor(q, 2 * d, bits)
        if approx > 0:
            return approx, False
        bits *= 2


@dataclass(frozen=True)
class ChainChecks:
    """The pipeline's inequality chain, each link an exact comparison.

    ``cube_constant`` records that sets are replaced by their enclosing
    axis-aligned cube (constant 1) rather than an enclosing ball, which is
    what keeps every quantity inside ℚ[√d].
    """

    sum_exceeds_half_a: bool
    diam_preserved: bool
    alpha_consistent: bool
    covers_target: bool
    gauge_dominates_covered_volume: bool
    cube_constant: str = "enclosing axis cube, constant 1"

    def all_ok(self) -> bool:
        return (
            self.sum_exceeds_half_a
            and self.diam_preserved
            and self.alpha_consistent
            and self.covers_target
            and self.gauge_dominates_covered_volume
        )


@dataclass(frozen=True)
class CorollaryReport:
    """Record of the measure-to-covered-cube pipeline, step by step.  The
    cover certificate is ``grid``: that many of the kept cubes per axis."""

    d: int
    a: Fraction
    delta: Fraction
    cover: DeltaCover
    alpha: Fraction
    alpha_exact: bool
    kept: int
    grid: int
    covered_cube: Box
    checks: ChainChecks


def grid_covers(d: int, side: Fraction, alpha: Fraction, kept: int, grid: int) -> bool:
    """Do ``grid**d`` of ``kept`` cubes of side ``side``, at the points
    ``side * j`` for j in ``[0, grid)^d``, cover ``[0, alpha/2)^d``?  Their
    union is ``[0, grid * side)^d``, so two exact comparisons decide it."""
    return grid * side >= alpha / 2 and grid**d <= kept


def corollary_pipeline(
    s: CantorSchedule,
    delta: Fraction,
    *,
    a: Fraction | None = None,
    bits: int = DEFAULT_ROOT_BITS,
) -> CorollaryReport:
    """From a measure lower bound to an explicitly covered cube.

    Steps: (1) validate ``0 < a <= limit measure``; (2) pick the first
    stage fine enough for ``delta``; (3) take the stage boxes as the cover
    and record the gauge sum for the exponent ``d``; (4) solve
    ``alpha**d = a / (2 d**(d/2))``; (5) keep the shortest prefix of the
    cover whose normalized volumes reach 1; (6) cover ``[0, alpha/2)^d``
    by a grid of the kept cubes, ``grid = ceil((alpha/2) / s)`` of them per
    axis, ``s`` their common side.  That is the packing lemma's cover for
    equal cubes, and the volume hypothesis ``kept * s**d >= alpha**d``
    gives ``grid**d <= kept``: if ``s <= alpha/2``, then ``grid < alpha/(2s)
    + 1 <= alpha/s``, and otherwise ``grid = 1``.  (7) check the grid by
    :func:`grid_covers`.
    """
    delta = as_fraction(delta)
    if a is None:
        a = s.limit_measure()
    a = as_fraction(a)
    if not 0 < a <= s.limit_measure():
        raise PreconditionError(
            f"a must lie in (0, {printable(s.limit_measure())}], got {printable(a)}"
        )
    d = s.d
    cover = nu_delta_upper(s, PowerGauge(d), delta)
    alpha, alpha_exact = side_scale_for(d, a, bits=bits)
    side = cover.side

    ratio = (side / alpha) ** d
    kept = -(-ratio.denominator // ratio.numerator)  # least k with k * ratio >= 1
    if kept > cover.count:
        raise AssertionError(
            "stage cover exhausted before reaching the packing hypothesis;"
            " the measure bound makes this impossible"
        )
    grid = math.ceil(alpha / (2 * side))
    covered_cube = Box.cube((Fraction(0),) * d, alpha / 2)

    # Exact inequality chain.  The kept cubes are axis cubes with the same
    # side as the cover boxes, so each has the cover's squared diameter,
    # d * side**2.
    half_a = ExtendedRational.from_rational(a / 2)
    sum_ok = (cover.value - half_a).sign() > 0
    diam_ok = cover.diam_squared == d * side * side
    q = a * a / (4 * Fraction(d) ** d)
    alpha_pow = alpha ** (2 * d)
    alpha_ok = alpha_pow == q if alpha_exact else alpha_pow <= q
    covered_vol = covered_cube.volume()
    gauge_ok = (cover.value - ExtendedRational.from_rational(covered_vol)).sign() >= 0
    checks = ChainChecks(
        sum_exceeds_half_a=sum_ok,
        diam_preserved=diam_ok,
        alpha_consistent=alpha_ok,
        covers_target=grid_covers(d, side, alpha, kept, grid),
        gauge_dominates_covered_volume=gauge_ok,
    )
    return CorollaryReport(d, a, delta, cover, alpha, alpha_exact, kept, grid, covered_cube, checks)


# ---------------------------------------------------------------------------
# The level function (measure below a first-coordinate threshold) and its
# certified inverse.
# ---------------------------------------------------------------------------


def _levels(lengths: list[int], point: int) -> Iterator[int]:
    """Stage-n levels of ``x = point / lengths[0]`` for n = 0, 1, ..., as integer numerators.

    ``lengths[n]`` is the stage-n interval length as an integer numerator
    over one common denominator, which is ``lengths[0]`` (stage 0 is
    [0, 1]); ``point`` is the abscissa ``x`` in [0, 1] over it, and the
    levels are numerators over it too, up to stage ``len(lengths) - 1``.

    The stage-n level is ``measure(stage-n set ∩ [0, x])`` in one
    dimension.  One walk down the path of ``x`` yields all of them, since
    the path (left child, right child or gap at each step) does not depend
    on n.  After step n, ``x`` lies in the stage-n interval starting at
    ``lo_n`` and has ``W_n`` stage-n intervals to its left, where ``W_n``
    is the path read as a binary word; each of them carries ``length_n``,
    so the level is ``length_n * W_n + (x - lo_n)``.  Once ``x`` falls in
    the gap of step g, the left child lies wholly below it and the right
    child wholly above, and the level is ``length_n * G * 2**(n-g)`` from
    then on, with ``G = 2*W_(g-1) + 1``.  A step costs one integer
    product.
    """
    lo, hi, word = 0, lengths[0], 0
    yield point
    for n in range(1, len(lengths)):
        child = lengths[n]
        if point >= hi - child:
            lo, word = hi - child, 2 * word + 1
        elif point <= lo + child:
            hi, word = lo + child, 2 * word
        else:
            blocks = 2 * word + 1
            for m in range(n, len(lengths)):
                yield lengths[m] * blocks << (m - n)
            return
        yield child * word + point - lo


def _bracket(s: CantorSchedule, n: int, level: Fraction) -> MeasureBounds:
    """Stage-n bounds ``[max(0, a - defect_n), a]`` with ``a = level * lambda_n**(d-1)``.

    ``a`` is the upper bound a document prints, so one too long to print is
    refused before the subtraction, which costs far more at that size.  A
    zero level has both bounds 0, with neither power computed."""
    if not level:
        return MeasureBounds(lower=Fraction(0), upper=Fraction(0), stage=n, leaf_count=1)
    at = printable(level * s.stage_measure_1d(n) ** (s.d - 1))
    lower = at - s.stage_defect(n)
    if lower < 0:
        lower = Fraction(0)
    return MeasureBounds(lower=lower, upper=at, stage=n, leaf_count=1)


def range_function(s: CantorSchedule, x: Fraction, stage: int) -> MeasureBounds:
    """Certified bounds for ``measure(limit set ∩ {first coordinate <= x})``.

    Agrees exactly with clipping the base generator to the half-space and
    taking its measure bounds at the same stage.  One descent along the
    path of ``x`` (``_levels``) gives the one-dimensional stage level in
    O(stage) integer operations instead of materializing
    ``2**(stage*d)`` boxes; the other d - 1 axes contribute the factor
    ``lambda_stage**(d-1)``.  An ``x`` outside [0, 1] is clamped, which
    gives level 0 below and ``lambda_stage`` above.  Both bounds are
    monotone nondecreasing in ``x`` at fixed stage.
    """
    if stage < 0:
        raise PreconditionError("stage must be nonnegative")
    x = as_fraction(x)
    lengths = s._ladder.over(stage, x.denominator)
    point = _numerator_over(min(max(x, Fraction(0)), Fraction(1)), lengths[0])
    *_, level = _levels(lengths, point)
    return _bracket(s, stage, Fraction(level, lengths[0]))


@dataclass(frozen=True)
class LevelSolution:
    """Result of inverting the level function at ``target``.

    ``status`` is ``"converged"`` when the certified ``[lo, hi]`` interval
    of abscissas shrank below half the tolerance, or ``"straddle"`` when
    some midpoint's own level bounds pin the target more tightly than the
    tolerance (the level function is locally flat there, so no point does
    better).  The invariant is exact throughout:
    level(lo) <= target <= level(hi); either way the bracket's midpoint
    is within ``tol`` of the target:
    ``|(bracket.lower + bracket.upper) / 2 - target| <= tol``.
    """

    target: Fraction
    point: Fraction
    lo: Fraction
    hi: Fraction
    bracket: MeasureBounds
    iterations: int
    status: str


def _verdict_cuts(
    s: CantorSchedule, lengths: list[int], target: Fraction, tol: Fraction
) -> list[tuple[int, int, int]]:
    """Per stage n >= 1, the level numerators at which ``_classify_point`` decides.

    All numerators are over ``D = lengths[0]``, and ``M_n = lengths[n] << n``
    is ``lambda_n`` over it.  A level numerator L has the stage-n bounds
    ``[max(0, a - defect_n), a]`` with ``a = L * M_n**(d-1) / D**d`` and
    ``defect_n = (M_n**d - lambda**d * D**d) / D**d``.  They are "le" when
    ``a <= target``, that is ``L <= floor(target * D**d / M_n**(d-1))``;
    "ge" when ``a - defect_n >= target > 0``, that is
    ``L >= M_n + ceil((target - lambda**d) * D**d / M_n**(d-1))``; and
    "straddle" when their width ``min(a, defect_n)`` is at most ``tol``.
    ``lengths`` must end at the first stage whose defect is within ``tol``
    (``_stage_for_width``).  A level never exceeds D, so that stage's
    straddle cut is D, and an earlier stage's is
    ``floor(tol * D**d / M_n**(d-1))``.  Each cut is one integer floor
    division, and each test one comparison of L with a cut.
    """
    d, den, last = s.d, lengths[0], len(lengths) - 1
    scale = den**d
    # target, lambda**d - target and tol, each times D**d, as a numerator
    # p over a denominator q
    le_p, le_q = target.numerator * scale, target.denominator
    gap = s.limit_measure() - target
    ge_p, ge_q = gap.numerator * scale, gap.denominator
    tol_p, tol_q = tol.numerator * scale, tol.denominator
    cuts = []
    for n in range(1, last + 1):
        m = lengths[n] << n
        unit = m ** (d - 1)
        cuts.append(
            (
                le_p // (le_q * unit),
                m - ge_p // (ge_q * unit) if target else 0,
                den if n == last else tol_p // (tol_q * unit),
            )
        )
    return cuts


def _classify_point(
    lengths: list[int], cuts: list[tuple[int, int, int]], point: int
) -> tuple[str, int, int]:
    """Certify level(x) <= target ("le"), >= target ("ge"), or "straddle".

    ``x`` is ``point / lengths[0]``.  Returns the verdict, the deciding
    stage and its level numerator.  The stages 1, 2, ... are tried along
    one descent of ``x``.  The tables end at the first stage whose defect
    is within the tolerance, and a bracket is never wider than the defect,
    so that stage straddles at the latest.
    """
    levels = _levels(lengths, point)
    next(levels)
    for n, (level, (le, ge, straddle)) in enumerate(zip(levels, cuts), 1):
        if level <= le:
            return "le", n, level
        if level >= ge:
            return "ge", n, level
        if level <= straddle:
            return "straddle", n, level
    raise AssertionError("the last stage's bracket is within the tolerance")


def _stage_for_width(s: CantorSchedule, width: Fraction) -> int:
    """First stage whose defect is at most ``width``; refused above ``MAX_STAGE``.

    ``lambda_n`` is ``M_n / D_n`` on the schedule's table, with
    ``M_n = lengths[n] << n`` and ``D_n = dens[n]``, so with
    ``p / q = width + lambda**d`` the test ``defect_n <= width`` is
    ``M_n**d * q <= p * D_n**d`` on integers.
    """
    ladder, d = s._ladder, s.d
    bound = width + s.limit_measure()
    p, q = bound.numerator, bound.denominator
    n = 1
    ladder.reach(n)
    while (ladder.lengths[n] << n) ** d * q > p * ladder.dens[n] ** d:
        n += 1
        check_stage(n)
        ladder.reach(n)
    return n


def solve_level(
    s: CantorSchedule,
    target: Fraction,
    *,
    tol: Fraction = DEFAULT_LEVEL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LevelSolution:
    """Find ``x`` whose level is ``target``, by certified bisection.

    Maintains level(lo) <= target <= level(hi) with exact comparisons at
    adaptively chosen stages.  The level function is 1-Lipschitz, so once
    ``hi - lo <= tol/2`` the midpoint's true level is within ``tol/2`` of
    the target; its bounds are then refined below width ``tol/2`` as well,
    giving ``|midpoint(bounds) - target| <= tol``.  Midpoints whose bounds
    cannot be separated from the target (flat spots of the level function)
    end the search early with an even tighter ``"straddle"`` result.  A
    tolerance below ``2**-MAX_TOL_BITS``, or one that needs a stage above
    ``cantor.MAX_STAGE``, is refused before the search starts, so a solve
    takes at most ``MAX_TOL_BITS + 1`` bisection steps.

    Cost: the stopping stage N = ``_stage_for_width(s, tol/2)`` is found
    on the schedule's table by one integer comparison per stage, and each
    stage's le/ge/straddle cuts are one integer floor division each, made
    once per solve.  ``lo``, ``hi`` and every midpoint are integer
    numerators over the table's common denominator, and each midpoint is
    one descent (``_levels``) that stops at its deciding stage, at one
    integer product and a few integer comparisons per stage, so a solve is
    O(N) midpoints of at most O(N) steps each.  Only the returned solution,
    or a ``BudgetError``'s partial bracket, becomes ``Fraction``s.
    """
    target = as_fraction(target)
    tol = as_fraction(tol)
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    if tol * (1 << MAX_TOL_BITS) < 1:
        raise PreconditionError(f"tolerance must be at least 2^-{MAX_TOL_BITS}")
    top = s.limit_measure()
    if not 0 <= target <= top:
        raise PreconditionError(f"target must lie in [0, {printable(top)}], got {printable(target)}")
    half = tol / 2
    stage = _stage_for_width(s, half)
    # The search stops once hi - lo <= half, so every abscissa it visits
    # is a multiple of 2**-(b + 1) with 2**b > 1/half, and the common
    # denominator ``den`` is a multiple of that grid: each midpoint of two
    # visited numerators over ``den`` is an integer.
    lengths = s._ladder.over(stage, 1 << (half.denominator.bit_length() + 1))
    cuts = _verdict_cuts(s, lengths, target, half)
    den = lengths[0]
    wide = half.numerator * den  # hi - lo > half on numerators over den
    lo, hi = 0, den
    iterations = 0
    while (hi - lo) * half.denominator > wide:
        if iterations >= max_iter:
            raise BudgetError(
                f"bisection did not reach tolerance within {max_iter} iterations",
                partial=(Fraction(lo, den), Fraction(hi, den)),
            )
        mid = (lo + hi) >> 1
        verdict, n, level = _classify_point(lengths, cuts, mid)
        if verdict == "le":
            lo = mid
        elif verdict == "ge":
            hi = mid
        else:
            point = Fraction(mid, den)
            return LevelSolution(
                target=target,
                point=point,
                lo=point,
                hi=point,
                bracket=_bracket(s, n, Fraction(level, den)),
                iterations=iterations + 1,
                status="straddle",
            )
        iterations += 1
    mid = (lo + hi) >> 1
    *_, level = _levels(lengths, mid)
    return LevelSolution(
        target=target,
        point=Fraction(mid, den),
        lo=Fraction(lo, den),
        hi=Fraction(hi, den),
        bracket=_bracket(s, stage, Fraction(level, den)),
        iterations=iterations,
        status="converged",
    )
