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
certified bisection inverse.  A point's stage-n level comes from one
integer walk down its path (``_level``), as a numerator over the common
denominator of the schedule's one table of stage lengths
(``cantor._Ladder``).  Every stage-n interval has the same length ``l_n``,
so the stage-N level is a nondecreasing staircase of slope-1 runs and flat
gaps, and its inverse (``_last_point_within``) reads a level's interval
off the binary digits of its quotient by ``l_N``.  A solve decides on the
table's integers: its stopping stage N
(``CantorSchedule._first_stage_within``), stage N's two verdict cuts, and
the two abscissas that the inverse makes of them once per solve, against
which each bisection midpoint is two integer comparisons.  A solve of b
steps thus takes O(N + b) integer operations (``solve_level`` gives the
cost), and only a returned solution becomes ``Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cantor import MAX_STAGE, CantorSchedule, _numerator_over, box_count, check_stage
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


def _level(lengths: list[int], point: int) -> int:
    """Stage-N level of ``x = point / lengths[0]`` as an integer numerator, N = ``len(lengths) - 1``.

    ``lengths[n]`` is the stage-n interval length as an integer numerator
    over one common denominator, which is ``lengths[0]`` (stage 0 is
    [0, 1]); ``point`` is the abscissa ``x`` in [0, 1] over it, and the
    level is a numerator over it too.

    The stage-N level is ``measure(stage-N set ∩ [0, x])`` in one
    dimension.  The walk follows the path of ``x`` down from [0, 1]: after
    step n, ``x`` lies in the stage-n interval starting at ``lo`` and has
    ``W_n`` stage-n intervals to its left, where ``W_n`` is the path (left
    or right child at each step) read as a binary word.  Each stage-N
    interval carries ``l_N``, so the level is ``l_N * W_N + (x - lo)``.
    If ``x`` falls in the gap of step g instead, the left child lies
    wholly below it and the right child wholly above, and the level is
    ``l_N * (2*W_(g-1) + 1) * 2**(N-g)``.  A step reads the table once.
    """
    last = len(lengths) - 1
    lo = word = 0
    parent = lengths[0]
    for n in range(1, last + 1):
        child = lengths[n]
        word <<= 1
        if point >= lo + parent - child:
            lo, word = lo + parent - child, word | 1
        elif point > lo + child:
            return lengths[last] * (word | 1) << (last - n)
        parent = child
    return lengths[last] * word + point - lo


def _last_point_within(lengths: list[int], level: int) -> int:
    """Largest point numerator whose stage-N level (``_level``) is at most ``level``.

    ``level`` must lie in ``[0, 2**N * l_N)``, below the full level.  In
    the symmetric construction every stage-N interval has the one length
    ``l_N``, so the stage-N level rises with slope 1 across each of them
    and is flat across each gap.  With ``(j, r) = divmod(level, l_N)``,
    it reaches ``level`` at ``lo_j + r`` in the j-th interval from the
    left, and ``lo_j + r + 1``, in the same closed interval, lies one
    above it.  ``lo_j`` is the sum of ``l_(k-1) - l_k``, the step from
    the left child to the right one at stage k, over the stages k whose
    bit of j is set, j read as an N-bit word from its most significant
    bit.  A set bit reads the table twice.
    """
    last = len(lengths) - 1
    word, point = divmod(level, lengths[last])
    for k, bit in enumerate(format(word, f"0{last}b"), 1):
        if bit == "1":
            point += lengths[k - 1] - lengths[k]
    return point


def _bracket(s: CantorSchedule, lengths: list[int], n: int, level: int) -> MeasureBounds:
    """Stage-n bounds ``[max(0, a - defect_n), a]`` with ``a = level * lambda_n**(d-1)``.

    ``level`` is a numerator over ``D = lengths[0]``, and so is
    ``lambda_n``, as ``lengths[n] << n``; ``defect_n`` is
    ``lambda_n**d - lambda**d``.  ``a`` is the upper bound a document
    prints, so one too long to print is refused before the subtraction,
    which costs far more at that size.  A zero level has both bounds 0,
    with neither power computed."""
    if not level:
        return MeasureBounds(lower=Fraction(0), upper=Fraction(0), stage=n, leaf_count=1)
    lam = Fraction(lengths[n] << n, lengths[0])
    at = printable(Fraction(level, lengths[0]) * lam ** (s.d - 1))
    lower = at - (lam**s.d - s.limit_measure())
    if lower < 0:
        lower = Fraction(0)
    return MeasureBounds(lower=lower, upper=at, stage=n, leaf_count=1)


def range_function(s: CantorSchedule, x: Fraction, stage: int) -> MeasureBounds:
    """Certified bounds for ``measure(limit set ∩ {first coordinate <= x})``.

    Agrees exactly with clipping the base generator to the half-space and
    taking its measure bounds at the same stage.  One descent along the
    path of ``x`` (``_level``) gives the one-dimensional stage level in
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
    return _bracket(s, lengths, stage, _level(lengths, point))


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
    ``|(bracket.lower + bracket.upper) / 2 - target| <= tol``.  A target
    below ``tol/2`` is a ``"straddle"`` at once: ``point``, ``lo`` and
    ``hi`` are 0, whose level is exactly 0, the bracket is ``[0, 0]`` at
    the stopping stage, and ``iterations`` is 0.
    """

    target: Fraction
    point: Fraction
    lo: Fraction
    hi: Fraction
    bracket: MeasureBounds
    iterations: int
    status: str


def _verdict_cuts(s: CantorSchedule, lengths: list[int], target: Fraction) -> tuple[int, int]:
    """The stage-N level numerators ``(LE, GE)`` at which ``solve_level`` decides, N = ``len(lengths) - 1``.

    All numerators are over ``D = lengths[0]``, and ``M = lengths[N] << N``
    is ``lambda_N`` over it.  A level numerator L has the stage-N bounds
    ``[max(0, a - defect_N), a]`` with ``a = L * M**(d-1) / D**d`` and
    ``defect_N = (M**d - lambda**d * D**d) / D**d``.  They are "le" when
    ``a <= target``, that is ``L <= LE = floor(target * D**d / M**(d-1))``,
    and "ge" when ``a - defect_N >= target > 0``, that is ``L >= GE = M -
    floor((lambda**d - target) * D**d / M**(d-1))``.  For ``0 < target <=
    lambda**d``, which is below ``lambda_N**d``, ``0 <= LE < M`` and ``1
    <= GE <= M``: both cuts are levels that ``_last_point_within`` inverts.
    """
    d, den, last = s.d, lengths[0], len(lengths) - 1
    m = lengths[last] << last
    scale, unit = den**d, m ** (d - 1)
    gap = s.limit_measure() - target
    return (
        target.numerator * scale // (target.denominator * unit),
        m - gap.numerator * scale // (gap.denominator * unit),
    )


def solve_level(
    s: CantorSchedule,
    target: Fraction,
    *,
    tol: Fraction = DEFAULT_LEVEL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LevelSolution:
    """Find ``x`` whose level is ``target``, by certified bisection.

    Maintains level(lo) <= target <= level(hi) with exact comparisons at
    the stopping stage N, the first whose defect is at most ``tol/2``.  The
    level function is 1-Lipschitz, so once ``hi - lo <= tol/2`` the
    midpoint's true level is within ``tol/2`` of the target, and its
    stage-N bounds are at most ``tol/2`` wide, giving ``|midpoint(bounds)
    - target| <= tol``.  A midpoint whose bounds cannot be separated from
    the target (a flat spot of the level function) ends the search early
    with an even tighter ``"straddle"`` result.  A target below ``tol/2``
    is solved at x = 0, whose level is exactly 0, before any bisection
    (see ``LevelSolution``).  A tolerance below ``2**-MAX_TOL_BITS``, or
    one that needs a stage above ``cantor.MAX_STAGE``, is refused before
    the search starts, so a solve takes at most ``MAX_TOL_BITS + 1``
    bisection steps.

    Why stage N alone decides: at a stage n below N the defect is above
    ``tol/2``, so a bracket there is at most ``tol/2`` wide only when its
    upper bound is, and then it is "le", which is tested first, since the
    target is at least ``tol/2``.  As n grows the upper bound only falls
    and the lower bound only rises, so a midpoint that is "le" or "ge" at
    some stage is so at N, and one that is neither at N straddles there.

    Cost: N is found by ``CantorSchedule._first_stage_within`` at one
    integer comparison per stage.  Stage N's two verdict cuts
    (``_verdict_cuts``) are one integer floor division each, and the
    inverse of the stage-N level (``_last_point_within``) turns them, once
    per solve, into the abscissas at and below which a midpoint is "le"
    and at and above which it is "ge".  ``lo``, ``hi`` and every midpoint
    are integer numerators over the table's common denominator, so a
    bisection step is two integer comparisons, and a solve of b steps
    takes O(N + b) integer operations wherever the target lies; the
    straddling midpoint or the converged point is walked once
    (``_level``).  Only the returned solution, or a ``BudgetError``'s
    partial bracket, becomes ``Fraction``s.
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
    stage = s._first_stage_within(half, MAX_STAGE)
    if stage is None:
        raise PreconditionError(
            f"tolerance {printable(tol)} needs a stage above MAX_STAGE = {MAX_STAGE}"
        )
    # The search stops once hi - lo <= half, so every abscissa it visits
    # is a multiple of 2**-(b + 1) with 2**b > 1/half, and the common
    # denominator ``den`` is a multiple of that grid: each midpoint of two
    # visited numerators over ``den`` is an integer.
    lengths = s._ladder.over(stage, 1 << (half.denominator.bit_length() + 1))
    if target < half:
        zero = Fraction(0)
        return LevelSolution(
            target=target,
            point=zero,
            lo=zero,
            hi=zero,
            bracket=_bracket(s, lengths, stage, 0),
            iterations=0,
            status="straddle",
        )
    le, ge = _verdict_cuts(s, lengths, target)
    # A stage-N level is nondecreasing in x: a midpoint is "le" when it is
    # at most ``below`` and "ge" when it is at least ``above``.
    below, above = _last_point_within(lengths, le), _last_point_within(lengths, ge - 1) + 1
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
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            point = Fraction(mid, den)
            return LevelSolution(
                target=target,
                point=point,
                lo=point,
                hi=point,
                bracket=_bracket(s, lengths, stage, _level(lengths, mid)),
                iterations=iterations + 1,
                status="straddle",
            )
        iterations += 1
    mid = (lo + hi) >> 1
    return LevelSolution(
        target=target,
        point=Fraction(mid, den),
        lo=Fraction(lo, den),
        hi=Fraction(hi, den),
        bracket=_bracket(s, lengths, stage, _level(lengths, mid)),
        iterations=iterations,
        status="converged",
    )
