"""Symmetric fat Cantor sets with exact stage arithmetic.

The 1-D construction starts from [0, 1] and at stage k removes the open
middle interval of length ``c * rho**k`` from each surviving interval; the
d-dimensional set is the product of d copies.  With ``2*rho < 1`` the
removals form a geometric series and everything is closed-form in
rationals: stage measures, the limit measure, interval endpoints, and the
gap structure behind the nowhere-density witnesses.

A stage-n approximation is a union of ``2**(n*d)`` boxes, so exact
materialization explodes quickly.  Stage sets are built on an integer
lattice (``StageLattice``): each axis in units of one common denominator,
so building, combining and measuring them is integer work, and Fractions
are made only for a set a caller keeps.  The lattice holds the stage set
once per distinct axis scale, as its 2**n lower ends and their one common
length (``CantorSchedule._stage_lows``, the one builder of stage
intervals); a leaf bisects that list for its clip and emits its shifted
intervals in one pass, and its slab tree holds its d interval lists, not
its boxes.

Gap search walks the 1-D construction tree level by level
(``_Walk``): a level keeps the intervals whose closure meets a query
window, and the walk stops at the first empty level.  ``find_gap`` keeps
one walk per axis across its stages, so a search that ends at stage M walks at
most d*(M + 1) levels.  Validation has its own descent
(:meth:`CantorSchedule.interval_meets_stage_translate`): it follows the one
interval that holds both ends of a query until they part or fall into one
gap, and shares no code with the search.  Both run on integers.  A gap
certificate is checked in one place, ``_misses_stage_translate`` (that
descent on each axis of the box), which ``cover.uncovered_witness_valid`` runs.

Every stage length comes from one table per schedule (``_Ladder``): the
lengths ``l_k = (l_(k-1) - c*rho**k) / 2`` as numerators over the common
denominator of levels 0..k, computed on integers once, extended one level
at a time as a caller first needs it, and kept for the schedule.  The
walks, the stage sets, the level function of :mod:`.hausdorff` and its
inverse (``_level`` and ``_last_point_within``), and the one stopping-stage
search (``CantorSchedule._first_stage_within``, which
``hausdorff.solve_level`` and ``ring.premeasure`` call) all read it.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import BudgetError, DimensionMismatchError, PreconditionError
from .geometry import _POINT, Box, BoxUnion, _box_tree, _map_ends, _Tree, check_kernel_dim
from .rationals import as_fraction, is_finite, printable

DEFAULT_BOX_CAP = 1 << 16  # boxes in one stage set; a power of two
# Deepest stage that stage sets and the closed-form reports (``cantor-info``,
# ``hausdorff-bound``, ``range-solve --x``) accept.  Stage-n closed forms
# and the box count 2**(n*d) are integers of about n*d bits; far deeper
# stages would spend their time and memory in big-integer work (and Python
# refuses to print integers of more than 4300 digits), so they are refused
# before any of it.
MAX_STAGE = 1024
# Largest ambient dimension a schedule accepts: closed forms of stage n are
# integers of about n*d bits, so a larger d is refused before any of them.
MAX_DIM = 5000


def check_stage(n: int) -> int:
    """Reject a stage outside ``0..MAX_STAGE`` before any work on it; return it."""
    if not 0 <= n <= MAX_STAGE:
        raise PreconditionError(f"stage must be between 0 and {MAX_STAGE}, got {n}")
    return n


def box_count(n: int, d: int) -> int:
    """``2**(n*d)``, the stage-n box count, refused (``rationals.printable``)
    as a document holding it would be when it has more digits than Python
    prints, before any closed form of the stage is computed."""
    return printable(1 << (n * d))


def _numerator_over(v: Fraction, scale: int) -> int:
    """The numerator of ``v`` over ``scale``, a multiple of its denominator."""
    return v.numerator * (scale // v.denominator)


_lo, _hi = itemgetter(0), itemgetter(1)  # a slab's lower and upper end


def _volume(tree: _Tree, d: int) -> int:
    """Integer volume of a lattice tree, axis by axis: each distinct section
    (by identity) carries the summed products above it, and is walked once.
    On the last axis a section's length is the sum of its upper ends less
    the sum of its lower ends, two ``map`` passes with no per-slab frame."""
    level = {id(tree): [tree, 1]}
    for _ in range(d - 1):
        below: dict[int, list] = {}
        for section, weight in level.values():
            for x0, x1, sub in section:
                below.setdefault(id(sub), [sub, 0])[1] += weight * (x1 - x0)
        level = below
    return sum(weight * (sum(map(_hi, section)) - sum(map(_lo, section))) for section, weight in level.values())


@dataclass(frozen=True)
class StageLattice:
    """Stage-n leaves on an integer lattice: axis i in units of ``1/scales[i]``.

    On axis i the stage intervals are ``[x, x + lengths[i]]`` for ``x`` in
    ``lows[i]``, all integers over ``scales[i]``; axes of one scale share
    one list.  A leaf is the product of its d shifted and clipped interval
    lists, as the slab tree that ``geometry._combine`` takes.  Scaling each
    axis by a positive constant keeps order and equality, so the kernel's
    canonical forms, equality and dedup on the lattice are those of the
    rational sets.  A measure is one integer sum (:meth:`measure`), and no
    result is converted back to Fractions except by
    :meth:`CantorSchedule.stage_approx`.
    """

    d: int
    scales: tuple[int, ...]
    lows: tuple[list[int], ...]
    lengths: tuple[int, ...]

    def leaf(self, t: Sequence[object], clip: Box) -> _Tree:
        """``(A_n + t) ∩ clip`` as a canonical slab tree; ``t`` and the finite
        clip ends must lie on the lattice.

        Stage intervals never touch, so each clipped list is a canonical
        1-D union and their product is canonical as it stands: the slabs on
        axis i are its intervals, all sharing one section, axes i+1 on.
        """
        if clip.is_empty:
            return ()
        axes = []
        for lows, length, scale, shift, lo_clip, hi_clip in zip(
            self.lows, self.lengths, self.scales, t, clip.lo, clip.hi
        ):
            offset = _numerator_over(as_fraction(shift), scale)
            # The intervals that meet the clip: an interval is dropped when
            # its upper end is at most the lower cut, or its lower end at
            # least the upper cut.
            lo_cut = _numerator_over(lo_clip, scale) if is_finite(lo_clip) else None
            hi_cut = _numerator_over(hi_clip, scale) if is_finite(hi_clip) else None
            first = 0 if lo_cut is None else bisect_right(lows, lo_cut - offset - length)
            stop = len(lows) if hi_cut is None else bisect_left(lows, hi_cut - offset, lo=first)
            if first == stop:
                return ()
            axes.append((lows, first, stop, offset, length, lo_cut, hi_cut))
        tree = _POINT
        for lows, first, stop, offset, length, lo_cut, hi_cut in reversed(axes):
            top = offset + length
            slabs = [(x + offset, x + top, tree) for x in lows[first:stop]]
            if lo_cut is not None and slabs[0][0] < lo_cut:
                slabs[0] = (lo_cut, slabs[0][1], tree)
            if hi_cut is not None and slabs[-1][1] > hi_cut:
                slabs[-1] = (slabs[-1][0], hi_cut, tree)
            tree = tuple(slabs)
        return tree

    def box(self, box: Box) -> _Tree:
        """A bounded box as a canonical slab tree; its ends must lie on the lattice."""
        if box.is_empty:
            return ()
        return _box_tree(
            [_numerator_over(v, scale) for v, scale in zip(box.lo, self.scales)],  # type: ignore[arg-type]
            [_numerator_over(v, scale) for v, scale in zip(box.hi, self.scales)],  # type: ignore[arg-type]
        )

    def bounding_box(self, tree: _Tree) -> Box:
        """The least box holding a nonempty lattice tree, in rational coordinates."""
        lo, hi, level = [], [], [tree]
        for scale in self.scales:
            lo.append(Fraction(min(section[0][0] for section in level), scale))
            hi.append(Fraction(max(section[-1][1] for section in level), scale))
            level = list({id(sub): sub for section in level for _, _, sub in section}.values())
        return Box(tuple(lo), tuple(hi))

    def measure(self, tree: _Tree) -> Fraction:
        """Lebesgue measure of a canonical lattice tree: one integer sum, reduced once."""
        return Fraction(_volume(tree, self.d), prod(self.scales))


class _Ladder:
    """The schedule's one table of stage lengths, grown one level at a time.

    Only here are the lengths ``l_k = (l_(k-1) - c*rho**k) / 2`` computed,
    on integers: with ``c = cp/cq`` and ``rho = p/q``, ``l_k = U_k / E_k``
    where ``E_k = cq * (2q)**k``, ``U_0 = cq`` and ``U_k = q*U_(k-1) -
    cp * p**k * 2**(k-1)``, reduced by one gcd per level; each equals the
    closed form ``stage_interval_length(k)`` exactly.  ``lengths[k]`` is
    ``l_k`` over ``dens[k] = D_k``, the common denominator of ``l_0 ..
    l_k``, and ``steps[k]`` is ``D_k / D_(k-1)`` (``D_0 = 1``), so a
    position over ``D_(k-1)`` times ``steps[k]`` is the same position over
    ``D_k``.  A level is computed when a caller first asks for it and kept
    for the schedule, so a walk that stops early costs nothing for the
    levels below.
    """

    __slots__ = ("lengths", "steps", "dens", "_u", "_e", "_removal", "_two_p", "_q", "_two_q")

    def __init__(self, c: Fraction, rho: Fraction) -> None:
        self.lengths = [1]
        self.steps = [1]
        self.dens = [1]
        # U_0 over E_0, and twice the removal term, cp * (2p)**k, at k = 0.
        self._u = self._e = c.denominator
        self._removal = c.numerator
        self._two_p, self._q, self._two_q = 2 * rho.numerator, rho.denominator, 2 * rho.denominator

    def reach(self, k: int) -> None:
        """Make the levels up to ``k`` available."""
        lengths, steps, dens = self.lengths, self.steps, self.dens
        two_p, q, two_q = self._two_p, self._q, self._two_q
        u, e, removal = self._u, self._e, self._removal
        while len(lengths) <= k:
            removal *= two_p
            u = q * u - (removal >> 1)
            e *= two_q
            g = gcd(u, e)
            reduced = e // g
            den = lcm(dens[-1], reduced)
            steps.append(den // dens[-1])
            lengths.append(u // g * (den // reduced))
            dens.append(den)
        self._u, self._e, self._removal = u, e, removal

    def over(self, n: int, grain: int = 1) -> list[int]:
        """Lengths of stages 0..n as integer numerators over ``lcm(D_n, grain)``.

        That denominator is the first entry (the stage-0 length is 1).  It
        is a multiple of ``grain``, so rationals whose denominator divides
        ``grain`` share it.
        """
        self.reach(n)
        den = lcm(self.dens[n], grain)
        return [length * (den // at) for length, at in zip(self.lengths[: n + 1], self.dens)]


class _Walk:
    """The search's walk down the construction tree of ``A + shift``.

    At level k it holds the closed stage-k intervals of ``A_k + shift``
    that meet the closed window [qlo, qhi], left to right; :meth:`advance`
    moves it one level down.  Positions are integers in units of
    ``1/den``, ``den = D_k * g`` with g the common denominator of the shift
    and the window ends: ``lo`` and ``hi`` are the window, ``lows`` the
    lower ends of the kept intervals, and every interval of the level has
    length ``child``.
    """

    __slots__ = ("_ladder", "_g", "level", "den", "lo", "hi", "child", "lows")

    def __init__(self, ladder: _Ladder, shift: Fraction, qlo: Fraction, qhi: Fraction) -> None:
        g = lcm(shift.denominator, qlo.denominator, qhi.denominator)
        self._ladder, self._g = ladder, g
        self.level = 0
        self.den = self.child = g
        self.lo = qlo.numerator * (g // qlo.denominator)
        self.hi = qhi.numerator * (g // qhi.denominator)
        start = shift.numerator * (g // shift.denominator)
        self.lows = [start] if start + g >= self.lo and start <= self.hi else []

    def advance(self) -> None:
        """Split every kept interval and keep the children that meet the window."""
        k = self.level = self.level + 1
        ladder = self._ladder
        if k == len(ladder.lengths):
            ladder.reach(k)
        step = ladder.steps[k]
        child = ladder.lengths[k] * self._g
        # The right child starts this far above the left one.
        offset = self.child * step - child
        self.child = child
        self.den *= step
        lo = self.lo = self.lo * step
        hi = self.hi = self.hi * step
        # A kept parent meets the window, and its left child starts no higher
        # and its right child ends no lower than it: one test each.
        kept = []
        for x in self.lows:
            x *= step
            if x + child >= lo:
                kept.append(x)
            if x + offset <= hi:
                kept.append(x + offset)
        self.lows = kept

    def first_free(self) -> "tuple[int, int] | None":
        """The leftmost positive-length open piece of (lo, hi) that misses this
        level, in units of ``1/den``, or ``None`` when the level covers it."""
        cursor, hi, child = self.lo, self.hi, self.child
        for x in self.lows:
            if x > cursor:
                return cursor, min(x, hi)
            cursor = max(cursor, x + child)
            if cursor >= hi:
                return None
        return (cursor, hi) if cursor < hi else None


@dataclass(frozen=True)
class CantorSchedule:
    """Removal schedule r_k = c * rho**k in ambient dimension d.

    Validity needs ``2*rho < 1`` (children keep positive length at every
    split) and ``c*rho/(1 - 2*rho) < 1`` (the removed total stays below 1,
    so the limit set keeps positive measure).  Positivity of the limit also
    guarantees feasibility stage by stage: lambda_k - c*rho*(2*rho)**k is
    decreasing in k with positive limit, hence every surviving interval is
    strictly longer than the next removal.
    """

    d: int
    c: Fraction = Fraction(1)
    rho: Fraction = Fraction(1, 4)

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or not 1 <= self.d <= MAX_DIM:
            raise PreconditionError(f"dimension must be an integer from 1 to {MAX_DIM}, got {self.d!r}")
        c = as_fraction(self.c)
        rho = as_fraction(self.rho)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rho", rho)
        if c <= 0:
            raise PreconditionError(f"c must be positive, got {printable(c)}")
        if rho <= 0 or 2 * rho >= 1:
            raise PreconditionError(f"rho must satisfy 0 < 2*rho < 1, got {printable(rho)}")
        if c * rho / (1 - 2 * rho) >= 1:
            raise PreconditionError(
                f"removed total c*rho/(1-2*rho) = {printable(c * rho / (1 - 2 * rho))}"
                " must stay below 1"
            )

    # -- closed forms ------------------------------------------------------

    def removal_length(self, k: int) -> Fraction:
        if k < 1:
            raise PreconditionError(f"removals start at stage 1, got {k}")
        return self.c * self.rho**k

    def stage_measure_1d(self, n: int) -> Fraction:
        """lambda_1(A_n) = 1 - sum_{k<=n} 2**(k-1) * c * rho**k, exactly."""
        if n < 0:
            raise PreconditionError(f"stage must be nonnegative, got {n}")
        two_rho = 2 * self.rho
        removed = self.c * self.rho * (1 - two_rho**n) / (1 - two_rho)
        return 1 - removed

    def limit_measure_1d(self) -> Fraction:
        return 1 - self.c * self.rho / (1 - 2 * self.rho)

    def stage_measure(self, n: int) -> Fraction:
        return self.stage_measure_1d(n) ** self.d

    def limit_measure(self) -> Fraction:
        return self._limit

    @functools.cached_property
    def _limit(self) -> Fraction:
        return self.limit_measure_1d() ** self.d

    def stage_defect(self, n: int) -> Fraction:
        """lambda(A_n^d \\ C^d) = lambda_1(A_n)**d - lambda_1(C)**d."""
        return self.stage_measure(n) - self.limit_measure()

    def stage_interval_length(self, n: int) -> Fraction:
        """Common length of the 2**n surviving intervals at stage n."""
        return self.stage_measure_1d(n) / (1 << n)

    # -- stage geometry ----------------------------------------------------

    def stage_intervals_1d(self, n: int) -> list[tuple[Fraction, Fraction]]:
        """All 2**n closed surviving intervals [lo, hi] at stage n, left to right."""
        check_stage(n)
        if (1 << n) > DEFAULT_BOX_CAP:
            raise BudgetError(
                f"stage {n} has {1 << n} intervals, above the cap of {DEFAULT_BOX_CAP}"
            )
        den, lows, length = self._stage_lows(n)
        return [(Fraction(x, den), Fraction(x + length, den)) for x in lows]

    def _stage_lows(self, n: int, grain: int = 1) -> tuple[int, list[int], int]:
        """The stage-n intervals over ``den = lcm(D_n, grain)``: ``(den, lows,
        length)``, with the 2**n lower ends left to right and their common
        length, all integers.

        The right child of a stage-(k-1) interval starts ``l_(k-1) - l_k``
        above its left child, so the interval with address bits ``b_1 ..
        b_n`` starts at the sum of those gaps over its set bits: the list
        doubles once per stage, from the deepest up.
        """
        lengths = self._ladder.over(n, grain)
        lows = [0]
        for k in range(n, 0, -1):
            gap = lengths[k - 1] - lengths[k]
            lows += [x + gap for x in lows]
        return lengths[0], lows, lengths[n]

    def stage_approx(self, n: int) -> BoxUnion:
        """Stage-n approximation as a canonical half-open box union.

        The true stage set is closed; its half-open realization here has the
        same measure and supports exact box algebra.  Gap queries, which
        do care about endpoints, use the closed-interval helpers instead.
        """
        lattice = self.lattice(n, ())
        tree = lattice.leaf((0,) * self.d, Box.whole_space(self.d))
        to_fraction = functools.partial(Fraction, denominator=lattice.scales[0])
        return BoxUnion(self.d, _map_ends(tree, [to_fraction] * self.d))

    @property
    def feasible_stage(self) -> int:
        """Largest stage whose set the box cap admits: ``2**(n*d) <= DEFAULT_BOX_CAP``."""
        return (DEFAULT_BOX_CAP.bit_length() - 1) // self.d

    def lattice(self, n: int, leaves: Iterable[tuple[Sequence[object], Box]]) -> StageLattice:
        """The integer lattice on which stage-n leaves ``(A_n + t) ∩ clip`` are built.

        Axis i is scaled by the lcm of the stage denominator and of the
        denominators of every ``t_i`` and finite clip end on axis i of
        ``leaves``.  The stage, the box cap and the dimension
        (``geometry.MAX_KERNEL_DIM``) are checked before any work.
        """
        check_stage(n)
        if n > self.feasible_stage:
            raise BudgetError(
                f"stage {n} in dimension {self.d} needs 2^{n * self.d} boxes, above the cap of"
                f" {DEFAULT_BOX_CAP}; largest feasible stage is {self.feasible_stage}"
            )
        check_kernel_dim(self.d)
        ladder = self._ladder
        ladder.reach(n)
        dens: list[set[int]] = [{ladder.dens[n]} for _ in range(self.d)]
        for t, clip in leaves:
            for axis_dens, shift, lo_clip, hi_clip in zip(dens, t, clip.lo, clip.hi):
                axis_dens.add(as_fraction(shift).denominator)
                axis_dens.update(v.denominator for v in (lo_clip, hi_clip) if is_finite(v))
        scales = tuple(lcm(*axis_dens) for axis_dens in dens)
        # Each distinct scale gets its stage set built once, at that scale.
        built = {scale: self._stage_lows(n, scale) for scale in set(scales)}
        return StageLattice(
            self.d,
            scales,
            tuple(built[scale][1] for scale in scales),
            tuple(built[scale][2] for scale in scales),
        )

    @functools.cached_property
    def _ladder(self) -> _Ladder:
        return _Ladder(self.c, self.rho)

    def _first_stage_within(self, width: Fraction, last: int) -> int | None:
        """First stage n in ``1..last`` whose defect is at most ``width``, or ``None``.

        ``lambda_1(A_n)`` is ``M_n / D_n`` on the table, with ``M_n =
        lengths[n] << n`` and ``D_n = dens[n]``, so with ``p / q = width +
        lambda**d`` the test ``stage_defect(n) <= width`` is ``M_n**d * q <=
        p * D_n**d`` on integers: one comparison per stage, no ``Fraction``.
        """
        ladder, d = self._ladder, self.d
        bound = width + self.limit_measure()
        p, q = bound.numerator, bound.denominator
        for n in range(1, last + 1):
            ladder.reach(n)
            if (ladder.lengths[n] << n) ** d * q <= p * ladder.dens[n] ** d:
                return n
        return None

    def _descend_overlapping(
        self, n: int, qlo: Fraction, qhi: Fraction
    ) -> list[tuple[Fraction, Fraction]]:
        """Stage-n surviving intervals whose closure meets [qlo, qhi], left to right."""
        walk = _Walk(self._ladder, Fraction(0), qlo, qhi)
        while walk.level < n and walk.lows:
            walk.advance()
        if walk.level < n:
            return []
        den, child = walk.den, walk.child
        return [(Fraction(x, den), Fraction(x + child, den)) for x in walk.lows]

    def first_free_subinterval(
        self, n: int, t: Fraction, jlo: Fraction, jhi: Fraction
    ) -> tuple[Fraction, Fraction] | None:
        """Leftmost positive-length open piece of (jlo, jhi) missing A_n + t.

        Returns an open interval disjoint from the closed stage-n set
        translated by t, or ``None`` when the translate covers (jlo, jhi).
        """
        if jlo >= jhi:
            raise PreconditionError(f"empty query interval ({jlo}, {jhi})")
        walk = _Walk(self._ladder, t, jlo, jhi)
        while walk.level < n and walk.lows:
            walk.advance()
        free = walk.first_free()
        return None if free is None else (Fraction(free[0], walk.den), Fraction(free[1], walk.den))

    def interval_meets_stage_translate(
        self, n: int, t: Fraction, qlo: Fraction, qhi: Fraction
    ) -> bool:
        """Does the closed interval [qlo, qhi] meet the closed A_n + t?

        The validator's own descent, sharing no code with the search's walk.
        With ``a = qlo - t`` and ``b = qhi - t``, it follows the one interval
        ``[lo, hi]`` of each stage that holds both ends strictly inside.  The
        ends of a stage interval are ends at every later stage, so [a, b]
        meets ``A_n`` as soon as it holds one; it misses ``A_n`` when both
        ends fall into one removed gap of a stage ``<= n``.  A query of
        positive length is decided once the intervals are shorter than it,
        however large ``n`` is.  Integers in units of ``1/(D_k * g)``, g the
        common denominator of ``t``, ``qlo`` and ``qhi``.
        """
        g = lcm(t.denominator, qlo.denominator, qhi.denominator)
        shift = t.numerator * (g // t.denominator)
        a = qlo.numerator * (g // qlo.denominator) - shift
        b = qhi.numerator * (g // qhi.denominator) - shift
        lo, hi = 0, g
        if b < lo or a > hi:
            return False
        ladder = self._ladder
        lengths, steps = ladder.lengths, ladder.steps
        k = 0
        while lo < a and b < hi and k < n:
            k += 1
            if k == len(lengths):
                ladder.reach(k)
            step = steps[k]
            if step != 1:
                a, b, lo, hi = a * step, b * step, lo * step, hi * step
            child = lengths[k] * g
            if b < lo + child:
                hi = lo + child
            elif a > hi - child:
                lo = hi - child
            else:
                # Both children's inner ends lie in [a, b] unless both query
                # ends are in the gap between them.
                return a <= lo + child or b >= hi - child
        return True


@dataclass(frozen=True)
class GapCertificate:
    """An open box exactly disjoint from a stage approximation.

    ``box`` is interpreted as its open interior; disjointness from the
    closed stage-``stage`` translate is exact and robust (the witness is
    shrunk away from the gap boundary, so even the closure stays clear).
    """

    stage: int
    box: Box


@dataclass(frozen=True)
class NeedsDeeperStage:
    """Search ran to its stage cap without producing a certificate."""

    deepest_stage: int
    element_index: int | None = None
    leaf_index: int | None = None


def middle_half(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink (lo, hi) by a quarter of its length on each side."""
    margin = (hi - lo) / 4
    return lo + margin, hi - margin


def find_gap(
    s: CantorSchedule, t: Sequence[object], j: Box, stage_cap: int
) -> GapCertificate | NeedsDeeperStage:
    """Open sub-box of ``j`` missing the translated stage approximation.

    Scans stages m = 0, 1, ... and within each stage the axes in order,
    taking the leftmost free piece of the first axis that has one; the
    witness is the middle half of that piece (a product set misses the
    translate as soon as one coordinate factor does).  Deterministic:
    smallest qualifying stage, then lexicographic position.  Each axis
    keeps one walk (``_Walk``) and moves it one level per stage, so a
    search that ends at stage M walks at most M + 1 levels per axis.
    """
    if len(t) != s.d or j.dim != s.d:
        raise DimensionMismatchError(
            f"translation of length {len(t)}, box of dimension {j.dim}, schedule dimension {s.d}"
        )
    if not j.is_bounded:
        raise PreconditionError("find_gap needs a bounded query box")
    if j.is_empty:
        raise PreconditionError("find_gap needs a query box with positive sides")
    if stage_cap < 0:
        raise PreconditionError(f"stage cap must be nonnegative, got {stage_cap}")
    shift = [as_fraction(v) for v in t]
    walks: list[_Walk] = []
    for m in range(stage_cap + 1):
        for axis in range(s.d):
            if m:
                walk = walks[axis]
                walk.advance()
            else:
                walk = _Walk(s._ladder, shift[axis], j.lo[axis], j.hi[axis])  # type: ignore[arg-type]
                walks.append(walk)
            free = walk.first_free()
            if free is None:
                continue
            # The middle half of the piece, (3*lo + hi)/4 to (lo + 3*hi)/4.
            x0, x1 = free
            quarter = 4 * walk.den
            lo = list(j.lo)
            hi = list(j.hi)
            lo[axis] = Fraction(3 * x0 + x1, quarter)
            hi[axis] = Fraction(x0 + 3 * x1, quarter)
            return GapCertificate(stage=m, box=Box(tuple(lo), tuple(hi)))
    return NeedsDeeperStage(deepest_stage=stage_cap)


def _misses_stage_translate(s: CantorSchedule, t: Sequence[object], stage: int, box: Box) -> bool:
    """Does the open ``box`` miss the closed ``A_stage + t``: does some
    coordinate interval meet no surviving interval?  The one check of a gap
    certificate, run by ``cover.uncovered_witness_valid``; the caller has checked
    that ``t`` has ``s.d`` coordinates and ``box`` is a bounded, nonempty box
    of dimension ``s.d``."""
    shift = [as_fraction(v) for v in t]
    for axis in range(s.d):
        if not s.interval_meets_stage_translate(
            stage, shift[axis], box.lo[axis], box.hi[axis]  # type: ignore[arg-type]
        ):
            return True
    return False
