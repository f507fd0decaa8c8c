"""Gauge sums over stage covers, exact roots, the covering corollary, and
the level-set solver.

Root-finding oracles here use plain bisection over integers, which shares
nothing with the package's Newton iteration.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatcantor import (
    Box,
    BudgetError,
    CantorSchedule,
    CubeFamily,
    ExtendedRational,
    LevelSolution,
    MeasureBounds,
    PackingLayout,
    PowerGauge,
    PreconditionError,
    UnboundedBoxError,
    base_expr,
    clip_to_box,
    corollary_pipeline,
    dyadic_root_floor,
    layout_covers,
    measure_bounds,
    min_stage_for_delta,
    nu_delta_upper,
    pow2,
    range_function,
    rational_root,
    side_scale_for,
    solve_level,
)
from fatcantor import cantor, hausdorff
from fatcantor.cantor import MAX_STAGE
from fatcantor.hausdorff import (
    DEFAULT_MAX_ITER,
    MAX_TOL_BITS,
    _last_point_within,
    _level,
    _verdict_cuts,
    grid_covers,
)

import level_oracle
from strategies import boxes, fractions, positive_fractions, unit_fractions

S1 = CantorSchedule(1)


def diam_squared(box: Box) -> Fraction:
    """Squared diameter of a box's closure, exact: the sum of its squared
    sides, a plain rational though the diameter itself usually is not."""
    if box.is_empty:
        raise PreconditionError("diameter of the empty set is undefined here")
    if not box.is_bounded:
        raise UnboundedBoxError("diameter requires bounded boxes")
    return sum((hi - lo) ** 2 for lo, hi in zip(box.lo, box.hi))


def corner_diam_squared(boxes: list[Box]) -> Fraction:
    """Largest squared distance between two corners of the boxes (oracle)."""
    corners = [c for b in boxes for c in itertools.product(*zip(b.lo, b.hi))]
    return max(
        (sum((p - q) ** 2 for p, q in zip(a, b)) for a, b in itertools.combinations(corners, 2)),
        default=Fraction(0),
    )


def kept_by_summing(ratio: Fraction, count: int) -> int:
    """Shortest prefix of ``count`` equal terms ``ratio`` whose sum reaches 1 (oracle)."""
    total, kept = Fraction(0), 0
    while total < 1:
        assert kept < count
        total += ratio
        kept += 1
    return kept


def bisect_root_floor(q: Fraction, k: int, grain: Fraction) -> Fraction:
    """Largest multiple of ``grain`` whose k-th power is <= q (oracle)."""
    lo, hi = 0, 1
    while (hi * grain) ** k <= q:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mid * grain) ** k <= q:
            lo = mid
        else:
            hi = mid
    return lo * grain


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


class TestPowerGauge:
    @given(
        d=st.integers(min_value=1, max_value=50),
        stage=st.integers(min_value=0, max_value=4),
        k=st.integers(min_value=0, max_value=5),
    )
    def test_the_gauge_value_squares_to_the_power(self, d, stage, k):
        s = CantorSchedule(d)
        v = nu_delta_upper(s, PowerGauge(k), Fraction(d + 1), stage=stage).value
        # v = count * (side * sqrt(d))**k, so v**2 = count**2 * (side**2 * d)**k
        side = s.stage_interval_length(stage)
        assert v * v == ExtendedRational.from_rational(4 ** (stage * d) * (side * side * d) ** k)
        assert v.sign() >= 0
        assert v.n == 1 or all(v.n % (p * p) for p in range(2, v.n))

    @pytest.mark.parametrize(
        "d, free", [(1, 1), (2, 2), (3, 3), (4, 1), (8, 2), (12, 3), (18, 2), (49, 1), (5000, 2)]
    )
    def test_the_radicand_is_the_square_free_part_of_d(self, d, free):
        s = CantorSchedule(d)
        odd = nu_delta_upper(s, PowerGauge(1), Fraction(d + 1), stage=1).value
        assert odd.n == free and odd.is_rational is (free == 1)
        even = nu_delta_upper(s, PowerGauge(2), Fraction(d + 1), stage=1).value
        assert even.is_rational

    def test_a_pinned_value_is_the_old_radicand_reduced(self):
        # the same real number as 867/16777216 * sqrt(227278848), 227278848 = 3 * 8704**2
        v = nu_delta_upper(CantorSchedule(3), PowerGauge(3), Fraction(1, 10)).value
        assert v == ExtendedRational(Fraction(0), Fraction(14739, 32768), 3)
        assert v * v == ExtendedRational.from_rational(Fraction(867, 16777216) ** 2 * 227278848)

    def test_exponent_validation(self):
        with pytest.raises(PreconditionError):
            PowerGauge(-1)


# ---------------------------------------------------------------------------
# diameters
# ---------------------------------------------------------------------------


class TestDiameters:
    def test_unit_cube_diameter_squared_is_the_dimension(self):
        for d in (1, 2, 3):
            assert diam_squared(Box.unit_cube(d)) == d

    def test_pythagoras_on_a_rectangle(self):
        b = Box((Fraction(0), Fraction(0)), (Fraction(3), Fraction(4)))
        assert diam_squared(b) == 25

    @given(data=st.data(), d=st.integers(min_value=1, max_value=3))
    def test_sides_equal_the_corner_enumeration(self, data, d):
        b = data.draw(boxes(dim=d))
        assert diam_squared(b) == corner_diam_squared([b])

    def test_empty_and_unbounded_boxes_are_refused(self):
        with pytest.raises(PreconditionError, match="diameter of the empty set is undefined here"):
            diam_squared(Box.empty(2))
        with pytest.raises(UnboundedBoxError, match="diameter requires bounded boxes"):
            diam_squared(Box.whole_space(1))


# ---------------------------------------------------------------------------
# stage covers and their gauge sums
# ---------------------------------------------------------------------------


class TestNuDeltaUpper:
    def test_linear_gauge_reproduces_the_stage_measure(self):
        # 2^n intervals of length ell_n summed under h(t) = t is just the
        # stage measure, for every stage
        g = PowerGauge(1)
        cover3 = nu_delta_upper(S1, g, Fraction(1, 8))
        assert cover3.stage == 3
        assert cover3.value == ExtendedRational.from_rational(Fraction(9, 16))

    def test_frozen_stage_4_values(self):
        # delta = 1/16 first admits stage 4 (interval length 17/512)
        lin = nu_delta_upper(S1, PowerGauge(1), Fraction(1, 16))
        assert lin.stage == 4
        assert lin.value == ExtendedRational.from_rational(Fraction(17, 32))
        sq = nu_delta_upper(S1, PowerGauge(2), Fraction(1, 16))
        assert sq.value == ExtendedRational.from_rational(Fraction(289, 16384))

    def test_value_identity_against_schedule_arithmetic(self):
        # value = count * gauge(side * sqrt(d)) with count = 2^(n*d)
        s2 = CantorSchedule(2)
        cover = nu_delta_upper(s2, PowerGauge(2), Fraction(1, 4))
        n = cover.stage
        side = s2.stage_interval_length(n)
        assert cover.count == 4**n
        assert cover.side == side
        assert cover.diam_squared == side**2 * 2
        assert cover.value == ExtendedRational.from_rational(4**n * side**2 * 2)

    def test_linear_gauge_values_match_stage_measures_up_to_12(self):
        g = PowerGauge(1)
        for n in range(1, 13):
            delta = 2 * S1.stage_interval_length(n)
            cover = nu_delta_upper(S1, g, delta, stage=n) if n >= min_stage_for_delta(S1, delta) else None
            if cover is not None:
                assert cover.value == ExtendedRational.from_rational(S1.stage_measure_1d(n))

    def test_quadratic_gauge_values_vanish(self):
        g = PowerGauge(2)
        values = []
        for n in range(2, 9):
            delta = 2 * S1.stage_interval_length(n - 1)
            cover = nu_delta_upper(S1, g, delta)
            values.append(cover.value.as_rational())
        for a, b in zip(values, values[1:]):
            assert b < a
        assert values[-1] < Fraction(1, 64)

    def test_explicit_stage_must_be_deep_enough(self):
        needed = min_stage_for_delta(S1, Fraction(1, 8))
        with pytest.raises(PreconditionError):
            nu_delta_upper(S1, PowerGauge(1), Fraction(1, 8), stage=needed - 1)
        deeper = nu_delta_upper(S1, PowerGauge(1), Fraction(1, 8), stage=needed + 2)
        assert deeper.stage == needed + 2

    def test_min_stage_stops_at_the_stage_cap(self):
        # 2^-12000 would need stage 12000; the search refuses the first
        # stage past the cap instead of walking on to it
        with pytest.raises(PreconditionError, match=f"got {MAX_STAGE + 1}$"):
            min_stage_for_delta(S1, Fraction(1, 1 << 12000))
        with pytest.raises(PreconditionError, match=f"got {MAX_STAGE + 1}$"):
            nu_delta_upper(S1, PowerGauge(1), Fraction(1, 1 << 12000))
        assert min_stage_for_delta(S1, Fraction(1, 1 << MAX_STAGE)) == MAX_STAGE

    @given(delta=st.sampled_from([Fraction(1, 2), Fraction(1, 5), Fraction(1, 16), Fraction(3, 64)]))
    def test_min_stage_is_minimal(self, delta):
        n = min_stage_for_delta(S1, delta)
        # covering sets at stage n have diameter < delta...
        assert S1.stage_interval_length(n) ** 2 * 1 < delta**2
        # ...and stage n-1 would not qualify
        if n > 0:
            assert not S1.stage_interval_length(n - 1) ** 2 * 1 < delta**2

    def test_delta_must_be_positive(self):
        with pytest.raises(PreconditionError):
            nu_delta_upper(S1, PowerGauge(1), Fraction(0))


# ---------------------------------------------------------------------------
# exact roots
# ---------------------------------------------------------------------------


class TestRoots:
    @given(
        base=fractions(min_value=Fraction(1, 16), max_value=Fraction(9)),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_rational_root_recovers_exact_powers(self, base, k):
        if base <= 0:
            base = Fraction(1, 2)
        q = base**k
        r = rational_root(q, k)
        assert r is not None and r**k == q

    @given(k=st.integers(min_value=2, max_value=5))
    def test_rational_root_detects_non_powers(self, k):
        # 2 is not a perfect k-th power of a rational for k >= 2
        assert rational_root(Fraction(2), k) is None
        assert rational_root(Fraction(3, 5), k) is None

    @given(
        q=positive_fractions(max_value=Fraction(16)),
        k=st.integers(min_value=1, max_value=5),
        bits=st.sampled_from([4, 8, 16]),
    )
    def test_dyadic_root_floor_matches_bisection_oracle(self, q, k, bits):
        got = dyadic_root_floor(q, k, bits)
        assert got == bisect_root_floor(q, k, pow2(-bits))

    @given(q=positive_fractions(max_value=Fraction(16)), k=st.integers(min_value=1, max_value=5))
    def test_dyadic_root_floor_undershoots(self, q, k):
        r = dyadic_root_floor(q, k, 20)
        assert r**k <= q
        assert (r + pow2(-20)) ** k > q


class TestSideScale:
    def test_dimension_one_halves_the_threshold(self):
        # alpha^2 = a^2/4 has the exact solution a/2
        alpha, exact = side_scale_for(1, Fraction(1, 2))
        assert exact and alpha == Fraction(1, 4)

    def test_dimension_two_with_nice_threshold(self):
        # alpha^4 = a^2/16: exact when a/4 is a square
        alpha, exact = side_scale_for(2, Fraction(1, 4))
        assert exact and alpha ** 4 == Fraction(1, 4) ** 2 / 16

    def test_dyadic_fallback_is_sound(self):
        alpha, exact = side_scale_for(3, Fraction(1, 3), bits=24)
        target = Fraction(1, 3) ** 2 / (4 * 27)
        assert not exact
        assert alpha > 0
        assert alpha ** 6 <= target  # undershoot keeps the covering sound

    @given(a=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]),
           d=st.integers(min_value=1, max_value=3))
    def test_scale_never_overshoots(self, a, d):
        alpha, exact = side_scale_for(d, a)
        target = a**2 / (4 * Fraction(d) ** d)
        if exact:
            assert alpha ** (2 * d) == target
        else:
            assert alpha ** (2 * d) <= target


# ---------------------------------------------------------------------------
# the covering corollary, end to end
# ---------------------------------------------------------------------------


def grid_of(rep, grid: int) -> tuple[CubeFamily, PackingLayout]:
    """The report's kept cubes, and ``grid**d`` of them placed at ``side * j``
    for j in ``[0, grid)^d`` as a layout of its covered cube."""
    corners = itertools.product(range(grid), repeat=rep.d)
    layout = PackingLayout(rep.cover.side, tuple(enumerate(corners)), rep.covered_cube)
    return CubeFamily(rep.d, (rep.cover.side,) * rep.kept), layout


class TestCorollaryPipeline:
    def test_frozen_run_in_dimension_one(self):
        rep = corollary_pipeline(S1, Fraction(1, 4))
        assert rep.d == 1
        assert rep.a == Fraction(1, 2)  # defaults to the limit measure
        assert rep.cover.stage == 2
        assert rep.alpha == Fraction(1, 4) and rep.alpha_exact
        assert rep.kept == 2 and rep.grid == 1
        assert rep.covered_cube == Box.interval(Fraction(0), Fraction(1, 8))
        assert rep.checks.all_ok()
        assert rep.checks.cube_constant == "enclosing axis cube, constant 1"

    def test_dimension_two_run_verifies(self):
        s2 = CantorSchedule(2)
        rep = corollary_pipeline(s2, Fraction(1, 4))
        assert rep.checks.all_ok()
        assert layout_covers(*grid_of(rep, rep.grid))

    def test_an_edited_cover_diameter_fails_its_check(self, monkeypatch):
        # d * side**2 is the kept cubes' squared diameter; a cover that
        # claims another fails that link of the chain alone
        def edited(*args, **kwargs):
            cover = nu_delta_upper(*args, **kwargs)
            return dataclasses.replace(cover, diam_squared=cover.diam_squared + cover.side**2)

        monkeypatch.setattr(hausdorff, "nu_delta_upper", edited)
        checks = corollary_pipeline(CantorSchedule(2), Fraction(1, 4)).checks
        assert checks.diam_preserved is False and not checks.all_ok()
        assert dataclasses.replace(checks, diam_preserved=True).all_ok()

    def test_chain_inequalities_recompute(self):
        rep = corollary_pipeline(S1, Fraction(1, 4))
        # gauge sum strictly above a/2
        assert rep.cover.value - Fraction(rep.a, 2) > ExtendedRational.from_rational(0)
        # every kept set contributes the same side, and the packing sides
        # are those diameters: replay the prefix test
        sides = [rep.cover.side] * rep.kept
        assert sum((s / rep.alpha) ** rep.d for s in sides) >= 1
        assert sum((s / rep.alpha) ** rep.d for s in sides[:-1]) < 1

    def test_explicit_threshold_is_respected(self):
        rep = corollary_pipeline(S1, Fraction(1, 8), a=Fraction(1, 4))
        assert rep.a == Fraction(1, 4)
        assert rep.checks.all_ok()
        assert rep.covered_cube.hi[0] - rep.covered_cube.lo[0] == rep.alpha / 2

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta, share", [(Fraction(1, 4), 1), (Fraction(1, 2), Fraction(1, 7))])
    def test_kept_is_the_shortest_prefix_reaching_one(self, d, delta, share):
        s = CantorSchedule(d)
        rep = corollary_pipeline(s, delta, a=share * s.limit_measure())
        ratio = (rep.cover.side / rep.alpha) ** d
        assert rep.kept == kept_by_summing(ratio, rep.cover.count)

    def test_the_grid_check_needs_both_comparisons(self):
        rep = corollary_pipeline(CantorSchedule(3), Fraction(1, 8))
        assert (rep.grid, rep.kept) == (2, 35)
        covers = functools.partial(grid_covers, 3, rep.cover.side, rep.alpha)
        assert covers(rep.kept, rep.grid)
        assert not covers(rep.kept, rep.grid - 1)  # too few cubes per axis
        assert not covers(rep.grid**3 - 1, rep.grid)  # more cubes than were kept

    @settings(max_examples=60)
    @given(
        d=st.integers(min_value=1, max_value=3),
        delta=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 16), Fraction(1, 32)]),
        share=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(3, 10)]),
        bits=st.sampled_from([1, 4, 24]),
    )
    def test_the_grid_is_the_least_that_the_box_kernel_accepts(self, d, delta, share, bits):
        s = CantorSchedule(d)
        rep = corollary_pipeline(s, delta, a=share * s.limit_measure(), bits=bits)
        assert rep.checks.covers_target
        assert layout_covers(*grid_of(rep, rep.grid))
        if rep.grid > 1:
            assert not layout_covers(*grid_of(rep, rep.grid - 1))

    @settings(max_examples=30)
    @given(
        d=st.integers(min_value=1, max_value=1024),
        delta=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)]),
    )
    def test_the_volume_hypothesis_bounds_the_grid(self, d, delta):
        rep = corollary_pipeline(CantorSchedule(d), delta)
        side, half = rep.cover.side, rep.alpha / 2
        assert rep.grid**d <= rep.kept and rep.grid * side >= half > (rep.grid - 1) * side
        assert rep.checks.all_ok()

    @pytest.mark.parametrize("d", [16, 257, 1024])
    def test_a_grid_needs_no_family_at_any_admitted_exponent(self, d):
        rep = corollary_pipeline(CantorSchedule(d), Fraction(1, 4))
        assert rep.grid == 2 and rep.kept > 8192 and rep.checks.all_ok()

    def test_the_gauge_exponent_cap_is_the_limit(self):
        with pytest.raises(PreconditionError, match="gauge exponent must be an integer from 0 to 1024"):
            corollary_pipeline(CantorSchedule(1025), Fraction(1, 4))

    @given(delta=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(3, 32)]))
    def test_random_deltas_verify_in_dimension_one(self, delta):
        rep = corollary_pipeline(S1, delta)
        assert rep.checks.all_ok()
        assert layout_covers(*grid_of(rep, rep.grid))

    def test_threshold_too_large_is_rejected(self):
        # a may not exceed the limit measure: the gauge sum could not beat it
        with pytest.raises(PreconditionError):
            corollary_pipeline(S1, Fraction(1, 4), a=Fraction(3, 4))

    def test_delta_must_be_positive(self):
        with pytest.raises(PreconditionError):
            corollary_pipeline(S1, Fraction(0))


# ---------------------------------------------------------------------------
# the level function and its solver
# ---------------------------------------------------------------------------


class TestRangeFunction:
    def test_frozen_endpoint_values(self):
        at_zero = range_function(S1, Fraction(0), 6)
        assert (at_zero.lower, at_zero.upper) == (0, 0)
        at_one = range_function(S1, Fraction(1), 6)
        assert at_one.lower <= Fraction(1, 2) <= at_one.upper
        at_half = range_function(S1, Fraction(1, 2), 6)
        assert at_half.lower <= Fraction(1, 4) <= at_half.upper

    @given(x=unit_fractions(), n=st.integers(min_value=1, max_value=8))
    def test_agrees_with_clipped_measure_bounds(self, x, n):
        # the level function is the measure of the set below a threshold,
        # so it must match the generic ring machinery exactly
        half = Box.half_space(1, 0, x, above=False)
        via_ring = measure_bounds(clip_to_box(base_expr(S1), half), S1, n)
        direct = range_function(S1, x, n)
        assert (direct.lower, direct.upper) == (via_ring.lower, via_ring.upper)

    @given(n=st.integers(min_value=1, max_value=8))
    def test_monotone_in_the_threshold(self, n):
        grid = [Fraction(i, 16) for i in range(17)]
        vals = [range_function(S1, x, n) for x in grid]
        for a, b in zip(vals, vals[1:]):
            assert a.lower <= b.lower
            assert a.upper <= b.upper

    @given(x=unit_fractions())
    def test_brackets_shrink_with_the_stage(self, x):
        widths = [range_function(S1, x, n).width for n in (2, 4, 6, 8)]
        for a, b in zip(widths, widths[1:]):
            assert b <= a

    def test_dimension_two_level_function(self):
        s2 = CantorSchedule(2)
        b = range_function(s2, Fraction(1), 5)
        # the full cube keeps one slice factor at full stage measure
        assert b.upper == s2.stage_measure_1d(5) ** 2

    def test_a_zero_level_computes_neither_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a power for a zero level")

        s = CantorSchedule(5000)
        monkeypatch.setattr(CantorSchedule, "stage_measure_1d", refuse)
        monkeypatch.setattr(CantorSchedule, "stage_defect", refuse)
        b = range_function(s, Fraction(-1), 1024)
        assert (b.lower, b.upper, b.stage, b.leaf_count) == (0, 0, 1024, 1)


def solution_at_zero(s: CantorSchedule, target: Fraction, tol: Fraction) -> LevelSolution:
    """The solution of a target below ``tol/2``: x = 0, whose level is
    exactly 0, with the bracket [0, 0] at the oracle's stopping stage."""
    zero = Fraction(0)
    stage = level_oracle._stage_for_width(s, tol / 2)
    bracket = MeasureBounds(lower=zero, upper=zero, stage=stage, leaf_count=1)
    return LevelSolution(target, zero, zero, zero, bracket, 0, "straddle")


def solves_like_the_oracle(s: CantorSchedule, target: Fraction, tol: Fraction) -> bool:
    """``solve_level`` equals the oracle's bisection at a target of at least
    ``tol/2``, and ``solution_at_zero`` below it."""
    got = solve_level(s, target, tol=tol)
    if target < tol / 2:
        return got == solution_at_zero(s, target, tol)
    return got == level_oracle.solve_level(s, target, tol=tol)


class TestSolveLevel:
    def test_target_quarter_is_hit_exactly_at_one_half(self):
        sol = solve_level(S1, Fraction(1, 4))
        assert sol.point == Fraction(1, 2)
        assert sol.status == "straddle"
        assert sol.bracket.lower <= Fraction(1, 4) <= sol.bracket.upper

    def test_endpoints_are_free(self):
        zero = solve_level(S1, Fraction(0))
        assert zero.bracket.lower <= 0 <= zero.bracket.upper
        full = solve_level(S1, S1.limit_measure())
        assert full.bracket.upper >= S1.limit_measure()

    @pytest.mark.parametrize("max_iter", [0, DEFAULT_MAX_ITER])
    @pytest.mark.parametrize("target", [Fraction(0), pow2(-22), pow2(-21) - pow2(-60)])
    def test_a_target_below_half_the_tolerance_is_solved_at_zero(self, target, max_iter):
        # the level of x = 0 is exactly 0, within tol/2 of the target, so
        # no bisection step is taken and no budget can run out
        sol = solve_level(S1, target, tol=pow2(-20), max_iter=max_iter)
        assert sol == solution_at_zero(S1, target, pow2(-20))

    def test_half_the_tolerance_is_bisected(self):
        with pytest.raises(BudgetError):
            solve_level(S1, pow2(-21), tol=pow2(-20), max_iter=0)
        assert solves_like_the_oracle(S1, pow2(-21), pow2(-20))

    @given(target=st.sampled_from([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                                   Fraction(2, 5), Fraction(12, 29), Fraction(17, 100)]))
    def test_solutions_meet_the_tolerance_contract(self, target):
        tol = pow2(-20)
        sol = solve_level(S1, target, tol=tol)
        mid = (sol.bracket.lower + sol.bracket.upper) / 2
        assert abs(mid - target) <= tol
        assert sol.lo <= sol.point <= sol.hi

    def test_tolerance_can_be_relaxed(self):
        sol = solve_level(S1, Fraction(1, 3), tol=Fraction(1, 64))
        assert abs((sol.bracket.lower + sol.bracket.upper) / 2 - Fraction(1, 3)) <= Fraction(1, 64)

    def test_out_of_range_targets_are_rejected(self):
        with pytest.raises(PreconditionError):
            solve_level(S1, Fraction(-1, 10))
        with pytest.raises(PreconditionError):
            solve_level(S1, Fraction(2, 3))  # above the limit measure

    def test_iteration_budget_reports_partial_bracket(self):
        with pytest.raises(BudgetError) as exc:
            solve_level(S1, Fraction(1, 3), max_iter=3)
        lo, hi = exc.value.partial
        assert lo < hi

    def test_tolerance_bits_are_capped(self):
        # rho = 2^-20 admits tolerances far below 2^-1024 within the stage
        # cap, so bisection is bounded by refusing tol < 2^-MAX_TOL_BITS
        s = CantorSchedule(1, rho=pow2(-20))
        tol = pow2(-MAX_TOL_BITS)
        sol = solve_level(s, Fraction(1, 3), tol=tol)
        assert abs((sol.bracket.lower + sol.bracket.upper) / 2 - Fraction(1, 3)) <= tol
        assert sol.iterations <= MAX_TOL_BITS + 1
        with pytest.raises(PreconditionError, match=f"^tolerance must be at least 2\\^-{MAX_TOL_BITS}$"):
            solve_level(s, Fraction(1, 3), tol=tol / 2)

    @pytest.mark.parametrize(
        "s, target, tol, stage, steps",
        [
            (S1, Fraction(1, 3), pow2(-1024), 1024, 1025),
            # targets within 10^-300 of 0 and of the limit measure, which
            # keep lo at 0 or hi at 1 for about 1000 steps
            (S1, Fraction(1, 10**300), pow2(-1024), 1024, 1025),
            (S1, Fraction(1, 2) - Fraction(1, 10**300), pow2(-1024), 1024, 1025),
            (CantorSchedule(3), Fraction(1, 10**300), pow2(-1000), 1000, 998),
            # rho = 1/3 > 1/4, where the defect shrinks more slowly than
            # the interval length
            (CantorSchedule(1, c=Fraction(1, 2), rho=Fraction(1, 3)), Fraction(1, 7), pow2(-256), 438, 257),
            (CantorSchedule(1, c=Fraction(1, 2), rho=Fraction(1, 3)), Fraction(1, 7), pow2(-512), 876, 513),
        ],
    )
    def test_a_fine_solve_takes_linear_level_steps(self, monkeypatch, s, target, tol, stage, steps):
        # the inverse reads the stage table twice a set bit and the walk
        # once a stage, so no read depends on the bisection step; walking
        # each midpoint from [0, 1] reads it about N * b / 2 times
        reads = []

        class CountingLengths(list):
            def __getitem__(self, n):
                reads.append(n)
                return super().__getitem__(n)

        over = cantor._Ladder.over
        monkeypatch.setattr(cantor._Ladder, "over", lambda *args: CountingLengths(over(*args)))
        sol = solve_level(s, target, tol=tol)
        assert len(reads) <= 4 * (stage + steps)
        assert level_oracle._stage_for_width(s, tol / 2) == stage
        assert (sol.iterations, sol.bracket.stage) == (steps, stage)


# ---------------------------------------------------------------------------
# the single-descent kernel against the per-stage oracle
# ---------------------------------------------------------------------------

# (c, rho): the default schedule, and two whose child lengths have odd
# denominators, so abscissas and lengths do not share one power of two
LEVEL_SCHEDULES = [
    (Fraction(1), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1), Fraction(1, 5)),
]


@st.composite
def level_schedules(draw, max_dim=3):
    c, rho = draw(st.sampled_from(LEVEL_SCHEDULES))
    return CantorSchedule(draw(st.integers(min_value=1, max_value=max_dim)), c=c, rho=rho)


@st.composite
def tolerances(draw):
    """A positive tolerance whose denominator need not be a power of two:
    thousandths, ``1/(3 * 2**k)``, an arbitrary small rational, or one of
    1 or more."""
    k = draw(st.integers(min_value=0, max_value=24))
    return draw(
        st.one_of(
            st.builds(Fraction, st.integers(min_value=1, max_value=999), st.just(1000)),
            st.just(Fraction(1, 3 << k)),
            st.builds(
                Fraction, st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=10**6)
            ),
            st.builds(
                lambda den, extra: Fraction(den + extra, den),
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=0, max_value=30),
            ),
        )
    )


@st.composite
def level_targets(draw, s):
    """0, the limit measure, a flat spot of the level function, a stage
    bound of a dyadic abscissa, or a point in between."""
    top = s.limit_measure()
    g = draw(st.integers(min_value=1, max_value=6))
    odd = 2 * draw(st.integers(min_value=0, max_value=(1 << (g - 1)) - 1)) + 1
    # a bisection midpoint's stage-n bounds: a verdict cut lands exactly on it
    n = draw(st.integers(min_value=1, max_value=8))
    bracket = level_oracle.range_function(s, Fraction(odd, 1 << g), n)
    return draw(
        st.sampled_from(
            [
                Fraction(0),
                top,
                # the level of every point of a step-g gap
                top * Fraction(odd, 1 << g),
                bracket.lower,
                min(bracket.upper, top),
                top * Fraction(draw(st.integers(min_value=1, max_value=999)), 1000),
            ]
        )
    )


# (c, rho) whose defect shrinks by 8 to 512 times a stage, so the oracle,
# O(N^2) steps a midpoint, stays quick down to tolerance 2^-64
FINE_SCHEDULES = [
    (Fraction(1), Fraction(1, 16)),
    (Fraction(1, 2), Fraction(1, 32)),
    (Fraction(3), Fraction(1, 1024)),
]


@st.composite
def boundary_targets(draw, s):
    """The level of a stage-m endpoint, which inside (0, 1) is a gap edge,
    a stage bound of that endpoint, or a target just beside its level.

    Each stage-m interval carries ``limit / 2**m`` of the level, so the
    search closes in on the endpoint, and ``lo`` and ``hi`` part on the
    boundary of every stage from m on."""
    top = s.limit_measure()
    m = draw(st.integers(min_value=1, max_value=5))
    j = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    side = draw(st.integers(min_value=0, max_value=1))
    level = top * Fraction(j + side, 1 << m)
    bracket = level_oracle.range_function(
        s, s.stage_intervals_1d(m)[j][side], m + draw(st.integers(min_value=0, max_value=12))
    )
    beside = top * pow2(-draw(st.integers(min_value=41, max_value=70)))
    target = draw(st.sampled_from([level, level - beside, level + beside, bracket.lower, bracket.upper]))
    return min(max(target, Fraction(0)), top)


@st.composite
def abscissas(draw, s):
    """Outside [0, 1], a stage endpoint, or a small-denominator point."""
    n = draw(st.integers(min_value=0, max_value=5))
    endpoints = [v for pair in s.stage_intervals_1d(n) for v in pair]
    return draw(
        st.one_of(
            fractions(max_value=Fraction(0)),
            fractions(min_value=Fraction(1)),
            st.sampled_from(endpoints),
            fractions(min_value=Fraction(0), max_value=Fraction(1)),
            st.builds(Fraction, st.integers(min_value=0, max_value=3**7), st.just(3**7)),
        )
    )


class TestLevelKernelAgainstOracle:
    @settings(max_examples=40)
    @given(data=st.data(), s=level_schedules(), bits=st.integers(min_value=1, max_value=40))
    def test_solve_level_equals_the_oracle_bisection(self, data, s, bits):
        target = data.draw(level_targets(s))
        assert solves_like_the_oracle(s, target, pow2(-bits))

    def test_flat_spots_straddle_like_the_oracle(self):
        for c, rho in LEVEL_SCHEDULES:
            s = CantorSchedule(2, c=c, rho=rho)
            for target in (s.limit_measure() / 2, s.limit_measure() * Fraction(3, 8)):
                got = solve_level(s, target, tol=pow2(-30))
                assert got.status == "straddle"
                assert got == level_oracle.solve_level(s, target, tol=pow2(-30))

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("c, rho", LEVEL_SCHEDULES)
    def test_a_midpoint_on_a_verdict_cut_is_decided_like_the_oracle(self, c, rho, d, x):
        # a target on a bound of a bisection midpoint's stage-N bracket puts
        # that midpoint exactly on the abscissa of the le or the ge cut
        s, tol = CantorSchedule(d, c=c, rho=rho), pow2(-12)
        bracket = level_oracle.range_function(s, x, level_oracle._stage_for_width(s, tol / 2))
        for target in (bracket.lower, bracket.upper):
            assert solves_like_the_oracle(s, target, tol)

    @settings(max_examples=60)
    @given(data=st.data(), s=level_schedules(max_dim=6), tol=tolerances())
    def test_solve_level_equals_the_oracle_at_any_tolerance(self, data, s, tol):
        # the midpoint grid and the verdict cuts both follow the
        # tolerance's denominator, which need not be a power of two
        target = data.draw(level_targets(s))
        assert solves_like_the_oracle(s, target, tol)

    @settings(max_examples=30)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=3),
        schedule=st.sampled_from(FINE_SCHEDULES),
        bits=st.integers(min_value=41, max_value=64),
        grain=st.sampled_from([1, 3, 5]),
    )
    def test_fine_solves_at_stage_boundaries_equal_the_oracle(self, data, d, schedule, bits, grain):
        # at these targets lo and hi close in on a stage boundary, or on a
        # gap and the interval beside it
        c, rho = schedule
        s = CantorSchedule(d, c=c, rho=rho)
        target = data.draw(boundary_targets(s))
        assert solves_like_the_oracle(s, target, Fraction(grain, 1 << bits))

    @given(data=st.data(), s=level_schedules(max_dim=6), tol=tolerances())
    def test_verdict_cuts_and_their_abscissas_are_the_exact_boundaries(self, data, s, tol):
        # stage N's integer cuts against the closed-form bracket of the
        # level numerators on both sides of each, and the abscissas the
        # inverse makes of them against the forward walk, so a cut or an
        # abscissa off by one fails even where no bisection lands on it;
        # ``tol`` is the solver's half tolerance here, which it uses only
        # up to the target
        target = data.draw(level_targets(s))
        assume(target > 0)
        tol = min(tol, target)
        grain = data.draw(st.sampled_from([1, 3, 1 << 20]))
        n = s._first_stage_within(tol, MAX_STAGE)
        lengths = s._ladder.over(n, grain)
        den, full = lengths[0], lengths[n] << n
        defect = s.stage_defect(n)

        def upper(level):
            return Fraction(level, den) * s.stage_measure_1d(n) ** (s.d - 1)

        le, ge = _verdict_cuts(s, lengths, target)
        assert upper(le) <= target < upper(le + 1)
        assert upper(ge - 1) - defect < target <= upper(ge) - defect
        # both are levels the inverse takes, so it needs no range branches
        assert 0 <= le < full and 1 <= ge <= full
        below, above = _last_point_within(lengths, le), _last_point_within(lengths, ge - 1) + 1
        assert _level(lengths, below) <= le < _level(lengths, below + 1)
        assert _level(lengths, above - 1) < ge <= _level(lengths, above)

    @given(data=st.data(), s=level_schedules(), n=st.integers(min_value=1, max_value=12))
    def test_the_inverse_returns_the_last_abscissa_at_a_walked_level(self, data, s, n):
        # x at a stage endpoint (0, 1, or inside (0, 1) the edge of a gap),
        # in a gap, or anywhere: its walked level is the oracle's, and below
        # the full level the inverse returns the last abscissa at that level
        m = data.draw(st.integers(min_value=0, max_value=5))
        intervals = s.stage_intervals_1d(m)
        ends = [v for pair in intervals for v in pair]
        gaps = [(left[1] + right[0]) / 2 for left, right in zip(intervals, intervals[1:])]
        x = data.draw(st.one_of(st.sampled_from(ends + gaps), unit_fractions()))
        lengths = s._ladder.over(n, x.denominator)
        den, full = lengths[0], lengths[n] << n
        point = cantor._numerator_over(x, den)
        level = _level(lengths, point)
        assert level == level_oracle._stage_level(s, x, n) * den
        if level == full:
            assert point == den
        else:
            last = _last_point_within(lengths, level)
            assert point <= last and _level(lengths, last) == level < _level(lengths, last + 1)
        assert (_last_point_within(lengths, 0), _last_point_within(lengths, full - 1)) == (0, den - 1)

    @pytest.mark.parametrize("max_iter", range(4))
    @pytest.mark.parametrize(
        "s, target, tol",
        [
            (S1, Fraction(1, 3), Fraction(1, 1 << 20)),
            (CantorSchedule(2, c=Fraction(1, 2), rho=Fraction(1, 3)), Fraction(1, 7), Fraction(7, 1000)),
        ],
    )
    def test_budget_partial_equals_the_oracle(self, s, target, tol, max_iter):
        with pytest.raises(BudgetError) as got:
            solve_level(s, target, tol=tol, max_iter=max_iter)
        with pytest.raises(BudgetError) as want:
            level_oracle.solve_level(s, target, tol=tol, max_iter=max_iter)
        assert str(got.value) == str(want.value)
        assert got.value.partial == want.value.partial
        assert all(type(end) is Fraction for end in got.value.partial)

    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=6),
        schedule=st.sampled_from(LEVEL_SCHEDULES + [(Fraction(1), pow2(-20))]),
        n=st.integers(min_value=0, max_value=40),
    )
    def test_first_stage_within_equals_a_fraction_scan(self, data, d, schedule, n):
        # every level schedule and rho = 2^-20; widths on, just below and
        # just above a stage's defect, or arbitrary; searches that end at
        # stage 0, 1, the box cap's stage or the stage cap
        c, rho = schedule
        s = CantorSchedule(d, c=c, rho=rho)
        defect = s.stage_defect(n)
        width = data.draw(
            st.one_of(
                positive_fractions(),
                st.sampled_from([defect, defect * Fraction(999, 1000), defect * Fraction(1001, 1000)]),
            )
        )
        for last in (0, 1, s.feasible_stage, n, MAX_STAGE):
            scan = next((m for m in range(1, last + 1) if s.stage_defect(m) <= width), None)
            assert s._first_stage_within(width, last) == scan
        assert s._first_stage_within(width, MAX_STAGE) == level_oracle._stage_for_width(s, width)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("c, rho", LEVEL_SCHEDULES)
    def test_stage_for_width_is_refused_above_the_cap_like_the_oracle(self, c, rho, d):
        # the oracle refuses the stage it would need; the solver, which
        # was given no stage, refuses the tolerance that needs it
        s = CantorSchedule(d, c=c, rho=rho)
        last = s.stage_defect(MAX_STAGE)
        assert s._first_stage_within(last, MAX_STAGE) == level_oracle._stage_for_width(s, last) == MAX_STAGE
        below = last * Fraction(999, 1000)
        assert s._first_stage_within(below, MAX_STAGE) is None
        with pytest.raises(PreconditionError, match=f"^stage must be between 0 and {MAX_STAGE}, got {MAX_STAGE + 1}$"):
            level_oracle._stage_for_width(s, below)
        refusal = f"^tolerance {2 * below} needs a stage above MAX_STAGE = {MAX_STAGE}$"
        with pytest.raises(PreconditionError, match=refusal):
            solve_level(s, s.limit_measure() / 3, tol=2 * below)

    @given(data=st.data(), s=level_schedules(), n=st.integers(min_value=0, max_value=64))
    def test_range_function_equals_the_oracle_level(self, data, s, n):
        x = data.draw(abscissas(s))
        assert range_function(s, x, n) == level_oracle.range_function(s, x, n)
