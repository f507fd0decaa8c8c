"""Fat Cantor stage construction and gap certificates.

Oracle: the construction is replayed from its definition with a plain
list of closed intervals (``descent_oracle.brute_stage_intervals``).  Start
from [0, 1]; at stage k remove from the middle of each surviving interval
an open interval of length c * rho^k.  Everything else in this file is
checked against that replay.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import ceil, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatcantor import (
    Box,
    CantorSchedule,
    GapCertificate,
    NeedsDeeperStage,
    PreconditionError,
    find_gap,
    middle_half,
    min_stage_for_delta,
)
from fatcantor import cantor
from fatcantor.cantor import MAX_DIM, _Walk, box_count
from fatcantor.rationals import pow2

import descent_oracle
from descent_oracle import brute_stage_intervals
from strategies import boxes, fractions, schedules, unit_fractions
from witness_oracle import gap_certificate_valid


def brute_point_in_stage(c, rho, n, x) -> bool:
    return any(lo <= x <= hi for lo, hi in brute_stage_intervals(c, rho, n))


# ---------------------------------------------------------------------------
# schedule arithmetic: frozen values and closed forms
# ---------------------------------------------------------------------------

# default schedule (c = 1, rho = 1/4), dimension 1
STAGE_MEASURES = {
    0: Fraction(1),
    1: Fraction(3, 4),
    2: Fraction(5, 8),
    3: Fraction(9, 16),
    4: Fraction(17, 32),
}

# stage-2 surviving intervals of the default schedule, by hand:
# stage 1 removes (3/8, 5/8); stage 2 removes length 1/16 from the middle
# of [0, 3/8] and of [5/8, 1]
STAGE_2_INTERVALS = [
    (Fraction(0), Fraction(10, 64)),
    (Fraction(14, 64), Fraction(24, 64)),
    (Fraction(40, 64), Fraction(50, 64)),
    (Fraction(54, 64), Fraction(1)),
]


class TestScheduleMeasures:
    def test_frozen_stage_measures(self):
        s = CantorSchedule(1)
        for n, expected in STAGE_MEASURES.items():
            assert s.stage_measure(n) == expected

    def test_default_closed_form_one_half_plus_power_of_two(self):
        s = CantorSchedule(1)
        for n in range(13):
            assert s.stage_measure_1d(n) == Fraction(1, 2) + Fraction(1, 2 ** (n + 1))

    def test_limit_measures(self):
        assert CantorSchedule(1).limit_measure() == Fraction(1, 2)
        assert CantorSchedule(2).limit_measure() == Fraction(1, 4)
        assert CantorSchedule(3).limit_measure() == Fraction(1, 8)

    @given(s=schedules())
    def test_stage_measure_matches_brute_construction(self, s):
        for n in range(6):
            total = sum(hi - lo for lo, hi in brute_stage_intervals(s.c, s.rho, n))
            assert s.stage_measure_1d(n) == total

    @given(s=schedules(dim=2))
    def test_higher_dimensions_raise_the_slice_measure_to_the_power_d(self, s):
        for n in range(5):
            assert s.stage_measure(n) == s.stage_measure_1d(n) ** 2

    @given(s=schedules())
    def test_defect_is_distance_to_the_limit(self, s):
        for n in range(8):
            assert s.stage_defect(n) == s.stage_measure(n) - s.limit_measure()
            assert s.stage_defect(n) > 0

    @given(s=schedules())
    def test_interval_length_splits_measure_evenly(self, s):
        for n in range(8):
            assert s.stage_interval_length(n) * 2**n == s.stage_measure_1d(n)

    def test_removal_feasibility_margin(self):
        # each removal must fit strictly inside the intervals it splits,
        # for every schedule this suite uses
        for c, rho in [(Fraction(1), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 3)),
                       (Fraction(3, 4), Fraction(1, 8)), (Fraction(1, 4), Fraction(2, 5))]:
            s = CantorSchedule(1, c=c, rho=rho)
            for k in range(12):
                assert c * rho ** (k + 1) < s.stage_interval_length(k)


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0),
            dict(d=-2),
            dict(d=1, rho=Fraction(1, 2)),
            dict(d=1, rho=Fraction(0)),
            dict(d=1, rho=Fraction(-1, 4)),
            dict(d=1, c=Fraction(0)),
            dict(d=1, c=Fraction(-1)),
            dict(d=1, c=Fraction(3)),  # removes more than the whole interval
            dict(d=1, c=Fraction(2), rho=Fraction(1, 3)),
        ],
    )
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(PreconditionError):
            CantorSchedule(**kwargs)

    def test_dimension_cap(self):
        assert CantorSchedule(MAX_DIM).d == MAX_DIM
        for d in (MAX_DIM + 1, 3_000_000):
            with pytest.raises(PreconditionError, match=f"from 1 to {MAX_DIM}, got {d}"):
                CantorSchedule(d)


class TestBoxCount:
    def test_the_largest_count_that_prints(self):
        # 2^14284 has 4300 digits, 2^14285 has 4301: the default print limit
        assert sys.get_int_max_str_digits() == 4300
        assert len(str(box_count(14284, 1))) == 4300
        assert box_count(7142, 2) == 1 << 14284
        for n, d in [(14285, 1), (1, 14285), (1024, MAX_DIM)]:
            with pytest.raises(PreconditionError, match="^result too large to print"):
                box_count(n, d)


# ---------------------------------------------------------------------------
# stage geometry
# ---------------------------------------------------------------------------


class TestStageIntervals:
    def test_frozen_stage_2_intervals(self):
        s = CantorSchedule(1)
        got = s.stage_intervals_1d(2)
        # interiors must agree with the hand construction (the closed
        # endpoints of the classical picture are measure-zero trim)
        assert [(lo, hi) for lo, hi in got] == STAGE_2_INTERVALS

    @given(s=schedules(), n=st.integers(min_value=0, max_value=6))
    def test_stage_intervals_match_brute_construction(self, s, n):
        assert s.stage_intervals_1d(n) == brute_stage_intervals(s.c, s.rho, n)

    @given(s=schedules(dim=2), n=st.integers(min_value=0, max_value=4))
    def test_stage_approx_is_the_product_of_slices(self, s, n):
        u = s.stage_approx(n)
        slices = brute_stage_intervals(s.c, s.rho, n)
        assert u.measure() == (sum(hi - lo for lo, hi in slices)) ** 2
        # spot-check the corner cells
        assert u.contains_point((Fraction(0), Fraction(0)))
        assert u.contains_point((slices[-1][0], slices[0][0]))

    @given(s=schedules())
    def test_stages_are_nested(self, s):
        for n in range(5):
            coarse = s.stage_approx(n)
            fine = s.stage_approx(n + 1)
            assert coarse.contains_union(fine)
            assert not fine.contains_union(coarse)


# ---------------------------------------------------------------------------
# gap search: free space under a translation
# ---------------------------------------------------------------------------


class TestFirstFreeSubinterval:
    def brute_first_free(self, s, n, t, jlo, jhi):
        """Leftmost maximal open subinterval of (jlo, jhi) missing stage n + t."""
        blocked = [(lo + t, hi + t) for lo, hi in brute_stage_intervals(s.c, s.rho, n)]
        edges = [jlo] + [e for b in blocked for e in b if jlo < e < jhi] + [jhi]
        edges = sorted(set(edges))
        for lo, hi in zip(edges, edges[1:]):
            mid = (lo + hi) / 2
            if not any(blo <= mid <= bhi for blo, bhi in blocked):
                return (lo, hi)
        return None

    @given(
        s=schedules(),
        n=st.integers(min_value=0, max_value=5),
        t=fractions(min_value=Fraction(-1), max_value=Fraction(1)),
        data=st.data(),
    )
    def test_matches_brute_scan(self, s, n, t, data):
        jlo = data.draw(fractions(min_value=Fraction(-1), max_value=Fraction(2)))
        width = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
        jhi = jlo + width
        got = s.first_free_subinterval(n, t, jlo, jhi)
        expected = self.brute_first_free(s, n, t, jlo, jhi)
        assert got == expected

    def test_frozen_examples(self):
        s = CantorSchedule(1)
        assert s.first_free_subinterval(1, Fraction(0), Fraction(0), Fraction(1)) == (
            Fraction(3, 8),
            Fraction(5, 8),
        )
        # clipped by the right end of the window
        assert s.first_free_subinterval(1, Fraction(0), Fraction(1, 2), Fraction(3, 4)) == (
            Fraction(1, 2),
            Fraction(5, 8),
        )
        # a translate leaves the left margin free
        assert s.first_free_subinterval(2, Fraction(1, 8), Fraction(0), Fraction(1)) == (
            Fraction(0),
            Fraction(1, 8),
        )
        # no gap inside a surviving interval
        assert s.first_free_subinterval(1, Fraction(0), Fraction(0), Fraction(1, 8)) is None

    @given(s=schedules(), t=fractions(min_value=Fraction(-1), max_value=Fraction(1)))
    def test_interval_meets_stage_translate_is_the_complementary_predicate(self, s, t):
        for n in range(4):
            free = s.first_free_subinterval(n, t, Fraction(0), Fraction(1))
            if free is None:
                assert s.interval_meets_stage_translate(n, t, Fraction(0), Fraction(1))


class TestFindGap:
    def test_middle_half_shrinks_symmetrically(self):
        assert middle_half(Fraction(0), Fraction(1)) == (Fraction(1, 4), Fraction(3, 4))
        assert middle_half(Fraction(1, 2), Fraction(5, 8)) == (
            Fraction(17, 32),
            Fraction(19, 32),
        )

    def test_frozen_gap(self):
        s = CantorSchedule(1)
        cert = find_gap(s, [Fraction(0)], Box.cube((Fraction(1, 2),), Fraction(1, 4)), 8)
        assert isinstance(cert, GapCertificate)
        assert cert.stage == 1
        assert cert.box == Box.interval(Fraction(17, 32), Fraction(19, 32))

    @given(
        s=schedules(),
        t=fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2)),
        data=st.data(),
    )
    def test_gap_certificates_replay(self, s, t, data):
        jlo = data.draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
        j = Box.interval(jlo, jlo + Fraction(1, 2))
        got = find_gap(s, [t], j, 10)
        if isinstance(got, GapCertificate):
            assert j.contains_box(got.box) and gap_certificate_valid(s, [t], got)
            # the certified box really misses the translated stage set
            lo, hi = got.box.lo[0], got.box.hi[0]
            mid = (lo + hi) / 2
            assert not brute_point_in_stage(s.c, s.rho, got.stage, mid - t)
        else:
            assert isinstance(got, NeedsDeeperStage)

    def test_tampered_certificates_are_rejected(self):
        s = CantorSchedule(1)
        j = Box.cube((Fraction(1, 2),), Fraction(1, 4))
        cert = find_gap(s, [Fraction(0)], j, 8)
        assert isinstance(cert, GapCertificate)
        bad_box = GapCertificate(stage=cert.stage, box=Box.interval(Fraction(0), Fraction(1, 8)))
        assert not (j.contains_box(bad_box.box) and gap_certificate_valid(s, [Fraction(0)], bad_box))
        inside_the_set = GapCertificate(stage=1, box=Box.interval(Fraction(0), Fraction(1, 16)))
        assert not gap_certificate_valid(s, [Fraction(0)], inside_the_set)

    @given(s=schedules(dim=2), box=boxes(dim=2), t=st.tuples(fractions(), fractions()), n=st.integers(0, 6))
    def test_the_certificate_check_equals_the_oracle(self, s, box, t, n):
        want = gap_certificate_valid(s, t, GapCertificate(n, box))
        assert cantor._misses_stage_translate(s, t, n, box) == want

    def test_a_box_whose_closure_touches_the_stage_set_is_refused(self):
        # (3/8, 5/8) is the stage-1 gap of the default schedule: the open box
        # misses A_1, but its closure meets it at both ends.
        s = CantorSchedule(1)
        zero = (Fraction(0),)
        touching = GapCertificate(1, Box.interval(Fraction(3, 8), Fraction(5, 8)))
        inside = GapCertificate(1, Box.interval(Fraction(7, 16), Fraction(9, 16)))
        assert not cantor._misses_stage_translate(s, zero, 1, touching.box)
        assert not gap_certificate_valid(s, zero, touching)
        assert cantor._misses_stage_translate(s, zero, 1, inside.box)
        assert gap_certificate_valid(s, zero, inside)

    @given(s=schedules(dim=2))
    def test_two_dimensional_gaps_replay(self, s):
        j = Box.cube((Fraction(1, 4), Fraction(1, 4)), Fraction(1, 2))
        got = find_gap(s, [Fraction(0), Fraction(0)], j, 8)
        if isinstance(got, GapCertificate):
            assert j.contains_box(got.box) and gap_certificate_valid(s, [Fraction(0), Fraction(0)], got)


# ---------------------------------------------------------------------------
# the integer walks against the depth-first and path-walk oracle
# ---------------------------------------------------------------------------

WALK_SCHEDULES = [
    (Fraction(1), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1), Fraction(1, 5)),
    (Fraction(1), pow2(-20)),
]


@st.composite
def walk_schedules(draw, dim=1):
    c, rho = draw(st.sampled_from(WALK_SCHEDULES))
    return CantorSchedule(dim, c=c, rho=rho)


@st.composite
def valid_schedules(draw):
    """Any valid 1-D schedule with small terms: ``rho = p/q`` and ``c`` may
    have non-unit numerators and denominators (2/9, 3/7, 5/3, ...), as long
    as ``2*rho < 1`` and ``c*rho/(1 - 2*rho) < 1``."""
    q = draw(st.integers(min_value=3, max_value=40))
    rho = Fraction(draw(st.integers(min_value=1, max_value=(q - 1) // 2)), q)
    bound = (1 - 2 * rho) / rho  # c must stay below it
    den = draw(st.integers(min_value=1, max_value=12))
    top = ceil(bound * den) - 1  # the largest numerator over den below the bound
    assume(top >= 1)
    c = Fraction(draw(st.integers(min_value=1, max_value=top)), den)
    return CantorSchedule(1, c=c, rho=rho)


@st.composite
def walk_points(draw, s):
    """Stage endpoints, gap points, points outside [0, 1] and other rationals."""
    k = draw(st.integers(min_value=0, max_value=5))
    stage = descent_oracle.descend_overlapping(s, k, Fraction(0), Fraction(1))
    i = draw(st.integers(min_value=0, max_value=len(stage) - 1))
    lo, hi = stage[i]
    gaps = [(a_hi + b_lo) / 2 for (_, a_hi), (b_lo, _) in zip(stage, stage[1:])]
    return draw(
        st.one_of(
            st.sampled_from([lo, hi]),
            st.sampled_from(gaps) if gaps else st.just(lo),
            st.sampled_from([Fraction(-1, 3), Fraction(-1), Fraction(4, 3), Fraction(2)]),
            fractions(min_value=Fraction(-2), max_value=Fraction(2)),
            unit_fractions(),
        )
    )


@st.composite
def narrow_boxes(draw, s, t):
    """A cube of side down to 2^-45 in ``A_k + t``, at the left or right end
    of a stage-k interval, so that its first gap may lie deep."""
    side = pow2(-draw(st.integers(min_value=0, max_value=45)))
    lo = []
    for shift in t:
        k = draw(st.integers(min_value=0, max_value=4))
        stage = descent_oracle.descend_overlapping(s, k, Fraction(0), Fraction(1))
        a, b = stage[draw(st.integers(min_value=0, max_value=len(stage) - 1))]
        lo.append(draw(st.sampled_from([a, b - side])) + shift)
    return Box.cube(lo, side)


def walk_levels(s, qlo, qhi, count):
    """The first ``count`` levels of the walk over [qlo, qhi], up to its
    first empty one, as lists of closed intervals."""
    walk = _Walk(s._ladder, Fraction(0), qlo, qhi)
    levels = []
    while len(levels) < count:
        levels.append([(Fraction(x, walk.den), Fraction(x + walk.child, walk.den)) for x in walk.lows])
        if not walk.lows:
            break
        walk.advance()
    return levels


class TestWalkAgainstOracle:
    @pytest.mark.parametrize("c, rho", WALK_SCHEDULES)
    def test_ladder_lengths_equal_the_closed_form(self, c, rho):
        s = CantorSchedule(1, c=c, rho=rho)
        # The integer ladder: l_k over D_k, with D_k / D_(k-1) = steps[k].
        ladder = s._ladder
        ladder.reach(300)
        den = 1
        for k in range(301):
            den *= ladder.steps[k]
            assert ladder.dens[k] == den
            assert Fraction(ladder.lengths[k], ladder.dens[k]) == s.stage_interval_length(k)

    @pytest.mark.parametrize("grain", [1, 3, 1 << 40, 1009])
    @pytest.mark.parametrize("c, rho", WALK_SCHEDULES)
    def test_over_puts_every_stage_length_over_one_denominator(self, c, rho, grain):
        s = CantorSchedule(1, c=c, rho=rho)
        for n in (0, 1, 7, 40):
            lengths = s._ladder.over(n, grain)
            closed = [s.stage_interval_length(k) for k in range(n + 1)]
            den = lengths[0]
            assert len(lengths) == n + 1
            assert den == lcm(grain, *(length.denominator for length in closed))
            assert den % grain == 0 and all(den % at == 0 for at in s._ladder.dens[: n + 1])
            assert [Fraction(length, den) for length in lengths] == closed

    @settings(max_examples=60, deadline=None)
    @given(s=valid_schedules(), grain=st.sampled_from([1, 3, 1 << 40, 1009]))
    def test_the_integer_ladder_equals_the_closed_form_on_any_schedule(self, s, grain):
        ladder = s._ladder
        ladder.reach(64)
        closed = [s.stage_interval_length(k) for k in range(65)]
        den = 1
        for k in range(65):
            assert ladder.steps[k] == ladder.dens[k] // (ladder.dens[k - 1] if k else 1)
            den *= ladder.steps[k]
            assert ladder.dens[k] == den == lcm(*(length.denominator for length in closed[: k + 1]))
            assert Fraction(ladder.lengths[k], ladder.dens[k]) == closed[k]
        for n in (0, 1, 7, 40, 64):
            lengths = ladder.over(n, grain)
            assert lengths[0] == lcm(grain, *(length.denominator for length in closed[: n + 1]))
            assert [Fraction(length, lengths[0]) for length in lengths] == closed[: n + 1]
        # The stage set's lower ends, from that table, at any scale.
        for n in range(6):
            got_den, lows, length = s._stage_lows(n, grain)
            assert got_den == ladder.over(n, grain)[0]
            got = [(Fraction(x, got_den), Fraction(x + length, got_den)) for x in lows]
            assert got == brute_stage_intervals(s.c, s.rho, n)

    @given(data=st.data(), s=walk_schedules(), n=st.integers(min_value=0, max_value=10))
    def test_descend_overlapping_equals_the_stack_walk(self, data, s, n):
        a = data.draw(walk_points(s))
        b = data.draw(st.one_of(st.just(a), walk_points(s)))
        qlo, qhi = min(a, b), max(a, b)
        got = s._descend_overlapping(n, qlo, qhi)
        want = descent_oracle.descend_overlapping(s, n, qlo, qhi)
        assert got == want and repr(got) == repr(want)

    @given(data=st.data(), s=walk_schedules(), n=st.integers(min_value=0, max_value=10))
    def test_first_free_subinterval_equals_the_oracle(self, data, s, n):
        t = data.draw(fractions(min_value=Fraction(-1), max_value=Fraction(1)))
        a, b = data.draw(walk_points(s)), data.draw(walk_points(s))
        if a == b:
            b = a + Fraction(1, 8)
        jlo, jhi = min(a, b), max(a, b)
        got = s.first_free_subinterval(n, t, jlo, jhi)
        assert repr(got) == repr(descent_oracle.first_free_subinterval(s, n, t, jlo, jhi))

    @given(data=st.data(), s=walk_schedules(), n=st.integers(min_value=0, max_value=10))
    def test_the_validator_descent_equals_the_stack_walk(self, data, s, n):
        t = data.draw(fractions(min_value=Fraction(-1), max_value=Fraction(1)))
        a, b = data.draw(walk_points(s)), data.draw(st.one_of(walk_points(s), st.just(Fraction(0))))
        qlo, qhi = min(a, b) + t, max(a, b) + t
        got = s.interval_meets_stage_translate(n, t, qlo, qhi)
        assert got == bool(descent_oracle.descend_overlapping(s, n, qlo - t, qhi - t))

    @pytest.mark.parametrize("c, rho", WALK_SCHEDULES[:3])
    def test_the_validator_descent_decides_queries_that_end_on_a_stage_end(self, c, rho):
        # Closed ends: a query from a stage end into the next gap meets the set.
        s = CantorSchedule(1, c=c, rho=rho)
        for k in range(4):
            stage = descent_oracle.descend_overlapping(s, k, Fraction(0), Fraction(1))
            ends = [e for interval in stage for e in interval]
            gaps = [(a_hi + b_lo) / 2 for (_, a_hi), (b_lo, _) in zip(stage, stage[1:])]
            for e in ends:
                for g in gaps + ends:
                    qlo, qhi = min(e, g), max(e, g)
                    for n in (k, k + 2):
                        want = bool(descent_oracle.descend_overlapping(s, n, qlo, qhi))
                        assert s.interval_meets_stage_translate(n, Fraction(0), qlo, qhi) == want

    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=3),
        cap=st.integers(min_value=0, max_value=40),
    )
    def test_find_gap_equals_the_oracle(self, data, d, cap):
        s = data.draw(walk_schedules(dim=d))
        t = tuple(data.draw(fractions(min_value=Fraction(-1), max_value=Fraction(1))) for _ in range(d))
        j = data.draw(st.one_of(boxes(dim=d), narrow_boxes(s, t)))
        got = find_gap(s, t, j, cap)
        assert repr(got) == repr(descent_oracle.find_gap(s, t, j, cap))

    @settings(deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=3),
        cap=st.integers(min_value=0, max_value=40),
    )
    def test_a_search_walks_each_axis_once_per_stage(self, data, d, cap):
        """A search that ends at stage M builds one walk per axis and moves
        each at most M levels down: M + 1 levels, not one walk per stage."""
        s = data.draw(walk_schedules(dim=d))
        t = tuple(data.draw(fractions(min_value=Fraction(-1), max_value=Fraction(1))) for _ in range(d))
        j = data.draw(st.one_of(boxes(dim=d), narrow_boxes(s, t)))
        built, advanced = [], []
        init, advance = _Walk.__init__, _Walk.advance

        def counted_init(walk, *args):
            built.append(walk)
            init(walk, *args)

        def counted_advance(walk):
            advanced.append(walk)
            advance(walk)

        with mock.patch.object(_Walk, "__init__", counted_init):
            with mock.patch.object(_Walk, "advance", counted_advance):
                got = find_gap(s, t, j, cap)
        stage = got.stage if isinstance(got, GapCertificate) else got.deepest_stage
        assert len(built) <= d
        assert all(walk.level <= stage for walk in built)
        assert all(advanced.count(walk) == walk.level for walk in built)

    def test_validation_never_enters_the_search_walk(self):
        s = CantorSchedule(2, c=Fraction(1, 2), rho=Fraction(1, 3))
        t = (Fraction(1, 8), Fraction(-1, 3))
        certificates = [
            find_gap(s, t, Box.cube((lo, lo), side), 40)
            for lo in (Fraction(0), Fraction(1, 3), Fraction(1, 2))
            for side in (Fraction(1), Fraction(1, 64), pow2(-30))
        ]
        assert all(isinstance(cert, GapCertificate) for cert in certificates)
        search = {
            code
            for fn in (
                _Walk.__init__, _Walk.advance, _Walk.first_free, cantor.find_gap,
                CantorSchedule.first_free_subinterval, CantorSchedule._descend_overlapping,
            )
            for code in [fn.__code__]
        }
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        sys.setprofile(profile)
        try:
            verdicts = [cantor._misses_stage_translate(s, t, cert.stage, cert.box) for cert in certificates]
        finally:
            sys.setprofile(None)
        assert all(verdicts)
        assert CantorSchedule.interval_meets_stage_translate.__code__ in called
        assert not called & search

    @given(
        s=walk_schedules(dim=3),
        d=st.integers(min_value=1, max_value=3),
        delta=st.one_of(
            st.integers(min_value=0, max_value=80).map(pow2),
            st.integers(min_value=-80, max_value=2).map(pow2).map(lambda q: q * Fraction(2, 3)),
        ),
    )
    def test_min_stage_for_delta_equals_the_closed_form_scan(self, s, d, delta):
        s = CantorSchedule(d, c=s.c, rho=s.rho)
        assert min_stage_for_delta(s, delta) == descent_oracle.min_stage_for_delta(s, delta)

    def test_the_walk_stops_at_the_first_empty_level(self):
        # A window outside [0, 1], or a point in a stage-1 gap, leaves an
        # empty level after at most two levels, however deep the request.
        s = CantorSchedule(1)
        half = Fraction(1, 2)
        assert walk_levels(s, Fraction(2), Fraction(3), 5) == [[]]
        assert walk_levels(s, half, half, 5) == [[(0, 1)], []]
        assert s._descend_overlapping(10**6, Fraction(2), Fraction(3)) == []
        assert s._descend_overlapping(10**6, Fraction(1, 2), Fraction(1, 2)) == []
        assert s.first_free_subinterval(10**6, Fraction(0), Fraction(2), Fraction(3)) == (2, 3)

