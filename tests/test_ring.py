"""Ring expressions over translated stage sets: bounds, splits, enumeration.

Independent oracle for dimension 1: evaluate an expression directly as a
sorted list of disjoint intervals, with union / intersection / difference
implemented by endpoint sweeps.  This shares no code with the package's
box-union machinery, so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatcantor
from fatcantor import (
    Box,
    BudgetError,
    BoxUnion,
    CantorSchedule,
    Diff,
    Gen,
    Inter,
    MeasureBounds,
    PreconditionError,
    Union,
    base_expr,
    clip_to_box,
    expr_dim,
    generate_rn,
    iter_leaves,
    leaf_count,
    measure_bounds,
    premeasure,
    simplify,
    split_identity_check,
)
from fatcantor import cantor, geometry, hausdorff, rationals, ring, serialize
from fatcantor.cantor import StageLattice
from fatcantor.serialize import to_json

import ring_oracle
from descent_oracle import brute_stage_intervals
from strategies import approx_set, boxes, fractions, gens, odd_gens, ring_exprs, schedules


# ---------------------------------------------------------------------------
# interval-list algebra (dimension 1 oracle)
# ---------------------------------------------------------------------------


def _normalize(ivs):
    ivs = sorted((lo, hi) for lo, hi in ivs if lo < hi)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _iv_union(a, b):
    return _normalize(a + b)


def _iv_inter(a, b):
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo < hi:
                out.append((lo, hi))
    return _normalize(out)


def _iv_diff(a, b):
    out = []
    for alo, ahi in a:
        pieces = [(alo, ahi)]
        for blo, bhi in b:
            nxt = []
            for lo, hi in pieces:
                if bhi <= lo or hi <= blo:
                    nxt.append((lo, hi))
                    continue
                if lo < blo:
                    nxt.append((lo, blo))
                if bhi < hi:
                    nxt.append((bhi, hi))
            pieces = nxt
        out.extend(pieces)
    return _normalize(out)


def eval_expr_1d(e, s: CantorSchedule, n: int):
    """Evaluate the stage-n approximation of ``e`` as an interval list."""
    if isinstance(e, Gen):
        t = e.translation[0]
        base = [(lo + t, hi + t) for lo, hi in brute_stage_intervals(s.c, s.rho, n)]
        if e.clip.is_empty:
            return []
        clo, chi = e.clip.lo[0], e.clip.hi[0]
        return _iv_inter(base, [(clo, chi)]) if clo < chi else []
    left = eval_expr_1d(e.left, s, n)
    right = eval_expr_1d(e.right, s, n)
    if isinstance(e, Union):
        return _iv_union(left, right)
    if isinstance(e, Inter):
        return _iv_inter(left, right)
    if isinstance(e, Diff):
        return _iv_diff(left, right)
    raise TypeError(type(e))


def _measure(ivs) -> Fraction:
    return sum((hi - lo for lo, hi in ivs), Fraction(0))


def _union_to_ivs(u: BoxUnion):
    return _normalize([(b.lo[0], b.hi[0]) for b in u.boxes])


# ---------------------------------------------------------------------------
# approximation sets against the oracle
# ---------------------------------------------------------------------------


S1 = CantorSchedule(1)


@settings(max_examples=80)
@given(e=ring_exprs(max_leaves=5), n=st.integers(min_value=0, max_value=4))
def test_approx_set_matches_interval_algebra(e, n):
    got = _union_to_ivs(approx_set(e, S1, n))
    assert got == eval_expr_1d(e, S1, n)


@given(e=ring_exprs(max_leaves=4), n=st.integers(min_value=0, max_value=4))
def test_bounds_bracket_the_oracle_measure(e, n):
    # exprs with a set difference get a defect allowance on top of the
    # stage measure, so equality is only guaranteed on the bracket
    b = measure_bounds(e, S1, n)
    m = _measure(eval_expr_1d(e, S1, n))
    assert b.lower <= m <= b.upper


@given(e=ring_exprs(max_leaves=4, positive_only=True), n=st.integers(min_value=0, max_value=4))
def test_upper_bound_is_exact_without_differences(e, n):
    b = measure_bounds(e, S1, n)
    assert b.upper == _measure(eval_expr_1d(e, S1, n))


def test_expression_structure_helpers():
    g = base_expr(S1)
    e = Diff(Union(g, g), Inter(g, g))
    assert leaf_count(e) == 4
    assert len(list(iter_leaves(e))) == 4
    assert expr_dim(e) == 1


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


class TestMeasureBounds:
    def test_frozen_base_bounds_at_stage_4(self):
        b = measure_bounds(base_expr(S1), S1, 4)
        assert (b.lower, b.upper) == (Fraction(1, 2), Fraction(17, 32))
        assert b.stage == 4 and b.leaf_count == 1
        assert b.width == Fraction(1, 32)

    def test_self_difference_collapses_to_zero(self):
        g = base_expr(S1)
        b = measure_bounds(Diff(g, g), S1, 3)
        assert (b.lower, b.upper) == (0, 0)

    def test_disjoint_translates_add_up(self):
        g = base_expr(S1)
        far = Gen((Fraction(2),), Box.cube((Fraction(2),), Fraction(1)))
        b = measure_bounds(Union(g, far), S1, 4)
        assert b.upper == 2 * S1.stage_measure(4)
        assert b.lower == 2 * S1.stage_measure(4) - 2 * S1.stage_defect(4)

    def test_clip_to_empty_region_gives_zero(self):
        e = clip_to_box(base_expr(S1), Box.cube((Fraction(5),), Fraction(1)))
        b = measure_bounds(e, S1, 2)
        assert (b.lower, b.upper) == (0, 0)

    @given(e=ring_exprs(max_leaves=8), n=st.integers(min_value=0, max_value=6))
    def test_width_is_bounded_by_leaf_count_times_defect(self, e, n):
        b = measure_bounds(e, S1, n)
        assert b.lower >= 0
        assert b.lower <= b.upper
        assert b.width <= 2 * leaf_count(e) * Fraction(1, 2 ** (n + 1))

    @given(e=ring_exprs(max_leaves=4))
    def test_bounds_at_different_stages_intersect(self, e):
        brackets = [measure_bounds(e, S1, n) for n in range(6)]
        for b1 in brackets:
            for b2 in brackets:
                assert b1.lower <= b2.upper and b2.lower <= b1.upper

    @given(e=ring_exprs(max_leaves=4, positive_only=True))
    def test_positive_expressions_have_nonincreasing_uppers(self, e):
        uppers = [measure_bounds(e, S1, n).upper for n in range(6)]
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a

    @given(e=ring_exprs(max_leaves=3), n=st.integers(min_value=0, max_value=4))
    def test_bounds_bracket_the_limit_for_positive_exprs(self, e, n):
        # sanity for the bracket semantics: deeper stages refine inside
        # the coarse interval, so [lower_n, upper_n] must contain the
        # deepest upper bound computed here
        deep = measure_bounds(e, S1, 8)
        shallow = measure_bounds(e, S1, n)
        assert shallow.lower <= deep.upper and deep.lower <= shallow.upper


class TestPremeasure:
    def test_reaches_the_requested_tolerance(self):
        b = premeasure(base_expr(S1), S1, Fraction(1, 1024))
        assert b.width <= Fraction(1, 1024)
        assert b.lower <= Fraction(1, 2) <= b.upper

    @given(e=ring_exprs(max_leaves=3))
    def test_premeasure_tolerance_holds_for_random_expressions(self, e):
        tol = Fraction(1, 256)
        b = premeasure(e, S1, tol)
        assert b.width <= tol

    def test_impossible_tolerance_within_cap_raises(self):
        from fatcantor import BudgetError

        with pytest.raises(BudgetError):
            premeasure(base_expr(S1), S1, Fraction(1, 2**40), stage_cap=6)


def _translate(s, x, lo=0, hi=1):
    """The base set shifted by ``x`` on every axis, clipped to ``[lo, hi)^d``."""
    return Gen((Fraction(x),) * s.d, Box((Fraction(lo),) * s.d, (Fraction(hi),) * s.d))


def _union(s):
    return Union(base_expr(s), _translate(s, Fraction(1, 2)))


def _diff(s):
    return Diff(base_expr(s), _translate(s, Fraction(1, 2)))


def _sliver(s):
    return _translate(s, 0, 0, Fraction(1, 64))


def _has_a_diff(e):
    simplified = simplify(e)
    return simplified is not None and ring.has_diff(simplified)


class TestPremeasureSkip:
    """``premeasure`` starts at the first stage whose closed-form budget
    ``L * stage_defect(n)`` is at most ``tol``, and answers as a scan from
    stage 1 would."""

    # The premise of the skip, on every stage the box cap admits.

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=3))
    def test_diff_free_stage_measures_never_grow(self, data, d):
        s = data.draw(schedules(dim=d))
        e = data.draw(ring_exprs(dim=d, max_leaves=3, positive_only=True))
        # without a Diff, the upper end of a bracket is the stage measure
        m = [measure_bounds(e, s, n).upper for n in range(s.feasible_stage + 1)]
        assert all(deeper <= shallower for shallower, deeper in zip(m, m[1:]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=3))
    def test_a_bracket_with_a_diff_is_at_least_its_budget_wide(self, data, d):
        s = data.draw(schedules(dim=d))
        e = data.draw(ring_exprs(dim=d, max_leaves=3).filter(_has_a_diff))
        for n in range(s.feasible_stage + 1):
            b = measure_bounds(e, s, n)
            assert b.width >= b.leaf_count * s.stage_defect(n)

    # Each branch against the scan from stage 1 of ``ring_oracle``: the
    # expression, the tolerance, the stage cap, and the stage answered or
    # the start of the ``BudgetError`` message.
    BRANCHES = {
        "diff-free-above-tol": (1, _union, lambda s: Fraction(1, 100), 24, 7),
        "diff-free-above-tol-d2": (2, _union, lambda s: Fraction(1, 10), 24, 4),
        "diff-free-above-tol-d3": (3, _union, lambda s: Fraction(1, 4), 24, 2),
        # the scan from 1 stops at stage 1; a skip that ignores m answers 3
        "diff-free-below-tol": (1, _sliver, lambda s: Fraction(1, 16), 24, 1),
        # m is at most tol at the start and above it at every earlier stage
        "diff-free-below-tol-from-the-start": (
            1, lambda s: _translate(s, 0, 0, Fraction(1, 4)), lambda s: Fraction(3, 16), 24, 2
        ),
        "empty": (1, lambda s: Gen((Fraction(0),), Box.empty(1)), lambda s: Fraction(1, 8), 24, 1),
        "diff": (1, _diff, lambda s: Fraction(1, 8), 24, 4),
        # the first stage within tol is past the box cap
        "start-past-the-box-cap": (6, _union, lambda s: 2 * s.stage_defect(3), 24, "box cap hit at stage 3"),
        "start-past-the-box-cap-diff": (
            6, _diff, lambda s: 2 * s.stage_defect(3), 24, "box cap hit at stage 3"
        ),
        "box-cap-after-a-skip": (6, _diff, lambda s: 2 * s.stage_defect(2), 24, "box cap hit at stage 3"),
        "stage-cap-after-a-skip": (1, _diff, lambda s: 2 * s.stage_defect(5), 5, "stage cap 5 reached"),
        "stage-cap-below-the-start": (1, _union, lambda s: Fraction(1, 10**6), 3, "stage cap 3 reached"),
        "stage-cap-0": (1, _union, lambda s: Fraction(1, 8), 0, "stage cap 0 reached"),
        # A search for the start bounded only by the stage cap would reach
        # stage 9966 and refuse it as a precondition.
        "deeper-than-the-box-cap": (
            1, _union, lambda s: Fraction(1, 10**3000), 100000, "box cap hit at stage 17"
        ),
    }

    @pytest.mark.parametrize("name", sorted(BRANCHES))
    def test_each_branch_equals_the_scan_from_stage_1(self, name):
        d, make, tol_of, cap, expected = self.BRANCHES[name]
        s = CantorSchedule(d)
        e, tol = make(s), tol_of(s)
        got = TestLatticeAgainstOracle.outcome(lambda: premeasure(e, s, tol, stage_cap=cap))
        assert got == TestLatticeAgainstOracle.outcome(
            lambda: ring_oracle.premeasure(e, s, tol, stage_cap=cap)
        )
        if isinstance(expected, int):
            assert got.stage == expected and got.width <= tol
        else:
            assert got[0] is BudgetError and got[1].startswith(expected)

    def test_a_tie_goes_to_the_earliest_stage(self, monkeypatch):
        # Brackets as wide as their budgets, but stage 5 as wide as stage 4:
        # the scan from stage 5 meets stage 4 later, and must still report it.
        def budget(n):
            return 2 * S1.stage_defect(n)

        widths = {n: budget(4 if n == 5 else n) for n in range(1, 6)}

        def bracket(e, s, n):
            return MeasureBounds(Fraction(0), widths[n], stage=n, leaf_count=2)

        monkeypatch.setattr(ring, "measure_bounds", bracket)
        monkeypatch.setattr(ring_oracle, "measure_bounds", bracket)
        got = TestLatticeAgainstOracle.outcome(lambda: premeasure(_diff(S1), S1, budget(5), stage_cap=5))
        assert got == TestLatticeAgainstOracle.outcome(
            lambda: ring_oracle.premeasure(_diff(S1), S1, budget(5), stage_cap=5)
        )
        assert got[2].stage == 4

    @pytest.mark.parametrize(
        "make, tol, stages",
        [
            (_union, Fraction(1, 100), [7]),
            (_sliver, Fraction(1, 16), [3, 1]),
            (_diff, Fraction(1, 8), [3, 4]),
        ],
        ids=["diff-free-above-tol", "diff-free-below-tol", "diff"],
    )
    def test_stages_evaluated(self, monkeypatch, make, tol, stages):
        seen = []
        evaluate = ring._stage_measure

        def counted(e, s, n):
            seen.append(n)
            return evaluate(e, s, n)

        monkeypatch.setattr(ring, "_stage_measure", counted)
        premeasure(make(S1), S1, tol)
        assert seen == stages


# ---------------------------------------------------------------------------
# structural clipping
# ---------------------------------------------------------------------------


@given(e=ring_exprs(max_leaves=4), clip=boxes(dim=1), n=st.integers(min_value=0, max_value=5))
def test_clip_commutes_with_approximation(e, clip, n):
    clipped = approx_set(clip_to_box(e, clip), S1, n)
    direct = approx_set(e, S1, n).intersect_box(clip)
    assert clipped == direct


@given(e=ring_exprs(max_leaves=3))
def test_clip_to_unit_cube_is_identity_on_base_expressions(e):
    # the default generators already live in [0,1], so a unit-cube clip
    # must not change any stage approximation
    clipped = clip_to_box(e, Box.unit_cube(1))
    for n in range(4):
        assert approx_set(clipped, S1, n) == approx_set(e, S1, n).intersect_box(Box.unit_cube(1))


# ---------------------------------------------------------------------------
# the splitting identity
# ---------------------------------------------------------------------------


class TestSplitIdentity:
    def test_frozen_split_of_the_base_expression(self):
        rep = split_identity_check(base_expr(S1), S1, 4, axis=0, threshold=Fraction(1, 2), above=False)
        assert rep.equal
        assert rep.whole == Fraction(17, 32)
        assert rep.inside == rep.outside == Fraction(17, 64)

    @settings(max_examples=80)
    @given(
        e=ring_exprs(max_leaves=4),
        thr=fractions(min_value=Fraction(-1), max_value=Fraction(2)),
        above=st.booleans(),
        n=st.integers(min_value=0, max_value=8),
    )
    def test_split_identity_holds_everywhere(self, e, thr, above, n):
        rep = split_identity_check(e, S1, n, axis=0, threshold=thr, above=above)
        assert rep.equal
        assert rep.whole == rep.inside + rep.outside

    @given(e=ring_exprs(dim=2, max_leaves=3), thr=fractions(min_value=Fraction(0), max_value=Fraction(1)))
    def test_split_identity_in_dimension_two(self, e, thr):
        s2 = CantorSchedule(2)
        rep = split_identity_check(e, s2, 3, axis=1, threshold=thr, above=True)
        assert rep.equal

    def test_the_cut_is_given_and_unreached_code_is_gone(self):
        # No command reports point membership or parses a half-space Box
        # back into its cut, so that code and its exports are gone.
        gone = {
            cantor: ("Membership", "membership", "_trace_coordinate"),
            geometry: ("volume",),
            Box: ("translate", "is_half_space", "half_space_parts", "complement_half_space"),
            rationals._Infinity: ("sign", "__neg__", "__sub__"),
        }
        assert [(owner, name) for owner, names in gone.items() for name in names if hasattr(owner, name)] == []
        assert not {"Membership", "membership", "volume"} & set(fatcantor.__all__)
        # Each call clips by both sides of one cut, so flipping ``above``
        # swaps the two halves.
        s2 = CantorSchedule(2)
        e = Diff(base_expr(s2), Gen((Fraction(1, 3), Fraction(1, 7)), Box.unit_cube(2)))
        cut = dict(axis=1, threshold=Fraction(2, 5))
        up = split_identity_check(e, s2, 3, above=True, **cut)
        down = split_identity_check(e, s2, 3, above=False, **cut)
        assert 0 < up.inside < up.whole
        assert (up.inside, up.outside) == (down.outside, down.inside)
        assert up.whole == down.whole and up.equal and down.equal


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


class TestSimplify:
    def test_provably_empty_expressions_simplify_to_none(self):
        g = base_expr(S1)
        assert simplify(Diff(g, g)) is None
        far = clip_to_box(g, Box.cube((Fraction(9),), Fraction(1)))
        assert simplify(far) is None

    @given(e=ring_exprs(max_leaves=5))
    def test_simplification_preserves_every_stage_approximation(self, e):
        slim = simplify(e)
        for n in range(4):
            original = approx_set(e, S1, n)
            if slim is None:
                assert original.is_empty
            else:
                assert approx_set(slim, S1, n) == original

    @given(e=ring_exprs(max_leaves=5))
    def test_simplification_never_grows_the_expression(self, e):
        slim = simplify(e)
        if slim is not None:
            assert leaf_count(slim) <= leaf_count(e)


# ---------------------------------------------------------------------------
# ring layer enumeration
# ---------------------------------------------------------------------------


class TestGenerateRn:
    POOL = [
        base_expr(S1),
        Gen((Fraction(1, 2),), Box.unit_cube(1)),
        Gen((Fraction(1, 4),), Box.unit_cube(1)),
    ]

    def test_frozen_layer_sizes(self):
        assert len(generate_rn(self.POOL, 1, S1)) == 3
        assert len(generate_rn(self.POOL, 2, S1)) == 13
        assert len(generate_rn(self.POOL, 3, S1)) == 38

    def test_layer_one_is_the_pool(self):
        r1 = generate_rn(self.POOL, 1, S1)
        assert [approx_set(e, S1, 4) for e in r1] == [approx_set(e, S1, 4) for e in self.POOL]

    def test_layers_are_deduplicated_by_reference_approximation(self):
        r2 = generate_rn(self.POOL, 2, S1)
        seen = [approx_set(e, S1, 4) for e in r2]
        assert len(seen) == len(set(seen))

    def test_layers_nest(self):
        r1 = {approx_set(e, S1, 4) for e in generate_rn(self.POOL, 1, S1)}
        r2 = {approx_set(e, S1, 4) for e in generate_rn(self.POOL, 2, S1)}
        assert r1 <= r2

    def test_size_cap_is_enforced(self):
        from fatcantor import BudgetError

        with pytest.raises(BudgetError):
            generate_rn(self.POOL, 3, S1, max_size=10)

    def test_layer_zero_is_rejected(self):
        with pytest.raises(PreconditionError):
            generate_rn(self.POOL, 0, S1)


class TestFoldAgainstOracle:
    """The cached-set fold on the lattice against the per-candidate tree
    evaluation, one Fraction leaf at a time, that it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=4),
        reference_stage=st.integers(min_value=0, max_value=4),
        max_size=st.sampled_from([0, 1, 2, 5, 12, 40]),
    )
    def test_layers_equal_the_oracle(self, data, d, n, reference_stage, max_size):
        s = CantorSchedule(d)
        reference_stage = min(reference_stage, 8 // d)
        leaves = data.draw(st.sampled_from([gens, odd_gens]))
        pool = data.draw(st.lists(ring_exprs(dim=d, max_leaves=3, leaves_from=leaves), min_size=1, max_size=3))

        def run(generate):
            try:
                return generate(pool, n, s, reference_stage=reference_stage, max_size=max_size)
            except BudgetError as exc:
                return exc

        got, want = run(generate_rn), run(ring_oracle.generate_rn)
        assert type(got) is type(want)
        if isinstance(want, BudgetError):
            assert str(got) == str(want)
            got, want = got.partial, want.partial
        assert got == want
        assert to_json(got) == to_json(want)

    def test_both_refuse_the_same_inputs(self):
        for generate in (generate_rn, ring_oracle.generate_rn):
            with pytest.raises(PreconditionError, match="empty generator pool"):
                generate([], 2, S1)
            with pytest.raises(PreconditionError, match="ring layers run from 1 to 8, got 9"):
                generate(TestGenerateRn.POOL, 9, S1)
            with pytest.raises(BudgetError, match="needs 2\\^18 boxes"):
                generate([base_expr(CantorSchedule(2))], 2, CantorSchedule(2), reference_stage=9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_leaf_evaluation_per_pool_leaf_and_one_op_per_candidate(self, monkeypatch, n):
        pool = [base_expr(S1), Gen((Fraction(1, 2),), Box.unit_cube(1)),
                Gen((Fraction(-1, 2),), Box.unit_cube(1))]
        calls = {"leaf": 0, "combine": 0, "union": 0, "subtract": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(StageLattice, "leaf", counted("leaf", StageLattice.leaf))
        # ``ring`` binds the kernel by name, so only its top-level calls count.
        monkeypatch.setattr(ring, "_combine", counted("combine", ring._combine))
        monkeypatch.setattr(BoxUnion, "union", counted("union", BoxUnion.union))
        monkeypatch.setattr(BoxUnion, "subtract", counted("subtract", BoxUnion.subtract))
        sizes = [len(generate_rn(pool, k, S1)) for k in range(1, n)]
        calls.update(leaf=0, combine=0, union=0, subtract=0)
        generate_rn(pool, n, S1)
        examined = sum(size * size for size in sizes)
        assert calls == {"leaf": 3, "combine": 2 * examined, "union": 0, "subtract": 0}


class TestLatticeAgainstOracle:
    """Ring evaluation on the integer lattice against one Fraction leaf at a time."""

    @staticmethod
    def outcome(call):
        try:
            return call()
        except BudgetError as exc:
            return type(exc), str(exc), exc.partial

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=3))
    def test_every_evaluation_equals_the_oracle(self, data, d):
        s = data.draw(schedules(dim=d))
        n = data.draw(st.integers(min_value=0, max_value=(8, 4, 3)[d - 1]))
        e = data.draw(ring_exprs(dim=d, max_leaves=4, leaves_from=odd_gens))
        axis = data.draw(st.integers(min_value=0, max_value=d - 1))
        threshold = Fraction(data.draw(st.integers(min_value=-2, max_value=9)), data.draw(st.sampled_from([1, 7, 9])))
        cut = dict(axis=axis, threshold=threshold, above=data.draw(st.booleans()))
        if data.draw(st.booleans()):
            e = clip_to_box(e, Box.half_space(d, axis, threshold, above=not cut["above"]))

        got, want = approx_set(e, s, n), ring_oracle.approx_set(e, s, n)
        assert got == want and repr(got) == repr(want)
        assert measure_bounds(e, s, n) == ring_oracle.measure_bounds(e, s, n)
        assert split_identity_check(e, s, n, **cut) == ring_oracle.split_identity_check(e, s, n, **cut)
        tol = Fraction(1, data.draw(st.sampled_from([2, 64, 4096])))
        cap = data.draw(st.integers(min_value=1, max_value=(9, 5, 3)[d - 1]))
        assert self.outcome(lambda: premeasure(e, s, tol, stage_cap=cap)) == self.outcome(
            lambda: ring_oracle.premeasure(e, s, tol, stage_cap=cap)
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=2))
    def test_clip_ends_on_the_ends_of_shifted_stage_intervals(self, data, d):
        # A clip end that meets an interval end exactly must neither keep
        # an empty piece nor drop a nonempty one.
        s = CantorSchedule(d)
        n = data.draw(st.integers(min_value=0, max_value=(6, 3)[d - 1]))
        t = tuple(Fraction(data.draw(st.integers(min_value=-9, max_value=9)), 7) for _ in range(d))
        ends = sorted({v for lo, hi in s.stage_intervals_1d(n) for v in (lo, hi)})
        lo, hi = [], []
        for shift in t:
            a, b = sorted(data.draw(st.sampled_from(ends)) for _ in range(2))
            lo.append(a + shift)
            hi.append(b + shift)
        e = Union(Gen(t, Box(tuple(lo), tuple(hi))), Gen(t, Box.half_space(d, 0, hi[0], above=True)))
        got, want = approx_set(e, s, n), ring_oracle.approx_set(e, s, n)
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("d, n", [(2, 9), (1, 17)])
    def test_the_box_cap_refuses_with_the_oracle_text(self, d, n):
        s = CantorSchedule(d)
        e = Diff(base_expr(s), Gen((Fraction(1, 7),) * d, Box.empty(d)))
        calls = [
            lambda m: m.measure_bounds(e, s, n),
            lambda m: m.split_identity_check(e, s, n, axis=0, threshold=Fraction(1, 3), above=True),
            lambda m: m.premeasure(e, s, Fraction(1, 2**40), stage_cap=n),
            lambda m: m.generate_rn([e], 2, s, reference_stage=n),
        ]
        for call in calls:
            got = self.outcome(lambda: call(ring))
            assert got == self.outcome(lambda: call(ring_oracle))
            assert got[0] is BudgetError
        got = self.outcome(lambda: approx_set(e, s, n))
        assert got == self.outcome(lambda: ring_oracle.approx_set(e, s, n))
        assert f"needs 2^{n * d} boxes" in got[1]

    def test_measures_build_no_box_union(self, monkeypatch):
        s = CantorSchedule(2)
        e = Diff(base_expr(s), Gen((Fraction(1, 7), Fraction(2, 9)), Box.unit_cube(2)))
        built = []
        init = BoxUnion.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BoxUnion, "__init__", counted)
        measure_bounds(e, s, 4)
        split_identity_check(e, s, 4, axis=1, threshold=Fraction(1, 3), above=False)
        assert built == []
        approx_set(e, s, 4)
        assert len(built) == 1


class TestOneStageSetPath:
    """Stage sets are evaluated on the lattice alone; only ``stage_approx``
    converts one to a Fraction ``BoxUnion``."""

    def test_the_fraction_fork_is_gone(self):
        assert not hasattr(ring, "approx_set")
        assert not hasattr(CantorSchedule, "clipped_translate")
        assert not hasattr(StageLattice, "box_union")
        for module in (ring, hausdorff, serialize):
            assert "BoxUnion" not in vars(module), module.__name__

    def test_every_exported_name_resolves(self):
        assert [name for name in fatcantor.__all__ if not hasattr(fatcantor, name)] == []
