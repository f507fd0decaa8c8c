"""Finite covers: positive hulls, greedy upper bounds, uncovered witnesses.

The headline fact being exercised: no finite family of translated stage
sets ever covers the unit cube, and the search procedures must either
produce a box that witnesses the failure or say explicitly that the stage
budget ran out.  Witnesses are replayed through their validity checker and
through the brute-force stage construction from test_cantor.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatcantor import (
    Box,
    BoxUnion,
    CantorSchedule,
    CoverAttempt,
    Diff,
    Gen,
    Inter,
    NeedsDeeperStage,
    Union,
    UncoveredWitness,
    base_expr,
    clip_to_box,
    cli,
    find_uncovered_box,
    grid_translate_pool,
    iter_leaves,
    outer_upper,
    positive_hull,
    quartered_translate_pool,
    uncovered_witness_valid,
    verify_cover,
)

from fatcantor import cover
from fatcantor.errors import PreconditionError
from fatcantor.serialize import to_json, witness_from_json

import cover_oracle
import descent_oracle
import witness_oracle
from strategies import approx_set, boxes, fractions, ring_exprs
from descent_oracle import brute_stage_intervals

S1 = CantorSchedule(1)


# ---------------------------------------------------------------------------
# positive hull
# ---------------------------------------------------------------------------


class TestPositiveHull:
    @given(e=ring_exprs(max_leaves=5))
    def test_hull_contains_the_expression_at_every_stage(self, e):
        hull = positive_hull(e)
        for n in range(4):
            inner = approx_set(e, S1, n)
            outer = approx_set(hull, S1, n)
            assert outer.contains_union(inner)

    @given(e=ring_exprs(max_leaves=5))
    def test_hull_is_difference_free(self, e):
        hull = positive_hull(e)

        def scan(node):
            if isinstance(node, Gen):
                return
            assert not isinstance(node, Diff)
            scan(node.left)
            scan(node.right)

        scan(hull)

    def test_hull_of_a_difference_is_its_left_side(self):
        g = base_expr(S1)
        shifted = Gen((Fraction(1, 4),), Box.unit_cube(1))
        assert positive_hull(Diff(g, shifted)) == g


# ---------------------------------------------------------------------------
# cover verification
# ---------------------------------------------------------------------------


class TestVerifyCover:
    def test_stage_approximation_covers_itself(self):
        # an expression target stands for its stage set
        assert verify_cover(base_expr(S1), [base_expr(S1)], S1, 2)

    def test_deeper_stages_no_longer_cover(self):
        # [0, 5/32) is the first stage-2 interval; stage 3 cuts a gap into it
        target = Box.interval(Fraction(0), Fraction(5, 32))
        assert verify_cover(target, [base_expr(S1)], S1, 2)
        assert not verify_cover(target, [base_expr(S1)], S1, 3)

    def test_translates_can_fill_the_gaps_of_one_element(self):
        target = Box.interval(Fraction(0), Fraction(3, 4))
        pool = [Gen((t,), Box.whole_space(1)) for t in
                (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4))]
        covered = verify_cover(target, pool, S1, 1)
        # independent replay via interval arithmetic
        blocked = []
        for g in pool:
            blocked.extend(
                (lo + g.translation[0], hi + g.translation[0])
                for lo, hi in brute_stage_intervals(S1.c, S1.rho, 1)
            )
        edges = sorted({e for b in blocked for e in b if 0 <= e <= Fraction(3, 4)} | {Fraction(0), Fraction(3, 4)})
        gap_free = all(
            any(blo <= (lo + hi) / 2 <= bhi for blo, bhi in blocked)
            for lo, hi in zip(edges, edges[1:])
        )
        assert covered == gap_free

    @given(e=ring_exprs(max_leaves=3), n=st.integers(min_value=0, max_value=3))
    def test_every_expression_covers_its_own_approximation(self, e, n):
        for box in approx_set(e, S1, n).boxes:
            assert verify_cover(box, [e], S1, n)


# ---------------------------------------------------------------------------
# greedy outer bound
# ---------------------------------------------------------------------------


class TestOuterUpper:
    def test_self_cover_reports_the_stage_measure(self):
        att = outer_upper(base_expr(S1), [base_expr(S1)], S1, stage=2)
        assert att.verified and not att.infinite
        assert att.subset == (0,)
        assert att.total_premeasure_upper == Fraction(5, 8)

    def test_clipped_target_needs_less(self):
        target = clip_to_box(base_expr(S1), Box.interval(Fraction(0), Fraction(1, 4)))
        att = outer_upper(target, [base_expr(S1)], S1, stage=2)
        assert att.verified
        # stage-2 set inside [0, 1/4): [0, 10/64) plus [14/64, 16/64)
        assert att.total_premeasure_upper == Fraction(10, 64) + Fraction(2, 64)

    def test_plain_intervals_admit_no_cover_and_report_infinity(self):
        att = outer_upper(Box.interval(Fraction(0), Fraction(1, 4)), [base_expr(S1)], S1, stage=2)
        assert att.infinite
        assert not att.verified
        assert att.total_premeasure_upper is None
        assert att.subset == ()

    def test_budget_exhaustion_also_reports_infinity(self):
        pool = grid_translate_pool(S1, 4)
        att = outer_upper(Box.unit_cube(1), pool, S1, stage=3, budget=5)
        assert att.infinite

    def test_ties_go_to_the_first_mask_in_mask_order(self):
        # At stage 0 a leaf is its clip.  Greedy takes the widest element, 4
        # (total 3/2); {0, 3} (mask 9) and {1, 2} (mask 6) both cover with
        # total 1, and the depth-first walk meets mask 9 first.
        def piece(lo, hi, t=Fraction(0)):
            return Gen((t,), Box.interval(lo, hi))

        quarter, half = Fraction(1, 4), Fraction(1, 2)
        pool = [
            piece(0, half), piece(0, quarter), piece(quarter, 1), piece(half, 1),
            Union(piece(0, 1), piece(-half, half, -half)),
        ]
        att = outer_upper(Box.unit_cube(1), pool, S1, stage=0, clip=False)
        assert (att.subset, att.total_premeasure_upper) == ((1, 2), 1)
        assert att == cover_oracle.outer_upper(Box.unit_cube(1), pool, S1, stage=0, budget=4096, clip=False)

    @given(n=st.integers(min_value=1, max_value=3))
    def test_verified_attempts_replay_through_verify_cover(self, n):
        pool = grid_translate_pool(S1, 4)
        target = clip_to_box(base_expr(S1), Box.interval(Fraction(0), Fraction(1, 2)))
        att = outer_upper(target, pool, S1, stage=n)
        if not att.infinite:
            chosen = [pool[i] for i in att.subset]
            assert verify_cover(target, chosen, S1, n)


# ---------------------------------------------------------------------------
# the lattice search against the per-mask Fraction search it replaced
# ---------------------------------------------------------------------------


@st.composite
def cover_cases(draw):
    """A target, a pool of 1 to 5 elements, a stage and a schedule in d 1-2.

    Besides random boxes and expressions, a target may be a pool element
    clipped to a box, and the pool may hold whole-line translates on a
    coarse grid, so that covers are found as well as missed.
    """
    d = draw(st.integers(min_value=1, max_value=2))
    s = CantorSchedule(d)
    stage = draw(st.integers(min_value=0, max_value=3 if d == 1 else 2))
    grid = st.builds(
        lambda k: Gen((Fraction(k, 4),) * d, Box.whole_space(d)), st.integers(min_value=-2, max_value=2)
    )
    pool = draw(st.lists(ring_exprs(dim=d, max_leaves=3) | grid, min_size=1, max_size=5))
    kind = draw(st.sampled_from(["box", "expression", "clipped element"]))
    if kind == "box":
        target = draw(boxes(dim=d, span=Fraction(1)))
    elif kind == "expression":
        target = draw(ring_exprs(dim=d, max_leaves=2))
    else:
        target = clip_to_box(draw(st.sampled_from(pool)), draw(boxes(dim=d, span=Fraction(1))))
    return s, stage, target, pool


def _answer(att):
    return att.subset, att.total_premeasure_upper, att.verified, att.infinite


class TestCoverSearchAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        case=cover_cases(),
        budget=st.integers(min_value=0, max_value=40),
        clip=st.booleans(),
    )
    def test_outer_upper_and_verify_cover_equal_the_oracle(self, case, budget, clip):
        s, stage, target, pool = case
        got = outer_upper(target, pool, s, stage=stage, budget=budget, clip=clip)
        want = cover_oracle.outer_upper(target, pool, s, stage=stage, budget=budget, clip=clip)
        assert _answer(got) == _answer(want)
        for elements in (pool, [pool[i] for i in got.subset]):
            assert verify_cover(target, elements, s, stage) == cover_oracle.verify_cover(
                target, elements, s, stage
            )


# Element 0 misses [0, 1/4) at stage 1; elements 1 and 2 each cover it.
_EDGE_POOL = [
    Gen((Fraction(1, 2),), Box.unit_cube(1)),
    Gen((Fraction(0),), Box.unit_cube(1)),
    Gen((Fraction(0),), Box.interval(Fraction(0), Fraction(1, 2))),
]
_ONE_PATH_CASES = {
    "box-found": (Box.interval(Fraction(0), Fraction(1, 4)), _EDGE_POOL, 1, False),
    "box-infinite": (Box.interval(Fraction(0), Fraction(1, 4)), _EDGE_POOL, 2, True),
    "expression-found": (base_expr(S1), [base_expr(S1), *_EDGE_POOL], 2, False),
    "expression-infinite": (base_expr(S1), _EDGE_POOL[:1], 2, True),
}


def _raise(*args, **kwargs):
    raise AssertionError("the cover search used the Fraction BoxUnion path")


class TestOneEvaluationPath:
    """The search and its check run on the lattice alone, one subtraction per mask."""

    def test_cover_holds_no_box_union_path(self):
        assert "BoxUnion" not in vars(cover) and "approx_set" not in vars(cover)

    @pytest.mark.parametrize("clip", [True, False], ids=["clip", "no-clip"])
    @pytest.mark.parametrize("name", list(_ONE_PATH_CASES))
    def test_answers_need_no_box_union_operation(self, name, clip):
        target, pool, stage, infinite = _ONE_PATH_CASES[name]
        want = cover_oracle.outer_upper(target, pool, S1, stage=stage, budget=4096, clip=clip)
        assert want.infinite is infinite
        chosen = [pool[i] for i in want.subset] or pool
        covered = cover_oracle.verify_cover(target, chosen, S1, stage)
        patches = [
            mock.patch.object(BoxUnion, method, _raise)
            for method in ("union", "intersect", "subtract", "contains_union")
        ]
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            got = outer_upper(target, pool, S1, stage=stage, clip=clip)
            assert _answer(got) == _answer(want)
            assert verify_cover(target, chosen, S1, stage) is covered is (not infinite)

    @pytest.mark.parametrize("budget", [1, 7, 40, 62, 4096])
    def test_the_walk_subtracts_once_per_examined_mask(self, budget):
        # The base set's pieces on the sixths of [0, 1) cover it only all
        # together: every proper subset misses a piece, so masks 1-62 are
        # examined, and mask 63 ties the greedy cover and is skipped.
        sixths = [Box.interval(Fraction(k, 6), Fraction(k + 1, 6)) for k in range(6)]
        pool = [clip_to_box(base_expr(S1), box) for box in sixths]

        def calls(budget: int) -> int:
            with mock.patch.object(cover, "_combine", wraps=cover._combine) as combine:
                att = outer_upper(base_expr(S1), pool, S1, stage=3, budget=budget)
            assert att.subset == tuple(range(6))
            return combine.call_count

        assert calls(budget) - calls(0) == min(budget, 62)

    def test_a_pool_that_misses_the_target_walks_no_mask(self):
        # The greedy pass stalls on the grid pool, which proves that no
        # subset covers the unit cube, so the budget changes nothing.
        pool = grid_translate_pool(S1, 6)

        def calls(budget: int) -> int:
            with mock.patch.object(cover, "_combine", wraps=cover._combine) as combine:
                att = outer_upper(Box.unit_cube(1), pool, S1, stage=3, budget=budget)
            assert att.infinite and not att.verified
            return combine.call_count

        assert calls(4096) == calls(0)

    def test_the_walk_skips_masks_that_cannot_do_better(self):
        # Clipped to [0, 1/4), element 0 is empty (total 0) and elements 1
        # and 2 are equal, so the greedy cover {1} ties every other cover.
        # The walk subtracts for mask 1 alone: masks 2-7 total no less.
        target, pool, stage, _ = _ONE_PATH_CASES["box-found"]
        with mock.patch.object(cover, "_combine", wraps=cover._combine) as combine:
            outer_upper(target, pool, S1, stage=stage, budget=0)
            greedy = combine.call_count
            att = outer_upper(target, pool, S1, stage=stage)
        assert att.subset == (1,)
        assert combine.call_count - 2 * greedy == 1


# ---------------------------------------------------------------------------
# uncovered witnesses
# ---------------------------------------------------------------------------


class TestUncoveredBox:
    @pytest.mark.parametrize("d", [1, 2])
    def test_the_witness_box_lies_in_the_gap_of_every_leaf(self, d, monkeypatch):
        # So a certificate keeps only its stage: the check of the witness's
        # own box is all the gap box could have certified.
        s = CantorSchedule(d)
        pool = grid_translate_pool(s, 5)
        gaps = []

        search = cover.find_gap

        def recorded(*args):
            gaps.append(search(*args))
            return gaps[-1]

        monkeypatch.setattr(cover, "find_gap", recorded)
        witness = find_uncovered_box(Box.unit_cube(d), pool, s, 24)
        assert isinstance(witness, UncoveredWitness) and len(gaps) == 5
        assert [gap.stage for gap in gaps] == list(witness.certificates)
        assert all(gap.box.contains_box(witness.box) for gap in gaps)

    def test_empty_family_leaves_the_whole_interior_free(self):
        w = find_uncovered_box(Box.unit_cube(1), [], S1, 4)
        assert isinstance(w, UncoveredWitness)
        assert uncovered_witness_valid(S1, Box.unit_cube(1), [], w)
        assert Box.unit_cube(1).contains_box(w.box)

    def test_single_element_witness_lands_in_a_gap(self):
        w = find_uncovered_box(Box.unit_cube(1), [base_expr(S1)], S1, 8)
        assert isinstance(w, UncoveredWitness)
        assert uncovered_witness_valid(S1, Box.unit_cube(1), [base_expr(S1)], w)
        lo, hi = w.box.lo[0], w.box.hi[0]
        mid = (lo + hi) / 2
        # replay against the brute construction at the witness stage
        assert not any(
            blo <= mid <= bhi
            for blo, bhi in brute_stage_intervals(S1.c, S1.rho, max(w.certificates))
        )

    def test_shallow_caps_yield_needs_deeper(self):
        pool = quartered_translate_pool(S1, 16)
        got = find_uncovered_box(Box.unit_cube(1), pool, S1, 1)
        assert isinstance(got, NeedsDeeperStage)
        assert got.deepest_stage == 1

    def test_witnesses_against_quartered_pools(self):
        for size in (1, 2, 4, 8, 16):
            pool = quartered_translate_pool(S1, size)
            w = find_uncovered_box(Box.unit_cube(1), pool, S1, 12)
            assert isinstance(w, UncoveredWitness), f"pool size {size} inconclusive"
            assert uncovered_witness_valid(S1, Box.unit_cube(1), pool, w)

    def test_tampered_witnesses_are_rejected(self):
        pool = [base_expr(S1)]
        w = find_uncovered_box(Box.unit_cube(1), pool, S1, 8)
        assert isinstance(w, UncoveredWitness)
        # move the box into the covered left edge of the stage set
        fake = replace(w, box=Box.interval(Fraction(0), Fraction(1, 64)))
        assert not uncovered_witness_valid(S1, Box.unit_cube(1), pool, fake)

    @given(
        t1=fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2)),
        t2=fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2)),
    )
    def test_two_random_translates_never_cover(self, t1, t2):
        pool = [Gen((t1,), Box.whole_space(1)), Gen((t2,), Box.whole_space(1))]
        got = find_uncovered_box(Box.unit_cube(1), pool, S1, 12)
        assert isinstance(got, UncoveredWitness)
        assert uncovered_witness_valid(S1, Box.unit_cube(1), pool, got)

    def test_dimension_two_also_witnesses(self):
        s2 = CantorSchedule(2)
        pool = quartered_translate_pool(s2, 4)
        got = find_uncovered_box(Box.unit_cube(2), pool, s2, 8)
        assert isinstance(got, UncoveredWitness)
        assert uncovered_witness_valid(s2, Box.unit_cube(2), pool, got)


# ---------------------------------------------------------------------------
# infinite-cube: one witness for the whole pool
# ---------------------------------------------------------------------------


def _cube_core(s, pool, cap):
    """The infinite-cube result core and exit code, the core as the
    ``--verify`` replay reads it: a copy of its JSON."""
    core, code = cli.COMMANDS["infinite-cube"].run(s, {"pool": pool, "stage_cap": cap})
    return copy.deepcopy(to_json(core)), code


def _cut(witness, pool, subset):
    """The witness of ``pool`` cut down to the elements in ``subset``
    (increasing pool indices): the sublist of their leaves' stages."""
    stages = iter(witness.certificates)
    per_element = [[next(stages) for _ in cover.hull_leaves(e)] for e in pool]
    return replace(witness, certificates=tuple(x for k in subset for x in per_element[k]))


def _subsets(size):
    """Every nonempty subset of ``range(size)``, as increasing tuples."""
    return [c for r in range(1, size + 1) for c in itertools.combinations(range(size), r)]


class TestInfiniteCube:
    def test_a_small_pool_has_one_checked_witness(self):
        pool = grid_translate_pool(S1, 2)
        core, code = _cube_core(S1, pool, 12)
        assert code == 0
        assert set(core) == {"found", "witness"} and core["found"] is True
        witness = witness_from_json(core["witness"])
        assert len(witness.certificates) == 2
        assert all(type(stage) is int for stage in core["witness"]["certificates"])
        assert uncovered_witness_valid(S1, Box.unit_cube(1), pool, witness)

    def test_the_witness_certifies_every_subfamily(self):
        pool = grid_translate_pool(S1, 4)
        witness = find_uncovered_box(Box.unit_cube(1), pool, S1, 12)
        assert isinstance(witness, UncoveredWitness)
        for subset in _subsets(4):
            members = [pool[k] for k in subset]
            assert uncovered_witness_valid(S1, Box.unit_cube(1), members, _cut(witness, pool, subset))

    def test_an_empty_pool_leaves_the_middle_half(self):
        for d in (1, 2):
            s = CantorSchedule(d)
            core, code = _cube_core(s, [], 4)
            assert code == 0
            assert witness_from_json(core["witness"]) == UncoveredWitness(
                Box((Fraction(1, 4),) * d, (Fraction(3, 4),) * d), ()
            )
            (row,) = witness_oracle.infinite_cube_report(s, 0, 4).rows
            assert row.witness == witness_from_json(core["witness"])

    def test_pool_cap_is_enforced(self):
        from fatcantor import BudgetError

        with pytest.raises(BudgetError, match="pool of 13 elements is above the cap of 12 elements"):
            _cube_core(S1, grid_translate_pool(S1, 13), 8)
        assert cover.check_pool_size(12) == 12


# ---------------------------------------------------------------------------
# the witness fold against the per-subset search it replaced
# ---------------------------------------------------------------------------


@st.composite
def pools(draw, dim, max_size=9, kinds=("grid", "quartered", "leaves")):
    """A grid, quartered or multi-leaf pool of 0 to ``max_size`` elements."""
    s = CantorSchedule(dim)
    kind = draw(st.sampled_from(kinds))
    size = draw(st.integers(min_value=0, max_value=max_size))
    if kind == "grid":
        return grid_translate_pool(s, size)
    if kind == "quartered":
        return quartered_translate_pool(s, size)
    return draw(st.lists(ring_exprs(dim=dim, max_leaves=3), min_size=size, max_size=size))


class TestFoldAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=2), cap=st.integers(min_value=0, max_value=12))
    def test_the_witness_is_the_last_row_of_the_table(self, data, d, cap):
        # The fold's chain {0} < {0, 1} < ... is the full mask's chain of
        # parents, so the one witness is the table's last row.
        s = CantorSchedule(d)
        pool = data.draw(pools(d, max_size=6))
        got = find_uncovered_box(Box.unit_cube(d), pool, s, cap)
        last = witness_oracle.infinite_cube_report(s, 0, cap, pool=pool).rows[-1]
        if isinstance(got, NeedsDeeperStage):
            assert last.witness is None and last.inconclusive_stage == got.deepest_stage
        else:
            assert last.witness == got and last.verified

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=24),
    )
    def test_the_witness_cut_to_any_subfamily_passes_the_oracle(self, data, d, cap):
        s = CantorSchedule(d)
        pool = data.draw(pools(d, max_size=10, kinds=("grid", "quartered")))
        witness = find_uncovered_box(Box.unit_cube(d), pool, s, cap)
        assume(isinstance(witness, UncoveredWitness))
        subset = tuple(k for k in range(len(pool)) if data.draw(st.booleans()))
        members = [pool[k] for k in subset]
        assert witness_oracle.witness_valid(s, Box.unit_cube(d), members, _cut(witness, pool, subset))

    @pytest.mark.parametrize(
        "d, size, cap, inconclusive, outcome",
        [
            (1, 9, 8, 32, None),
            (1, 10, 8, 48, NeedsDeeperStage(deepest_stage=8, element_index=5, leaf_index=0)),
            (1, 9, 12, 0, None),
            (2, 9, 0, 256, NeedsDeeperStage(deepest_stage=0, element_index=0, leaf_index=0)),
            (2, 9, 1, 0, None),
        ],
    )
    def test_grid_pools_against_the_table(self, d, size, cap, inconclusive, outcome):
        """The table's rows at the stage cap, and the one search: a pool
        whose table had inconclusive rows may still be witnessed whole, and
        the whole witness then certifies those rows' subfamilies too."""
        s = CantorSchedule(d)
        pool = grid_translate_pool(s, size)
        table = witness_oracle.infinite_cube_report(s, size, cap)
        assert sum(row.witness is None for row in table.rows) == inconclusive
        got = find_uncovered_box(Box.unit_cube(d), pool, s, cap)
        if outcome is not None:
            assert got == outcome
            return
        assert got == table.rows[-1].witness
        cube = Box.unit_cube(d)
        for row in table.rows:
            members = [pool[k] for k in row.subset]
            assert witness_oracle.witness_valid(s, cube, members, _cut(got, pool, row.subset))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_search_equals_the_oracle(self, data, d, cap):
        s = CantorSchedule(d)
        target = data.draw(st.one_of(st.just(Box.unit_cube(d)), boxes(dim=d)))
        elements = data.draw(st.lists(ring_exprs(dim=d, max_leaves=3), max_size=5))
        got = find_uncovered_box(target, elements, s, cap)
        want = witness_oracle.find_uncovered_box(target, elements, s, cap)
        assert got == want
        assert repr(got) == repr(want)

    def test_search_reports_the_failing_element_and_leaf(self):
        unit = Box.unit_cube(1)
        pool = [Gen((Fraction(0),), unit), Union(Gen((Fraction(1, 8),), unit), Gen((Fraction(1, 4),), unit))]
        got = find_uncovered_box(unit, pool, S1, 1)
        assert got == witness_oracle.find_uncovered_box(unit, pool, S1, 1)
        assert got == NeedsDeeperStage(deepest_stage=1, element_index=1, leaf_index=1)

    def test_the_command_does_one_gap_search_per_leaf(self, monkeypatch):
        calls = []
        find_gap = cover.find_gap

        def counting(*args):
            calls.append(args)
            return find_gap(*args)

        monkeypatch.setattr(cover, "find_gap", counting)
        _, code = _cube_core(S1, grid_translate_pool(S1, 9), 24)
        assert code == 0
        assert len(calls) == 9
        calls.clear()
        monkeypatch.setattr(witness_oracle, "find_gap", counting)
        witness_oracle.infinite_cube_report(S1, 9, 24)
        assert len(calls) == 9 * 2**8


# ---------------------------------------------------------------------------
# the witness check against the oracle's check
# ---------------------------------------------------------------------------


def _own(items, k):
    """``items[k]``, replaced by a copy of it that nothing else holds."""
    items[k] = copy.deepcopy(items[k])
    return items[k]


def _index(data, items):
    return data.draw(st.integers(min_value=0, max_value=len(items) - 1))


def _tamper_witness(data, doc, target, kind):
    """Change a witness's JSON in place, copying its box before editing it;
    ``target`` is the box it was shrunk from."""
    stages = doc["certificates"]
    if kind == "widen":  # past the target on one side, by a little or a lot
        axis = _index(data, target.lo)
        w = data.draw(st.sampled_from([Fraction(1, 2**30), Fraction(1, 64), Fraction(1, 2)]))
        _own(doc, "box")["lo"][axis] = to_json(target.lo[axis] - w)
    elif kind == "append":  # one stage more than there are leaves
        stages.append(data.draw(st.integers(min_value=0, max_value=14)))
    elif not stages:
        return
    elif kind == "stage":
        stages[_index(data, stages)] = data.draw(st.integers(min_value=0, max_value=14))
    elif kind == "retype":  # the old value as a float, as text, or a bool
        k = _index(data, stages)
        if type(stages[k]) is int:  # not a value an earlier tamper retyped
            stages[k] = data.draw(st.sampled_from([float(stages[k]), stages[k] == 1, str(stages[k])]))
    elif kind == "drop":
        del stages[_index(data, stages)]
    elif kind == "swap" and len(stages) >= 2:
        i, j = data.draw(
            st.lists(st.integers(0, len(stages) - 1), min_size=2, max_size=2, unique=True)
        )
        stages[i], stages[j] = stages[j], stages[i]


_WITNESS_TAMPERS = ("stage", "append", "retype", "widen", "drop", "swap")


class TestWitnessCheck:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_the_check_equals_the_oracle_check_on_tampered_witnesses(self, data, d, cap):
        s = CantorSchedule(d)
        cube = Box.unit_cube(d)
        elements = data.draw(st.lists(ring_exprs(dim=d, max_leaves=3), max_size=5))
        witness = find_uncovered_box(cube, elements, s, cap)
        assume(isinstance(witness, UncoveredWitness))
        assert uncovered_witness_valid(s, cube, elements, witness)
        doc = json.loads(json.dumps(to_json(witness)))
        for kind in data.draw(st.lists(st.sampled_from(_WITNESS_TAMPERS), max_size=3)):
            _tamper_witness(data, doc, cube, kind)
        try:
            tampered = witness_from_json(doc)
        except PreconditionError:  # a retyped field is refused by the decoder
            return
        assert uncovered_witness_valid(s, cube, elements, tampered) == witness_oracle.witness_valid(
            s, cube, elements, tampered
        )

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_the_replay_equals_the_oracle_when_the_search_goes_wrong(self, data, d, cap):
        s = CantorSchedule(d)
        pool = data.draw(pools(d, max_size=5))
        find_gap = cover.find_gap

        def faulty(s, t, box, stage_cap):
            outcome = find_gap(s, t, box, stage_cap)
            kind = data.draw(st.sampled_from((None, "stage", "widen")))
            if kind is None or isinstance(outcome, NeedsDeeperStage):
                return outcome
            if kind == "stage":
                return replace(outcome, stage=data.draw(st.integers(min_value=0, max_value=14)))
            lo = (outcome.box.lo[0] - data.draw(st.sampled_from([Fraction(1, 2**30), Fraction(1, 2)])),)
            return replace(outcome, box=Box(lo + outcome.box.lo[1:], outcome.box.hi))

        with mock.patch.object(cover, "find_gap", faulty):
            core, code = _cube_core(s, pool, cap)
        assume(code == 0)
        inputs = {"pool": pool, "stage_cap": cap}
        verified = cli._verify(cli.COMMANDS["infinite-cube"], s, inputs, core)
        witness = witness_from_json(core["witness"])
        assert verified == witness_oracle.witness_valid(s, Box.unit_cube(d), pool, witness)

    def test_a_witness_box_is_checked_once(self):
        # Five leaves: the box's dimension, bounds and emptiness are
        # checked once; each leaf adds only the length of its translation
        # and its miss test.  Boundedness is counted, since
        # ``contains_box`` reads emptiness too.
        pool = grid_translate_pool(S1, 5)
        cube = Box.unit_cube(1)
        witness = find_uncovered_box(cube, pool, S1, 24)
        assert isinstance(witness, UncoveredWitness) and len(witness.certificates) == 5
        checked = []
        is_bounded = Box.is_bounded.fget

        def counted(box):
            checked.append(box)
            return is_bounded(box)

        with mock.patch.object(Box, "is_bounded", property(counted)):
            assert uncovered_witness_valid(S1, cube, pool, witness)
        assert sum(box is witness.box for box in checked) == 1

    @pytest.mark.parametrize("d, p", [(1, 5), (2, 4)])
    def test_the_oracle_check_shares_no_validator_code(self, d, p):
        # The oracle's check of a witness runs its own descent; it never
        # enters the library's certificate check or the descent behind it.
        s = CantorSchedule(d)
        pool = grid_translate_pool(s, p)
        cube = Box.unit_cube(d)
        witness = find_uncovered_box(cube, pool, s, 24)
        assert isinstance(witness, UncoveredWitness)
        validator = {
            fn.__code__
            for fn in (
                CantorSchedule.interval_meets_stage_translate, cover._misses_stage_translate,
                cover.uncovered_witness_valid,
            )
        }

        def entered(check):
            called = set()

            def profile(frame, event, arg):
                if event == "call":
                    called.add(frame.f_code)

            sys.setprofile(profile)
            try:
                assert check(s, cube, pool, witness)
            finally:
                sys.setprofile(None)
            return called

        oracle = entered(witness_oracle.witness_valid)
        assert not oracle & validator
        assert descent_oracle.descend_overlapping.__code__ in oracle
        assert validator <= entered(uncovered_witness_valid)

    def test_a_box_wider_than_the_searchs_still_passes(self):
        # A witness is the middle half of a gap, so a box a hair wider than
        # the search's still misses every translate: the check reads only
        # the box it is given, as the oracle and the replay of the core do.
        pool = grid_translate_pool(S1, 2)
        core, code = _cube_core(S1, pool, 12)
        assert code == 0
        witness = witness_from_json(core["witness"])
        lo = (witness.box.lo[0] - Fraction(1, 2**30),)
        wider = replace(witness, box=Box(lo, witness.box.hi))
        assert uncovered_witness_valid(S1, Box.unit_cube(1), pool, wider)
        assert witness_oracle.witness_valid(S1, Box.unit_cube(1), pool, wider)
        core["witness"]["box"] = to_json(wider.box)
        inputs = {"pool": pool, "stage_cap": 12}
        assert cli._verify(cli.COMMANDS["infinite-cube"], S1, inputs, core)

    def test_the_stages_pair_with_the_leaves_in_order(self):
        # Stages (1, 3, 6, 0, 0): each is the shallowest that the final box
        # needs for its leaf, so a shallower one, a missing one, one too
        # many and every swap of two unequal stages are refused.
        pool = grid_translate_pool(S1, 5)
        cube = Box.unit_cube(1)
        witness = find_uncovered_box(cube, pool, S1, 24)
        assert isinstance(witness, UncoveredWitness)
        stages = witness.certificates
        assert stages == (1, 3, 6, 0, 0)

        def verdict(elements, certificates):
            tampered = replace(witness, certificates=tuple(certificates))
            got = uncovered_witness_valid(S1, cube, elements, tampered)
            assert got == witness_oracle.witness_valid(S1, cube, elements, tampered)
            return got

        assert verdict(pool, stages)
        assert not verdict(pool, stages[:-1])
        assert not verdict(pool, stages + (0,))
        assert not verdict(pool[:-1], stages)
        assert not verdict(pool, (0,) + stages[1:])
        assert not verdict(pool, stages[:2] + (5,) + stages[3:])
        # deeper stages only shrink the translates the box must miss
        assert verdict(pool, [stage + 1 for stage in stages])
        assert verdict(pool, [stage + 1000 for stage in stages])
        for i, j in itertools.combinations(range(5), 2):
            swapped = list(stages)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert verdict(pool, swapped) == (stages[i] == stages[j])
        # at the deepest stage everywhere, any order passes
        deepest = [max(stages)] * 5
        assert verdict(pool, deepest) and verdict(pool[::-1], deepest)
        # with no leaf, no stage
        empty = find_uncovered_box(cube, [], S1, 4)
        assert empty.certificates == () and verdict([], ())
        assert not uncovered_witness_valid(S1, cube, [], replace(empty, certificates=(0,)))

    def test_a_leaf_of_another_dimension_is_refused(self):
        # The translation comes from the elements: a leaf whose translation
        # is not of the schedule's dimension fails the check, never raises.
        cube = Box.unit_cube(1)
        witness = find_uncovered_box(cube, grid_translate_pool(S1, 2), S1, 12)
        assert isinstance(witness, UncoveredWitness)
        unit2 = Box.unit_cube(2)
        elements = [Gen((Fraction(0),), cube), Gen((Fraction(1, 2), Fraction(0)), unit2)]
        assert not uncovered_witness_valid(S1, cube, elements, witness)
        assert not witness_oracle.witness_valid(S1, cube, elements, witness)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_each_pass_checks_one_certificate_per_leaf(self, p, monkeypatch, tmp_path):
        """On p one-leaf elements the search makes p gap searches, and the
        replay decodes and checks p certificates; the table's check of every
        row on its own made p * 2^(p-1) of each."""
        gap_searches, gap_checks, decoded = [], [], []
        witness_from_json = cli.witness_from_json

        def counted(calls, fn):
            def counted_call(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)

            return counted_call

        def decode(doc):
            witness = witness_from_json(doc)
            decoded.extend(witness.certificates)
            return witness

        monkeypatch.setattr(cover, "find_gap", counted(gap_searches, cover.find_gap))
        monkeypatch.setattr(cover, "_misses_stage_translate", counted(gap_checks, cover._misses_stage_translate))
        monkeypatch.setattr(
            witness_oracle, "gap_certificate_valid", counted(gap_checks, witness_oracle.gap_certificate_valid)
        )
        monkeypatch.setattr(cli, "witness_from_json", decode)
        argv = ["infinite-cube", "--pool-size", str(p), "--stage-cap", "24", "--verify"]
        assert cli.main([*argv, "--out", str(tmp_path / "cube.json")]) == 0
        assert len(gap_searches) == len(gap_checks) == len(decoded) == p
        gap_checks.clear()
        report = witness_oracle.infinite_cube_report(S1, p, 24)
        assert report.all_witnessed
        assert len(gap_checks) == p * 2 ** (p - 1)


# ---------------------------------------------------------------------------
# the replay of an infinite-cube core
# ---------------------------------------------------------------------------


def _null_witness(core):
    core["witness"] = None


def _last_certificate_dropped(core):
    del core["witness"]["certificates"][-1]


def _stage_as_bool(core):
    stages = core["witness"]["certificates"]
    stages[stages.index(1)] = True  # equal to 1 under ``==``


def _stage_as_float(core):
    stages = core["witness"]["certificates"]
    stages[0] = float(stages[0])


def _old_witness_stage_kept(core):
    core["witness"]["stage"] = max(core["witness"]["certificates"])


def _old_leaf_object(core):
    stages = core["witness"]["certificates"]
    stages[0] = {"element_index": 0, "leaf_index": 0, "translation": ["0"], "stage": stages[0]}


def _deeper_stage_edited(core):
    core["needs_deeper_stage"]["deepest_stage"] += 1


def _found_claimed(core):
    core["found"] = True


class TestReplayOfTheCore:
    """The replay checks the whole core: the witness over the whole pool, or
    a core without one by the rerun.  ``test_cli.py::TestReplayTampers``
    tampers the witness's stages, box and ``found`` flag."""

    def verdict(self, pool, cap, tamper=None):
        core, code = _cube_core(S1, pool, cap)
        if tamper is not None:
            tamper(core)
        inputs = cli._decode(to_json({"pool": pool, "stage_cap": cap}))
        return code, cli._verify(cli.COMMANDS["infinite-cube"], S1, inputs, core)

    @pytest.mark.parametrize("cap, code", [(1, 3), (12, 0)], ids=["needs-deeper-stage", "found"])
    def test_an_untampered_core_verifies(self, cap, code):
        assert self.verdict(grid_translate_pool(S1, 3), cap) == (code, True)

    def test_an_empty_pool_verifies(self):
        assert self.verdict([], 4) == (0, True)

    @pytest.mark.parametrize(
        "tamper",
        [
            _null_witness, _last_certificate_dropped, _stage_as_bool, _stage_as_float,
            _old_witness_stage_kept, _old_leaf_object,
        ],
    )
    def test_each_tamper_of_a_witness_is_refused(self, tamper):
        assert self.verdict(grid_translate_pool(S1, 3), 12, tamper) == (0, False)

    @pytest.mark.parametrize("tamper", [_deeper_stage_edited, _found_claimed])
    def test_each_tamper_of_a_report_of_the_stage_cap_is_refused(self, tamper):
        assert self.verdict(grid_translate_pool(S1, 3), 1, tamper) == (3, False)
