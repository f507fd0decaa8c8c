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
import marshal
import sys
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
    extension_valid,
    find_uncovered_box,
    grid_translate_pool,
    infinite_cube_report,
    iter_leaves,
    outer_upper,
    positive_hull,
    quartered_translate_pool,
    uncovered_witness_valid,
    verify_cover,
)

from fatcantor import cover, serialize
from fatcantor.errors import PreconditionError
from fatcantor.serialize import to_json, witness_from_json

import cover_oracle
import descent_oracle
import witness_oracle
from strategies import approx_set, boxes, fractions, ring_exprs
from test_cantor import brute_stage_intervals

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
            blo <= mid <= bhi for blo, bhi in brute_stage_intervals(S1.c, S1.rho, w.stage)
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
        fake = UncoveredWitness(
            box=Box.interval(Fraction(0), Fraction(1, 64)),
            stage=w.stage,
            certificates=w.certificates,
        )
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
# the full no-cover report
# ---------------------------------------------------------------------------


class TestInfiniteCubeReport:
    def test_small_pool_report_is_fully_witnessed(self):
        rep = infinite_cube_report(S1, grid_translate_pool(S1, 2), 12)
        assert rep.all_witnessed
        assert rep.stage_cap == 12
        # every nonempty subfamily of the pool appears
        assert len(rep.rows) == 2 ** len(rep.pool) - 1
        for row in rep.rows:
            assert row.verified
            assert row.witness is not None
            assert row.inconclusive_stage is None

    def test_rows_replay_against_their_subfamilies(self):
        rep = infinite_cube_report(S1, grid_translate_pool(S1, 4), 12)
        assert rep.all_witnessed
        for row in rep.rows:
            members = [rep.pool[i] for i in row.subset]
            assert uncovered_witness_valid(S1, Box.unit_cube(1), members, row.witness)

    def test_empty_pool_uses_the_empty_family(self):
        rep = infinite_cube_report(S1, [], 4)
        assert rep.all_witnessed
        assert len(rep.rows) == 1
        assert rep.rows[0].subset == ()

    def test_pool_cap_is_enforced(self):
        from fatcantor import BudgetError

        with pytest.raises(BudgetError):
            infinite_cube_report(S1, grid_translate_pool(S1, 13), 8)


# ---------------------------------------------------------------------------
# the witness fold against the per-subset search it replaced
# ---------------------------------------------------------------------------


@st.composite
def pools(draw, dim, max_size=9):
    """A grid, quartered or multi-leaf pool of 0 to ``max_size`` elements."""
    s = CantorSchedule(dim)
    kind = draw(st.sampled_from(["grid", "quartered", "leaves"]))
    size = draw(st.integers(min_value=0, max_value=max_size))
    if kind == "grid":
        return grid_translate_pool(s, size)
    if kind == "quartered":
        return quartered_translate_pool(s, size)
    return draw(st.lists(ring_exprs(dim=dim, max_leaves=3), min_size=size, max_size=size))


class TestFoldAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=2), cap=st.integers(min_value=0, max_value=12))
    def test_table_equals_the_per_subset_search(self, data, d, cap):
        s = CantorSchedule(d)
        pool = data.draw(pools(d))
        got = infinite_cube_report(s, pool, cap)
        want = witness_oracle.infinite_cube_report(s, 0, cap, pool=pool)
        assert got == want
        assert to_json(got) == to_json(want)

    @pytest.mark.parametrize(
        "d, size, cap, inconclusive",
        [(1, 9, 8, 32), (1, 10, 8, 48), (1, 9, 12, 0), (2, 9, 0, 256), (2, 9, 1, 0)],
    )
    def test_grid_tables_with_inconclusive_rows_equal_the_oracle(self, d, size, cap, inconclusive):
        s = CantorSchedule(d)
        got = infinite_cube_report(s, grid_translate_pool(s, size), cap)
        want = witness_oracle.infinite_cube_report(s, size, cap)
        assert sum(row.witness is None for row in got.rows) == inconclusive
        assert got == want
        assert to_json(got) == to_json(want)

    def test_the_empty_pool_row_is_the_middle_half_of_the_cube(self):
        for d in (1, 2):
            s = CantorSchedule(d)
            got = infinite_cube_report(s, [], 4)
            assert got == witness_oracle.infinite_cube_report(s, 0, 4)
            (row,) = got.rows
            assert row.witness.box == Box((Fraction(1, 4),) * d, (Fraction(3, 4),) * d)

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

    def test_table_does_the_gap_searches_of_one_element_per_row(self, monkeypatch):
        calls = []
        find_gap = cover.find_gap

        def counting(*args):
            calls.append(args)
            return find_gap(*args)

        monkeypatch.setattr(cover, "find_gap", counting)
        rep = infinite_cube_report(S1, grid_translate_pool(S1, 9), 24)
        assert rep.all_witnessed
        assert len(calls) == 2**9 - 1
        calls.clear()
        monkeypatch.setattr(witness_oracle, "find_gap", counting)
        witness_oracle.infinite_cube_report(S1, 9, 24)
        assert len(calls) == 9 * 2**8


# ---------------------------------------------------------------------------
# the table checked by extension against the check of every row on its own
# ---------------------------------------------------------------------------


def _core(report):
    """A report's result core as the ``--verify`` replay reads it: a copy of
    its JSON that keeps the JSON's shared subtrees, as ``cli.main`` hands it.
    A tamper copies what it edits, so an edit changes one place only."""
    return copy.deepcopy(to_json({"report": report}))


def _own(items, k):
    """``items[k]``, replaced by a copy of it that nothing else holds."""
    items[k] = copy.deepcopy(items[k])
    return items[k]


def _verdict(check, *args):
    # ``--verify`` counts a check that raises as failed
    try:
        return check(*args)
    except Exception:
        return False


def _index(data, items):
    return data.draw(st.integers(min_value=0, max_value=len(items) - 1))


def _tamper_witness(data, doc, parent_box, kind):
    """Change a witness's JSON in place, copying a box or certificate before
    editing it; ``parent_box`` is the box it was shrunk from."""
    certs = doc["certificates"]
    if kind == "widen":  # past the parent's box on one side, by a little or a lot
        axis = _index(data, parent_box.lo)
        w = data.draw(st.sampled_from([Fraction(1, 2**30), Fraction(1, 64), Fraction(1, 2)]))
        _own(doc, "box")["lo"][axis] = to_json(parent_box.lo[axis] - w)
    elif not certs:
        return
    elif kind == "stage":
        _own(certs, _index(data, certs))["certificate"]["stage"] = data.draw(
            st.integers(min_value=0, max_value=14)
        )
    elif kind == "retype":  # a value equal to the old one under ``==``, of another type
        cert = _own(certs, _index(data, certs))
        key = data.draw(st.sampled_from(["element_index", "leaf_index", "stage"]))
        holder = cert["certificate"] if key == "stage" else cert
        holder[key] = data.draw(st.sampled_from([float(holder[key]), holder[key] == 1]))
    elif kind == "drop":
        del certs[_index(data, certs)]
    elif kind == "swap" and len(certs) >= 2:
        i, j = data.draw(
            st.lists(st.integers(0, len(certs) - 1), min_size=2, max_size=2, unique=True)
        )
        certs[i], certs[j] = certs[j], certs[i]


def _parent_box(rows, row, d):
    for other in rows:
        if other["subset"] == row["subset"][:-1] and other["witness"] is not None:
            return serialize.box_from_json(other["witness"]["box"])
    return Box.unit_cube(d)


_WITNESS_TAMPERS = ("stage", "retype", "widen", "drop", "swap")
_ROW_TAMPERS = ("delete", "reorder", "permute")


def _tamper_rows(data, rows, d, kind):
    """Change a table's JSON rows in place."""
    witnessed = [row for row in rows if row["witness"] is not None]
    if kind in _WITNESS_TAMPERS and witnessed:
        row = witnessed[_index(data, witnessed)]
        _tamper_witness(data, row["witness"], _parent_box(rows, row, d), kind)
    elif kind == "delete" and rows:  # the parent of every row that extends it
        del rows[_index(data, rows)]
    elif kind == "reorder":
        rows[:] = data.draw(st.permutations(rows))
    elif kind == "permute":
        longer = [row for row in rows if len(row["subset"]) >= 2]
        if longer:
            row = longer[_index(data, longer)]
            row["subset"] = data.draw(st.permutations(row["subset"]))


def _retype_a_repeat(data, rows):
    """Set a field holding 1 to 1.0 or true, equal under ``==``, in a copy of
    a certificate document an earlier row holds too; say whether one was found."""
    seen, found = set(), []
    for row in rows:
        certs = row["witness"]["certificates"] if row["witness"] is not None else []
        for k, cert in enumerate(certs):
            key = marshal.dumps(cert, 0)
            if key in seen:
                for path in (("element_index",), ("leaf_index",), ("certificate", "stage")):
                    value = cert[path[0]] if len(path) == 1 else cert[path[0]][path[1]]
                    if type(value) is int and value == 1:
                        found.append((certs, k, path))
            seen.add(key)
    if not found:
        return False
    certs, k, path = found[_index(data, found)]
    holder = _own(certs, k)
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = data.draw(st.sampled_from([1.0, True]))
    return True


def _decoded(doc):
    """A row's witness, or None where there is none or it does not decode."""
    try:
        return None if doc is None else witness_from_json(doc)
    except PreconditionError:
        return None


def _on_its_own(s, pool, row):
    members = [pool[k] for k in row.subset]
    return row.witness is not None and witness_oracle.witness_valid(
        s, Box.unit_cube(s.d), members, row.witness
    )


class TestCheckByExtension:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_replay_verdicts_equal_the_check_of_every_row_on_its_own(self, data, d, cap):
        s = CantorSchedule(d)
        pool = data.draw(pools(d, max_size=5))
        report = infinite_cube_report(s, pool, cap)
        assert [row.verified for row in report.rows] == [
            _on_its_own(s, pool, row) for row in report.rows
        ]
        inputs = {"pool": pool, "stage_cap": cap}
        core = _core(report)

        def replay():  # exact, as the command's rerun compares
            return serialize.same_json(core, _core(infinite_cube_report(s, pool, cap)))

        assert cli._check_infinite_cube(s, inputs, core, replay) == witness_oracle.check_infinite_cube(
            s, inputs, core, replay
        )
        for kind in data.draw(st.lists(st.sampled_from(_WITNESS_TAMPERS + _ROW_TAMPERS), max_size=3)):
            _tamper_rows(data, core["report"]["rows"], d, kind)
        assert _verdict(cli._check_infinite_cube, s, inputs, core, replay) == _verdict(
            witness_oracle.check_infinite_cube, s, inputs, core, replay
        )
        # the shared walk, row by row, on witnesses tampered in mask order
        rows = _core(report)["report"]["rows"]
        for kind in data.draw(st.lists(st.sampled_from(_WITNESS_TAMPERS), max_size=3)):
            _tamper_rows(data, rows, d, kind)
        witnesses = [_decoded(row["witness"]) for row in rows]
        assert cover.table_verdicts(s, pool, witnesses) == [
            witness is not None
            and _verdict(witness_oracle.witnessed_rows_valid, s, inputs, [row])
            for row, witness in zip(rows, witnesses)
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_report_flags_equal_the_check_on_its_own_when_the_fold_goes_wrong(self, data, d, cap):
        s = CantorSchedule(d)
        pool = data.draw(pools(d, max_size=5))
        shrink_past = cover._shrink_past

        def faulty(s, start, ei, element, stage_cap):
            outcome = shrink_past(s, start, ei, element, stage_cap)
            kind = data.draw(st.sampled_from((None, "stage", "widen", "drop", "swap")))
            if kind is None or not isinstance(outcome, UncoveredWitness):
                return outcome
            doc = json.loads(json.dumps(to_json(outcome)))
            _tamper_witness(data, doc, start.box, kind)
            return witness_from_json(doc)

        with mock.patch.object(cover, "_shrink_past", faulty):
            report = infinite_cube_report(s, pool, cap)
        assert [row.verified for row in report.rows] == [
            _on_its_own(s, pool, row) for row in report.rows
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_extension_by_a_run_equals_the_check_on_the_whole_family(self, data, d, cap):
        """Where the child's box lies inside the parent's and its certificates
        start with the parent's, extension by the new elements is the check on
        its own of the concatenated family; anywhere else it refuses."""
        s = CantorSchedule(d)
        cube = Box.unit_cube(d)
        elements = data.draw(st.lists(ring_exprs(dim=d, max_leaves=3), max_size=5))
        k = data.draw(st.integers(min_value=0, max_value=len(elements)))
        parent = find_uncovered_box(cube, elements[:k], s, cap) if k else UncoveredWitness(cube, 0, ())
        child = find_uncovered_box(cube, elements, s, cap)
        assume(isinstance(parent, UncoveredWitness) and isinstance(child, UncoveredWitness))
        kind = data.draw(st.sampled_from((None, "stage", "widen", "drop", "swap")))
        if kind is not None:
            doc = json.loads(json.dumps(to_json(child)))
            _tamper_witness(data, doc, parent.box, kind)
            child = witness_from_json(doc)
        extended = extension_valid(s, parent, child, k, elements[k:])
        own = uncovered_witness_valid(s, cube, elements, child)
        assert own == witness_oracle.witness_valid(s, cube, elements, child)
        n = len(parent.certificates)
        within = parent.box.contains_box(child.box) and child.certificates[:n] == parent.certificates
        assert extended == (own and within)
        if kind is None:
            assert extended

    def test_extension_proves_only_the_new_element(self):
        pool = grid_translate_pool(S1, 2)
        rows = {row.subset: row.witness for row in infinite_cube_report(S1, pool, 12).rows}
        parent, child = rows[(0,)], rows[(0, 1)]
        assert extension_valid(S1, parent, child, 1, [pool[1]])
        # the wrong element, the wrong index, a missing certificate
        assert not extension_valid(S1, parent, child, 1, [pool[0]])
        assert not extension_valid(S1, parent, child, 0, [pool[1]])
        dropped = UncoveredWitness(child.box, child.stage, child.certificates[1:])
        assert not extension_valid(S1, parent, dropped, 1, [pool[1]])
        assert not uncovered_witness_valid(S1, Box.unit_cube(1), pool, dropped)

    def test_a_rows_box_is_checked_once(self):
        # Five new certificates: the box's dimension, bounds and emptiness
        # are checked once for the row; each certificate adds only the length
        # of its translation and its miss test.  Boundedness is counted, since
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
                cover.extension_valid, cover.uncovered_witness_valid,
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

    def test_a_box_past_its_parents_falls_back_to_the_check_on_its_own(self):
        # A witness is the middle half of a gap, so a box a hair wider than
        # its parent's still misses every translate: extension cannot say so,
        # the check on its own does, and both table checks agree with it.
        pool = grid_translate_pool(S1, 2)
        report = infinite_cube_report(S1, pool, 12)
        rows = {row.subset: row.witness for row in report.rows}
        parent, child = rows[(0,)], rows[(0, 1)]
        lo = (parent.box.lo[0] - Fraction(1, 2**30),)
        wider = UncoveredWitness(Box(lo, child.box.hi), child.stage, child.certificates)
        assert not extension_valid(S1, parent, wider, 1, [pool[1]])
        assert uncovered_witness_valid(S1, Box.unit_cube(1), pool, wider)
        core = _core(report)
        (row,) = [row for row in core["report"]["rows"] if row["subset"] == [0, 1]]
        row["witness"]["box"] = to_json(wider.box)
        inputs = {"pool": pool, "stage_cap": 12}
        assert cli._check_infinite_cube(S1, inputs, core, None)
        assert witness_oracle.check_infinite_cube(S1, inputs, core)

    def test_a_retyped_prefix_is_decoded_again_and_refused(self):
        pool = grid_translate_pool(S1, 2)
        core = _core(infinite_cube_report(S1, pool, 12))
        (row,) = [row for row in core["report"]["rows"] if row["subset"] == [0, 1]]
        cert = _own(row["witness"]["certificates"], 0)["certificate"]
        cert["stage"] = float(cert["stage"])  # equal under ``==`` to the parent's stage
        inputs = {"pool": pool, "stage_cap": 12}
        assert not _verdict(cli._check_infinite_cube, S1, inputs, core, None)
        assert not _verdict(witness_oracle.check_infinite_cube, S1, inputs, core)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=2),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_the_table_decoder_equals_the_decoder_of_each_row(self, data, d, cap):
        """``witnesses_from_json`` decodes a table as ``witness_from_json``
        decodes each row, and refuses what that refuses, on tampered tables
        too; a certificate retyped to equal under ``==`` one decoded before
        is decoded on its own and refused."""
        s = CantorSchedule(d)
        pool = data.draw(pools(d, max_size=5))
        rows = _core(infinite_cube_report(s, pool, cap))["report"]["rows"]
        for kind in data.draw(st.lists(st.sampled_from(_WITNESS_TAMPERS), max_size=3)):
            _tamper_rows(data, rows, d, kind)
        retyped = data.draw(st.booleans()) and _retype_a_repeat(data, rows)
        docs = [row["witness"] for row in rows]
        try:
            want = [None if doc is None else witness_from_json(doc) for doc in docs]
        except PreconditionError as refusal:
            with pytest.raises(PreconditionError) as got:
                serialize.witnesses_from_json(docs)
            assert str(got.value) == str(refusal)
            return
        assert not retyped
        assert serialize.witnesses_from_json(docs) == want

    @pytest.mark.parametrize("p", range(1, 7))
    def test_each_pass_checks_one_certificate_per_row(self, p, monkeypatch, tmp_path):
        """On p one-leaf elements a pass makes 2^p - 1 gap checks and decodes
        each distinct certificate document once; the check of every row on
        its own makes p * 2^(p-1) of each."""
        gap_checks, decodes = [], []
        leaf_certificate_from_json = serialize.leaf_certificate_from_json

        def counted(check):
            def counted_check(*args, **kwargs):
                gap_checks.append(args)
                return check(*args, **kwargs)

            return counted_check

        def counted_decode(doc):
            decodes.append(doc)
            return leaf_certificate_from_json(doc)

        # the table's walk tests each new certificate's miss once, its box
        # checked once per row; the oracle checks each whole certificate
        monkeypatch.setattr(cover, "_misses_stage_translate", counted(cover._misses_stage_translate))
        monkeypatch.setattr(witness_oracle, "gap_certificate_valid", counted(witness_oracle.gap_certificate_valid))
        monkeypatch.setattr(serialize, "leaf_certificate_from_json", counted_decode)
        pool = grid_translate_pool(S1, p)
        report = infinite_cube_report(S1, pool, 24)
        assert report.all_witnessed
        assert len(gap_checks) == 2**p - 1
        inputs, core = {"pool": pool, "stage_cap": 24}, _core(report)
        distinct = {
            marshal.dumps(cert, 0)
            for row in core["report"]["rows"]
            for cert in row["witness"]["certificates"]
        }
        assert len(distinct) <= 2**p - 1
        gap_checks.clear()
        assert cli._check_infinite_cube(S1, inputs, core, None)
        assert len(gap_checks) == 2**p - 1
        assert sorted(marshal.dumps(doc, 0) for doc in decodes) == sorted(distinct)
        gap_checks.clear()
        decodes.clear()
        assert witness_oracle.check_infinite_cube(S1, inputs, core)
        assert len(gap_checks) == len(decodes) == p * 2 ** (p - 1)
        # the whole command: the report's pass, then the replay's
        gap_checks.clear()
        decodes.clear()
        argv = ["infinite-cube", "--pool-size", str(p), "--stage-cap", "24", "--verify"]
        assert cli.main([*argv, "--out", str(tmp_path / "cube.json")]) == 0
        assert len(gap_checks) == 2 * (2**p - 1)
        assert len(decodes) == len(distinct)


def _cut_to_one(report):
    del report["rows"][1:]


def _null_witnesses(report):
    for row in report["rows"]:
        row["witness"] = None


def _flags_false(report):
    for row in report["rows"]:
        row["verified"] = False
    report["all_witnessed"] = False


def _conjunction_false(report):
    report["all_witnessed"] = False


def _null_witnesses_consistently(report):
    # flags that agree with the missing witnesses, so only the replay can tell
    _null_witnesses(report)
    _flags_false(report)


def _inconclusive_stage(report):
    (row,) = [row for row in report["rows"] if row["witness"] is None][:1]
    row["inconclusive_stage"] += 1


class TestTableShapeAndFlags:
    """The replay checks the table as a whole, not only its witnessed rows."""

    def verdicts(self, s, pool, cap, tamper=None):
        decoded = {"pool": pool, "stage_cap": cap}
        core = _core(infinite_cube_report(s, pool, cap))
        if tamper is not None:
            tamper(core["report"])
        got = cli._verify(cli.COMMANDS["infinite-cube"], s, cli._decode(to_json(decoded)), core)
        want = _verdict(
            witness_oracle.check_infinite_cube,
            s,
            decoded,
            core,
            lambda: _core(infinite_cube_report(s, pool, cap)) == core,
        )
        return got, want

    @pytest.mark.parametrize("cap", [1, 12], ids=["inconclusive-rows", "all-witnessed"])
    def test_an_untampered_table_verifies(self, cap):
        assert self.verdicts(S1, grid_translate_pool(S1, 3), cap) == (True, True)

    def test_an_empty_pool_has_one_row(self):
        assert self.verdicts(S1, [], 4) == (True, True)

    @pytest.mark.parametrize(
        "tamper",
        [_cut_to_one, _null_witnesses, _flags_false, _conjunction_false, _null_witnesses_consistently],
    )
    def test_each_tamper_is_refused(self, tamper):
        assert self.verdicts(S1, grid_translate_pool(S1, 3), 12, tamper) == (False, False)

    def test_a_row_without_a_witness_is_replayed(self):
        assert self.verdicts(S1, grid_translate_pool(S1, 3), 1, _inconclusive_stage) == (False, False)

    def test_a_subset_index_of_another_type_is_refused(self):
        def retype(report):
            assert report["rows"][1]["subset"] == [1]
            report["rows"][1]["subset"] = [True]  # equal to [1] under ``==``

        assert self.verdicts(S1, grid_translate_pool(S1, 3), 12, retype) == (False, False)

    def test_a_shared_certificate_edited_in_one_row_is_refused(self):
        # The JSON of a table holds each certificate once, shared by every row
        # that extends the row it first appears in; a copy keeps that sharing.
        pool = grid_translate_pool(S1, 4)
        core = copy.deepcopy(to_json({"report": infinite_cube_report(S1, pool, 12)}))
        rows = core["report"]["rows"]
        first = rows[0]["witness"]["certificates"][0]
        holders = [row for row in rows if row["witness"]["certificates"][0] is first]
        assert len(holders) == 8
        inputs = {"pool": pool, "stage_cap": 12}
        assert cli._check_infinite_cube(S1, inputs, core, None)
        cert = _own(holders[-1]["witness"]["certificates"], 0)
        cert["translation"] = ["1/3"]
        assert holders[0]["witness"]["certificates"][0]["translation"] == ["0/1"]
        assert not cli._check_infinite_cube(S1, inputs, core, None)
        assert not witness_oracle.check_infinite_cube(S1, inputs, core)
