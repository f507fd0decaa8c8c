"""Differential tests: the slab-sweep kernel against the slow oracle.

``BoxUnion.from_boxes``, ``union``, ``intersect``, ``intersect_box`` and
``subtract`` all run through one sweep over axis-0 slabs
(``geometry._combine``), except that a union of many 1-D trees
(``geometry._union_all``) is one sort and one merge, and ring leaves are
built axis by axis (``StageLattice.leaf``).  The oracle is the code they
replaced (``box_oracle``): the recursive slab-decomposition canonicaliser,
and pairwise box intersections and carvings handed to it.  Operands are
canonicalised by the oracle too, so no side of a comparison depends on the
kernel.  Both sides must agree structurally, so ``==`` and ``repr`` are
compared, not just measures.

Coordinates are drawn from a coarse grid so that touching, adjacent and
repeated boxes are common, and sides may be unbounded.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_oracle
import ring_oracle
from descent_oracle import brute_stage_intervals
from fatcantor import Box, BoxUnion, BudgetError, CantorSchedule, geometry
from fatcantor.rationals import NEG_INF, POS_INF

from strategies import approx_set, fractions, lattice_union, ring_exprs, schedules

_GRID = [Fraction(k, 2) for k in range(-2, 5)]


@st.composite
def grid_boxes(draw, dim):
    """A box with corners on a half-integer grid; sides may be empty or unbounded."""
    lo, hi = [], []
    for _ in range(dim):
        a, b = sorted(draw(st.lists(st.sampled_from(_GRID), min_size=2, max_size=2)))
        kind = draw(st.sampled_from(["finite", "finite", "finite", "below", "above", "free"]))
        lo.append(NEG_INF if kind in ("below", "free") else a)
        hi.append(POS_INF if kind in ("above", "free") else b)
    return Box(tuple(lo), tuple(hi))


@st.composite
def grid_unions(draw, dim, max_size=4):
    return box_oracle.canonical(dim, draw(st.lists(grid_boxes(dim), max_size=max_size)))


@st.composite
def operand_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    return draw(grid_unions(dim)), draw(grid_unions(dim))


@st.composite
def run_pairs(draw):
    """Two operands laid out along axis 0 in blocks, so each holds long runs
    of slabs the other does not meet.

    Up to five blocks of two to six touching segments of axis 0, on an
    integer grid of 48, go to ``a``, to ``b``, to both or to neither, and
    sorting the blocks puts all of one operand below the other's.  A block
    keeps its end segments, so blocks touch, and skips about one inner
    segment in four, so its slabs stay apart.  Each segment's cross-section
    comes from a pool of two, so where a run of one operand ends exactly at
    the other's next slab the two sections are often equal and the pieces
    must merge.  The first and last segments may be unbounded.  Each
    operand keeps at most 12 boxes, canonicalised by the oracle.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    sides = st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2, unique=True).map(sorted)
    section = st.lists(st.lists(sides, min_size=dim - 1, max_size=dim - 1), min_size=1, max_size=2)
    pool = [draw(section), draw(section)]
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        owner = draw(st.sampled_from(["a", "b", "a", "b", "ab", ""]))
        inner = draw(st.lists(st.sampled_from([True, True, True, False]), max_size=4))
        kept = [True, *inner, True]
        blocks.append((owner, kept))
    if draw(st.booleans()):
        blocks.sort()
    owners = [owner if keep else "" for owner, kept in blocks for keep in kept]
    grid = st.integers(min_value=0, max_value=47)
    ends = sorted(draw(st.lists(grid, min_size=len(owners) + 1, max_size=len(owners) + 1, unique=True)))
    ends[0] = draw(st.sampled_from([ends[0], ends[0], NEG_INF]))
    ends[-1] = draw(st.sampled_from([ends[-1], ends[-1], POS_INF]))
    segments = list(itertools.pairwise(ends))
    boxes: dict[str, list[Box]] = {"a": [], "b": []}
    for (x0, x1), owner in zip(segments, owners):
        for name in owner:
            cross = draw(st.sampled_from(pool))
            boxes[name] += [Box((x0, *(lo for lo, _ in box)), (x1, *(hi for _, hi in box))) for box in cross]
    return box_oracle.canonical(dim, boxes["a"][:12]), box_oracle.canonical(dim, boxes["b"][:12])


def halves(k: int) -> Fraction:
    return Fraction(k, 2)


@st.composite
def interval_trees(draw):
    """A canonical 1-D tree: a sorted set of grid points taken in pairs as
    its slabs' ends, either ints k or Fractions k/2, the outer ends
    sometimes unbounded.  Trees drawn from the one small grid often touch,
    nest, repeat and share lower ends; an empty set gives the empty tree.
    """
    to_end = draw(st.sampled_from([int, halves]))
    points = sorted(draw(st.sets(st.integers(min_value=-1, max_value=8), max_size=8)))
    ends = [to_end(k) for k in points[: len(points) // 2 * 2]]
    if ends:
        ends[0] = draw(st.sampled_from([ends[0], ends[0], NEG_INF]))
        ends[-1] = draw(st.sampled_from([ends[-1], ends[-1], POS_INF]))
    return tuple((x0, x1, geometry._POINT) for x0, x1 in zip(ends[::2], ends[1::2]))


def assert_same(got: BoxUnion, want: BoxUnion) -> None:
    assert got == want
    assert repr(got) == repr(want)


OPS = [
    ("union", BoxUnion.union, box_oracle.union),
    ("intersect", BoxUnion.intersect, box_oracle.intersect),
    ("subtract", BoxUnion.subtract, box_oracle.subtract),
]


class TestSweepAgainstPairwiseLoops:
    @settings(max_examples=300)
    @given(data=st.data(), dim=st.integers(min_value=1, max_value=3))
    def test_from_boxes_matches_slab_decomposition(self, data, dim):
        boxes = data.draw(st.lists(grid_boxes(dim), max_size=12))
        want = box_oracle.canonical(dim, boxes)
        assert_same(BoxUnion.from_boxes(dim, boxes), want)
        assert_same(BoxUnion.from_boxes(dim, data.draw(st.permutations(boxes))), want)

    @settings(max_examples=300)
    @given(pair=operand_pairs())
    @pytest.mark.parametrize("name,fast,slow", OPS, ids=[op[0] for op in OPS])
    def test_boolean_ops_match(self, name, fast, slow, pair):
        a, b = pair
        assert_same(fast(a, b), slow(a, b))
        assert_same(fast(b, a), slow(b, a))

    @settings(max_examples=300)
    @given(data=st.data(), dim=st.integers(min_value=1, max_value=3))
    def test_intersect_box_matches(self, data, dim):
        a = data.draw(grid_unions(dim))
        box = data.draw(grid_boxes(dim))
        assert_same(a.intersect_box(box), box_oracle.intersect_box(a, box))

    @settings(max_examples=300)
    @given(trees=st.lists(interval_trees(), max_size=6), data=st.data())
    def test_a_1d_union_is_the_slab_decomposition(self, trees, data):
        # _union_all sorts and merges the slabs of 1-D trees in one pass
        if trees and data.draw(st.booleans()):
            trees.append(data.draw(st.sampled_from(trees)))  # every slab of a tree twice
        boxes = [Box((x0,), (x1,)) for tree in trees for x0, x1, _ in tree]
        want = box_oracle.canonical(1, boxes).tree
        assert geometry._union_all(trees, 1) == want
        assert geometry._union_all(data.draw(st.permutations(trees)), 1) == want

    def test_a_1d_union_merges_what_touches_nests_or_repeats(self):
        point, half = geometry._POINT, Fraction(1, 2)
        cases = [
            ([], ()),
            ([(), ()], ()),
            ([((0, 1, point),), ((1, 2, point),)], ((0, 2, point),)),  # touching
            ([((half, 1, point),), ((0, half, point),)], ((0, 1, point),)),
            ([((0, 5, point),), ((1, 2, point), (3, 4, point))], ((0, 5, point),)),  # nested
            ([((0, 2, point),), ((0, 1, point),)], ((0, 2, point),)),  # equal lower ends
            ([((0, 1, point),)] * 3, ((0, 1, point),)),  # repeated
            ([((NEG_INF, 0, point),), ((0, POS_INF, point),)], ((NEG_INF, POS_INF, point),)),
            ([((3, POS_INF, point),), ((NEG_INF, 1, point),)], ((NEG_INF, 1, point), (3, POS_INF, point))),
        ]
        for trees, want in cases:
            assert geometry._union_all(trees, 1) == want

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_operands(self, dim):
        empty = BoxUnion.empty(dim)
        cube = BoxUnion.single(Box.unit_cube(dim))
        for _, fast, slow in OPS:
            for a, b in [(empty, empty), (empty, cube), (cube, empty)]:
                assert_same(fast(a, b), slow(a, b))
        assert_same(cube.intersect_box(Box.empty(dim)), BoxUnion.empty(dim))
        assert_same(empty.intersect_box(Box.unit_cube(dim)), empty)

    def test_touching_boxes_merge_and_cut_exactly(self):
        half = Fraction(1, 2)
        left = BoxUnion.single(Box((Fraction(0), Fraction(0)), (half, Fraction(1))))
        right = BoxUnion.single(Box((half, Fraction(0)), (Fraction(1), Fraction(1))))
        whole = BoxUnion.single(Box.unit_cube(2))
        assert_same(left.union(right), whole)
        assert_same(whole.subtract(right), left)
        assert left.intersect(right).is_empty
        # Two slabs that touch but carry different cross-sections stay apart.
        low = BoxUnion.single(Box((half, Fraction(0)), (Fraction(1), half)))
        assert_same(left.union(low), box_oracle.union(left, low))
        assert len(left.union(low).boxes) == 2

    def test_half_spaces(self):
        for dim, axis in [(1, 0), (2, 1), (3, 2)]:
            below = Box.half_space(dim, axis, Fraction(1, 3), above=False)
            above = Box.half_space(dim, axis, Fraction(1, 3), above=True)
            cube = BoxUnion.single(Box.unit_cube(dim))
            b, a = BoxUnion.single(below), BoxUnion.single(above)
            assert_same(b.union(a), BoxUnion.single(Box.whole_space(dim)))
            assert b.intersect(a).is_empty
            assert_same(cube.intersect_box(below), box_oracle.intersect_box(cube, below))
            assert_same(cube.subtract(a), cube.intersect_box(below))

    @given(pair=operand_pairs())
    def test_results_are_canonical(self, pair):
        a, b = pair
        for _, fast, _slow in OPS:
            got = fast(a, b)
            assert_same(BoxUnion.from_boxes(got.dim, reversed(got.boxes)), got)


class TestRunsAreCopiedWhole:
    """A stretch of slabs that one operand holds alone is copied as one slice."""

    @settings(max_examples=300, deadline=None)
    @given(pair=run_pairs())
    @pytest.mark.parametrize("name,fast,slow", OPS, ids=[op[0] for op in OPS])
    def test_long_runs_match(self, name, fast, slow, pair):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            got = fast(x, y)
            assert_same(got, slow(x, y))
            assert_same(box_oracle.canonical(got.dim, got.boxes), got)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_run_keeps_the_operands_slabs(self, dim):
        # a lies wholly below b and does not touch it, so each operand is
        # one run: after its first slab, the result holds its own tuples.
        def spaced(start):
            return box_oracle.canonical(
                dim, [Box((start + 3 * k,) + (0,) * (dim - 1), (start + 3 * k + 1,) + (k + 1,) * (dim - 1)) for k in range(4)]
            )

        a, b = spaced(0), spaced(20)
        for got in (a.union(b).tree, b.union(a).tree):
            assert got == a.tree + b.tree
            assert all(x is y for x, y in zip(got[1:4], a.tree[1:]))
            assert all(x is y for x, y in zip(got[5:], b.tree[1:]))
        assert all(x is y for x, y in zip(a.subtract(b).tree[1:], a.tree[1:]))


# ---------------------------------------------------------------------------
# ring leaves built axis by axis
# ---------------------------------------------------------------------------


def leaf_oracle(s: CantorSchedule, n: int, t, clip: Box) -> BoxUnion:
    """(A_n + t) ∩ clip from validated boxes and the pairwise loop, on the
    stage intervals replayed from the definition."""
    ivs = brute_stage_intervals(s.c, s.rho, n)
    stage = box_oracle.canonical(
        s.d,
        [Box(tuple(p[0] for p in prod), tuple(p[1] for p in prod)) for prod in itertools.product(ivs, repeat=s.d)],
    )
    return box_oracle.intersect_box(box_oracle.canonical(s.d, [box_oracle.translate(b, t) for b in stage.boxes]), clip)


def clipped_translate(s: CantorSchedule, n: int, t, clip: Box) -> BoxUnion:
    """(A_n + t) ∩ clip: the lattice leaf, converted to Fractions."""
    lattice = s.lattice(n, [(t, clip)])
    return lattice_union(lattice, lattice.leaf(t, clip))


@st.composite
def leaf_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    s = draw(schedules(dim=dim))
    n = draw(st.integers(min_value=0, max_value={1: 6, 2: 3, 3: 2}[dim]))
    t = tuple(draw(fractions(min_value=Fraction(-2), max_value=Fraction(2))) for _ in range(dim))
    lo, hi = [], []
    for _ in range(dim):
        a = draw(fractions(min_value=Fraction(-1), max_value=Fraction(3)))
        b = draw(fractions(min_value=a, max_value=Fraction(3)))
        kind = draw(st.sampled_from(["finite", "finite", "below", "above", "free"]))
        lo.append(NEG_INF if kind in ("below", "free") else a)
        hi.append(POS_INF if kind in ("above", "free") else b)
    return s, n, t, Box(tuple(lo), tuple(hi))


@st.composite
def touching_leaf_cases(draw):
    """A leaf whose clip ends are each ``t + e``, ``e`` a stage-n interval
    end, or unbounded: a lower end on an interval's upper end, an upper end
    on its lower end, and an upper end on its upper end all come up."""
    dim = draw(st.integers(min_value=1, max_value=3))
    s = draw(schedules(dim=dim))
    n = draw(st.integers(min_value=0, max_value={1: 6, 2: 3, 3: 2}[dim]))
    ends = sorted({v for iv in brute_stage_intervals(s.c, s.rho, n) for v in iv})
    t = tuple(draw(fractions(min_value=Fraction(-2), max_value=Fraction(2))) for _ in range(dim))
    lo, hi = [], []
    for shift in t:
        a, b = sorted(draw(st.sampled_from(ends)) + shift for _ in range(2))
        lo.append(draw(st.sampled_from([a, a, NEG_INF])))
        hi.append(draw(st.sampled_from([b, b, POS_INF])))
    return s, n, t, Box(tuple(lo), tuple(hi))


class TestClippedTranslate:
    @settings(max_examples=200)
    @given(case=leaf_cases())
    def test_matches_translate_then_intersect_box(self, case):
        s, n, t, clip = case
        got = clipped_translate(s, n, t, clip)
        assert_same(got, s.stage_approx(n).translate(t).intersect_box(clip))
        assert_same(got, leaf_oracle(s, n, t, clip))

    @settings(max_examples=200, deadline=None)
    @given(case=touching_leaf_cases())
    def test_clip_ends_on_interval_ends(self, case):
        s, n, t, clip = case
        got = clipped_translate(s, n, t, clip)
        assert_same(got, leaf_oracle(s, n, t, clip))
        assert_same(got, ring_oracle.clipped_translate(s, n, t, clip))

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_exact_touch(self, dim, n):
        # On every axis: the first interval's upper end as the lower cut
        # drops it, the last interval's lower end as the upper cut drops
        # it, and the last interval's upper end as the upper cut keeps it
        # whole.
        s = CantorSchedule(dim, c=Fraction(1, 2), rho=Fraction(1, 3))
        ivs = brute_stage_intervals(s.c, s.rho, n)
        t = tuple(Fraction(k, 7) for k in range(1, dim + 1))
        cases = [
            (lambda x: (ivs[0][1] + x, POS_INF), ivs[1:]),
            (lambda x: (NEG_INF, ivs[-1][0] + x), ivs[:-1]),
            (lambda x: (NEG_INF, ivs[-1][1] + x), ivs),
        ]
        for cut, kept in cases:
            clip = Box(*zip(*(cut(x) for x in t)))
            axes = [[(lo + x, hi + x) for lo, hi in kept] for x in t]
            want = box_oracle.canonical(dim, [Box(*zip(*p)) for p in itertools.product(*axes)])
            got = clipped_translate(s, n, t, clip)
            assert_same(got, want)
            assert_same(got, leaf_oracle(s, n, t, clip))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_clip(self, dim):
        s = CantorSchedule(dim)
        clip = Box((Fraction(1, 3),) * dim, (Fraction(1, 3),) * dim)
        t = (Fraction(1, 5),) * dim
        assert clipped_translate(s, 2, t, clip).is_empty
        assert_same(clipped_translate(s, 2, t, clip), leaf_oracle(s, 2, t, clip))

    @pytest.mark.parametrize("above", [False, True])
    def test_half_space_clip(self, above):
        # the clip that split-check pushes into every leaf
        s = CantorSchedule(2)
        t = (Fraction(1, 3), Fraction(-1, 4))
        clip = Box.half_space(2, 1, Fraction(3, 8), above=above)
        assert_same(clipped_translate(s, 3, t, clip), leaf_oracle(s, 3, t, clip))

    def test_a_leaf_holds_one_section_per_axis(self):
        # A d = 3, stage-5 leaf: 32 slabs on each axis sharing one section,
        # 3 * 32 slab tuples for its 32768 boxes, on the lattice and after
        # its conversion to Fractions alike.
        s = CantorSchedule(3)
        t, clip = (Fraction(1, 3),) * 3, Box.whole_space(3)
        lattice = s.lattice(5, [(t, clip)])
        tree = lattice.leaf(t, clip)
        u = lattice_union(lattice, tree)
        for root, kind in ((tree, int), (u.tree, Fraction)):
            slabs, sections = 0, [root]
            for _ in range(3):
                assert len(sections) == 1
                assert all(type(x) is kind for x0, x1, _ in sections[0] for x in (x0, x1))
                slabs += len(sections[0])
                sections = list({id(sub): sub for _, _, sub in sections[0]}.values())
            assert sections == [geometry._POINT]
            assert slabs == 3 * 32
        assert u == ring_oracle.clipped_translate(s, 5, t, clip)
        assert len(u.boxes) == 32768

    def test_clip_cutting_stage_intervals(self):
        s = CantorSchedule(1)
        # 1/16 and 7/8 fall inside stage-3 intervals of [0, 1], so both
        # boundary intervals are cut, not dropped.
        clip = Box.interval(Fraction(1, 16), Fraction(7, 8))
        got = clipped_translate(s, 3, (Fraction(0),), clip)
        assert got.boxes[0].lo == (Fraction(1, 16),)
        assert got.boxes[-1].hi == (Fraction(7, 8),)
        assert_same(got, leaf_oracle(s, 3, (Fraction(0),), clip))

    @pytest.mark.parametrize(
        "clip",
        [Box.unit_cube(2), Box.empty(2), Box.half_space(2, 0, Fraction(1, 2), above=True)],
        ids=["unit", "empty", "half-space"],
    )
    def test_box_cap_raises_the_stage_approx_error(self, clip):
        s = CantorSchedule(2)
        with pytest.raises(BudgetError) as want:
            s.stage_approx(9)  # 2^18 boxes
        with pytest.raises(BudgetError) as got:
            clipped_translate(s, 9, (Fraction(0), Fraction(0)), clip)
        assert str(got.value) == str(want.value)
        assert "largest feasible stage is 8" in str(got.value)


# ---------------------------------------------------------------------------
# the slab tree is the stored form
# ---------------------------------------------------------------------------


class TestTheTreeIsTheStoredForm:
    """``BoxUnion`` holds its slab tree; only reading ``boxes`` flattens it."""

    @settings(max_examples=100, deadline=None)
    @given(pair=operand_pairs(), data=st.data())
    def test_no_operation_flattens(self, pair, data):
        a, b = pair
        dim = a.dim
        box = data.draw(grid_boxes(dim))
        t = tuple(data.draw(st.sampled_from(_GRID)) for _ in range(dim))
        s = CantorSchedule(dim)
        n = {1: 4, 2: 2, 3: 1}[dim]
        expr = data.draw(ring_exprs(dim=dim, max_leaves=3))
        raw = a.boxes + b.boxes
        want = {
            "from_boxes": box_oracle.canonical(dim, raw),
            "union": box_oracle.union(a, b),
            "intersect": box_oracle.intersect(a, b),
            "intersect_box": box_oracle.intersect_box(a, box),
            "subtract": box_oracle.subtract(a, b),
            "translate": box_oracle.canonical(dim, [box_oracle.translate(x, t) for x in a.boxes]),
            "approx_set": ring_oracle.approx_set(expr, s, n),
        }
        # Fresh operands, so no view is cached.
        a, b = BoxUnion(dim, a.tree), BoxUnion(dim, b.tree)
        with mock.patch.object(geometry, "_corners", side_effect=AssertionError("flattened")):
            got = {
                "from_boxes": BoxUnion.from_boxes(dim, raw),
                "union": a.union(b),
                "intersect": a.intersect(b),
                "intersect_box": a.intersect_box(box),
                "subtract": a.subtract(b),
                "translate": a.translate(t),
                "approx_set": approx_set(expr, s, n),
            }
            contains = a.contains_union(b)
        assert contains == box_oracle.subtract(b, a).is_empty
        for name, u in got.items():
            assert u.boxes == want[name].boxes, name

    def test_the_view_of_a_box_in_2000_axes_needs_no_recursion(self):
        cube = Box.unit_cube(2000)
        u = BoxUnion.single(cube)
        assert u.boxes == (cube,)
        shift = (Fraction(1, 2),) * 2000
        assert u.translate(shift).boxes == (box_oracle.translate(cube, shift),)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), case=leaf_cases())
    def test_the_oracles_build_their_trees_without_the_kernel(self, data, case):
        s, n, t, clip = case
        boxes = data.draw(st.lists(grid_boxes(s.d), max_size=8))
        refuse = AssertionError("kernel called")
        with mock.patch.object(geometry, "_combine", side_effect=refuse), mock.patch.object(
            geometry, "_box_tree", side_effect=refuse
        ), mock.patch.object(BoxUnion, "from_boxes", side_effect=refuse):
            canon = box_oracle.canonical(s.d, boxes)
            leaf = ring_oracle.clipped_translate(s, n, t, clip)
        assert_same(canon, BoxUnion.from_boxes(s.d, boxes))
        assert_same(leaf, clipped_translate(s, n, t, clip))
