"""Half-open boxes and canonical box unions.

The oracle used throughout: coordinate compression.  Collect every lo/hi
value per axis from all boxes involved, form the grid of elementary cells,
and decide each cell by testing its midpoint.  Because all boxes are
axis-aligned with corners on the grid, a cell is either wholly inside or
wholly outside every operand, so midpoint membership decides the cell
exactly and cell volumes sum to exact measures.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatcantor import (
    Box,
    BoxUnion,
    DimensionMismatchError,
    PreconditionError,
    UnboundedBoxError,
    tile_check,
)

import box_oracle
from strategies import boxes, fractions, positive_fractions


# ---------------------------------------------------------------------------
# the compressed-grid oracle
# ---------------------------------------------------------------------------


def _grid_cells(all_boxes):
    """Elementary cells spanned by the corner coordinates of the given boxes."""
    dim = all_boxes[0].dim
    axes = []
    for i in range(dim):
        coords = sorted({b.lo[i] for b in all_boxes} | {b.hi[i] for b in all_boxes})
        axes.append(list(zip(coords, coords[1:])))
    return itertools.product(*axes)


def _cell_mid(cell):
    return tuple((lo + hi) / 2 for lo, hi in cell)


def _cell_vol(cell):
    v = Fraction(1)
    for lo, hi in cell:
        v *= hi - lo
    return v


def oracle_measure(member, reference_boxes) -> Fraction:
    """Measure of {x : member(x)} via compressed-grid cell counting."""
    total = Fraction(0)
    for cell in _grid_cells(reference_boxes):
        if member(_cell_mid(cell)):
            total += _cell_vol(cell)
    return total


def _in_box(b: Box, p) -> bool:
    return all(lo <= x < hi for x, lo, hi in zip(p, b.lo, b.hi))


def _in_union(u: BoxUnion, p) -> bool:
    return any(_in_box(b, p) for b in u.boxes)


# ---------------------------------------------------------------------------
# Box basics
# ---------------------------------------------------------------------------


class TestBox:
    def test_cube_and_interval_constructors(self):
        c = Box.cube((Fraction(1), Fraction(2)), Fraction(1, 2))
        assert c.lo == (Fraction(1), Fraction(2))
        assert c.hi == (Fraction(3, 2), Fraction(5, 2))
        assert Box.interval(Fraction(0), Fraction(1)) == Box.unit_cube(1)

    def test_volume_is_product_of_sides(self):
        b = Box((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3)))
        assert b.volume() == Fraction(1, 2) * Fraction(2)

    @given(b=boxes(dim=2))
    def test_contains_point_matches_half_open_convention(self, b):
        assert b.contains_point(b.lo)
        assert not b.contains_point(b.hi)

    def test_empty_box_has_no_points(self):
        e = Box.empty(2)
        assert e.is_empty
        assert e.volume() == 0

    def test_unbounded_volume_is_an_error(self):
        hs = Box.half_space(1, 0, Fraction(1, 2), above=True)
        assert not hs.is_bounded
        with pytest.raises(UnboundedBoxError):
            hs.volume()

    def test_half_space_and_complement_partition_the_line(self):
        below = Box.half_space(1, 0, Fraction(1, 3), above=False)
        above = Box.half_space(1, 0, Fraction(1, 3), above=True)
        for x in (Fraction(-5), Fraction(1, 3) - Fraction(1, 64), Fraction(1, 3), Fraction(7)):
            assert below.contains_point((x,)) != above.contains_point((x,))

    @given(a=boxes(dim=2), b=boxes(dim=2))
    def test_intersect_agrees_with_pointwise_and(self, a, b):
        c = a.intersect(b)  # None encodes the empty intersection
        for cell in _grid_cells([a, b]):
            p = _cell_mid(cell)
            got = c is not None and c.contains_point(p)
            assert got == (_in_box(a, p) and _in_box(b, p))

    def test_dimension_mismatch_is_loud(self):
        with pytest.raises(DimensionMismatchError):
            Box.unit_cube(1).intersect(Box.unit_cube(2))

    def test_inverted_corners_are_rejected(self):
        with pytest.raises(PreconditionError):
            Box((Fraction(1),), (Fraction(0),))


# ---------------------------------------------------------------------------
# BoxUnion: canonical form is set identity
# ---------------------------------------------------------------------------


class TestBoxUnionCanonical:
    @given(bs=st.lists(boxes(dim=1), min_size=0, max_size=5))
    def test_measure_matches_grid_oracle_1d(self, bs):
        u = BoxUnion.from_boxes(bs[0].dim if bs else 1, bs)
        if not bs:
            assert u.is_empty
            return
        assert u.measure() == oracle_measure(lambda p: any(_in_box(b, p) for b in bs), bs)

    @settings(max_examples=60)
    @given(bs=st.lists(boxes(dim=2), min_size=1, max_size=4))
    def test_measure_matches_grid_oracle_2d(self, bs):
        u = BoxUnion.from_boxes(bs[0].dim if bs else 1, bs)
        assert u.measure() == oracle_measure(lambda p: any(_in_box(b, p) for b in bs), bs)

    @given(bs=st.lists(boxes(dim=1), min_size=1, max_size=5), data=st.data())
    def test_construction_order_is_irrelevant(self, bs, data):
        shuffled = data.draw(st.permutations(bs))
        assert BoxUnion.from_boxes(bs[0].dim if bs else 1, bs) == BoxUnion.from_boxes(bs[0].dim, shuffled)

    @given(bs=st.lists(boxes(dim=2), min_size=1, max_size=4))
    def test_canonical_boxes_are_disjoint_and_cover_the_same_set(self, bs):
        u = BoxUnion.from_boxes(bs[0].dim if bs else 1, bs)
        for b1, b2 in itertools.combinations(u.boxes, 2):
            assert b1.intersect(b2) is None
        for cell in _grid_cells(bs):
            p = _cell_mid(cell)
            assert _in_union(u, p) == any(_in_box(b, p) for b in bs)

    @given(bs=st.lists(boxes(dim=1), min_size=1, max_size=4), t=fractions())
    def test_translate_commutes_with_canonicalization(self, bs, t):
        u = BoxUnion.from_boxes(bs[0].dim if bs else 1, bs).translate((t,))
        v = BoxUnion.from_boxes(1, [box_oracle.translate(b, (t,)) for b in bs])
        assert u == v


class TestBoxUnionAlgebra:
    @settings(max_examples=60)
    @given(
        xs=st.lists(boxes(dim=1), min_size=1, max_size=3),
        ys=st.lists(boxes(dim=1), min_size=1, max_size=3),
    )
    def test_union_intersection_difference_against_oracle(self, xs, ys):
        a = BoxUnion.from_boxes(xs[0].dim, xs)
        b = BoxUnion.from_boxes(ys[0].dim, ys)
        ref = xs + ys
        cases = [
            (a.union(b), lambda p: _in_union(a, p) or _in_union(b, p)),
            (a.intersect(b), lambda p: _in_union(a, p) and _in_union(b, p)),
            (a.subtract(b), lambda p: _in_union(a, p) and not _in_union(b, p)),
        ]
        for result, member in cases:
            for cell in _grid_cells(ref):
                p = _cell_mid(cell)
                assert _in_union(result, p) == member(p)

    @given(xs=st.lists(boxes(dim=1), min_size=1, max_size=4))
    def test_idempotence_and_self_cancellation(self, xs):
        a = BoxUnion.from_boxes(xs[0].dim, xs)
        assert a.union(a) == a
        assert a.intersect(a) == a
        assert a.subtract(a).is_empty

    @settings(max_examples=60)
    @given(
        xs=st.lists(boxes(dim=1), min_size=1, max_size=3),
        ys=st.lists(boxes(dim=1), min_size=1, max_size=3),
    )
    def test_inclusion_exclusion_for_measures(self, xs, ys):
        a = BoxUnion.from_boxes(xs[0].dim, xs)
        b = BoxUnion.from_boxes(ys[0].dim, ys)
        assert a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()

    @settings(max_examples=60)
    @given(
        xs=st.lists(boxes(dim=1), min_size=1, max_size=3),
        ys=st.lists(boxes(dim=1), min_size=1, max_size=3),
    )
    def test_contains_union_iff_subtraction_is_empty(self, xs, ys):
        a = BoxUnion.from_boxes(xs[0].dim, xs)
        b = BoxUnion.from_boxes(ys[0].dim, ys)
        assert a.contains_union(b) == b.subtract(a).is_empty

    @given(xs=st.lists(boxes(dim=1), min_size=1, max_size=4), clip=boxes(dim=1))
    def test_intersect_box_equals_intersect_with_singleton(self, xs, clip):
        a = BoxUnion.from_boxes(xs[0].dim, xs)
        assert a.intersect_box(clip) == a.intersect(BoxUnion.single(clip))

    @given(xs=st.lists(boxes(dim=2), min_size=1, max_size=3))
    def test_bounding_box_contains_everything(self, xs):
        a = BoxUnion.from_boxes(xs[0].dim, xs)
        bb = a.bounding_box()
        for b in a.boxes:
            assert bb.contains_box(b)


# ---------------------------------------------------------------------------
# exact tilings (the double-counting mechanism)
# ---------------------------------------------------------------------------


class TestTileCheck:
    def test_integer_scaling_of_an_interval(self):
        base = Box.cube((Fraction(0),), Fraction(1, 2))
        report = tile_check(base, [Fraction(3)])
        assert report.count == 3
        assert report.counts_per_axis == (3,)
        assert report.refinement == base
        assert report.equal and report.tiling_verified
        assert report.scaled_volume == 3 * base.volume()

    def test_rational_scaling_refines_the_base(self):
        base = Box.cube((Fraction(0), Fraction(0)), Fraction(1, 3))
        report = tile_check(base, [Fraction(3, 2), Fraction(5, 2)])
        assert report.counts_per_axis == (3, 5)
        assert report.count == 15
        assert report.scaled_volume == report.tiles_volume == Fraction(5, 12)
        assert report.equal and report.tiling_verified

    @given(
        b=boxes(dim=2),
        qn=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        qd=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    )
    def test_volume_double_count_is_exact(self, b, qn, qd):
        q = [Fraction(n, d) for n, d in zip(qn, qd)]
        report = tile_check(b, q)
        assert report.equal and report.tiling_verified
        # double counting: scaling multiplies volume by prod(q), and the
        # same region is a disjoint union of count copies of the refinement
        assert report.scaled_volume == b.volume() * q[0] * q[1]
        assert report.tiles_volume == report.count * report.refinement.volume()
        assert report.scaled_volume == report.tiles_volume

    @settings(max_examples=80)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_the_per_axis_verdict_is_the_literal_tiling(self, data, dim):
        # The literal check builds every tile as a Box and folds them all.
        b = data.draw(boxes(dim=dim))
        q: list[Fraction] = []
        for _ in range(dim):
            room = 300 // prod(v.numerator for v in q)
            q.append(Fraction(data.draw(st.integers(1, room)), data.draw(st.integers(1, 7))))
        ref = [a / v.denominator for a, v in zip(b.sides(), q)]
        tiles = [
            Box(tuple(k * r for k, r in zip(idx, ref)), tuple((k + 1) * r for k, r in zip(idx, ref)))
            for idx in itertools.product(*(range(v.numerator) for v in q))
        ]
        scaled = Box((Fraction(0),) * dim, tuple(v * a for v, a in zip(q, b.sides())))
        literal = BoxUnion.from_boxes(dim, tiles) == BoxUnion.single(scaled)
        report = tile_check(b, q)
        assert report.count == len(tiles) <= 300
        assert report.tiling_verified is literal

    def test_nonpositive_scale_is_rejected(self):
        with pytest.raises(PreconditionError):
            tile_check(Box.unit_cube(1), [Fraction(0)])
        with pytest.raises(PreconditionError):
            tile_check(Box.unit_cube(1), [Fraction(-2)])

    def test_tile_cap_cannot_be_lifted(self):
        from fatcantor.geometry import DEFAULT_TILE_CAP

        assert tile_check(Box.unit_cube(1), [Fraction(2)], max_tiles=DEFAULT_TILE_CAP).count == 2
        with pytest.raises(PreconditionError, match="max_tiles must be at most 65536"):
            tile_check(Box.unit_cube(1), [Fraction(2)], max_tiles=DEFAULT_TILE_CAP + 1)

    def test_over_budget_message_gives_the_count_as_a_power_of_two(self):
        from fatcantor import BudgetError

        with pytest.raises(BudgetError) as exc:
            tile_check(Box.unit_cube(2), [Fraction(3), Fraction(5)], max_tiles=7)
        assert str(exc.value) == "tiling check would fold at least 2^3 intervals, above the cap of 7"
