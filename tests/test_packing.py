"""Dyadic rounding, cube merging, and the packing-covers-a-cube layout.

Merging 2^d equal dyadic cubes into one cube of the next level is exactly
carry arithmetic in base 2^d: writing the total dyadic volume in that base
gives the final per-level inventory, independent of merge order.  That
closed form is the oracle for merge_dyadic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatcantor import (
    Box,
    BoxUnion,
    BudgetError,
    CubeFamily,
    DimensionMismatchError,
    PackingLayout,
    PreconditionError,
    layout_covers,
    merge_dyadic,
    pack_cover,
    pow2,
)
from fatcantor.packing import (
    MAX_FAMILY_CUBES,
    MergeRecord,
    _tiling_covers,
)
from fatcantor import cli, geometry, packing, serialize
from fatcantor.rationals import POS_INF, _floor_log2_ratio
from fatcantor.serialize import to_json

import test_cli_golden
from layouts import lattice_layout, translations
from packing_oracle import floor_log2, merge_dyadic_by_rescan, record_of, steps_of, unfold_by_steps
from strategies import fractions, positive_fractions


def oracle_final_levels(dim: int, exponents: list[int]) -> Counter:
    """Final per-level cube counts from base-2^d positional arithmetic."""
    if not exponents:
        return Counter()
    base = 1 << dim
    emin = min(exponents)
    total = sum(base ** (e - emin) for e in exponents)
    counts: Counter = Counter()
    level = emin
    while total:
        total, digit = divmod(total, base)
        if digit:
            counts[level] = digit
        level += 1
    return counts


# ---------------------------------------------------------------------------
# dyadic rounding
# ---------------------------------------------------------------------------


@given(sides=st.lists(positive_fractions(max_value=Fraction(8)), min_size=1, max_size=16))
def test_rounding_brackets_each_side_from_below(sides):
    exps = packing._dyadic_exponents(sides, Fraction(1))
    for side, e in zip(sides, exps):
        assert pow2(e) <= side < pow2(e + 1)


def test_rounding_keeps_exact_powers_of_two():
    assert packing._dyadic_exponents([Fraction(1, 2), Fraction(1, 4), Fraction(8)], Fraction(1)) == [-1, -2, 3]


_ALPHAS = [Fraction(1), Fraction(3, 4), Fraction(2, 3), Fraction(5, 7), Fraction(6), Fraction(1, 12)]


@given(
    sides=st.lists(positive_fractions(max_value=Fraction(8)), min_size=1, max_size=16),
    alpha=st.sampled_from(_ALPHAS),
    powers=st.lists(st.integers(-12, 12), max_size=4),
)
def test_integer_rounding_is_floor_log2_of_the_ratio(sides, alpha, powers):
    # Sides alpha * 2**k sit exactly on a level boundary.
    sides += [alpha * pow2(k) for k in powers]
    expected = [floor_log2(v / alpha) for v in sides]
    assert packing._dyadic_exponents(sides, alpha) == expected


@st.composite
def mixed_sides(draw):
    """Sides that mix one object held many times, equal values held in
    distinct objects, and distinct values, in a drawn order."""
    pool = draw(st.lists(positive_fractions(max_value=Fraction(8)), min_size=1, max_size=6))
    sides = []
    for _ in range(draw(st.integers(1, 24))):
        v = draw(st.sampled_from(pool))
        # the pool's own object, or an equal value in an object of its own
        sides.append(v if draw(st.booleans()) else Fraction(v.numerator, v.denominator))
    return sides


@given(sides=mixed_sides(), alpha=st.sampled_from(_ALPHAS))
def test_exponents_of_distinct_side_objects_are_floor_log2_of_each_side(sides, alpha):
    assert packing._dyadic_exponents(sides, alpha) == [floor_log2(v / alpha) for v in sides]


def test_each_distinct_side_object_is_rounded_coerced_and_powered_once(monkeypatch):
    half, third = Fraction(1, 2), Fraction(1, 3)
    sides = (half, third) * 8 + (Fraction(1, 2), 1)  # the last half an equal object of its own
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(packing, name, wrapper)

    counted("as_fraction", packing.as_fraction)
    counted("_floor_log2_ratio", packing._floor_log2_ratio)
    fam = CubeFamily(1, sides)
    assert fam.sides == (half, third) * 8 + (half, Fraction(1))
    assert fam.sides[0] is fam.sides[14] is half and type(fam.sides[-1]) is Fraction
    assert calls["as_fraction"] == 4
    assert packing._dyadic_exponents(fam.sides, Fraction(1)) == [-1, -2] * 8 + [-1, 0]
    assert calls["_floor_log2_ratio"] == 4
    # the volume sum counts a shared object once per occurrence
    with pytest.raises(PreconditionError, match="total normalized volume 5/6 is below 1"):
        pack_cover(CubeFamily(1, (half, third)))
    layout = pack_cover(CubeFamily(2, (half,) * 3 + (Fraction(1, 2),)))
    # the four halves merge into the unit cube; only the one at its origin meets [0, 1/2)^2
    assert layout.placements == ((0, (0, 0)),)


@pytest.mark.parametrize("sides", [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 2), 0, Fraction(1, 2))])
def test_a_shared_or_later_nonpositive_side_is_refused(sides):
    with pytest.raises(PreconditionError, match="cube sides must be positive"):
        CubeFamily(1, sides)
    with pytest.raises(PreconditionError, match="expected an exact rational, got float"):
        CubeFamily(1, (*sides, 0.5))


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1), Fraction(-1, 7)])
def test_floor_log2_rejects_nonpositive(bad):
    # the oracle answers only where CubeFamily lets _dyadic_exponents go
    with pytest.raises(ValueError, match="floor_log2 needs a positive value"):
        floor_log2(bad)


@given(
    p=st.integers(1, 1 << 80), q=st.integers(1, 1 << 80), m=st.integers(1, 1 << 40)
)
def test_the_bit_length_rule_needs_no_lowest_terms(p, q, m):
    assert _floor_log2_ratio(p * m, q * m) == _floor_log2_ratio(p, q) == floor_log2(Fraction(p, q))


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def assert_sweep_is_the_rescan(dim, exponents):
    final, record = merge_dyadic(dim, exponents)
    rescan_final, steps = merge_dyadic_by_rescan(dim, exponents)
    assert final == rescan_final
    # the rescan's steps, numbered consecutively from the inputs
    assert steps_of(record) == steps and len(record) == len(steps)
    # one entry per level, levels increasing
    assert record == record_of(dim, steps)
    levels = [level for level, _, _ in record.levels]
    assert levels == sorted(set(levels))


class TestMergeDyadic:
    @given(
        dim=st.integers(min_value=1, max_value=3),
        exponents=st.lists(st.integers(min_value=-6, max_value=2), min_size=1, max_size=40),
    )
    def test_final_inventory_matches_carry_arithmetic(self, dim, exponents):
        final, steps = merge_dyadic(dim, exponents)
        got = Counter(level for _, level in final)
        assert got == oracle_final_levels(dim, exponents)

    @given(
        dim=st.integers(min_value=1, max_value=3),
        exponents=st.lists(st.integers(min_value=-6, max_value=2), min_size=1, max_size=40),
    )
    def test_no_level_retains_a_full_group(self, dim, exponents):
        final, _ = merge_dyadic(dim, exponents)
        counts = Counter(level for _, level in final)
        for level, count in counts.items():
            assert count <= 2**dim - 1

    @given(
        dim=st.integers(min_value=1, max_value=3),
        exponents=st.lists(st.integers(min_value=-5, max_value=2), min_size=1, max_size=30),
    )
    def test_dyadic_volume_is_conserved(self, dim, exponents):
        final, record = merge_dyadic(dim, exponents)
        before = sum(pow2(e) ** dim for e in exponents)
        after = sum(pow2(level) ** dim for _, level in final)
        assert before == after
        # and every individual step conserves it too
        for _, ids, _ in record.levels:
            assert ids and len(ids) % 2**dim == 0
        for step in steps_of(record):
            assert len(step.constituents) == 2**dim

    @given(
        dim=st.integers(min_value=1, max_value=3),
        exponents=st.lists(st.integers(min_value=-8, max_value=2), max_size=300),
    )
    def test_sweep_equals_the_rescan(self, dim, exponents):
        assert_sweep_is_the_rescan(dim, exponents)

    def test_sweep_equals_the_rescan_on_long_carries(self):
        for dim, exponents in [(1, [-9] * 512), (1, [-3, -9, -9, -4] * 100), (2, [-5] * 300 + [-3] * 7)]:
            assert_sweep_is_the_rescan(dim, exponents)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_constituents_sit_at_the_lexicographic_corners(self, dim):
        # 2^d halves make one unit cube; input i sits at the i-th corner of
        # {0, 1/2}^d in lexicographic order, axis 0 slowest.
        record = merge_dyadic(dim, [-1] * 2**dim)[1]
        assert record.levels == ((-1, tuple(range(2**dim)), 2**dim),)
        corners = itertools.product((Fraction(0), Fraction(1, 2)), repeat=dim)
        fam = CubeFamily(dim, (Fraction(1, 2),) * 2**dim)
        layout = _tiling_covers(fam, record, Fraction(1), 2**dim, Box.unit_cube(dim))
        assert translations(layout) == tuple(enumerate(corners))
        # over pack_cover's target [0, 1/2)^d only the cube at the origin is placed
        assert pack_cover(fam).placements == ((0, (0,) * dim),)

    def test_two_quarters_then_a_half_build_a_unit_cube(self):
        final, record = merge_dyadic(1, [-1, -2, -2])
        assert [level for _, level in final] == [0]
        assert len(record) == 2
        # the second merge combines the original half with the merged pair
        assert record.levels == ((-2, (1, 2), 3), (-1, (0, 3), 4))


# ---------------------------------------------------------------------------
# pack_cover end to end
# ---------------------------------------------------------------------------


class TestPackCover:
    def test_frozen_half_quarter_quarter_layout(self):
        fam = CubeFamily(1, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        layout = pack_cover(fam)
        assert layout.target == Box.interval(Fraction(0), Fraction(1, 2))
        # on the lattice of the smallest merged level, 2^-2; the quarters
        # merged into [1/2, 1) lie past the target and are not placed
        assert layout.unit == Fraction(1, 4)
        assert layout.placements == ((0, (0,)),)
        assert layout_covers(fam, layout)
        # over the whole selected cube [0, 1) every input is placed
        record, selected = merge_of(fam, Fraction(1))
        whole = _tiling_covers(fam, record, Fraction(1), selected, Box.unit_cube(1))
        assert whole.placements == ((0, (0,)), (1, (2,)), (2, (3,)))
        assert layout_covers(fam, whole)

    def test_single_adequate_cube_is_placed_alone(self):
        fam = CubeFamily(2, (Fraction(3, 4), Fraction(3, 4)))
        layout = pack_cover(fam)
        assert len(layout.placements) == 1
        assert layout.placements[0][0] == 0
        assert layout_covers(fam, layout)

    def test_placement_boxes_stay_inside_the_covered_cube(self):
        fam = CubeFamily(2, tuple(Fraction(1, 2) for _ in range(5)))
        layout = pack_cover(fam)
        covered = BoxUnion.from_boxes(2, [Box.cube(t, fam.sides[i]) for i, t in translations(layout)])
        assert covered.contains_union(BoxUnion.single(layout.target))

    @settings(max_examples=120)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_random_feasible_families_cover_their_target(self, dim, data):
        count = data.draw(st.integers(min_value=1, max_value=24))
        sides = []
        for _ in range(count):
            if data.draw(st.booleans()):
                sides.append(pow2(-data.draw(st.integers(min_value=0, max_value=3))))
            else:
                sides.append(
                    Fraction(data.draw(st.integers(9, 64)), data.draw(st.integers(48, 64)))
                )
        total = sum(s**dim for s in sides)
        if total < 1:
            sides.append(Fraction(1))  # force feasibility
        fam = CubeFamily(dim, tuple(sides))
        layout = pack_cover(fam)
        assert layout_covers(fam, layout)
        # placements reference distinct family members with exponent-scaled sides
        indices = [i for i, _ in layout.placements]
        assert len(indices) == len(set(indices))

    def test_alpha_scales_the_whole_picture(self):
        fam = CubeFamily(1, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        layout = pack_cover(fam, alpha=Fraction(1, 4))
        assert layout.target == Box.interval(Fraction(0), Fraction(1, 8))
        assert layout_covers(fam, layout)

    def test_infeasible_families_are_rejected(self):
        with pytest.raises(PreconditionError):
            pack_cover(CubeFamily(1, (Fraction(1, 4), Fraction(1, 8))))
        with pytest.raises(PreconditionError):
            pack_cover(CubeFamily(2, (Fraction(1, 2),) * 3))

    def test_bad_target_side_is_rejected(self):
        fam = CubeFamily(1, (Fraction(1),))
        with pytest.raises(PreconditionError):
            pack_cover(fam, target_side=Fraction(3, 4))
        with pytest.raises(PreconditionError):
            pack_cover(fam, target_side=Fraction(0))

    def test_family_validation(self):
        with pytest.raises(PreconditionError):
            CubeFamily(1, (Fraction(0),))
        with pytest.raises(PreconditionError):
            CubeFamily(0, (Fraction(1, 2),))

    def test_family_cap(self):
        at_the_cap = pack_cover(CubeFamily(1, (Fraction(1),) * MAX_FAMILY_CUBES))
        # the 8192 unit cubes merge into one of side 2^13; [0, 1/2) meets only the first
        assert at_the_cap.placements == ((0, (0,)),)
        family = CubeFamily(1, (Fraction(1),) * (MAX_FAMILY_CUBES + 1))
        message = r"^a family of at least 2\^13 cubes is above the cap of 8192 cubes$"
        with pytest.raises(BudgetError, match=message):
            pack_cover(family)

    def test_determinism(self):
        fam = CubeFamily(2, tuple(Fraction(k, 16) for k in (9, 10, 11, 12, 13)))
        assert pack_cover(fam) == pack_cover(fam)

    @settings(max_examples=150)
    @given(
        dim=st.integers(1, 3),
        alpha=st.sampled_from(_ALPHAS),
        sides=st.lists(
            st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 12, 13, 30])),
            min_size=1,
            max_size=12,
        ),
    )
    def test_the_hypothesis_is_the_fraction_sum(self, dim, alpha, sides):
        # Mixed denominators: the per-denominator integer sums against the
        # Fraction sum of the normalized volumes.
        total = sum(((v / alpha) ** dim for v in sides), Fraction(0))
        fam = CubeFamily(dim, tuple(sides))
        if total >= 1:
            assert layout_covers(fam, pack_cover(fam, alpha=alpha))
        else:
            with pytest.raises(PreconditionError, match=f"^total normalized volume {total} is below 1;"):
                pack_cover(fam, alpha=alpha)

    @given(dim=st.integers(min_value=1, max_value=3))
    def test_selection_prefers_the_smallest_adequate_cube(self, dim):
        # 2^d + 1 identical halves: the first 2^d merge into a unit cube,
        # leaving the last one at level -1.  Both are adequate for a
        # target side of 1/2, and the smaller (unmerged) cube must win.
        fam = CubeFamily(dim, (Fraction(1, 2),) * (2**dim + 1))
        layout = pack_cover(fam)
        assert layout.placements == ((2**dim, (0,) * dim),)
        assert layout_covers(fam, layout)


# ---------------------------------------------------------------------------
# the walk's layouts against the replay
# ---------------------------------------------------------------------------


def whole_cube(fam: CubeFamily, record: MergeRecord, selected: int, alpha: Fraction = Fraction(1)) -> Box:
    """The selected result as a target, ``[0, alpha * 2**top)^d``: the walk
    then skips nothing and places every input of its tree."""
    top = max(level for level, _, first in record.levels if first <= selected) + 1
    return Box.cube((Fraction(0),) * fam.dim, alpha * pow2(top))


def replay(fam: CubeFamily, placements, unit=None) -> bool:
    """``layout_covers`` over the whole selected cube on other placements,
    given as translations on the walk's lattice, or on ``unit``; the box
    algebra route must agree."""
    record, selected = merge_of(fam, Fraction(1))
    layout = _tiling_covers(fam, record, Fraction(1), selected, whole_cube(fam, record, selected))
    tampered = lattice_layout(placements, layout.target, unit or layout.unit)
    verdict = layout_covers(fam, tampered)
    assert verdict is box_algebra_replay(fam, tampered)
    return verdict


def at(*coords):
    return tuple(Fraction(c) for c in coords)


class TestTilingProof:
    HALF_QUARTERS = CubeFamily(1, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    FOUR_HALVES = CubeFamily(2, (Fraction(1, 2),) * 4)

    def test_pack_cover_layouts_pass(self):
        for fam in (self.HALF_QUARTERS, self.FOUR_HALVES):
            record, selected = merge_of(fam, Fraction(1))
            whole = _tiling_covers(fam, record, Fraction(1), selected, Box.unit_cube(fam.dim))
            assert replay(fam, translations(whole))
            layout = pack_cover(fam)
            assert _tiling_covers(fam, record, Fraction(1), selected, layout.target) == layout
            assert layout_covers(fam, layout)

    # Layouts other than the walk's tiling: the replay refuses each over the
    # covered cube [0, 1)^d.
    @pytest.mark.parametrize(
        "which,placements",
        [
            # equal total volume, but [1/2, 3/4) is used twice and [3/4, 1) missed
            ("1d", [(0, at(0)), (1, at("1/2")), (2, at("1/2"))]),
            # equal total volume, two shadows on the same quadrant
            ("2d", [(0, at(0, 0)), (1, at(0, "1/2")), (2, at("1/2", 0)), (3, at("1/2", 0))]),
        ],
    )
    def test_overlapping_shadows_fail(self, which, placements):
        fam = self.HALF_QUARTERS if which == "1d" else self.FOUR_HALVES
        assert not replay(fam, placements)

    def test_an_overlapping_cover_is_a_cover(self):
        # [3/4, 1) used twice, but the union is the whole cube: not the
        # walk's tiling, and still a cover
        assert replay(self.HALF_QUARTERS, [(0, at(0)), (1, at("1/2")), (2, at("3/4")), (3, at("3/4"))])

    def test_a_layout_off_the_proofs_lattice_fails(self):
        # Overlapping by half a shadow: (1/2, 1/4) is off the walk's lattice
        # of 1/2, so the layout is on the lattice of 1/4.
        placements = [(0, at(0, 0)), (1, at(0, "1/2")), (2, at("1/2", 0)), (3, at("1/2", "1/4"))]
        assert not replay(self.FOUR_HALVES, placements, Fraction(1, 4))

    def test_missing_cube_fails(self):
        assert not replay(self.HALF_QUARTERS, [(0, at(0)), (1, at("1/2"))])
        assert not replay(self.FOUR_HALVES, [(0, at(0, 0)), (1, at(0, "1/2")), (2, at("1/2", 0))])

    @pytest.mark.parametrize(
        "dim,sides,digest",
        [
            (1, (Fraction(1, 64),) * 64, "69a702f01648f078"),
            (1, tuple(Fraction(k, 97) for k in range(1, 20)), "41495e423216e548"),
            (2, (Fraction(1, 4),) * 16, "2461c7e1665f65fb"),
            (2, tuple(Fraction(k, 23) for k in range(3, 14)), "1ea372c49d568a1b"),
            (3, (Fraction(1, 2),) * 8, "3541d81e9dd1ebfd"),
            (3, tuple(Fraction(k, 13) for k in range(5, 12)), "79d38a629963dd1c"),
        ],
    )
    def test_layouts_are_frozen(self, dim, sides, digest):
        # sha256 prefixes of the serialized layouts recorded with the
        # pairwise overlap check, before the tiling proof used box algebra;
        # re-recorded without the merge tree that layouts no longer hold,
        # from the old layouts with that one key dropped; re-recorded again
        # when a layout's document became its unit and integer positions,
        # each old translate equal to the unit times the new position
        # (old -> new: 1dffa73f1d0efc60 -> dd51474ee9b952c6,
        # ead3436bd14750ef -> 0e10664846e50b46, c490a510a054f772 ->
        # df3dda2e63749df0, 57c849278cfdfe68 -> 1ea372c49d568a1b,
        # 0c38c15852ac2d9f -> d754ff5d3cccf58b, 1bc33d2eea38ff2a ->
        # 79d38a629963dd1c); re-recorded when the walk stopped placing the
        # cubes that miss the target, each new layout the old one less
        # those placements, its unit unchanged (old -> new:
        # dd51474ee9b952c6 -> 69a702f01648f078, 64 -> 32 placements;
        # 0e10664846e50b46 -> 41495e423216e548, 9 -> 4; df3dda2e63749df0 ->
        # 2461c7e1665f65fb, 16 -> 4; d754ff5d3cccf58b -> 3541d81e9dd1ebfd,
        # 8 -> 1; the other two place one cube and are unchanged)
        doc = json.dumps(to_json(pack_cover(CubeFamily(dim, sides))), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# the merge-tree proof against the box-algebra replay
# ---------------------------------------------------------------------------

ALPHAS = (Fraction(1), Fraction(3, 4), Fraction(2, 3))


def merge_of(fam: CubeFamily, alpha: Fraction) -> tuple[MergeRecord, int]:
    """The merge record of ``pack_cover`` and the cube it unfolds: the
    smallest adequate final cube."""
    final, record = merge_dyadic(fam.dim, [floor_log2(v / alpha) for v in fam.sides])
    return record, min((k, idx) for idx, k in final if pow2(k) >= Fraction(1, 2))[1]


@st.composite
def feasible_families(draw):
    """A family with sum (side/alpha)**d >= 1, equal or non-dyadic sides."""
    dim = draw(st.integers(min_value=1, max_value=3))
    alpha = draw(st.sampled_from(ALPHAS))
    if draw(st.booleans()):
        side = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]))
        count = next(n for n in itertools.count(1) if n * side**dim >= 1)
        sides = [alpha * side] * (count + draw(st.integers(min_value=0, max_value=3)))
    else:
        sides, volume = [], Fraction(0)
        while volume < 1:
            side = Fraction(draw(st.integers(min_value=13, max_value=63)), 64)
            sides.append(alpha * side)
            volume += side**dim
    return CubeFamily(dim, tuple(sides)), alpha


class TestMergeTreeProof:
    @settings(max_examples=150)
    @given(case=feasible_families())
    def test_proof_and_replay_accept_every_layout(self, case):
        fam, alpha = case
        layout = pack_cover(fam, alpha=alpha)
        record, selected = merge_of(fam, alpha)
        assert _tiling_covers(fam, record, alpha, selected, layout.target) == layout
        assert layout_covers(fam, layout) and box_algebra_replay(fam, layout)

    # Eight quarters merge into two halves (cubes 10 and 11), which merge
    # with two more halves into the unit cube 12: two steps at one level,
    # non-dyadic sides, alpha != 1.
    ALPHA = Fraction(3, 4)
    FAMILY = CubeFamily(2, tuple(Fraction(3, 4) * v for v in [Fraction(13, 50)] * 8 + [Fraction(27, 50)] * 2))
    # Two eighths merge at level -3 into cube 4, a quarter alone at level -2;
    # two halves merge at level -1 into the unit cube 5, selected.
    ACROSS = CubeFamily(1, tuple(Fraction(3, 4) * v for v in [Fraction(1, 8)] * 2 + [Fraction(1, 2)] * 2))
    # Two quarters merge into the half 4, two units into cube 5 of side 2:
    # the half is selected, below the top entry.
    BELOW = CubeFamily(1, tuple(Fraction(3, 4) * v for v in [Fraction(1, 4)] * 2 + [Fraction(1)] * 2))
    # Four eighths merge into the quarters 6 and 7, those into the half 8,
    # selected; two units merge into cube 9 of side 2, above it.
    CHAIN = CubeFamily(1, tuple(Fraction(3, 4) * v for v in [Fraction(1, 8)] * 4 + [Fraction(1)] * 2))

    def test_the_mutant_base_passes(self):
        layout = pack_cover(self.FAMILY, alpha=self.ALPHA)
        record, selected = merge_of(self.FAMILY, self.ALPHA)
        assert [(step.level, step.result) for step in steps_of(record)] == [(-2, 10), (-2, 11), (-1, 12)]
        assert record.levels == ((-2, tuple(range(8)), 10), (-1, (8, 9, 10, 11), 12))
        assert selected == 12
        assert _tiling_covers(self.FAMILY, record, self.ALPHA, 12, layout.target) == layout
        # input 8, of side 81/200 at the origin, alone meets [0, 3/8)^2
        assert layout.placements == ((8, (0, 0)),)
        whole = _tiling_covers(self.FAMILY, record, self.ALPHA, 12, Box.cube(at(0, 0), self.ALPHA))
        assert whole.unit == self.ALPHA / 4 and len(whole.placements) == 10
        assert layout_covers(self.FAMILY, whole)
        for fam, levels, selected in [
            (self.ACROSS, ((-3, (0, 1), 4), (-1, (2, 3), 5)), 5),
            (self.BELOW, ((-2, (0, 1), 4), (0, (2, 3), 5)), 4),
            (self.CHAIN, ((-3, (0, 1, 2, 3), 6), (-2, (6, 7), 8), (0, (4, 5), 9)), 8),
        ]:
            record, got = merge_of(fam, self.ALPHA)
            assert record.levels == levels and got == selected
            layout = pack_cover(fam, alpha=self.ALPHA)
            assert _tiling_covers(fam, record, self.ALPHA, selected, layout.target) == layout
            assert _tiling_covers(fam, record, self.ALPHA, selected, whole_cube(fam, record, selected, self.ALPHA))

    def mutant(self, kind):
        """The family, a merge record, the selected cube and the target,
        one of them wrong.  The target is the whole selected cube unless the
        mutant is the target, so the walk skips no constituent."""
        fam, steps = self.FAMILY, steps_of(merge_of(self.FAMILY, self.ALPHA)[0])
        target = Box.cube(at(0, 0), self.ALPHA)  # cube 12, of level 0
        # the record's own shape
        if kind == "count":
            # the level -2 entry holds nine ids, not a multiple of 4: two
            # groups and input 8 alone after them, which no walk reaches
            return fam, MergeRecord(2, ((-2, tuple(range(9)), 10), (-1, (8, 9, 10, 11), 12))), 12, target
        if kind == "levels-out-of-order":
            # cube 10 made at level -1 and cube 11 at level -2, numbered in
            # order; the target is cube 11, of level -1
            record = MergeRecord(2, ((-1, (0, 1, 2, 3), 10), (-2, (4, 5, 6, 7), 11)))
            return fam, record, 11, Box.cube(at(0, 0), self.ALPHA / 2)
        if kind == "numbering-gap":
            # the half numbered 9, not 8, and cube 8 taken for the second
            # quarter: a number in the gap, which no group made
            record = MergeRecord(1, ((-3, (0, 1, 2, 3), 6), (-2, (6, 8), 9), (0, (4, 5), 10)))
            return self.CHAIN, record, 9, Box.cube(at(0), self.ALPHA / 2)
        if kind == "across-a-level":
            # cube 4, made at level -3, taken for a half at the corner 0 of cube 5
            return self.ACROSS, MergeRecord(1, ((-3, (0, 1), 4), (-1, (4, 3), 5))), 5, Box.cube(at(0), self.ALPHA)
        if kind == "higher-entry":
            # the half 4 holds cube 5 of side 2, made by the entry above
            record = MergeRecord(1, ((-2, (0, 5), 4), (0, (2, 3), 5)))
            return self.BELOW, record, 4, Box.cube(at(0), self.ALPHA / 2)
        # one merge step changed
        if kind == "dropped":
            del steps[0]
        elif kind == "dropped-and-placed":
            # cube 11 at its corner of cube 12, though no step made it
            del steps[1]
        elif kind == "arity":
            # cube 12 from three constituents, the corner of cube 11 bare
            steps[2] = steps[2]._replace(constituents=(8, 9, 10))
        elif kind == "duplicate-constituent":
            # input 0 at two corners of cube 10, input 1 nowhere
            steps[0] = steps[0]._replace(constituents=(0, 0, 2, 3))
        elif kind == "duplicate-constituent-later":
            # input 0 at a corner of cube 10 and of cube 11, input 7 nowhere
            steps[1] = steps[1]._replace(constituents=(4, 5, 6, 0))
        elif kind == "result-twice":
            # cube 10 at two corners of cube 12, cube 11 nowhere
            steps[2] = steps[2]._replace(constituents=(8, 9, 10, 10))
        elif kind == "result-twice-later":
            # cube 11 at the first and last corners of cube 12, input 8 nowhere
            steps[2] = steps[2]._replace(constituents=(11, 9, 10, 11))
        elif kind == "level":
            # cube 10 claims level -3: its inputs, placed at the corners
            # {0, 1/8}^2 of its position, tile only a quarter cube, but cube
            # 12 takes it for a half
            steps[0] = steps[0]._replace(level=-3)
        elif kind == "side":
            sides = list(fam.sides)
            sides[0] = self.ALPHA / 4 - Fraction(1, 1000)
            fam = CubeFamily(2, tuple(sides))
        elif kind == "target":
            target = Box.cube(at(0, 0), self.ALPHA + Fraction(1, 1000))
        elif kind == "target-dimension":
            target = Box.cube(at(0), self.ALPHA / 2)
        return fam, record_of(fam.dim, steps), 12, target

    @pytest.mark.parametrize(
        "kind",
        ["dropped", "dropped-and-placed", "arity", "duplicate-constituent", "duplicate-constituent-later",
         "level", "side", "target", "target-dimension", "count", "levels-out-of-order", "numbering-gap",
         "across-a-level", "higher-entry", "result-twice", "result-twice-later"],
    )
    def test_mutants_are_rejected(self, kind):
        fam, record, selected, target = self.mutant(kind)
        assert _tiling_covers(fam, record, self.ALPHA, selected, target) is None

    def test_a_skipped_subtree_is_not_read(self):
        # Cube 10 at two corners of cube 12, both past the target [0, 3/8)^2:
        # the walk skips them unread and places input 8 alone, as from the
        # true record.  Over the whole cube it reaches them and refuses.
        fam, record, selected, whole = self.mutant("result-twice")
        layout = pack_cover(fam, alpha=self.ALPHA)
        assert _tiling_covers(fam, record, self.ALPHA, selected, layout.target) == layout
        assert _tiling_covers(fam, record, self.ALPHA, selected, whole) is None

    @pytest.mark.parametrize("kind", ["shifted", "unit", "duplicate-placement", "short-translation"])
    def test_layout_tampers_are_refused_by_the_replay(self, kind):
        # The walk's layout of the whole cube 12, one placement or the unit changed.
        record, _ = merge_of(self.FAMILY, self.ALPHA)
        layout = _tiling_covers(self.FAMILY, record, self.ALPHA, 12, Box.cube(at(0, 0), self.ALPHA))
        placements, unit = list(layout.placements), layout.unit
        if kind == "shifted":
            index, (x, y) = placements[2]
            placements[2] = (index, (x + 1, y))
        elif kind == "unit":
            # the same positions on the lattice of alpha/2: every translation
            # doubled, the cubes spread apart
            unit = self.ALPHA / 2
        elif kind == "duplicate-placement":
            placements.append(placements[0])
        elif kind == "short-translation":
            index, (x, y) = placements[0]
            placements[0] = (index, (x,))
        tampered = dataclasses.replace(layout, unit=unit, placements=tuple(placements))
        assert layout_covers(self.FAMILY, layout)
        assert not layout_covers(self.FAMILY, tampered) and not box_algebra_replay(self.FAMILY, tampered)

    @pytest.mark.parametrize(
        "dim,sides",
        [
            (1, (Fraction(1, 64),) * 64),
            (1, tuple(Fraction(k, 97) for k in range(1, 20))),
            (2, (Fraction(1, 4),) * 16),
            (3, (Fraction(1, 2),) * 8),
        ],
        ids=["1d-equal", "1d-non-dyadic", "2d-equal", "3d-equal"],
    )
    def test_each_constituent_is_held_to_its_corner(self, dim, sides):
        # Rotating the constituents of any one step under the selected cube
        # moves each to another corner: the walk places each input where the
        # rotated record's step unfold puts it, away from where the true
        # record puts it.
        fam = CubeFamily(dim, sides)
        record, selected = merge_of(fam, Fraction(1))
        whole = whole_cube(fam, record, selected)
        layout = _tiling_covers(fam, record, Fraction(1), selected, whole)
        steps = steps_of(record)
        by_result = {step.result: k for k, step in enumerate(steps)}
        used, stack = [], [selected]
        while stack:
            k = by_result.get(stack.pop())
            if k is not None:
                used.append(k)
                stack.extend(steps[k].constituents)
        assert used
        for k in used:
            rotated = list(steps)
            first, *rest = steps[k].constituents
            rotated[k] = steps[k]._replace(constituents=(*rest, first))
            got = _tiling_covers(fam, record_of(dim, rotated), Fraction(1), selected, whole)
            base, placements = unfold_by_steps(dim, rotated, selected)
            assert got.placements == tuple(placements) and got.unit == pow2(base)
            assert got.placements != layout.placements

    def test_the_proof_calls_nothing_the_search_calls(self):
        target = pack_cover(self.FAMILY, alpha=self.ALPHA).target
        record, _ = merge_of(self.FAMILY, self.ALPHA)
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add((frame.f_code.co_filename, frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            assert _tiling_covers(self.FAMILY, record, self.ALPHA, 12, target)
        finally:
            sys.setprofile(None)
        names = {name for _, name in called}
        assert not names & {"merge_dyadic", "_dyadic_exponents", "_floor_log2_ratio", "pow2"}
        assert not [path for path, _ in called if path.endswith("geometry.py")]

    def test_a_selected_input_is_placed_alone_at_the_origin(self):
        fam = CubeFamily(2, (Fraction(3, 4), Fraction(3, 4)))
        layout = pack_cover(fam)
        record, selected = merge_of(fam, Fraction(1))
        assert not record.levels and selected == 0
        assert _tiling_covers(fam, record, Fraction(1), 0, layout.target) == layout
        assert layout.placements == ((0, (0, 0)),) and layout.unit == 1
        # the other input is a cube the record holds too
        assert _tiling_covers(fam, record, Fraction(1), 1, layout.target).placements == ((1, (0, 0)),)
        wide = Box.cube(at(0, 0), Fraction(3, 4) + Fraction(1, 100))
        assert _tiling_covers(fam, record, Fraction(1), 0, wide) is None
        below = Box(at(-1, 0), at("1/2", "1/2"))
        assert _tiling_covers(fam, record, Fraction(1), 0, below) is None
        for missing in (-1, 2):
            assert _tiling_covers(fam, record, Fraction(1), missing, layout.target) is None

    def test_a_deep_chain_unfolds_past_the_recursion_limit(self):
        # 1/2, 1/4, ..., 2^-1200 and 2^-1200 merge into a unit cube through
        # 1200 levels, deeper than Python's default recursion limit.
        depth = 1200
        fam = CubeFamily(1, tuple(pow2(-k) for k in range(1, depth + 1)) + (pow2(-depth),))
        record, selected = merge_of(fam, Fraction(1))
        assert len(record) == depth
        placed = translations(_tiling_covers(fam, record, Fraction(1), selected, Box.unit_cube(1)))
        assert placed[0] == (0, at(0)) and placed[-1] == (depth, (1 - pow2(-depth),))
        # the chain lies in [1/2, 1), past pack_cover's target
        assert pack_cover(fam).placements == ((0, (0,)),)

    def test_pack_verify_folds_the_placements_once(self, monkeypatch, tmp_path):
        folds = []
        union_all = packing._union_all

        def counted(trees, d):
            folds.append(len(trees))
            return union_all(trees, d)

        monkeypatch.setattr(packing, "_union_all", counted)
        out = tmp_path / "pack.json"
        argv = ["pack", "--d", "2", "--sides", ",".join(["1/8"] * 64), "--verify", "--out", str(out)]
        assert cli.main(argv) == 0
        result = json.loads(out.read_text())["result"]
        assert result["verification"]["ok"] is True and result["placements"] == 16
        # the replay's one fold, over the trees of the 16 placed cubes, the
        # ones that meet the covered cube [0, 1/2)^2
        assert result["covered_cube"]["hi"] == ["1/2", "1/2"]
        assert folds == [16]

    def test_pack_verify_unions_intervals_without_the_pairwise_kernel(self, monkeypatch, tmp_path):
        # At d = 1 the placed cubes' union is one sort and one merge, so the
        # kernel runs once, for the target's tree less that union.
        combines = []
        for module in (geometry, packing):
            combine = module._combine

            def counted(op, a, b, d, combine=combine):
                combines.append(op)
                return combine(op, a, b, d)

            monkeypatch.setattr(module, "_combine", counted)
        out = tmp_path / "pack.json"
        argv = ["pack", "--d", "1", "--sides", ",".join(["1/64"] * 64), "--verify", "--out", str(out)]
        assert cli.main(argv) == 0
        result = json.loads(out.read_text())["result"]
        assert result["verification"]["ok"] is True and result["placements"] == 32
        assert combines == [geometry._SUBTRACT]

    def test_pack_parses_each_distinct_side_once(self, monkeypatch, tmp_path):
        calls = {"cli": Counter(), "serialize": Counter()}
        for name, module in (("cli", cli), ("serialize", serialize)):
            parse = module.parse_fraction

            def counted(text, parse=parse, seen=calls[name]):
                seen[text] += 1
                return parse(text)

            monkeypatch.setattr(module, "parse_fraction", counted)
        out = tmp_path / "pack.json"
        argv = ["pack", "--d", "1", "--sides", ",".join(["1/512"] * 512), "--verify", "--out", str(out)]
        assert cli.main(argv) == 0
        result = json.loads(out.read_text())["result"]
        # the 512 cubes merge into the unit cube, and half of them meet [0, 1/2)
        assert result["verification"]["ok"] is True and result["placements"] == 256
        # argv parsing, then the family decoded from the document's inputs
        assert calls["cli"] == {"1/512": 1}
        assert calls["serialize"]["1/512"] == 1 and max(calls["serialize"].values()) == 1


# ---------------------------------------------------------------------------
# the level walk against the step walk
# ---------------------------------------------------------------------------

TARGET_SIDES = (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))


@st.composite
def unfold_cases(draw):
    """A feasible family, its alpha and a target side.  Sides are alpha
    times 2**k, for k from -4 to 0, times a factor in [1, 2); cubes of
    level -2 are added until the family is feasible.  Maybe 2**d cubes of
    side 16 alpha are added too, which merge at level 4, above every
    level of the tree the selected cube comes from."""
    dim = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(ALPHAS))
    factors = st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(13, 8)])
    sides = [pow2(k) * draw(factors) for k in draw(st.lists(st.integers(-4, 0), max_size=40))]
    while sum(v**dim for v in sides) < 1:
        sides.append(Fraction(1, 4) * draw(factors))
    if draw(st.booleans()):
        sides += [Fraction(16)] * 2**dim
    order = draw(st.permutations(sides))
    return CubeFamily(dim, tuple(alpha * v for v in order)), alpha, draw(st.sampled_from(TARGET_SIDES))


def assert_the_level_walk_is_the_step_walk(fam: CubeFamily, alpha: Fraction, target_side: Fraction) -> int:
    """``pack_cover``'s layout is the oracle's unfold of the rescan's steps,
    filtered to the cubes that meet the target, and the walk over the whole
    selected cube is the whole unfold; return the selected cube."""
    exponents = [floor_log2(v / alpha) for v in fam.sides]
    final, steps = merge_dyadic_by_rescan(fam.dim, exponents)
    _, record = merge_dyadic(fam.dim, exponents)
    assert len(record) == len(steps)
    level, selected = min((k, idx) for idx, k in final if pow2(k) >= target_side)
    base, placements = unfold_by_steps(fam.dim, steps, selected)
    unit = alpha * pow2(base)
    layout = pack_cover(fam, target_side=target_side, alpha=alpha)
    meets = [
        (index, position)
        for index, position in placements
        if Box.cube([unit * p for p in position], fam.sides[index]).intersect(layout.target)
    ]
    assert layout.placements == tuple(meets)
    assert layout.unit == unit
    whole = Box.cube((Fraction(0),) * fam.dim, alpha * pow2(level))
    walked = _tiling_covers(fam, record, alpha, selected, whole)
    assert walked.placements == tuple(placements) and walked.unit == unit
    return selected


class TestLevelWalk:
    @settings(max_examples=200)
    @given(case=unfold_cases())
    def test_the_level_walk_places_what_the_step_walk_places(self, case):
        assert_the_level_walk_is_the_step_walk(*case)

    @settings(max_examples=150)
    @given(case=feasible_families(), target_side=st.sampled_from(TARGET_SIDES))
    def test_the_walk_places_the_unfold_that_meets_the_target(self, case, target_side):
        fam, alpha = case
        assert_the_level_walk_is_the_step_walk(fam, alpha, target_side)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("target_side", TARGET_SIDES, ids=["1/4", "3/8", "1/2"])
    def test_a_cube_below_the_top_level_unfolds_from_its_own_entry(self, dim, target_side):
        # 2^d eighths merge into a quarter, or 2^3d sixteenths into a half
        # through three levels, the smallest adequate cube; 2^d unit cubes
        # merge above it at level 0, the record's top entry.
        small, count = (Fraction(1, 8), 2**dim) if target_side == Fraction(1, 4) else (Fraction(1, 16), 2 ** (3 * dim))
        alpha = Fraction(2, 3)
        fam = CubeFamily(dim, tuple(alpha * v for v in [Fraction(1)] * 2**dim + [small] * count))
        selected = assert_the_level_walk_is_the_step_walk(fam, alpha, target_side)
        record = merge_dyadic(dim, [floor_log2(v / alpha) for v in fam.sides])[1]
        level, ids, first = record.levels[-1]
        assert level == 0 and selected < first
        # the small cubes whose corners lie below the target side on every axis
        assert len(pack_cover(fam, target_side=target_side, alpha=alpha).placements) == (
            math.ceil(target_side / small) ** dim
        )


# ---------------------------------------------------------------------------
# the replay on the kernel's trees against the box-algebra route
# ---------------------------------------------------------------------------


def box_algebra_replay(fam: CubeFamily, layout: PackingLayout) -> bool:
    """``layout_covers`` by box algebra: one Box per placement, folded by
    ``BoxUnion.from_boxes``, must contain the target's ``BoxUnion``; each
    translation is ``unit * position``, a ``Fraction``."""
    indices = {index for index, _ in layout.placements}
    if len(indices) != len(layout.placements) or not indices.issubset(range(len(fam.sides))):
        return False
    if any(len(position) != fam.dim for _, position in layout.placements):
        return False
    placed = BoxUnion.from_boxes(fam.dim, [Box.cube(t, fam.sides[i]) for i, t in translations(layout)])
    return placed.contains_union(BoxUnion.single(layout.target))


def grid_layout(dim: int, h: Fraction, g: int) -> tuple[CubeFamily, PackingLayout]:
    """g**d cubes of side h that tile the target [0, g h)**d exactly, on
    the lattice of h."""
    corners = list(itertools.product(range(g), repeat=dim))
    placements = tuple((i, tuple(h * k for k in corner)) for i, corner in enumerate(corners))
    target = Box.cube((Fraction(0),) * dim, g * h)
    return CubeFamily(dim, (h,) * len(corners)), lattice_layout(placements, target, h)


_STEPS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 6)]
_NUDGES = [Fraction(0), Fraction(0), Fraction(1, 12), Fraction(-1, 12), Fraction(1, 35), Fraction(-2, 9)]
# Over distinct primes, so that the replay's lattice spans all of them.
_PRIME_NUDGES = [Fraction(0), Fraction(0), Fraction(1, 11), Fraction(-2, 13), Fraction(1, 17), Fraction(-3, 19)]


@st.composite
def perturbed_layouts(draw):
    """A grid layout, maybe perturbed: sides grown (overlaps), translations
    nudged (gaps and overlaps) by amounts over one set of denominators or
    over distinct primes, cubes left out (gaps), cubes placed at
    random (sticking out of the target), and the target resized."""
    dim = draw(st.integers(1, 3))
    h = draw(st.sampled_from(_STEPS))
    fam, layout = grid_layout(dim, h, draw(st.integers(1, 3)))
    if not draw(st.booleans()):
        return fam, layout
    nudges = draw(st.sampled_from([_NUDGES, _PRIME_NUDGES]))
    sides, placements = [], []
    for index, translation in translations(layout):
        if draw(st.integers(0, 5)) == 0:
            continue
        sides.append(h + abs(draw(st.sampled_from(nudges))))
        placements.append(tuple(x + draw(st.sampled_from(nudges)) for x in translation))
    for _ in range(draw(st.integers(0, 2))):
        sides.append(draw(st.sampled_from(_STEPS)))
        placements.append(tuple(draw(fractions(min_value=-1, max_value=2)) for _ in range(dim)))
    if not sides:
        sides, placements = [h], [(Fraction(0),) * dim]
    order = draw(st.permutations(range(len(sides))))
    lo, hi = layout.target.lo, layout.target.hi
    target = Box(
        tuple(a + draw(st.sampled_from(_NUDGES)) if draw(st.booleans()) else a for a in lo),
        tuple(b + abs(draw(st.sampled_from(_NUDGES))) for b in hi),
    )
    return CubeFamily(dim, tuple(sides)), lattice_layout(
        [(order[k], placements[k]) for k in range(len(sides))], target
    )


class TestReplayOnTrees:
    @settings(max_examples=200)
    @given(case=perturbed_layouts())
    def test_the_replay_is_the_box_algebra_verdict(self, case):
        fam, layout = case
        assert layout_covers(fam, layout) is box_algebra_replay(fam, layout)

    @pytest.mark.parametrize(
        "dim,h,g", [(1, Fraction(1, 3), 3), (2, Fraction(2, 5), 2), (3, Fraction(3, 7), 2)]
    )
    @pytest.mark.parametrize(
        "kind,covers",
        [("none", True), ("dropped", False), ("shifted", False), ("wide", False), ("empty", True),
         ("unbounded", False), ("repeated", False)],
    )
    def test_tampers(self, dim, h, g, kind, covers):
        fam, layout = grid_layout(dim, h, g)
        placements, target = list(translations(layout)), layout.target
        if kind == "dropped":
            del placements[-1]
        elif kind == "shifted":
            index, translation = placements[-1]
            placements[-1] = (index, (translation[0] + h / 2, *translation[1:]))
        elif kind == "wide":
            target = Box(target.lo, (target.hi[0] + Fraction(1, 100), *target.hi[1:]))
        elif kind == "empty":
            target, placements = Box.empty(dim), placements[:1]
        elif kind == "unbounded":
            target = Box(target.lo, (POS_INF, *target.hi[1:]))
        elif kind == "repeated":
            placements[-1] = (placements[0][0], placements[-1][1])
        layout = lattice_layout(placements, target)
        assert layout_covers(fam, layout) is box_algebra_replay(fam, layout) is covers

    def test_only_the_cubes_that_meet_the_target_get_a_tree(self, monkeypatch):
        # A 3 x 3 grid covering [0, 1)^2, and three unit cubes beside it:
        # one far away, two touching a face of the half-open target.
        folded = []
        union_all = packing._union_all

        def counted(trees, d):
            folded.append(len(trees))
            return union_all(trees, d)

        monkeypatch.setattr(packing, "_union_all", counted)
        fam, layout = grid_layout(2, Fraction(1, 3), 3)
        fam = CubeFamily(2, fam.sides + (Fraction(1),) * 3)
        grid = list(translations(layout))
        beside = [(9, (Fraction(5), Fraction(-7))), (10, (Fraction(1), Fraction(0))), (11, (Fraction(0), Fraction(-1)))]

        def verdict(placements, target=layout.target):
            folded.clear()
            replayed = lattice_layout(placements, target)
            got = layout_covers(fam, replayed)
            assert got is box_algebra_replay(fam, replayed)
            return got

        assert verdict(grid + beside) and folded == [9]
        assert not verdict(grid[:4] + grid[5:] + beside) and folded == [8]
        # the checks over every placement still read the ones beside the target
        assert not verdict(grid + [(0, (Fraction(5), Fraction(5)))])
        assert not verdict(grid + [(12, (Fraction(5), Fraction(5)))])
        assert not verdict(grid + [(9, (Fraction(5),))])
        # a large cube alone, outside the target or touching its face, covers nothing
        big = CubeFamily(2, (Fraction(10),))
        for corner in ((Fraction(2), Fraction(2)), (Fraction(1), Fraction(-5)), (Fraction(-5), Fraction(1))):
            outside = lattice_layout([(0, corner)], layout.target)
            assert not layout_covers(big, outside) and not box_algebra_replay(big, outside)
            assert folded[-1] == 0

    def test_a_target_of_the_wrong_dimension_raises(self):
        fam, layout = grid_layout(1, Fraction(1, 2), 2)
        layout = dataclasses.replace(layout, target=Box.unit_cube(2))
        for replay in (layout_covers, box_algebra_replay):
            with pytest.raises(DimensionMismatchError, match="^union of dimension 2 vs 1$"):
                replay(fam, layout)


def _refuse(*args, **kwargs):
    raise AssertionError("a Box or BoxUnion per piece")


class TestOnePath:
    def test_packing_holds_no_box_union_path(self):
        assert "BoxUnion" not in vars(packing) and "placement_boxes" not in vars(packing)

    @pytest.mark.parametrize(
        "name", ["pack", "corollary-demo", "corollary-demo-a", "tile-check", "tile-check-base-file"]
    )
    def test_the_checks_need_no_box_union(self, name, tmp_path, monkeypatch, capsys):
        # The golden documents, byte for byte, with the box-algebra route refused.
        argv, code, digest = test_cli_golden.CASES[name]
        for fname, text in test_cli_golden.FILES.items():
            (tmp_path / fname).write_text(text)
        monkeypatch.chdir(tmp_path)
        for method in ("from_boxes", "single", "contains_union"):
            monkeypatch.setattr(BoxUnion, method, _refuse)
        assert "--verify" in argv and cli.main(argv) == code == 0
        assert test_cli_golden.indented_digest(capsys.readouterr().out) == digest
