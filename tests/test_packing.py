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
    PackingLayout,
    PreconditionError,
    floor_log2,
    layout_covers,
    merge_dyadic,
    pack_cover,
    placement_boxes,
    pow2,
    round_to_dyadic,
    volume,
)
from fatcantor.packing import (
    MAX_FAMILY_CUBES,
    MergeStep,
    _corner_offsets,
    _tiling_covers,
    check_family_size,
)
from fatcantor.serialize import to_json

from strategies import positive_fractions


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


def merge_dyadic_by_rescan(dim: int, exponents: list[int]):
    """Merge by regrouping every alive cube before each step (oracle)."""
    alive: dict[int, int] = {i: k for i, k in enumerate(exponents)}
    next_id = len(alive)
    steps: list[MergeStep] = []
    group = 1 << dim
    while True:
        by_level: dict[int, list[int]] = {}
        for idx, k in alive.items():
            by_level.setdefault(k, []).append(idx)
        eligible = sorted(k for k, ids in by_level.items() if len(ids) >= group)
        if not eligible:
            break
        level = eligible[0]
        ids = sorted(by_level[level])[:group]
        for idx in ids:
            del alive[idx]
        alive[next_id] = level + 1
        steps.append(MergeStep(level, tuple(ids), next_id, _corner_offsets(dim, level)))
        next_id += 1
    return sorted(alive.items()), steps


# ---------------------------------------------------------------------------
# dyadic rounding
# ---------------------------------------------------------------------------


@given(sides=st.lists(positive_fractions(max_value=Fraction(8)), min_size=1, max_size=16))
def test_rounding_brackets_each_side_from_below(sides):
    exps = round_to_dyadic(sides)
    for side, e in zip(sides, exps):
        assert pow2(e) <= side < pow2(e + 1)


def test_rounding_keeps_exact_powers_of_two():
    assert round_to_dyadic([Fraction(1, 2), Fraction(1, 4), Fraction(8)]) == [-1, -2, 3]


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


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
        final, steps = merge_dyadic(dim, exponents)
        before = sum(pow2(e) ** dim for e in exponents)
        after = sum(pow2(level) ** dim for _, level in final)
        assert before == after
        # and every individual step conserves it too
        for step in steps:
            assert len(step.constituents) == 2**dim

    @given(
        dim=st.integers(min_value=1, max_value=3),
        exponents=st.lists(st.integers(min_value=-8, max_value=2), max_size=300),
    )
    def test_sweep_equals_the_rescan(self, dim, exponents):
        assert merge_dyadic(dim, exponents) == merge_dyadic_by_rescan(dim, exponents)

    def test_sweep_equals_the_rescan_on_long_carries(self):
        for dim, exponents in [(1, [-9] * 512), (1, [-3, -9, -9, -4] * 100), (2, [-5] * 300 + [-3] * 7)]:
            assert merge_dyadic(dim, exponents) == merge_dyadic_by_rescan(dim, exponents)

    def test_two_quarters_then_a_half_build_a_unit_cube(self):
        final, steps = merge_dyadic(1, [-1, -2, -2])
        assert [level for _, level in final] == [0]
        assert len(steps) == 2
        assert steps[0].level == -2
        assert steps[0].constituents == (1, 2)
        assert steps[1].level == -1
        # the second merge combines the original half with the merged pair
        assert steps[1].constituents == (0, 3)

    def test_merge_steps_use_lexicographic_corner_offsets(self):
        _, steps = merge_dyadic(2, [-1, -1, -1, -1])
        (step,) = steps
        side = pow2(-1)
        assert step.offsets == (
            (Fraction(0), Fraction(0)),
            (Fraction(0), side),
            (side, Fraction(0)),
            (side, side),
        )


# ---------------------------------------------------------------------------
# pack_cover end to end
# ---------------------------------------------------------------------------


class TestPackCover:
    def test_frozen_half_quarter_quarter_layout(self):
        fam = CubeFamily(1, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        layout = pack_cover(fam)
        assert layout.target == Box.interval(Fraction(0), Fraction(1, 2))
        assert layout.placements == (
            (0, (Fraction(0),)),
            (1, (Fraction(1, 2),)),
            (2, (Fraction(3, 4),)),
        )
        assert layout_covers(fam, layout)

    def test_single_adequate_cube_is_placed_alone(self):
        fam = CubeFamily(2, (Fraction(3, 4), Fraction(3, 4)))
        layout = pack_cover(fam)
        assert len(layout.placements) == 1
        assert layout.placements[0][0] == 0
        assert layout_covers(fam, layout)

    def test_placement_boxes_stay_inside_the_covered_cube(self):
        fam = CubeFamily(2, tuple(Fraction(1, 2) for _ in range(5)))
        layout = pack_cover(fam)
        covered = BoxUnion.from_boxes(2, [b for b in placement_boxes(fam, layout)])
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
        assert check_family_size(MAX_FAMILY_CUBES) == MAX_FAMILY_CUBES
        family = CubeFamily(1, (Fraction(1),) * (MAX_FAMILY_CUBES + 1))
        message = r"^a family of at least 2\^13 cubes is above the cap of 8192 cubes$"
        with pytest.raises(BudgetError, match=message):
            pack_cover(family)

    def test_determinism(self):
        fam = CubeFamily(2, tuple(Fraction(k, 16) for k in (9, 10, 11, 12, 13)))
        assert pack_cover(fam) == pack_cover(fam)

    @given(dim=st.integers(min_value=1, max_value=3))
    def test_selection_prefers_the_smallest_adequate_cube(self, dim):
        # 2^d + 1 identical halves: the first 2^d merge into a unit cube,
        # leaving the last one at level -1.  Both are adequate for a
        # target side of 1/2, and the smaller (unmerged) cube must win.
        fam = CubeFamily(dim, (Fraction(1, 2),) * (2**dim + 1))
        layout = pack_cover(fam)
        assert layout.placements == ((2**dim, (Fraction(0),) * dim),)
        assert layout_covers(fam, layout)


# ---------------------------------------------------------------------------
# the tiling proof inside pack_cover
# ---------------------------------------------------------------------------


def tiling_proof(fam: CubeFamily, placements) -> bool:
    """Run ``_tiling_covers`` on pack_cover's layout with other placements."""
    layout = pack_cover(fam)
    exponents = round_to_dyadic(fam.sides)
    _, steps = merge_dyadic(fam.dim, exponents)
    # In these families the last merge builds the selected cube.
    selected = steps[-1].result
    by_result = {step.result: step for step in steps}
    tampered = dataclasses.replace(layout, placements=tuple(placements))
    return _tiling_covers(fam, tampered, exponents, Fraction(1), selected, by_result)


def at(*coords):
    return tuple(Fraction(c) for c in coords)


class TestTilingProof:
    HALF_QUARTERS = CubeFamily(1, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    FOUR_HALVES = CubeFamily(2, (Fraction(1, 2),) * 4)

    def test_pack_cover_layouts_pass(self):
        assert tiling_proof(self.HALF_QUARTERS, pack_cover(self.HALF_QUARTERS).placements)
        assert tiling_proof(self.FOUR_HALVES, pack_cover(self.FOUR_HALVES).placements)

    @pytest.mark.parametrize(
        "which,placements",
        [
            # equal total volume, but [1/2, 3/4) is used twice and [3/4, 1) missed
            ("1d", [(0, at(0)), (1, at("1/2")), (2, at("1/2"))]),
            # the union is the whole cube, but [3/4, 1) is used twice
            ("1d", [(0, at(0)), (1, at("1/2")), (2, at("3/4")), (3, at("3/4"))]),
            # equal total volume, two shadows on the same quadrant
            ("2d", [(0, at(0, 0)), (1, at(0, "1/2")), (2, at("1/2", 0)), (3, at("1/2", 0))]),
            # overlapping by half a shadow
            ("2d", [(0, at(0, 0)), (1, at(0, "1/2")), (2, at("1/2", 0)), (3, at("1/2", "1/4"))]),
        ],
    )
    def test_overlapping_shadows_fail(self, which, placements):
        fam = self.HALF_QUARTERS if which == "1d" else self.FOUR_HALVES
        assert not tiling_proof(fam, placements)

    def test_missing_cube_fails(self):
        assert not tiling_proof(self.HALF_QUARTERS, [(0, at(0)), (1, at("1/2"))])
        assert not tiling_proof(self.FOUR_HALVES, [(0, at(0, 0)), (1, at(0, "1/2")), (2, at("1/2", 0))])

    @pytest.mark.parametrize(
        "dim,sides,digest",
        [
            (1, (Fraction(1, 64),) * 64, "ef9f03c2713bfe0e"),
            (1, tuple(Fraction(k, 97) for k in range(1, 20)), "0d77c720ad67a7b1"),
            (2, (Fraction(1, 4),) * 16, "1fc6f226b08b4cef"),
            (2, tuple(Fraction(k, 23) for k in range(3, 14)), "1d51084e2b42bb08"),
            (3, (Fraction(1, 2),) * 8, "d422c502ffda090a"),
            (3, tuple(Fraction(k, 13) for k in range(5, 12)), "a02ba4cf1504b362"),
        ],
    )
    def test_layouts_are_frozen(self, dim, sides, digest):
        # sha256 prefixes of the serialized layouts recorded with the
        # pairwise overlap check, before the tiling proof used box algebra
        doc = json.dumps(to_json(pack_cover(CubeFamily(dim, sides))), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest
