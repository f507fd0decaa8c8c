"""Acceptance suite: the eleven headline guarantees, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints an explicit ``criterion NN PASS``
line with the measured quantities.  Randomized criteria use a fixed seed,
so the suite is deterministic end to end.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from fatcantor import (
    Box,
    CantorSchedule,
    Diff,
    ExtendedRational,
    Gen,
    Inter,
    NeedsDeeperStage,
    PackingLayout,
    PowerGauge,
    Union,
    UncoveredWitness,
    base_expr,
    clip_to_box,
    corollary_pipeline,
    find_uncovered_box,
    generate_rn,
    grid_translate_pool,
    layout_covers,
    leaf_count,
    measure_bounds,
    merge_dyadic,
    min_stage_for_delta,
    nu_delta_upper,
    pack_cover,
    pow2,
    quartered_translate_pool,
    range_function,
    solve_level,
    split_identity_check,
    tile_check,
    uncovered_witness_valid,
)
from fatcantor.packing import CubeFamily
from fatcantor.serialize import expr_to_json

from packing_oracle import floor_log2
from strategies import approx_set


S1 = CantorSchedule(1)
S2 = CantorSchedule(2)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS — {detail}")


# ---------------------------------------------------------------------------
# randomized-input helpers (seeded; no hypothesis here on purpose)
# ---------------------------------------------------------------------------


def _random_fraction(rng: random.Random, lo=-1, hi=2) -> Fraction:
    den = rng.choice([1, 2, 3, 4, 8, 16, 32])
    return Fraction(rng.randint(lo * den, hi * den), den)


def _random_gen(rng: random.Random, dim=1) -> Gen:
    t = tuple(_random_fraction(rng) for _ in range(dim))
    if rng.random() < 0.5:
        clip = Box.unit_cube(dim)
    else:
        lo = tuple(_random_fraction(rng) for _ in range(dim))
        hi = tuple(c + abs(_random_fraction(rng)) + Fraction(1, 16) for c in lo)
        clip = Box(lo, hi)
    return Gen(t, clip)


def _random_expr(rng: random.Random, max_leaves: int, dim=1, positive_only=False):
    expr = _random_gen(rng, dim)
    combos = (Union, Inter) if positive_only else (Union, Diff, Inter)
    for _ in range(rng.randint(0, max_leaves - 1)):
        node = rng.choice(combos)
        other = _random_gen(rng, dim)
        expr = node(expr, other) if rng.random() < 0.5 else node(other, expr)
    return expr


# ---------------------------------------------------------------------------
# criterion 1: exact stage measures and limits
# ---------------------------------------------------------------------------


def test_criterion_01_exact_stage_measures():
    t0 = time.monotonic()
    assert S1.limit_measure() == Fraction(1, 2)
    assert S2.limit_measure() == Fraction(1, 4)
    for n in range(11):
        removed = sum(2 ** (k - 1) * Fraction(1, 4) ** k for k in range(1, n + 1))
        expected_1d = 1 - removed
        assert S1.stage_measure(n) == expected_1d
        assert S1.stage_approx(n).measure() == expected_1d
        assert S2.stage_measure(n) == expected_1d**2
    for n in range(6):
        assert S2.stage_approx(n).measure() == S1.stage_measure(n) ** 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"limits 1/2 and 1/4; stage measures exact for n<=10 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: certified bounds on random ring expressions
# ---------------------------------------------------------------------------


def test_criterion_02_certified_bounds_on_random_expressions():
    t0 = time.monotonic()
    rng = random.Random(2025)
    stages = range(1, 6)
    checked = 0
    for i in range(200):
        positive = i % 2 == 0
        e = _random_expr(rng, 8, positive_only=positive)
        L = leaf_count(e)
        brackets = [measure_bounds(e, S1, n) for n in stages]
        for n, b in zip(stages, brackets):
            assert b.width <= 2 * L * pow2(-(n + 1)), (e, n)
        for b1, b2 in itertools.combinations(brackets, 2):
            assert b1.lower <= b2.upper and b2.lower <= b1.upper
        if positive:
            for b1, b2 in zip(brackets, brackets[1:]):
                assert b2.upper <= b1.upper
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(2, f"{checked} expressions, widths within 2L*2^-(n+1), monotone uppers, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: the splitting identity at finite stage
# ---------------------------------------------------------------------------


def test_criterion_03_splitting_identity():
    rng = random.Random(3)
    failures = 0
    for _ in range(100):
        e = _random_expr(rng, 5)
        n = rng.randint(0, 8)
        thr = _random_fraction(rng)
        rep = split_identity_check(e, S1, n, axis=0, threshold=thr, above=rng.random() < 0.5)
        if not (rep.equal and rep.whole == rep.inside + rep.outside):
            failures += 1
    assert failures == 0
    _report(3, "100/100 half-space splits additive at stages <= 8")


# ---------------------------------------------------------------------------
# criterion 4: clipping commutes with stage approximation
# ---------------------------------------------------------------------------


def test_criterion_04_structural_clipping():
    rng = random.Random(4)
    for _ in range(100):
        e = _random_expr(rng, 5)
        n = rng.randint(0, 6)
        lo = _random_fraction(rng)
        clip = Box.interval(lo, lo + abs(_random_fraction(rng)) + Fraction(1, 8))
        assert approx_set(clip_to_box(e, clip), S1, n) == approx_set(e, S1, n).intersect_box(clip)
    _report(4, "100/100 clip-then-approximate equals approximate-then-intersect (n <= 6)")


# ---------------------------------------------------------------------------
# criterion 5: no finite family covers the unit cube
# ---------------------------------------------------------------------------


def test_criterion_05_no_finite_cover_of_the_cube():
    cube1 = Box.unit_cube(1)

    # dimension 1, exhaustive subsets of grid pools up to 8 elements
    subsets_checked = 0
    for size in (1, 2, 4, 8):
        pool = grid_translate_pool(S1, size)
        for r in range(1, size + 1):
            for subset in itertools.combinations(range(size), r):
                members = [pool[i] for i in subset]
                w = find_uncovered_box(cube1, members, S1, 12)
                assert isinstance(w, UncoveredWitness), f"inconclusive: size {size} subset {subset}"
                assert uncovered_witness_valid(S1, cube1, members, w)
                subsets_checked += 1

    # a 16-element pool: one witness against the full family certifies
    # every subfamily at once (fewer elements cover no more)
    pool16 = quartered_translate_pool(S1, 16)
    w16 = find_uncovered_box(cube1, pool16, S1, 12)
    assert isinstance(w16, UncoveredWitness)
    assert uncovered_witness_valid(S1, cube1, pool16, w16)

    # ring elements generated from a three-element pool, layers 1..3
    gen_pool = [base_expr(S1), Gen((Fraction(1, 2),), Box.unit_cube(1)), Gen((Fraction(1, 4),), Box.unit_cube(1))]
    elements_checked = 0
    for layer in (1, 2, 3):
        for e in generate_rn(gen_pool, layer, S1):
            w = find_uncovered_box(cube1, [e], S1, 12)
            assert isinstance(w, UncoveredWitness), f"inconclusive element in layer {layer}"
            assert uncovered_witness_valid(S1, cube1, [e], w)
            elements_checked += 1

    # dimension 2: witnesses required, inconclusives allowed but reported
    cube2 = Box.unit_cube(2)
    inconclusive_2d = 0
    witnessed_2d = 0
    pool2 = quartered_translate_pool(S2, 4)
    for r in range(1, len(pool2) + 1):
        for subset in itertools.combinations(range(len(pool2)), r):
            members = [pool2[i] for i in subset]
            got = find_uncovered_box(cube2, members, S2, 12)
            if isinstance(got, NeedsDeeperStage):
                inconclusive_2d += 1
            else:
                assert uncovered_witness_valid(S2, cube2, members, got)
                witnessed_2d += 1

    _report(
        5,
        f"d=1: {subsets_checked} subsets + 16-family + {elements_checked} ring elements witnessed, "
        f"0 inconclusive at cap 12; d=2: {witnessed_2d} witnessed, {inconclusive_2d} inconclusive",
    )


# ---------------------------------------------------------------------------
# criterion 6: packing covers a cube
# ---------------------------------------------------------------------------


def test_criterion_06_random_families_pack_and_cover():
    rng = random.Random(6)
    packed = 0
    attempts = 0
    while packed < 500:
        attempts += 1
        d = rng.randint(1, 3)
        count = rng.randint(1, 64)
        sides = []
        for _ in range(count):
            if rng.random() < 0.4:
                sides.append(pow2(-rng.randint(0, 4)))
            else:
                sides.append(Fraction(rng.randint(3, 96), rng.randint(64, 96)))
        if sum(s**d for s in sides) < 1:
            sides.append(Fraction(1))
        family = CubeFamily(d, tuple(sides))

        exponents = [floor_log2(v) for v in family.sides]
        final, _steps = merge_dyadic(d, exponents)
        level_counts: dict[int, int] = {}
        for _, level in final:
            level_counts[level] = level_counts.get(level, 0) + 1
        for level, n_at in level_counts.items():
            assert n_at <= 2**d - 1, f"level {level} holds {n_at} cubes in d={d}"
        assert sum(pow2(e) ** d for e in exponents) == sum(pow2(lvl) ** d for _, lvl in final)

        layout = pack_cover(family)
        assert layout_covers(family, layout), f"family #{packed} failed the coverage check"
        packed += 1

    proc = subprocess.run(
        [sys.executable, "-m", "fatcantor", "pack", "--sides", "1/4,1/8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2

    _report(6, f"500 families packed and verified (d<=3, n<=64); infeasible family exits 2")


# ---------------------------------------------------------------------------
# criterion 7: gauge sums over stage covers
# ---------------------------------------------------------------------------


def test_criterion_07_gauge_sum_consistency():
    lin = PowerGauge(1)
    for n in range(1, 13):
        delta = 2 * S1.stage_interval_length(n)
        assert min_stage_for_delta(S1, delta) == n
        cover = nu_delta_upper(S1, lin, delta)
        assert cover.stage == n
        assert cover.value == ExtendedRational.from_rational(Fraction(1, 2) + pow2(-(n + 1)))
    at9 = nu_delta_upper(S1, lin, 2 * S1.stage_interval_length(9))
    assert at9.value.as_rational() - Fraction(1, 2) <= pow2(-10)

    sq = PowerGauge(2)
    values = []
    for n in range(4, 9):
        cover = nu_delta_upper(S1, sq, 2 * S1.stage_interval_length(n))
        assert cover.stage == n
        values.append(cover.value.as_rational())
    for a, b in zip(values, values[1:]):
        assert b < a
    assert values[-1] < pow2(-6)

    _report(7, "t-gauge equals 1/2 + 2^-(n+1) for n<=12; t^2-gauge < 2^-6 by stage 8")


# ---------------------------------------------------------------------------
# criterion 8: the full covering-corollary chain
# ---------------------------------------------------------------------------


def test_criterion_08_corollary_chain():
    t0 = time.monotonic()
    rep = corollary_pipeline(S1, Fraction(1, 4), a=Fraction(1, 2))
    assert rep.checks.sum_exceeds_half_a
    assert rep.checks.diam_preserved
    assert rep.checks.alpha_consistent
    assert rep.checks.covers_target
    assert rep.checks.gauge_dominates_covered_volume
    assert rep.alpha == Fraction(1, 4) and rep.alpha_exact
    assert rep.covered_cube == Box.interval(Fraction(0), Fraction(1, 8))
    # the grid's cubes at side * j, replayed on the box kernel
    kept = CubeFamily(1, (rep.cover.side,) * rep.kept)
    placements = tuple((j, (j,)) for j in range(rep.grid))
    assert layout_covers(kept, PackingLayout(rep.cover.side, placements, rep.covered_cube))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(8, f"full chain verified; alpha=1/4 exact; grid {rep.grid} covers [0,1/8]; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 9: the level function takes every intermediate value
# ---------------------------------------------------------------------------


def test_criterion_09_range_and_ivt():
    rng = random.Random(9)
    tol = pow2(-20)
    for _ in range(10):
        target = Fraction(rng.randint(1, 2**20 - 1), 2**21)  # inside (0, 1/2)
        sol = solve_level(S1, target, tol=tol)
        mid = (sol.bracket.lower + sol.bracket.upper) / 2
        assert abs(mid - target) <= tol, (target, mid)
        assert sol.bracket.lower - tol <= target <= sol.bracket.upper + tol

    stage = 10
    grid = [range_function(S1, Fraction(i, 64), stage) for i in range(65)]
    for a, b in zip(grid, grid[1:]):
        assert a.lower <= b.lower and a.upper <= b.upper

    _report(9, "10 targets bracketed within 2^-20; 65-point grid exactly monotone")


# ---------------------------------------------------------------------------
# criterion 10: exact tilings (double counting)
# ---------------------------------------------------------------------------


def test_criterion_10_exact_tilings():
    rng = random.Random(10)
    for _ in range(50):
        d = rng.randint(1, 3)
        lo = tuple(_random_fraction(rng) for _ in range(d))
        hi = tuple(c + Fraction(rng.randint(1, 8), rng.randint(1, 8)) for c in lo)
        base = Box(lo, hi)
        q = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d)]
        rep = tile_check(base, q)
        assert rep.equal and rep.tiling_verified
        assert rep.scaled_volume == rep.tiles_volume
    _report(10, "50/50 random scalings tile exactly in d <= 3")


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism and replay
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism_and_replay(tmp_path):
    expr_path = tmp_path / "expr.json"
    expr_path.write_text(json.dumps(expr_to_json(base_expr(S1))))
    invocations = [
        ("cantor-info", "--stage", "4"),
        ("measure", "--expr-file", str(expr_path), "--stage", "3"),
        ("split-check", "--expr-file", str(expr_path), "--threshold", "1/2"),
        ("rn-enumerate", "--expr-file", str(expr_path), "--n", "2"),
        ("cover-search", "--target-file", str(expr_path), "--expr-file", str(expr_path), "--stage", "2"),
        ("uncovered-box", "--expr-file", str(expr_path), "--stage-cap", "8"),
        ("infinite-cube", "--pool-size", "2", "--stage-cap", "8"),
        ("pack", "--sides", "1/2,1/4,1/4"),
        ("hausdorff-bound", "--delta", "1/8"),
        ("corollary-demo", "--delta", "1/4"),
        ("range-solve", "--target", "1/4"),
        ("tile-check", "--q", "3/2"),
    ]
    verified = 0
    for argv in invocations:
        first = subprocess.run(
            [sys.executable, "-m", "fatcantor", *argv, "--seed", "7"],
            capture_output=True,
            text=True,
        )
        second = subprocess.run(
            [sys.executable, "-m", "fatcantor", *argv, "--seed", "7"],
            capture_output=True,
            text=True,
        )
        assert first.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout, f"nondeterministic output for {argv}"

        replay = subprocess.run(
            [sys.executable, "-m", "fatcantor", *argv, "--seed", "7", "--verify"],
            capture_output=True,
            text=True,
        )
        assert replay.returncode == 0, (argv, replay.stderr)
        doc = json.loads(replay.stdout)
        assert doc["result"]["verification"] == {"requested": True, "ok": True}, argv
        verified += 1

    _report(11, f"{len(invocations)} commands byte-identical on rerun; {verified}/{len(invocations)} replays verified")
