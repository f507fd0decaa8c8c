"""Seeded request lists for the three benchmark workloads.

A workload is a list of rounds.  Every round holds the same sequence of
request classes (subcommand, dimension, size), so two seeds give the same
mix of kinds and sizes; the seed only draws the contents: translations,
clips, operator trees, cube sides, targets and tolerances.  No two
requests of a list have the same argv and input files.

A request names its input files by placeholder (``@expr``, ``@pool``,
...); the runner writes them out and substitutes real paths.  ``expect``
holds the known values the runner checks on top of ``--verify``; they come
from the closed forms in this file, never from the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

# Default schedule of the CLI: c = 1, rho = 1/4.
C = Fraction(1)
RHO = Fraction(1, 4)


def stage_measure_1d(n: int) -> Fraction:
    two_rho = 2 * RHO
    return 1 - C * RHO * (1 - two_rho**n) / (1 - two_rho)


def limit_measure_1d() -> Fraction:
    return 1 - C * RHO / (1 - 2 * RHO)


def stage_defect(n: int, d: int) -> Fraction:
    return stage_measure_1d(n) ** d - limit_measure_1d() ** d


def fmt(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


@dataclass
class Request:
    kind: str
    argv: list[str]
    files: dict[str, object] = field(default_factory=dict)
    expect: dict[str, object] = field(default_factory=dict)

    def key(self) -> str:
        """Content identity: argv plus the contents of its input files."""
        return json.dumps([self.argv, self.files], sort_keys=True)


# ---------------------------------------------------------------------------
# Ring expressions and their closed-form limit measure.
# ---------------------------------------------------------------------------


def gen_json(t: tuple[Fraction, ...], lo: tuple[Fraction, ...], hi: tuple[Fraction, ...]) -> dict:
    return {"gen": {"x": [fmt(v) for v in t], "clip": {"lo": [fmt(v) for v in lo], "hi": [fmt(v) for v in hi]}}}


def _leaves(doc: dict) -> list[dict]:
    (op, body), = doc.items()
    if op == "gen":
        return [body]
    return _leaves(body[0]) + _leaves(body[1])


def _cell_state(leaf: dict, t: tuple[Fraction, ...], cell: tuple[int, ...]) -> "bool | None":
    """Does the leaf hold the half-cell ``cell`` of the translate ``t``?

    The limit set C is symmetric about 1/2 and misses 1/2, so each half of
    C + t (per axis) carries measure limit/2.  A leaf on another translate
    separated by at least 1 on some axis meets this cell in a null set.
    ``None`` means the clip cuts the cell, so no closed form is known.
    """
    lt = tuple(Fraction(v) for v in leaf["x"])
    if lt != t:
        if any(abs(a - b) >= 1 for a, b in zip(lt, t)):
            return False
        return None
    lo = [Fraction(v) for v in leaf["clip"]["lo"]]
    hi = [Fraction(v) for v in leaf["clip"]["hi"]]
    full = True
    for axis, h in enumerate(cell):
        clo = t[axis] + Fraction(h, 2)
        chi = clo + Fraction(1, 2)
        if hi[axis] <= clo or lo[axis] >= chi:
            return False
        if not (lo[axis] <= clo and chi <= hi[axis]):
            full = False
    return True if full else None


def _eval(doc: dict, state: dict[int, bool], counter: list[int]) -> bool:
    (op, body), = doc.items()
    if op == "gen":
        counter[0] += 1
        return state[counter[0] - 1]
    left = _eval(body[0], state, counter)
    right = _eval(body[1], state, counter)
    if op == "union":
        return left or right
    if op == "diff":
        return left and not right
    return left and right


def closed_form_measure(doc: dict, d: int) -> "Fraction | None":
    """Limit measure of an expression whose leaves are half-cell aligned.

    Works per half-cell of every translate that occurs: inside one cell a
    leaf is either all of (C + t) ∩ cell or null there, so the expression
    is a boolean per cell.  Returns ``None`` when some leaf cuts a cell or
    two translates overlap in positive measure.
    """
    leaves = _leaves(doc)
    translates = sorted({tuple(Fraction(v) for v in leaf["x"]) for leaf in leaves})
    count = 0
    for t in translates:
        for cell in product((0, 1), repeat=d):
            state = {}
            for i, leaf in enumerate(leaves):
                s = _cell_state(leaf, t, cell)
                if s is None:
                    return None
                state[i] = s
            if _eval(doc, state, [0]):
                count += 1
    return count * (limit_measure_1d() / 2) ** d


def _tree(rng: random.Random, leaves: list[dict], ops: list[str]) -> dict:
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    op = ops.pop()
    return {op: [_tree(rng, leaves[:cut], ops), _tree(rng, leaves[cut:], ops)]}


def _rand_frac(rng: random.Random, dens: tuple[int, ...]) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randrange(den), den)


_HALVES = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(2)))


def aligned_leaves(rng: random.Random, d: int, count: int) -> list[dict]:
    """Leaves on one or two integer-separated translates with half-cell clips."""
    base = tuple(_rand_frac(rng, (3, 5, 6, 7, 9, 10, 12)) for _ in range(d))
    shifted = tuple(v + (1 if i == 0 else 0) for i, v in enumerate(base))
    out: list[dict] = []
    while len(out) < count:
        t = base if len(out) == 0 or rng.random() < 0.6 else shifted
        lo, hi = zip(*(tuple(t[i] + e for e in rng.choice(_HALVES)) for i in range(d)))
        leaf = gen_json(t, lo, hi)
        if leaf not in out:
            out.append(leaf)
    return out


def general_leaves(rng: random.Random, d: int, count: int) -> list[dict]:
    """Overlapping translates in [0, 1)^d with unit or quarter-grid clips."""
    out: list[dict] = []
    while len(out) < count:
        t = tuple(_rand_frac(rng, (2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(d))
        if rng.random() < 0.5:
            lo, hi = (Fraction(0),) * d, (Fraction(1),) * d
        else:
            pairs = [sorted(rng.sample(range(0, 9), 2)) for _ in range(d)]
            lo = tuple(Fraction(a, 4) for a, _ in pairs)
            hi = tuple(Fraction(b, 4) for _, b in pairs)
        leaf = gen_json(t, lo, hi)
        if leaf not in out:
            out.append(leaf)
    return out


def make_expr(rng: random.Random, d: int, count: int, ops: str, aligned: bool) -> dict:
    """Random tree over ``count`` distinct leaves.

    ``ops`` is "union", "diff" or "inter" (every node), or "mixed" (random
    nodes, at least one of them a Diff or Inter).
    """
    leaves = (aligned_leaves if aligned else general_leaves)(rng, d, count)
    if ops == "mixed":
        nodes = [rng.choice(("union", "diff", "inter")) for _ in range(count - 1)]
        nodes[rng.randrange(count - 1)] = rng.choice(("diff", "inter"))
    else:
        nodes = [ops] * (count - 1)
    return _tree(rng, leaves, nodes)


# ---------------------------------------------------------------------------
# algebra: box algebra, stage materialization and ring evaluation.
# ---------------------------------------------------------------------------


def _measure_stage(rng: random.Random, d: int, n: int, leaves: int, ops: str, aligned: bool) -> Request:
    expr = make_expr(rng, d, leaves, ops, aligned)
    return Request(
        "measure",
        ["measure", "--d", str(d), "--expr-file", "@expr", "--stage", str(n), "--verify"],
        {"@expr": expr},
        {"limit": closed_form_measure(expr, d), "leaves": leaves, "d": d, "stage": n},
    )


def _measure_tol(rng: random.Random, d: int, n: int, leaves: int, ops: str, aligned: bool) -> Request:
    expr = make_expr(rng, d, leaves, ops, aligned)
    # A width budget below the stage n-1 one: a tree with a Diff stops at stage n.
    tol = 2 * leaves * stage_defect(n, d) * Fraction(rng.randint(100, 150), 100)
    return Request(
        "measure",
        ["measure", "--d", str(d), "--expr-file", "@expr", "--tol", fmt(tol), "--verify"],
        {"@expr": expr},
        {"limit": closed_form_measure(expr, d), "leaves": leaves, "d": d, "tol": tol},
    )


def _split_check(rng: random.Random, d: int, n: int, leaves: int, ops: str, aligned: bool) -> Request:
    expr = make_expr(rng, d, leaves, ops, aligned)
    axis = rng.randrange(d)
    threshold = Fraction(rng.randint(1, 15), 16)
    argv = ["split-check", "--d", str(d), "--expr-file", "@expr", "--axis", str(axis),
            "--threshold", fmt(threshold), "--stage", str(n), "--verify"]
    if rng.random() < 0.5:
        argv.append("--above")
    return Request("split-check", argv, {"@expr": expr}, {"split_equal": True})


def _rn_enumerate(rng: random.Random, d: int, n: int, pool: int, ref: int) -> Request:
    leaves = general_leaves(rng, d, pool)
    return Request(
        "rn-enumerate",
        ["rn-enumerate", "--d", str(d), "--expr-file", "@pool", "--n", str(n),
         "--reference-stage", str(ref), "--verify"],
        {"@pool": leaves},
    )


def _cover_search(rng: random.Random, d: int, n: int, pool: int) -> Request:
    leaves = general_leaves(rng, d, pool)
    lo = tuple(Fraction(rng.randint(0, 3), 8) for _ in range(d))
    hi = tuple(v + Fraction(rng.randint(2, 4), 8) for v in lo)
    target = {"lo": [fmt(v) for v in lo], "hi": [fmt(v) for v in hi]}
    return Request(
        "cover-search",
        ["cover-search", "--d", str(d), "--target-file", "@target", "--expr-file", "@pool",
         "--stage", str(n), "--verify"],
        {"@target": target, "@pool": leaves},
    )


# Latencies at the defining commit: the body spreads over 20-150 ms; the
# last three classes (about 11% of the list) cost 200-300 ms each, so the
# tail percentile falls inside that group.
ALGEBRA = [
    lambda r: _measure_stage(r, 1, 6, 3, "union", True),
    lambda r: _measure_stage(r, 1, 6, 2, "inter", False),
    lambda r: _measure_stage(r, 1, 6, 2, "diff", True),
    lambda r: _measure_stage(r, 2, 3, 2, "diff", False),
    lambda r: _measure_stage(r, 3, 2, 3, "union", False),
    lambda r: _measure_stage(r, 3, 2, 2, "inter", False),
    lambda r: _measure_stage(r, 1, 8, 2, "union", False),
    lambda r: _measure_stage(r, 2, 3, 3, "union", False),
    lambda r: _measure_stage(r, 2, 3, 3, "mixed", True),
    lambda r: _measure_stage(r, 3, 2, 4, "mixed", True),
    lambda r: _measure_stage(r, 1, 7, 2, "inter", False),
    lambda r: _measure_tol(r, 1, 6, 3, "union", False),
    lambda r: _measure_tol(r, 2, 3, 3, "mixed", False),
    lambda r: _measure_tol(r, 1, 7, 4, "union", True),
    lambda r: _measure_tol(r, 1, 8, 2, "union", False),
    lambda r: _measure_tol(r, 1, 6, 2, "diff", True),
    lambda r: _split_check(r, 1, 6, 2, "diff", False),
    lambda r: _split_check(r, 1, 6, 3, "union", True),
    lambda r: _rn_enumerate(r, 1, 2, 2, 4),
    lambda r: _rn_enumerate(r, 2, 2, 2, 2),
    lambda r: _rn_enumerate(r, 1, 2, 3, 4),
    lambda r: _rn_enumerate(r, 1, 2, 2, 5),
    lambda r: _cover_search(r, 1, 4, 3),
    lambda r: _cover_search(r, 2, 3, 3),
    lambda r: _measure_stage(r, 1, 9, 3, "union", True),
    lambda r: _measure_tol(r, 1, 9, 3, "union", True),
    lambda r: _rn_enumerate(r, 1, 2, 3, 5),
]


# ---------------------------------------------------------------------------
# certify: descent, witness search, validators, bisection, JSON emission.
# ---------------------------------------------------------------------------


def _infinite_cube(rng: random.Random, pool: int) -> Request:
    d = rng.randint(1, 2)
    argv = ["infinite-cube", "--d", str(d), "--pool-size", str(pool),
            "--stage-cap", str(rng.randint(12, 24)), "--verify"]
    if rng.random() < 0.5:
        argv.insert(-1, "--quartered")
    return Request("infinite-cube", argv)


def _uncovered_box(rng: random.Random, d: int, pool: int) -> Request:
    leaves = general_leaves(rng, d, pool)
    lo = tuple(Fraction(rng.randint(0, 4), 8) for _ in range(d))
    hi = tuple(v + Fraction(rng.randint(2, 4), 8) for v in lo)
    target = {"lo": [fmt(v) for v in lo], "hi": [fmt(v) for v in hi]}
    return Request(
        "uncovered-box",
        ["uncovered-box", "--d", str(d), "--target-file", "@target", "--expr-file", "@pool",
         "--stage-cap", str(rng.randint(32, 40)), "--verify"],
        {"@target": target, "@pool": leaves},
    )


def _range_solve(rng: random.Random, bits: int) -> Request:
    d = rng.randint(1, 2)
    top = limit_measure_1d() ** d
    target = top * Fraction(rng.randint(1, 999), 1000)
    return Request(
        "range-solve",
        ["range-solve", "--d", str(d), "--target", fmt(target), "--tol", f"1/{1 << bits}", "--verify"],
    )


def _hausdorff_bound(rng: random.Random) -> Request:
    d = rng.randint(1, 3)
    return Request(
        "hausdorff-bound",
        ["hausdorff-bound", "--d", str(d), "--delta", f"1/{rng.randint(2, 4000)}",
         "--exponent", str(rng.randint(1, 3)), "--verify"],
    )


def _cantor_info(rng: random.Random) -> Request:
    d = rng.randint(1, 3)
    n = rng.randint(0, 24)
    return Request(
        "cantor-info",
        ["cantor-info", "--d", str(d), "--stage", str(n), "--verify"],
        expect={"cantor": (d, n)},
    )


# Over three quarters of the list are quick (5-10 ms), so the median sits
# inside that cluster; the body reaches 400 ms; the last three classes
# (about 9%) cost 0.6-1.1 s each, so the tail percentile falls inside them.
CERTIFY = [
    *[lambda r: _cantor_info(r)] * 5,
    *[lambda r: _hausdorff_bound(r)] * 5,
    *[lambda r: _uncovered_box(r, 1, r.randint(3, 6))] * 9,
    *[lambda r: _uncovered_box(r, 2, r.randint(2, 5))] * 8,
    lambda r: _infinite_cube(r, r.randint(4, 6)),
    lambda r: _infinite_cube(r, 7),
    lambda r: _infinite_cube(r, 8),
    lambda r: _range_solve(r, r.randint(16, 22)),
    lambda r: _range_solve(r, r.randint(24, 30)),
    lambda r: _infinite_cube(r, 9),
    lambda r: _infinite_cube(r, 9),
    lambda r: _range_solve(r, r.randint(36, 40)),
]


# ---------------------------------------------------------------------------
# pack: dyadic merging, placement, the tiling proof and layout replay.
# ---------------------------------------------------------------------------


_TARGET_SIDES = (Fraction(1, 2), Fraction(3, 8), Fraction(1, 4))


def _pack(rng: random.Random, d: int, count: int, equal: bool, targets: tuple = _TARGET_SIDES) -> Request:
    alpha = rng.choice((Fraction(1), Fraction(3, 4), Fraction(2, 3)))
    target_side = rng.choice(targets)
    if equal:
        # k^d equal cubes of side alpha/k: normalized volume exactly 1.
        k = count
        sides = [alpha / k] * (k**d)
    else:
        # Non-dyadic sides drawn until the normalized volume reaches 1.
        scale = Fraction(1, count)
        sides, total = [], Fraction(0)
        while total < 1:
            u = scale * Fraction(rng.randint(100, 199), 100)
            sides.append(alpha * u)
            total += u**d
    argv = ["pack", "--d", str(d), "--sides", ",".join(fmt(v) for v in sides),
            "--alpha", fmt(alpha), "--target-side", fmt(target_side), "--verify"]
    return Request("pack", argv, expect={"pack_side": alpha * target_side, "d": d})


def _corollary(rng: random.Random, d: int, delta_den: int) -> Request:
    argv = ["corollary-demo", "--d", str(d), "--delta", f"1/{delta_den}", "--verify"]
    if rng.random() < 0.5:
        argv[-1:-1] = ["--a", fmt(limit_measure_1d() ** d * Fraction(rng.randint(50, 100), 100))]
    return Request("corollary-demo", argv)


def _tile_check(rng: random.Random, dims: int) -> Request:
    q = [Fraction(rng.randint(2, 12), rng.randint(1, 5)) for _ in range(dims)]
    return Request("tile-check", ["tile-check", "--q", ",".join(fmt(v) for v in q), "--verify"])


# About 70% are small families (7-18 ms), so the median sits inside that
# cluster; the body reaches about 250 ms; the last three classes (about
# 11%) place 256 equal cubes each (300-400 ms), so the tail percentile
# falls inside them.
PACK = [
    *[lambda r: _pack(r, 1, r.randint(16, 64), r.random() < 0.5)] * 4,
    *[lambda r: _pack(r, 2, r.randint(4, 8), r.random() < 0.5)] * 4,
    *[lambda r: _pack(r, 2, r.randint(8, 14), False)] * 2,
    *[lambda r: _pack(r, 3, r.randint(2, 3), r.random() < 0.5)] * 3,
    *[lambda r: _pack(r, 3, r.randint(4, 5), False)] * 3,
    *[lambda r: _corollary(r, 1, r.randint(4, 64))] * 2,
    *[lambda r: _tile_check(r, 2)] * 2,
    lambda r: _pack(r, 1, r.randint(150, 500), False),
    lambda r: _pack(r, 2, r.randint(8, 12), True),
    lambda r: _pack(r, 3, r.randint(4, 5), True),
    lambda r: _corollary(r, 2, r.randint(8, 32)),
    lambda r: _tile_check(r, 3),
    # 257-512 cubes of side alpha/k round to 2^-9 and merge into a side-1/2 cube.
    *[lambda r: _pack(r, 1, r.randint(257, 512), True, (Fraction(1, 2), Fraction(3, 8)))] * 3,
]


# Request classes of one round, in order; each draws its contents from r.
CLASSES = {"algebra": ALGEBRA, "certify": CERTIFY, "pack": PACK}

# Seconds one round takes on a 2-core x86 virtual machine at the commit that
# defined the benchmark.  A list has round(seconds / ROUND_SECONDS) rounds,
# so it is fixed by (seed, seconds) and its CPU time and latencies compare
# across commits.
ROUND_SECONDS = {"algebra": 2.2, "certify": 3.6, "pack": 1.5}


def build(workload: str, seed: int, seconds: int) -> tuple[list[Request], list[Request]]:
    """One warm-up round and the measured list, all requests distinct."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    seen: set[str] = set()
    drawn: list[Request] = []
    for _ in range(1 + rounds):
        for draw in CLASSES[workload]:
            req = draw(rng)
            while req.key() in seen:
                req = draw(rng)
            seen.add(req.key())
            drawn.append(req)
    size = len(CLASSES[workload])
    return drawn[:size], drawn[size:]
