"""Scaling sweep: how single layers grow with problem size (not gated).

Run from the repository root:

    python3 bench/sweep.py

Each sweep calls one public function directly at a few sizes, keeps the
fastest of three timings per size, and prints one JSON line with the sizes,
the seconds and the least-squares slope of log(seconds) against log(size).
A slope near 1 is linear growth, near 2 quadratic.  The whole sweep takes
well under a minute on a 2-core x86 virtual machine; it is separate from the
workloads of ``run.py``.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from pathlib import Path

from run import load_cli

REPEATS = 3


def best_of(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def report(name: str, size_name: str, sizes: list, seconds: list[float], boxes: "list[float] | None" = None) -> None:
    """Print one sweep; the slope is against ``boxes`` when given, else the sizes."""
    print(json.dumps({
        "sweep": name,
        size_name: sizes,
        "seconds": [round(t, 6) for t in seconds],
        "loglog_slope": round(slope(boxes or [float(v) for v in sizes], seconds), 3),
        "slope_against": "boxes" if boxes else size_name,
    }))


def main() -> None:
    load_cli(Path.cwd())
    from fatcantor import Box, CantorSchedule, CubeFamily, Gen, find_gap, generate_rn, pack_cover, solve_level

    s1 = CantorSchedule(1)
    shift = (Fraction(1, 3),)

    stages = [5, 6, 7, 8]
    pairs = [(s1.stage_approx(n), s1.stage_approx(n).translate(shift)) for n in stages]
    counts = [len(a.boxes) for a, _ in pairs]
    report("BoxUnion.subtract", "boxes", counts, [best_of(lambda a=a, b=b: a.subtract(b)) for a, b in pairs])
    report("BoxUnion.intersect", "boxes", counts, [best_of(lambda a=a, b=b: a.intersect(b)) for a, b in pairs])

    for d, ns in ((1, [9, 10, 11, 12]), (2, [3, 4, 5, 6]), (3, [2, 3, 4])):
        s = CantorSchedule(d)
        report(f"stage_approx d={d}", "stage", ns,
               [best_of(lambda n=n: s.stage_approx(n)) for n in ns], [2.0 ** (n * d) for n in ns])

    # A query box far thinner than any stage interval: no gap before the cap.
    thin = Box((Fraction(0),), (Fraction(1, 1 << 80),))
    caps = [8, 16, 32, 64]
    report("find_gap", "stage_cap", caps, [best_of(lambda c=c: find_gap(s1, (0,), thin, c)) for c in caps])

    sizes = [64, 128, 256, 512]
    report("pack_cover", "cubes", sizes,
           [best_of(lambda k=k: pack_cover(CubeFamily(1, (Fraction(1, k),) * k))) for k in sizes])

    bits = [10, 20, 30, 40]
    report("solve_level", "tolerance_bits", bits,
           [best_of(lambda b=b: solve_level(s1, Fraction(7, 40), tol=Fraction(1, 1 << b))) for b in bits])

    pool = [Gen((Fraction(0),), Box.unit_cube(1)), Gen((Fraction(1, 3),), Box.unit_cube(1))]
    layers = [1, 2, 3]
    report("generate_rn", "layer", layers,
           [best_of(lambda n=n: generate_rn(pool, n, s1, reference_stage=3)) for n in layers])


if __name__ == "__main__":
    main()
