"""Slow reference walks of the fat Cantor construction tree.

``brute_stage_intervals`` replays the construction from its definition,
in ``Fraction``s: start from [0, 1], and at stage k remove from the middle
of each surviving interval an open interval of length ``c * rho**k``.  It
reads only ``c`` and ``rho``, so the stage sets of ``ring_oracle`` and of
the leaf oracle in ``test_box_kernel`` share nothing with the schedule's
lower-ends builder that the lattice reads.

The other routines are the routines that the integer walks in ``cantor`` (the search's
``_Walk`` and the validator's descent) replaced.  ``descend_overlapping``
is a depth-first stack over ``(lo, hi, depth)`` nodes, sorted at the end;
it rebuilds every child length from the closed form
``stage_interval_length``, and ``min_stage_for_delta`` scans the same
closed form stage by stage.  ``first_free_subinterval`` and ``find_gap``
are the library's routines on top of that walk.  Nothing here calls
``_Walk`` or ``_Ladder``, the schedule's one table of stage lengths that
every library routine reads, so the differential tests compare the kernel
against code that shares none of it.  Each node costs a handful of
``Fraction`` powers; kept only as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from fatcantor import Box, CantorSchedule, GapCertificate, NeedsDeeperStage
from fatcantor import PreconditionError, middle_half
from fatcantor.cantor import check_stage
from fatcantor.rationals import as_fraction


def brute_stage_intervals(c: Fraction, rho: Fraction, n: int) -> list[tuple[Fraction, Fraction]]:
    """Stage-n surviving intervals, computed directly from the definition."""
    intervals = [(Fraction(0), Fraction(1))]
    for k in range(1, n + 1):
        removed = c * rho**k
        out = []
        for lo, hi in intervals:
            mid = (lo + hi) / 2
            out.append((lo, mid - removed / 2))
            out.append((mid + removed / 2, hi))
        intervals = out
    return intervals


def descend_overlapping(
    s: CantorSchedule, n: int, qlo: Fraction, qhi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Stage-n surviving intervals whose closure meets [qlo, qhi]."""
    found: list[tuple[Fraction, Fraction]] = []
    stack: list[tuple[Fraction, Fraction, int]] = [(Fraction(0), Fraction(1), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi < qlo or lo > qhi:
            continue
        if depth == n:
            found.append((lo, hi))
            continue
        child = s.stage_interval_length(depth + 1)
        # Right child pushed first so the left-to-right order survives the stack.
        stack.append((hi - child, hi, depth + 1))
        stack.append((lo, lo + child, depth + 1))
    found.sort()
    return found


def first_free_subinterval(
    s: CantorSchedule, n: int, t: Fraction, jlo: Fraction, jhi: Fraction
) -> tuple[Fraction, Fraction] | None:
    """Leftmost positive-length open piece of (jlo, jhi) missing A_n + t."""
    if jlo >= jhi:
        raise PreconditionError(f"empty query interval ({jlo}, {jhi})")
    shifted = [(lo + t, hi + t) for lo, hi in descend_overlapping(s, n, jlo - t, jhi - t)]
    cursor = jlo
    for lo, hi in shifted:
        if lo > cursor:
            return cursor, min(lo, jhi)
        if hi > cursor:
            cursor = hi
        if cursor >= jhi:
            return None
    if cursor < jhi:
        return cursor, jhi
    return None


def find_gap(
    s: CantorSchedule, t: Sequence[object], j: Box, stage_cap: int
) -> GapCertificate | NeedsDeeperStage:
    """Open sub-box of ``j`` missing the translated stage approximation."""
    shift = [as_fraction(v) for v in t]
    for m in range(stage_cap + 1):
        for axis in range(s.d):
            free = first_free_subinterval(s, m, shift[axis], j.lo[axis], j.hi[axis])  # type: ignore[arg-type]
            if free is None:
                continue
            wlo, whi = middle_half(*free)
            lo = list(j.lo)
            hi = list(j.hi)
            lo[axis] = wlo
            hi[axis] = whi
            return GapCertificate(stage=m, box=Box(tuple(lo), tuple(hi)))
    return NeedsDeeperStage(deepest_stage=stage_cap)


def min_stage_for_delta(s: CantorSchedule, delta: Fraction) -> int:
    """Smallest stage whose boxes have diameter strictly below ``delta``."""
    delta = as_fraction(delta)
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    n = 0
    while True:
        side = s.stage_interval_length(n)
        if side * side * s.d < delta * delta:
            return n
        n += 1
        check_stage(n)
