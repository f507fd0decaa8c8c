"""Slow oracles for the dyadic merge and its unfold, one merge step at a time.

``merge_dyadic`` records its merges one entry per level, and ``pack_cover``
unfolds them a level at a time.  Here the merges are steps, one per group of
2^d cubes: the rescan regroups every alive cube before each step, and the
unfold walks the selected cube's tree node by node, through a dict from
each result to the step that made it.  ``steps_of`` and ``record_of`` turn
one form into the other.  ``floor_log2`` is the oracle of
``packing._dyadic_exponents``: it finds each exponent by comparing powers
of two with the value, not by the bit-length rule.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

from fatcantor.packing import MergeRecord


class Step(NamedTuple):
    """One merge: 2^d cubes of ``level`` become cube ``result``;
    ``constituents[i]`` sits at the i-th corner of {0, 2**level}^d in
    lexicographic order, axis 0 slowest."""

    level: int
    constituents: tuple
    result: int


def floor_log2(value: Fraction) -> int:
    """Largest k with 2**k <= value, for a positive value.  The bit lengths
    only pick the first k tried; the two loops alone decide."""
    if value <= 0:
        raise ValueError(f"floor_log2 needs a positive value, got {value}")
    k = value.numerator.bit_length() - value.denominator.bit_length()
    while Fraction(2) ** k > value:
        k -= 1
    while Fraction(2) ** (k + 1) <= value:
        k += 1
    return k


def merge_dyadic_by_rescan(dim: int, exponents: list[int]):
    """Merge by regrouping every alive cube before each step."""
    alive: dict[int, int] = {i: k for i, k in enumerate(exponents)}
    next_id = len(alive)
    steps: list[Step] = []
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
        steps.append(Step(level, tuple(ids), next_id))
        next_id += 1
    return sorted(alive.items()), steps


def steps_of(record: MergeRecord) -> list[Step]:
    """The record's steps: group j of an entry ``(level, ids, first)`` made cube ``first + j``."""
    group = 1 << record.dim
    return [
        Step(level, tuple(ids[start : start + group]), first + start // group)
        for level, ids, first in record.levels
        for start in range(0, len(ids), group)
    ]


def record_of(dim: int, steps: list[Step]) -> MergeRecord:
    """One entry per run of steps at one level, numbered from the run's first result."""
    levels = []
    for level, run in itertools.groupby(steps, key=operator.attrgetter("level")):
        run = list(run)
        levels.append((level, tuple(c for step in run for c in step.constituents), run[0].result))
    return MergeRecord(dim, tuple(levels))


def unfold_by_steps(dim: int, steps: list[Step], selected: int) -> tuple[int, list]:
    """The placements of the selected cube's tree, node by node, sorted,
    and ``base``, the lowest level of the steps.  Positions are integer
    vectors in units of ``alpha * 2**base``, so a level-k step puts its
    constituents at the corners {0, 2**(k - base)}^d of its own position.
    Nothing is checked: a cube no step made is placed."""
    by_result = {step.result: step for step in steps}
    base = min((step.level for step in steps), default=0)
    placements = []
    stack = [(selected, (0,) * dim)]
    while stack:
        cube_id, position = stack.pop()
        step = by_result.get(cube_id)
        if step is None:
            placements.append((cube_id, position))
            continue
        corners = itertools.product((0, 1 << (step.level - base)), repeat=dim)
        for cid, corner in zip(step.constituents, corners):
            stack.append((cid, tuple(map(operator.add, position, corner))))
    return base, sorted(placements)
