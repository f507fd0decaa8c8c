"""Slow reference witness search, witness check, and infinite-cube table.

These are the routines the witness fold in ``cover`` and the one full-pool
witness of ``infinite-cube`` replaced.  ``find_uncovered_box`` shrinks the
target past every hull leaf of every element in one loop.
``infinite_cube_report`` is the table ``infinite-cube`` once wrote: that
search run from the unit cube again for every nonempty subset of the pool,
each row checked on its own, so a pool of p one-leaf elements costs
p * 2^(p-1) gap searches where the full-pool witness costs p.
``witness_valid`` is the check of one witness on its own, written as its
own loop over the hull leaves and their recorded stages.  It checks each
pair with ``gap_certificate_valid``: the box, closed, misses the
closed stage translate when on some axis the depth-first walk of
``descent_oracle.descend_overlapping`` finds no stage interval that meets
it.  Nothing here calls the library's search or its certificate check
(``cantor._misses_stage_translate`` and its descent), so the differential
tests compare the fast paths and the validator against code that shares
none of them; kept only as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import descent_oracle
from fatcantor import (
    Box,
    CantorSchedule,
    GapCertificate,
    NeedsDeeperStage,
    UncoveredWitness,
    find_gap,
    grid_translate_pool,
    middle_half,
)
from fatcantor.cover import hull_leaves
from fatcantor.errors import DimensionMismatchError, PreconditionError, UnboundedBoxError
from fatcantor.rationals import as_fraction


def gap_certificate_valid(s: CantorSchedule, t: Sequence[object], cert: GapCertificate) -> bool:
    """Is the certificate's box a bounded, nonempty box of dimension ``s.d``
    whose closure misses the closed ``A_stage + t``: on some axis, does no
    stage interval of the translate meet the closed side?"""
    box = cert.box
    if len(t) != s.d or box.dim != s.d or not box.is_bounded or box.is_empty:
        return False
    return any(
        not descent_oracle.descend_overlapping(s, cert.stage, lo - as_fraction(x), hi - as_fraction(x))
        for x, lo, hi in zip(t, box.lo, box.hi)
    )


def find_uncovered_box(
    target: Box,
    elements: Sequence[object],
    s: CantorSchedule,
    stage_cap: int,
) -> UncoveredWitness | NeedsDeeperStage:
    """Sequentially shrink an open box inside ``target`` past every element."""
    if target.dim != s.d:
        raise DimensionMismatchError(f"target dimension {target.dim} vs schedule {s.d}")
    if not target.is_bounded:
        raise UnboundedBoxError("witness target must be bounded")
    if target.is_empty:
        raise PreconditionError("witness target needs positive sides")

    box = Box(target.lo, target.hi)
    stages: list[int] = []
    processed = False
    for ei, element in enumerate(elements):
        for li, leaf in enumerate(hull_leaves(element)):
            outcome = find_gap(s, leaf.translation, box, stage_cap)
            if isinstance(outcome, NeedsDeeperStage):
                return NeedsDeeperStage(
                    deepest_stage=outcome.deepest_stage, element_index=ei, leaf_index=li
                )
            stages.append(outcome.stage)
            box = outcome.box
            processed = True
    if not processed:
        pairs = [middle_half(lo, hi) for lo, hi in zip(box.lo, box.hi)]
        box = Box(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
    return UncoveredWitness(box=box, certificates=tuple(stages))


def witness_valid(
    s: CantorSchedule, target: Box, elements: Sequence[object], witness: UncoveredWitness
) -> bool:
    """Is the witness a bounded, nonempty box inside the target with one
    recorded stage per hull leaf of the elements, in order, each leaf
    missed by the box at its stage?"""
    box = witness.box
    if box.dim != s.d or not box.is_bounded or box.is_empty:
        return False
    if not target.contains_box(box):
        return False
    translations = []
    for element in elements:
        for leaf in hull_leaves(element):
            translations.append(leaf.translation)
    stages = list(witness.certificates)
    if len(stages) != len(translations):
        return False
    for t, stage in zip(translations, stages):
        if not gap_certificate_valid(s, t, GapCertificate(stage, box)):
            return False
    return True


@dataclass(frozen=True)
class SubsetWitnessRow:
    """One row of the table: a subfamily and its outcome."""

    subset: tuple[int, ...]
    witness: UncoveredWitness | None
    inconclusive_stage: int | None
    verified: bool


@dataclass(frozen=True)
class InfiniteCubeReport:
    """A witness, or the stage cap reached, for every nonempty subfamily."""

    pool: tuple[object, ...]
    stage_cap: int
    rows: tuple[SubsetWitnessRow, ...]
    all_witnessed: bool


def infinite_cube_report(
    s: CantorSchedule,
    pool_size: int,
    stage_cap: int,
    *,
    pool: Sequence[object] | None = None,
) -> InfiniteCubeReport:
    """Run the witness search for every nonempty subfamily of a grid pool."""
    if pool is None:
        pool = grid_translate_pool(s, pool_size)
    target = Box.unit_cube(s.d)
    rows: list[SubsetWitnessRow] = []
    masks = range(1, 1 << len(pool)) if pool else [0]
    for mask in masks:
        subset = tuple(i for i in range(len(pool)) if mask >> i & 1)
        chosen = [pool[i] for i in subset]
        outcome = find_uncovered_box(target, chosen, s, stage_cap)
        if isinstance(outcome, NeedsDeeperStage):
            rows.append(
                SubsetWitnessRow(
                    subset=subset,
                    witness=None,
                    inconclusive_stage=outcome.deepest_stage,
                    verified=False,
                )
            )
        else:
            rows.append(
                SubsetWitnessRow(
                    subset=subset,
                    witness=outcome,
                    inconclusive_stage=None,
                    verified=witness_valid(s, target, chosen, outcome),
                )
            )
    return InfiniteCubeReport(
        pool=tuple(pool),
        stage_cap=stage_cap,
        rows=tuple(rows),
        all_witnessed=all(r.verified for r in rows),
    )
