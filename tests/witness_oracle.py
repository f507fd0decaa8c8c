"""Slow reference witness search, witness check, infinite-cube table and table check.

These are the routines the witness fold in ``cover`` and the shared table
walk ``cover.table_verdicts`` replaced.  ``find_uncovered_box`` shrinks the
target past every hull leaf of every element in one loop;
``infinite_cube_report`` runs that search from the unit cube again for every
nonempty subset of the pool, so a pool of p one-leaf elements costs
p * 2^(p-1) gap searches instead of 2^p - 1.  ``witness_valid`` is the
check of one witness on its own, written as its own loop over the
certificates and hull leaves (in ``cover`` that check is a call of
``extension_valid`` from the unshrunk target).  It checks each certificate
with ``gap_certificate_valid``: the box, closed, misses the closed stage
translate when on some axis the depth-first walk of
``descent_oracle.descend_overlapping`` finds no stage interval that meets
it.  Both the table and
``check_infinite_cube``, the ``--verify`` check of a table's JSON core,
decode and check every row on its own with it: p * 2^(p-1) certificate
decodes and gap checks, where the shared walk makes 2^p - 1 gap checks
and the replay decodes each distinct certificate document once;
``check_infinite_cube`` also checks the table's shape and flags on its own
terms.  Nothing here calls ``_shrink_past``, ``extension_valid``,
``table_verdicts`` or the library's certificate check
(``cantor._misses_stage_translate`` and its descent), so the differential
tests compare the fast paths and the validator against code that shares
none of them; kept only as an oracle.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import descent_oracle
from fatcantor import (
    Box,
    CantorSchedule,
    GapCertificate,
    InfiniteCubeReport,
    LeafCertificate,
    NeedsDeeperStage,
    SubsetWitnessRow,
    UncoveredWitness,
    find_gap,
    grid_translate_pool,
    middle_half,
)
from fatcantor.cover import check_pool_size, hull_leaves
from fatcantor.errors import DimensionMismatchError, PreconditionError, UnboundedBoxError
from fatcantor.rationals import as_fraction
from fatcantor.serialize import witness_from_json


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
    certificates: list[LeafCertificate] = []
    deepest = 0
    processed = False
    for ei, element in enumerate(elements):
        for li, leaf in enumerate(hull_leaves(element)):
            outcome = find_gap(s, leaf.translation, box, stage_cap)
            if isinstance(outcome, NeedsDeeperStage):
                return NeedsDeeperStage(
                    deepest_stage=outcome.deepest_stage, element_index=ei, leaf_index=li
                )
            certificates.append(
                LeafCertificate(
                    element_index=ei,
                    leaf_index=li,
                    translation=leaf.translation,
                    certificate=outcome,
                )
            )
            box = outcome.box
            deepest = max(deepest, outcome.stage)
            processed = True
    if not processed:
        pairs = [middle_half(lo, hi) for lo, hi in zip(box.lo, box.hi)]
        box = Box(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
    return UncoveredWitness(box=box, stage=deepest, certificates=tuple(certificates))


def witness_valid(
    s: CantorSchedule, target: Box, elements: Sequence[object], witness: UncoveredWitness
) -> bool:
    """Is the witness a bounded, nonempty box inside the target whose
    certificates list exactly the hull leaves of the elements, each missed
    by the box at its recorded stage?"""
    box = witness.box
    if box.dim != s.d or not box.is_bounded or box.is_empty:
        return False
    if not target.contains_box(box):
        return False
    expected = [
        (ei, li, leaf.translation)
        for ei, element in enumerate(elements)
        for li, leaf in enumerate(hull_leaves(element))
    ]
    recorded = [(c.element_index, c.leaf_index, c.translation) for c in witness.certificates]
    if recorded != expected:
        return False
    return all(
        gap_certificate_valid(s, c.translation, GapCertificate(c.certificate.stage, box))
        for c in witness.certificates
    )


def infinite_cube_report(
    s: CantorSchedule,
    pool_size: int,
    stage_cap: int,
    *,
    pool: Sequence[object] | None = None,
) -> InfiniteCubeReport:
    """Run the witness search for every nonempty subfamily of a grid pool."""
    check_pool_size(pool_size if pool is None else len(pool), s.d)
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


def witnessed_rows_valid(s: CantorSchedule, i: dict, rows: list) -> bool:
    """Every witnessed row of a table's JSON decoded whole and checked on its own."""
    target = Box.unit_cube(s.d)
    return all(
        witness_valid(
            s, target, [i["pool"][k] for k in row["subset"]], witness_from_json(row["witness"])
        )
        for row in rows
        if row["witness"] is not None
    )


def check_infinite_cube(
    s: CantorSchedule, i: dict, core: dict, replay: Callable[[], bool] | None = None
) -> bool:
    """The ``--verify`` check of an infinite-cube core.

    The rows must list the nonempty subsets of the pool as lists of ints,
    ordered by their bit masks; each witnessed row must pass on its own; each
    ``verified`` flag must be its row's verdict and ``all_witnessed`` their
    conjunction; and a table with a row without a witness is replayed.
    """
    report = core["report"]
    rows = report["rows"]
    size = len(i["pool"])
    subsets = sorted(
        (list(c) for r in range(1, size + 1) for c in itertools.combinations(range(size), r)),
        key=lambda c: sum(2**k for k in c),
    )
    shape = [row["subset"] for row in rows]
    if shape != (subsets or [[]]) or any(type(k) is not int for sub in shape for k in sub):
        return False
    verdicts = [
        row["witness"] is not None
        and witness_valid(
            s,
            Box.unit_cube(s.d),
            [i["pool"][k] for k in row["subset"]],
            witness_from_json(row["witness"]),
        )
        for row in rows
    ]
    return (
        all(row["verified"] is verdict for row, verdict in zip(rows, verdicts))
        and report["all_witnessed"] is all(verdicts)
        and all(verdict for row, verdict in zip(rows, verdicts) if row["witness"] is not None)
        and (all(verdicts) or replay())
    )
