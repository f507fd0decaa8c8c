"""Slow reference enumeration of the ring tower.

This is the ``generate_rn`` the cached-set fold in ``ring`` replaced.  It
keys every candidate by ``approx_set`` of the whole candidate tree, so each
key rebuilds every leaf of a tree whose size doubles per layer.  Nothing
here reuses a parent's set, so the differential tests compare the fold
against code that shares none of it; kept only as an oracle.
"""

from __future__ import annotations

from typing import Sequence

from fatcantor import BoxUnion, CantorSchedule, Diff, Union, approx_set
from fatcantor.errors import BudgetError, PreconditionError
from fatcantor.ring import DEFAULT_RN_CAP, MAX_RN_LAYER, REFERENCE_STAGE, RingExpr


def generate_rn(
    pool: Sequence["RingExpr"],
    n: int,
    s: CantorSchedule,
    *,
    reference_stage: int = REFERENCE_STAGE,
    max_size: int = DEFAULT_RN_CAP,
) -> list["RingExpr"]:
    """n-th layer of the ring tower: R_1 = pool, R_{k+1} = {A ∪ B, A \\ B}.

    Elements are deduplicated by their canonical stage evaluation at
    ``reference_stage`` (first occurrence wins, so the order is the
    deterministic enumeration order).  Two semantically distinct sets that
    agree at the reference stage would merge; callers who care can raise
    the reference stage.
    """
    if not 1 <= n <= MAX_RN_LAYER:
        raise PreconditionError(f"ring layers run from 1 to {MAX_RN_LAYER}, got {n}")
    if not pool:
        raise PreconditionError("empty generator pool")

    def key(expr: "RingExpr") -> BoxUnion:
        return approx_set(expr, s, reference_stage)

    current: list["RingExpr"] = []
    seen: dict[BoxUnion, int] = {}
    for e in pool:
        k = key(e)
        if k not in seen:
            seen[k] = len(current)
            current.append(e)
    for _ in range(n - 1):
        nxt: list["RingExpr"] = []
        keys: dict[BoxUnion, int] = {}
        for a in current:
            for b in current:
                for candidate in (Union(a, b), Diff(a, b)):
                    k = key(candidate)
                    if k not in keys:
                        keys[k] = len(nxt)
                        nxt.append(candidate)
                        if len(nxt) > max_size:
                            raise BudgetError(
                                f"ring layer exceeded {max_size} elements", partial=current
                            )
        current = nxt
        seen = keys
    return current
