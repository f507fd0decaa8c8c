"""Correctness checks on one CLI document.

A request fails when it exits non-zero, when its document is not JSON or
holds a float, when ``result.verification.ok`` is not true, or when a
known value from ``workloads`` (closed forms computed by the benchmark,
not by the program) is violated.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import Request, limit_measure_1d, stage_defect, stage_measure_1d


class FloatInDocument(ValueError):
    pass


def _no_float(text: str) -> float:
    raise FloatInDocument(f"float {text} in document")


def parse_document(stdout: str) -> dict:
    return json.loads(stdout, parse_float=_no_float, parse_constant=_no_float)


def _bounds_failure(req: Request, bounds: dict) -> "str | None":
    lower, upper = Fraction(bounds["lower"]), Fraction(bounds["upper"])
    exp = req.expect
    limit = exp.get("limit")
    if limit is not None and not lower <= limit <= upper:
        return f"bracket [{lower}, {upper}] misses the closed-form measure {limit}"
    d, leaves = exp["d"], exp["leaves"]
    stage = exp.get("stage", bounds["stage"])
    if upper - lower > 2 * leaves * stage_defect(stage, d):
        return f"bracket width {upper - lower} above 2*L*defect at stage {stage}"
    if "tol" in exp and upper - lower > exp["tol"]:
        return f"bracket width {upper - lower} above the tolerance {exp['tol']}"
    return None


def _cantor_failure(d: int, n: int, result: dict) -> "str | None":
    expected = {
        "stage_measure": stage_measure_1d(n) ** d,
        "limit_measure": limit_measure_1d() ** d,
        "stage_defect": stage_defect(n, d),
    }
    for key, value in expected.items():
        if Fraction(result[key]) != value:
            return f"{key} {result[key]} != {value}"
    if result["interval_count"] != 1 << n or result["box_count"] != 1 << (n * d):
        return "interval or box count differs from 2^n, 2^(n*d)"
    return None


def failure(req: Request, code: int, stdout: str) -> "str | None":
    """Why the request failed, or ``None`` when it passed every check."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = parse_document(stdout)
    except ValueError as exc:
        return f"bad document: {exc}"
    result = doc["result"]
    if result.get("verification", {}).get("ok") is not True:
        return "verification.ok is not true"
    exp = req.expect
    if "leaves" in exp:
        return _bounds_failure(req, result["bounds"])
    if exp.get("split_equal"):
        report = result["report"]
        whole, inside, outside = (Fraction(report[k]) for k in ("whole", "inside", "outside"))
        if report["equal"] is not True or whole != inside + outside:
            return "split-check is not additive"
    if "pack_side" in exp:
        cube = result["covered_cube"]
        lo = [Fraction(v) for v in cube["lo"]]
        hi = [Fraction(v) for v in cube["hi"]]
        if lo != [0] * exp["d"] or hi != [exp["pack_side"]] * exp["d"]:
            return f"covered cube {cube} is not [0, alpha*target_side)^d"
    if "cantor" in exp:
        return _cantor_failure(*exp["cantor"], result)
    return None
