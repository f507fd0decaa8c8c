"""Command-line front end: exact JSON in, exact JSON out.

Every subcommand prints exactly one JSON document to stdout (or ``--out``)
with the envelope ``{"command", "config", "inputs", "result"}``.  All
numeric payloads are rational strings ("p/q") or quadratic-field objects —
no floats.  Output is deterministic: identical flags produce byte-identical
documents.

Exit codes: 0 success, 2 precondition violation (including malformed
flags/JSON), 3 budget or stage-cap exhaustion (a partial result is still
printed), 1 internal error.  Human-readable diagnostics go to stderr only.

``--verify`` replays the run from the serialized document alone: inputs are
re-decoded and the result recomputed and compared, and any certificate in
the output (witnesses, layouts, covers) is re-checked by its validator.
The verification verdict is appended under ``result.verification``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .cantor import CantorSchedule, NeedsDeeperStage, check_stage
from .cover import (
    check_pool_size,
    find_uncovered_box,
    grid_translate_pool,
    infinite_cube_report,
    outer_upper,
    quartered_translate_pool,
    verify_cover,
)
from .errors import BudgetError, PreconditionError
from .geometry import Box, tile_check
from .hausdorff import (
    PowerGauge,
    corollary_pipeline,
    nu_delta_upper,
    range_function,
    solve_level,
)
from .packing import CubeFamily, layout_covers, pack_cover
from .rationals import parse_fraction
from .ring import (
    DEFAULT_STAGE_CAP,
    REFERENCE_STAGE,
    base_expr,
    generate_rn,
    measure_bounds,
    premeasure,
    split_identity_check,
)
from .serialize import (
    box_from_json,
    cube_family_from_json,
    expr_from_json,
    exprs_from_json,
    frac_from_json,
    layout_from_json,
    to_json,
    witness_from_json,
)

# A compute function maps (schedule, inputs-JSON) to (result-core-JSON, exit
# code); --verify reruns it on the re-decoded inputs and compares.
Compute = Callable[[CantorSchedule, dict], "tuple[dict, int]"]


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not valid JSON: {exc}") from exc


def _target_from_json(doc: Any) -> "Box | Any":
    """A cover target is either a box {"lo","hi"} or a ring expression."""
    if isinstance(doc, dict) and "lo" in doc and "hi" in doc:
        return box_from_json(doc)
    return expr_from_json(doc)


def _frac_list_arg(text: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise PreconditionError("expected a comma-separated list of rationals")
    return [parse_fraction(piece) for piece in items]


# ---------------------------------------------------------------------------
# Per-command compute functions (pure: JSON inputs -> JSON result core).
# ---------------------------------------------------------------------------


def _compute_cantor_info(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    n = int(inputs["stage"])
    check_stage(n)
    core = {
        "stage": n,
        "stage_measure_1d": s.stage_measure_1d(n),
        "stage_measure": s.stage_measure(n),
        "limit_measure_1d": s.limit_measure_1d(),
        "limit_measure": s.limit_measure(),
        "stage_defect": s.stage_defect(n),
        "interval_length": s.stage_interval_length(n),
        "interval_count": 1 << n,
        "box_count": 1 << (n * s.d),
        "removal_length": s.removal_length(n) if n >= 1 else None,
    }
    return to_json(core), 0


def _compute_measure(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    expr = expr_from_json(inputs["expr"])
    if inputs["tol"] is not None:
        bounds = premeasure(
            expr,
            s,
            frac_from_json(inputs["tol"]),
            stage_cap=int(inputs["stage_cap"]),
        )
    else:
        bounds = measure_bounds(expr, s, int(inputs["stage"]))
    return {"bounds": to_json(bounds)}, 0


def _compute_split_check(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    expr = expr_from_json(inputs["expr"])
    half = Box.half_space(
        s.d,
        int(inputs["axis"]),
        frac_from_json(inputs["threshold"]),
        above=bool(inputs["above"]),
    )
    report = split_identity_check(expr, half, s, int(inputs["stage"]))
    return to_json({"half_space": half, "report": report}), 0


def _compute_rn_enumerate(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    pool = [expr_from_json(e) for e in inputs["pool"]]
    elements = generate_rn(
        pool,
        int(inputs["n"]),
        s,
        reference_stage=int(inputs["reference_stage"]),
        max_size=int(inputs["max_size"]),
    )
    return {"count": len(elements), "elements": to_json(elements)}, 0


def _compute_cover_search(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    target = _target_from_json(inputs["target"])
    pool = [expr_from_json(e) for e in inputs["pool"]]
    attempt = outer_upper(
        target,
        pool,
        s,
        stage=int(inputs["stage"]),
        budget=int(inputs["budget"]),
        clip=bool(inputs["clip"]),
    )
    return {"attempt": to_json(attempt)}, 0


def _verify_cover_search(s: CantorSchedule, inputs: dict, core: dict) -> bool:
    attempt = core["attempt"]
    if attempt["infinite"]:
        return _compute_cover_search(s, inputs)[0] == core
    target = _target_from_json(inputs["target"])
    pool = [expr_from_json(e) for e in inputs["pool"]]
    subset = [pool[i] for i in attempt["subset"]]
    stage = int(attempt["stage"])
    from .cover import _target_union  # the same target realization the search used

    return verify_cover(_target_union(target, s, stage), subset, s, stage)


def _compute_uncovered_box(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    target = box_from_json(inputs["target"])
    pool = [expr_from_json(e) for e in inputs["pool"]]
    outcome = find_uncovered_box(target, pool, s, int(inputs["stage_cap"]))
    if isinstance(outcome, NeedsDeeperStage):
        return {"found": False, "needs_deeper_stage": to_json(outcome)}, 3
    return {"found": True, "witness": to_json(outcome)}, 0


def _verify_uncovered_box(s: CantorSchedule, inputs: dict, core: dict) -> bool:
    if not core["found"]:
        return _compute_uncovered_box(s, inputs)[0] == core
    from .cover import uncovered_witness_valid

    return uncovered_witness_valid(
        s,
        box_from_json(inputs["target"]),
        [expr_from_json(e) for e in inputs["pool"]],
        witness_from_json(core["witness"]),
    )


def _compute_infinite_cube(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    pool = [expr_from_json(e) for e in inputs["pool"]]
    report = infinite_cube_report(s, len(pool), int(inputs["stage_cap"]), pool=pool)
    return {"report": to_json(report)}, 0 if report.all_witnessed else 3


def _verify_infinite_cube(s: CantorSchedule, inputs: dict, core: dict) -> bool:
    from .cover import uncovered_witness_valid

    pool = [expr_from_json(e) for e in inputs["pool"]]
    target = Box.unit_cube(s.d)
    for row in core["report"]["rows"]:
        if row["witness"] is None:
            continue
        subset = [pool[i] for i in row["subset"]]
        if not uncovered_witness_valid(s, target, subset, witness_from_json(row["witness"])):
            return False
    return True


def _compute_pack(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    family = cube_family_from_json(inputs["family"])
    layout = pack_cover(
        family,
        target_side=frac_from_json(inputs["target_side"]),
        alpha=frac_from_json(inputs["alpha"]),
    )
    core = {"layout": layout, "placements": len(layout.placements), "covered_cube": layout.target}
    return to_json(core), 0


def _verify_pack(s: CantorSchedule, inputs: dict, core: dict) -> bool:
    family = cube_family_from_json(inputs["family"])
    layout = layout_from_json(core["layout"])
    side = frac_from_json(inputs["alpha"]) * frac_from_json(inputs["target_side"])
    expected_target = Box.cube((Fraction(0),) * family.dim, side)
    return layout.target == expected_target and layout_covers(family, layout)


def _compute_hausdorff_bound(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    stage = None if inputs["stage"] is None else int(inputs["stage"])
    cover = nu_delta_upper(
        s,
        PowerGauge(int(inputs["exponent"])),
        frac_from_json(inputs["delta"]),
        stage=stage,
    )
    return {"cover": to_json(cover)}, 0


def _compute_corollary_demo(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    a = None if inputs["a"] is None else frac_from_json(inputs["a"])
    report = corollary_pipeline(
        s,
        frac_from_json(inputs["delta"]),
        a=a,
        bits=int(inputs["bits"]),
    )
    code = 0 if report.checks.all_ok() and report.verified else 1
    return {"report": to_json(report)}, code


def _verify_corollary_demo(s: CantorSchedule, inputs: dict, core: dict) -> bool:
    report = core["report"]
    family = cube_family_from_json(report["family"])
    layout = layout_from_json(report["layout"])
    checks = report["checks"]
    flags = (
        checks["sum_exceeds_half_a"],
        checks["diam_preserved"],
        checks["alpha_consistent"],
        checks["covers_target"],
        checks["gauge_dominates_covered_volume"],
    )
    return all(flags) and layout_covers(family, layout)


def _compute_range_solve(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    if inputs["x"] is not None:
        stage = int(inputs["stage"])
        check_stage(stage)
        bounds = range_function(s, frac_from_json(inputs["x"]), stage)
        return {"bounds": to_json(bounds)}, 0
    solution = solve_level(
        s,
        frac_from_json(inputs["target"]),
        tol=frac_from_json(inputs["tol"]),
        max_iter=int(inputs["max_iter"]),
    )
    return {"solution": to_json(solution)}, 0


def _verify_range_solve(s: CantorSchedule, inputs: dict, core: dict) -> bool:
    if _compute_range_solve(s, inputs)[0] != core:
        return False
    if "solution" not in core:
        return True
    sol = core["solution"]
    bracket = sol["bracket"]
    mid = (frac_from_json(bracket["lower"]) + frac_from_json(bracket["upper"])) / 2
    target = frac_from_json(sol["target"])
    tol = frac_from_json(inputs["tol"])
    return abs(mid - target) <= tol


def _compute_tile_check(s: CantorSchedule, inputs: dict) -> tuple[dict, int]:
    base = box_from_json(inputs["base"])
    q = [frac_from_json(v) for v in inputs["q"]]
    report = tile_check(base, q, max_tiles=int(inputs["max_tiles"]))
    return {"report": to_json(report)}, 0


# ---------------------------------------------------------------------------
# Flag parsing: one subparser per command, strict about unknown flags.
# ---------------------------------------------------------------------------


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=1, help="ambient dimension")
    p.add_argument("--c", type=parse_fraction, default=Fraction(1), help="removal scale c")
    p.add_argument("--rho", type=parse_fraction, default=Fraction(1, 4), help="removal ratio rho")
    p.add_argument("--seed", type=int, default=0, help="recorded for reproducibility")
    p.add_argument("--out", type=str, default=None, help="write the JSON document here")
    p.add_argument("--verify", action="store_true", help="replay and re-check from JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatcantor",
        description="Exact-arithmetic reports on the fat Cantor construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cantor-info", help="closed-form stage and limit measures")
    _add_schedule_flags(p)
    p.add_argument("--stage", type=int, default=REFERENCE_STAGE)

    p = sub.add_parser("measure", help="certified measure bounds for an expression")
    _add_schedule_flags(p)
    p.add_argument("--expr-file", required=True)
    p.add_argument("--stage", type=int, default=REFERENCE_STAGE)
    p.add_argument("--tol", type=parse_fraction, default=None, help="deepen stages until this width")
    p.add_argument("--stage-cap", type=int, default=DEFAULT_STAGE_CAP)

    p = sub.add_parser("split-check", help="exact additivity across a hyperplane")
    _add_schedule_flags(p)
    p.add_argument("--expr-file", required=True)
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--threshold", type=parse_fraction, required=True)
    p.add_argument("--above", action="store_true", help="use {x >= t} instead of {x < t}")
    p.add_argument("--stage", type=int, default=REFERENCE_STAGE)

    p = sub.add_parser("rn-enumerate", help="closure elements reachable in n steps")
    _add_schedule_flags(p)
    p.add_argument("--expr-file", default=None, help="JSON list of pool expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reference-stage", type=int, default=REFERENCE_STAGE)
    p.add_argument("--max-size", type=int, default=4096)

    p = sub.add_parser("cover-search", help="smallest verified cover from a pool")
    _add_schedule_flags(p)
    p.add_argument("--target-file", required=True, help="box or expression JSON")
    p.add_argument("--expr-file", required=True, help="JSON list of pool expressions")
    p.add_argument("--stage", type=int, default=2)
    p.add_argument("--budget", type=int, default=4096)
    p.add_argument("--no-clip", action="store_true")

    p = sub.add_parser("uncovered-box", help="box missing every element of a family")
    _add_schedule_flags(p)
    p.add_argument("--target-file", default=None, help="box JSON (default: unit cube)")
    p.add_argument("--expr-file", default=None, help="JSON list of elements (default: empty)")
    p.add_argument("--stage-cap", type=int, default=12)

    p = sub.add_parser("infinite-cube", help="witnesses for every subset of a pool")
    _add_schedule_flags(p)
    p.add_argument("--pool-size", type=int, default=4)
    p.add_argument("--quartered", action="store_true", help="quarter-clipped pool variant")
    p.add_argument("--expr-file", default=None, help="JSON list overriding the built-in pool")
    p.add_argument("--stage-cap", type=int, default=12)

    p = sub.add_parser("pack", help="cover a cube by translates of given cubes")
    _add_schedule_flags(p)
    p.add_argument("--sides", type=_frac_list_arg, required=True, help="e.g. 1/2,1/4,1/4")
    p.add_argument("--alpha", type=parse_fraction, default=Fraction(1))
    p.add_argument("--target-side", type=parse_fraction, default=Fraction(1, 2))

    p = sub.add_parser("hausdorff-bound", help="gauge sum over a stage cover")
    _add_schedule_flags(p)
    p.add_argument("--delta", type=parse_fraction, required=True)
    p.add_argument("--exponent", type=int, default=None, help="gauge power (default: d)")
    p.add_argument("--stage", type=int, default=None, help="explicit admissible stage")

    p = sub.add_parser("corollary-demo", help="measure bound to covered cube, end to end")
    _add_schedule_flags(p)
    p.add_argument("--delta", type=parse_fraction, required=True)
    p.add_argument("--a", type=parse_fraction, default=None, help="measure bound (default: limit)")
    p.add_argument("--bits", type=int, default=24, help="dyadic grid for inexact roots")

    p = sub.add_parser("range-solve", help="level function bounds, or invert them")
    _add_schedule_flags(p)
    p.add_argument("--x", type=parse_fraction, default=None)
    p.add_argument("--stage", type=int, default=8)
    p.add_argument("--target", type=parse_fraction, default=None)
    p.add_argument("--tol", type=parse_fraction, default=Fraction(1, 1 << 20))
    p.add_argument("--max-iter", type=int, default=10_000)

    p = sub.add_parser("tile-check", help="exact tiling of a scaled box")
    _add_schedule_flags(p)
    p.add_argument("--base-file", default=None, help="box JSON (default: unit cube)")
    p.add_argument("--q", type=_frac_list_arg, required=True, help="per-axis scale factors")
    p.add_argument("--max-tiles", type=int, default=1 << 16)

    return parser


# ---------------------------------------------------------------------------
# Handlers: flags -> inputs JSON, then compute, then assemble the envelope.
# ---------------------------------------------------------------------------


def _inputs_cantor_info(args: argparse.Namespace, s: CantorSchedule) -> dict:
    return {"stage": args.stage}


def _inputs_measure(args: argparse.Namespace, s: CantorSchedule) -> dict:
    return to_json(
        {
            "expr": expr_from_json(_load_json_file(args.expr_file)),
            "stage": args.stage,
            "tol": args.tol,
            "stage_cap": args.stage_cap,
        }
    )


def _inputs_split_check(args: argparse.Namespace, s: CantorSchedule) -> dict:
    return to_json(
        {
            "expr": expr_from_json(_load_json_file(args.expr_file)),
            "axis": args.axis,
            "threshold": args.threshold,
            "above": args.above,
            "stage": args.stage,
        }
    )


def _pool_from_file(path: "str | None", s: CantorSchedule) -> list[dict]:
    if path is None:
        return to_json([base_expr(s)])
    return to_json(exprs_from_json(_load_json_file(path)))


def _inputs_rn_enumerate(args: argparse.Namespace, s: CantorSchedule) -> dict:
    return {
        "pool": _pool_from_file(args.expr_file, s),
        "n": args.n,
        "reference_stage": args.reference_stage,
        "max_size": args.max_size,
    }


def _inputs_cover_search(args: argparse.Namespace, s: CantorSchedule) -> dict:
    return to_json(
        {
            "target": _target_from_json(_load_json_file(args.target_file)),
            "pool": exprs_from_json(_load_json_file(args.expr_file)),
            "stage": args.stage,
            "budget": args.budget,
            "clip": not args.no_clip,
        }
    )


def _inputs_uncovered_box(args: argparse.Namespace, s: CantorSchedule) -> dict:
    if args.target_file is None:
        target = Box.unit_cube(s.d)
    else:
        target = box_from_json(_load_json_file(args.target_file))
    pool = [] if args.expr_file is None else exprs_from_json(_load_json_file(args.expr_file))
    return to_json({"target": target, "pool": pool, "stage_cap": args.stage_cap})


def _inputs_infinite_cube(args: argparse.Namespace, s: CantorSchedule) -> dict:
    if args.expr_file is not None:
        pool = exprs_from_json(_load_json_file(args.expr_file))
    else:
        check_pool_size(args.pool_size)  # before building a pool that large
        build = quartered_translate_pool if args.quartered else grid_translate_pool
        pool = build(s, args.pool_size)
    return to_json({"pool": pool, "stage_cap": args.stage_cap})


def _inputs_pack(args: argparse.Namespace, s: CantorSchedule) -> dict:
    family = CubeFamily(args.d, tuple(args.sides))
    return to_json({"family": family, "alpha": args.alpha, "target_side": args.target_side})


def _inputs_hausdorff_bound(args: argparse.Namespace, s: CantorSchedule) -> dict:
    exponent = s.d if args.exponent is None else args.exponent
    return to_json({"delta": args.delta, "exponent": exponent, "stage": args.stage})


def _inputs_corollary_demo(args: argparse.Namespace, s: CantorSchedule) -> dict:
    return to_json({"delta": args.delta, "a": args.a, "bits": args.bits})


def _inputs_range_solve(args: argparse.Namespace, s: CantorSchedule) -> dict:
    if (args.x is None) == (args.target is None):
        raise PreconditionError("range-solve needs exactly one of --x or --target")
    if args.x is not None:
        return to_json({"x": args.x, "stage": args.stage, "target": None})
    return to_json(
        {"x": None, "target": args.target, "tol": args.tol, "max_iter": args.max_iter}
    )


def _inputs_tile_check(args: argparse.Namespace, s: CantorSchedule) -> dict:
    if args.base_file is None:
        base = Box.unit_cube(len(args.q))
    else:
        base = box_from_json(_load_json_file(args.base_file))
    return to_json({"base": base, "q": args.q, "max_tiles": args.max_tiles})


Verify = Callable[[CantorSchedule, dict, dict], bool]


def _replay_equal(compute: Compute) -> Verify:
    def check(s: CantorSchedule, inputs: dict, core: dict) -> bool:
        return compute(s, inputs)[0] == core

    return check


_COMMANDS: "dict[str, tuple[Callable[[argparse.Namespace, CantorSchedule], dict], Compute, Verify]]" = {
    "cantor-info": (_inputs_cantor_info, _compute_cantor_info, _replay_equal(_compute_cantor_info)),
    "measure": (_inputs_measure, _compute_measure, _replay_equal(_compute_measure)),
    "split-check": (_inputs_split_check, _compute_split_check, _replay_equal(_compute_split_check)),
    "rn-enumerate": (
        _inputs_rn_enumerate,
        _compute_rn_enumerate,
        _replay_equal(_compute_rn_enumerate),
    ),
    "cover-search": (_inputs_cover_search, _compute_cover_search, _verify_cover_search),
    "uncovered-box": (_inputs_uncovered_box, _compute_uncovered_box, _verify_uncovered_box),
    "infinite-cube": (_inputs_infinite_cube, _compute_infinite_cube, _verify_infinite_cube),
    "pack": (_inputs_pack, _compute_pack, _verify_pack),
    "hausdorff-bound": (
        _inputs_hausdorff_bound,
        _compute_hausdorff_bound,
        _replay_equal(_compute_hausdorff_bound),
    ),
    "corollary-demo": (_inputs_corollary_demo, _compute_corollary_demo, _verify_corollary_demo),
    "range-solve": (_inputs_range_solve, _compute_range_solve, _verify_range_solve),
    "tile-check": (_inputs_tile_check, _compute_tile_check, _replay_equal(_compute_tile_check)),
}


def _emit(doc: dict, out: "str | None") -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# Built on the first call of ``main``, not at import: parsing keeps no state
# in the parser, so one instance serves every call in a process.
_parser = functools.cache(build_parser)


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    doc: dict = {"command": args.command, "config": {}, "inputs": {}, "result": {}}
    try:
        schedule = CantorSchedule(args.d, args.c, args.rho)
    except PreconditionError as exc:
        doc["result"] = {"error": {"kind": "precondition", "message": str(exc)}}
        print(f"precondition violated: {exc}", file=sys.stderr)
        _emit(doc, args.out)
        return 2

    doc["config"] = {**to_json(schedule), "seed": args.seed}
    build_inputs, compute, verify = _COMMANDS[args.command]

    try:
        inputs = build_inputs(args, schedule)
        doc["inputs"] = inputs
        core, code = compute(schedule, inputs)
    except PreconditionError as exc:
        doc["result"] = {"error": {"kind": "precondition", "message": str(exc)}}
        print(f"precondition violated: {exc}", file=sys.stderr)
        _emit(doc, args.out)
        return 2
    except BudgetError as exc:
        doc["result"] = {
            "error": {
                "kind": "budget",
                "message": str(exc),
                "partial": to_json(getattr(exc, "partial", None)),
            }
        }
        print(f"budget exhausted: {exc}", file=sys.stderr)
        _emit(doc, args.out)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        doc["result"] = {"error": {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}}
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _emit(doc, args.out)
        return 1

    result = dict(core)
    if args.verify:
        # Round-trip through JSON so the replay sees serialized data only.
        replay_inputs = json.loads(json.dumps(inputs))
        replay_core = json.loads(json.dumps(core))
        try:
            ok = verify(schedule, replay_inputs, replay_core)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"verification crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        result["verification"] = {"requested": True, "ok": ok}
        if not ok and code == 0:
            code = 1
            print("verification failed", file=sys.stderr)
    else:
        result["verification"] = {"requested": False}

    doc["result"] = result
    _emit(doc, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
