"""Command-line front end: exact JSON in, exact JSON out.

Every run past argument parsing prints exactly one JSON document to stdout
(or ``--out``), the stdlib's compact JSON with sorted keys, with the
envelope ``{"command", "config", "inputs", "result"}``.  A run that
argparse refuses (an unknown flag, a malformed value or a missing required
flag) exits 2 with its usage on stderr and prints no document.  All
numeric payloads are rational strings ("p/q") or quadratic-field objects —
no floats.  Output is deterministic: identical flags produce byte-identical
documents.

Exit codes: 0 success, 2 precondition violation (including malformed
flags/JSON), 3 budget or stage-cap exhaustion (a partial result is still
printed), 1 internal error.  Human-readable diagnostics go to stderr only.

A subcommand is one entry of ``COMMANDS``: its help and flags, a builder
from the parsed flags to typed inputs, and a ``run`` from the schedule and
the inputs to the typed result core and the exit code.  ``main`` writes the
inputs to JSON, decodes them back through one table of input keys
(``_DECODERS``) and runs on the decoded values, so a run depends on its
document alone.

``--verify`` replays the run from the serialized document: the inputs are
the ones the run itself decoded from the document.  Every verdict ends in
one comparison, :func:`serialize.same_json`: two JSON values match when
they print alike but for key order, so ``1``, ``1.0`` and ``true`` differ.
By default the result is recomputed and its JSON compared with the
document's.  An entry whose output carries a certificate (a witness, a
layout, a cover, a grid) checks that certificate with its validator instead, and
compares the rest of the result with what the inputs and the certificate
give; a result of any other shape is checked by the rerun, or refused.
The verdict is appended under ``result.verification``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .cantor import CantorSchedule, NeedsDeeperStage, box_count, check_stage
from .cover import (
    DEFAULT_SUBSET_BUDGET,
    DEFAULT_WITNESS_STAGE_CAP,
    CoverAttempt,
    _cover_sets,
    check_pool_size,
    find_uncovered_box,
    grid_translate_pool,
    outer_upper,
    quartered_translate_pool,
    uncovered_witness_valid,
    verify_cover,
)
from .errors import BudgetError, PreconditionError
from .geometry import DEFAULT_TILE_CAP, Box, tile_check
from .hausdorff import (
    DEFAULT_LEVEL_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_ROOT_BITS,
    PowerGauge,
    corollary_pipeline,
    grid_covers,
    nu_delta_upper,
    range_function,
    solve_level,
)
from .packing import (
    DEFAULT_ALPHA, DEFAULT_TARGET_SIDE, CubeFamily, PackingLayout, layout_covers, pack_cover
)
from .rationals import parse_each, parse_fraction
from .ring import (
    DEFAULT_RN_CAP,
    DEFAULT_STAGE_CAP,
    REFERENCE_STAGE,
    base_expr,
    generate_rn,
    measure_bounds,
    premeasure,
    split_identity_check,
)
from .serialize import (
    _expect,
    _list_of,
    box_from_json,
    cube_family_from_json,
    expr_from_json,
    exprs_from_json,
    frac_from_json,
    placements_from_json,
    same_json,
    to_json,
    witness_from_json,
)


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer too long to convert
        raise PreconditionError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PreconditionError(f"{path} is nested too deeply to read") from exc


def _cover_target_from_json(doc: Any) -> Any:
    """A cover-search target is a box {"lo","hi"} or a ring expression."""
    if isinstance(doc, dict) and "lo" in doc and "hi" in doc:
        return box_from_json(doc)
    return expr_from_json(doc)


def _target_from_json(doc: Any) -> Any:
    """An input ``target`` is a range-solve level (a rational string) or a cover-search target."""
    return frac_from_json(doc) if isinstance(doc, str) else _cover_target_from_json(doc)


def rational(text: str) -> Fraction:
    """The argparse type of every rational flag: a refusal says why."""
    try:
        return parse_fraction(text)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _frac_list_arg(text: str) -> list[Fraction]:
    """A comma-separated list of rationals, each distinct entry parsed once:
    an empty entry is refused, since dropping it would shift the indices of
    the entries after it."""
    items = [piece.strip() for piece in text.split(",")]
    if not all(items):
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of rationals, got an empty entry"
        )
    return parse_each(items, rational)


def nonnegative_int(text: str) -> int:
    """The argparse type of every count flag: a cap, budget or size of 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _refuse(message: str) -> Any:
    raise PreconditionError(message)


def _exact(key: str, kind: type) -> "Callable[[Any], Any]":
    """The decoder of an input key that holds exactly a JSON int or bool:
    ``int`` would read 2.9 as 2 and true as 1, and ``bool`` any text as true."""

    def decode(value: Any) -> Any:
        if type(value) is not kind:
            _refuse(f"input {key!r} must be a JSON {kind.__name__}, got {type(value).__name__}")
        return value

    return decode


# How each input key decodes from the document, the same in every subcommand;
# ``None`` passes through.  The lambdas look the library decoders up in this
# module's globals at call time, so a wrapper bound over one sees every call.
_DECODERS: "dict[str, Callable[[Any], Any]]" = {
    **{
        key: _exact(key, int)
        for key in ("stage", "stage_cap", "n", "budget", "axis", "reference_stage", "max_size",
                    "exponent", "bits", "max_iter", "max_tiles")
    },
    **dict.fromkeys(
        ("tol", "delta", "alpha", "threshold", "target_side", "a", "x"),
        lambda v: frac_from_json(v),
    ),
    "above": _exact("above", bool),
    "clip": _exact("clip", bool),
    "q": lambda v: [frac_from_json(x) for x in v],
    "expr": lambda v: expr_from_json(v),
    "pool": lambda v: exprs_from_json(v),
    "family": lambda v: cube_family_from_json(v),
    "base": lambda v: box_from_json(v),
    "target": _target_from_json,
}


def _decode(inputs: dict) -> dict:
    return {key: None if v is None else _DECODERS[key](v) for key, v in inputs.items()}


Replay = Callable[[], bool]


@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``inputs`` maps the parsed flags and the schedule to typed input values;
    ``run`` maps the schedule and the decoded inputs to the typed result
    core and the exit code.  ``check(schedule, inputs, core_json, replay)``
    validates the certificate in a core; without it, ``--verify`` accepts a
    run whose replay gives the same JSON (:func:`serialize.same_json`).
    Library functions are called from
    the lambdas' bodies, never stored in an entry, so a wrapper bound over
    one of this module's globals sees every call.
    """

    help: str
    flags: "dict[str, dict]"
    inputs: Callable[[argparse.Namespace, CantorSchedule], dict]
    run: Callable[[CantorSchedule, dict], "tuple[Any, int]"]
    check: "Callable[[CantorSchedule, dict, dict, Replay], bool] | None" = None


# ---------------------------------------------------------------------------
# Validators of the certificates in a result core (JSON).
# ---------------------------------------------------------------------------


def _check_cover_search(s: CantorSchedule, i: dict, core: dict, replay: Replay) -> bool:
    """A found cover is checked, not recomputed: the attempt is rebuilt from
    the pool indices the core names, in increasing order, at the inputs'
    stage, with the sum of those elements' upper bounds, clipped as the
    search clipped them.  The core must equal it, and those elements must
    cover the target's realization at that stage.  An infinite verdict is
    checked by the rerun."""
    attempt = _expect(core.get("attempt"), ("subset", "infinite"), "cover attempt")
    if attempt["infinite"]:
        return replay()
    named = _list_of(attempt, "subset", "cover attempt")
    chosen = tuple(k for k in range(len(i["pool"])) if k in named)
    stage = i["stage"]
    _, _, elements, _ = _cover_sets(i["target"], [i["pool"][k] for k in chosen], s, stage, i["clip"])
    total = sum((measure_bounds(e, s, stage).upper for e in elements), Fraction(0))
    rebuilt = CoverAttempt(chosen, stage, total, verified=True, infinite=False)
    return same_json(core, to_json({"attempt": rebuilt})) and verify_cover(i["target"], elements, s, stage)


def _check_uncovered_box(s: CantorSchedule, i: dict, core: dict, replay: Replay) -> bool:
    """A found box is checked by its witness, one check over the whole pool
    against the inputs' target (the unit cube for ``infinite-cube``), and
    the witness must be written as the program writes what it decodes to;
    any other core, such as a report of the stage cap, by the rerun."""
    witness = core.get("witness")
    if not same_json(core, {"found": True, "witness": witness}):
        return replay()
    decoded = witness_from_json(witness)
    if not same_json(witness, to_json(decoded)):
        return False
    return uncovered_witness_valid(s, i["target"], i["pool"], decoded)


def _check_pack(s: CantorSchedule, i: dict, core: dict, replay: Replay) -> bool:
    """The layout's placements, each input translated by the unit times its
    integer position, must cover the cube ``[0, alpha·target_side)^d``,
    and the core must name that cube as the layout's target and as
    ``covered_cube``, count the placements, and hold nothing else.  The
    layout must be exactly the shape the encoder writes, its unit a reduced
    positive ``"p/q"`` and each position a list of ints
    (``placements_from_json``), so the echo holds its unit and placements
    as written."""
    doc = core.get("layout")
    unit, placements = placements_from_json(doc)
    layout = PackingLayout(unit, placements, box_from_json(doc["target"]))
    cube = to_json(Box.cube((Fraction(0),) * i["family"].dim, i["alpha"] * i["target_side"]))
    echo = {
        "layout": {"unit": doc["unit"], "placements": doc["placements"], "target": cube},
        "placements": len(layout.placements),
        "covered_cube": cube,
    }
    return same_json(core, echo) and layout_covers(i["family"], layout)


def _check_corollary_demo(s: CantorSchedule, i: dict, core: dict, replay: Replay) -> bool:
    """Rebuild the closed-form report from the inputs: the core must equal
    it, which refuses a tampered grid before any power of it is taken.
    Then the document's grid, an exact int of at least 1, must cover the
    target by :func:`hausdorff.grid_covers`, and every check must pass."""
    rebuilt = corollary_pipeline(s, i["delta"], a=i["a"], bits=i["bits"])
    if not same_json(core, to_json({"report": rebuilt})):
        return False
    grid = core["report"]["grid"]
    return (
        type(grid) is int
        and grid >= 1
        and grid_covers(s.d, rebuilt.cover.side, rebuilt.alpha, rebuilt.kept, grid)
        and rebuilt.checks.all_ok()
    )


def _check_range_solve(s: CantorSchedule, i: dict, core: dict, replay: Replay) -> bool:
    if not replay():
        return False
    if "solution" not in core:
        return True
    sol = core["solution"]
    mid = (frac_from_json(sol["bracket"]["lower"]) + frac_from_json(sol["bracket"]["upper"])) / 2
    return abs(mid - frac_from_json(sol["target"])) <= i["tol"]


def _uncovered_box_core(outcome: Any) -> "tuple[dict, int]":
    if isinstance(outcome, NeedsDeeperStage):
        return {"found": False, "needs_deeper_stage": outcome}, 3
    return {"found": True, "witness": outcome}, 0


def _infinite_cube_core(s: CantorSchedule, i: dict) -> "tuple[dict, int]":
    """``uncovered-box`` on the unit cube over a pool within the cap: a box
    that misses the whole pool misses every subfamily's union too."""
    check_pool_size(len(i["pool"]))
    return _uncovered_box_core(find_uncovered_box(Box.unit_cube(s.d), i["pool"], s, i["stage_cap"]))


# ---------------------------------------------------------------------------
# The command table.
# ---------------------------------------------------------------------------

_SCHEDULE_FLAGS = {
    "--d": dict(type=int, default=1, help="ambient dimension"),
    "--c": dict(type=rational, default=CantorSchedule.c, help="removal scale c"),
    "--rho": dict(type=rational, default=CantorSchedule.rho, help="removal ratio rho"),
    "--seed": dict(type=int, default=0, help="recorded for reproducibility"),
    "--out": dict(type=str, default=None, help="write the JSON document here"),
    "--verify": dict(action="store_true", help="replay and re-check from JSON"),
}

COMMANDS: "dict[str, Command]" = {
    "cantor-info": Command(
        "closed-form stage and limit measures",
        {"--stage": dict(type=int, default=REFERENCE_STAGE)},
        inputs=lambda a, s: {"stage": a.stage},
        run=lambda s, i: (
            {
                "stage": (n := check_stage(i["stage"])),
                "box_count": box_count(n, s.d),
                "stage_measure_1d": s.stage_measure_1d(n),
                "stage_measure": s.stage_measure(n),
                "limit_measure_1d": s.limit_measure_1d(),
                "limit_measure": s.limit_measure(),
                "stage_defect": s.stage_defect(n),
                "interval_length": s.stage_interval_length(n),
                "interval_count": 1 << n,
                "removal_length": s.removal_length(n) if n >= 1 else None,
            },
            0,
        ),
    ),
    "measure": Command(
        "certified measure bounds for an expression",
        {
            "--expr-file": dict(required=True),
            "--stage": dict(type=int, default=REFERENCE_STAGE),
            "--tol": dict(type=rational, default=None, help="deepen stages until this width"),
            "--stage-cap": dict(type=nonnegative_int, default=DEFAULT_STAGE_CAP),
        },
        inputs=lambda a, s: {
            "expr": expr_from_json(_load_json_file(a.expr_file)),
            "stage": a.stage,
            "tol": a.tol,
            "stage_cap": a.stage_cap,
        },
        run=lambda s, i: (
            {
                "bounds": measure_bounds(i["expr"], s, i["stage"])
                if i["tol"] is None
                else premeasure(i["expr"], s, i["tol"], stage_cap=i["stage_cap"])
            },
            0,
        ),
    ),
    "split-check": Command(
        "exact additivity across a hyperplane",
        {
            "--expr-file": dict(required=True),
            "--axis": dict(type=int, default=0),
            "--threshold": dict(type=rational, required=True),
            "--above": dict(action="store_true", help="use {x >= t} instead of {x < t}"),
            "--stage": dict(type=int, default=REFERENCE_STAGE),
        },
        inputs=lambda a, s: {
            "expr": expr_from_json(_load_json_file(a.expr_file)),
            "axis": a.axis,
            "threshold": a.threshold,
            "above": a.above,
            "stage": a.stage,
        },
        run=lambda s, i: (
            {
                "half_space": Box.half_space(s.d, i["axis"], i["threshold"], above=i["above"]),
                "report": split_identity_check(
                    i["expr"], s, i["stage"], axis=i["axis"], threshold=i["threshold"], above=i["above"]
                ),
            },
            0,
        ),
    ),
    "rn-enumerate": Command(
        "closure elements reachable in n steps",
        {
            "--expr-file": dict(default=None, help="JSON list of pool expressions"),
            "--n": dict(type=int, required=True),
            "--reference-stage": dict(type=int, default=REFERENCE_STAGE),
            "--max-size": dict(type=nonnegative_int, default=DEFAULT_RN_CAP),
        },
        inputs=lambda a, s: {
            "pool": [base_expr(s)]
            if a.expr_file is None
            else exprs_from_json(_load_json_file(a.expr_file)),
            "n": a.n,
            "reference_stage": a.reference_stage,
            "max_size": a.max_size,
        },
        run=lambda s, i: (
            {
                "elements": (
                    elements := generate_rn(
                        i["pool"],
                        i["n"],
                        s,
                        reference_stage=i["reference_stage"],
                        max_size=i["max_size"],
                    )
                ),
                "count": len(elements),
            },
            0,
        ),
    ),
    "cover-search": Command(
        "smallest verified cover from a pool",
        {
            "--target-file": dict(required=True, help="box or expression JSON"),
            "--expr-file": dict(required=True, help="JSON list of pool expressions"),
            "--stage": dict(type=int, default=2),
            "--budget": dict(type=nonnegative_int, default=DEFAULT_SUBSET_BUDGET),
            "--no-clip": dict(action="store_true"),
        },
        inputs=lambda a, s: {
            "target": _cover_target_from_json(_load_json_file(a.target_file)),
            "pool": exprs_from_json(_load_json_file(a.expr_file)),
            "stage": a.stage,
            "budget": a.budget,
            "clip": not a.no_clip,
        },
        run=lambda s, i: (
            {
                "attempt": outer_upper(
                    i["target"], i["pool"], s, stage=i["stage"], budget=i["budget"], clip=i["clip"]
                )
            },
            0,
        ),
        check=_check_cover_search,
    ),
    "uncovered-box": Command(
        "box missing every element of a family",
        {
            "--target-file": dict(default=None, help="box JSON (default: unit cube)"),
            "--expr-file": dict(default=None, help="JSON list of elements (default: empty)"),
            "--stage-cap": dict(type=nonnegative_int, default=DEFAULT_WITNESS_STAGE_CAP),
        },
        inputs=lambda a, s: {
            "target": Box.unit_cube(s.d)
            if a.target_file is None
            else box_from_json(_load_json_file(a.target_file)),
            "pool": [] if a.expr_file is None else exprs_from_json(_load_json_file(a.expr_file)),
            "stage_cap": a.stage_cap,
        },
        run=lambda s, i: _uncovered_box_core(
            find_uncovered_box(i["target"], i["pool"], s, i["stage_cap"])
        ),
        check=_check_uncovered_box,
    ),
    "infinite-cube": Command(
        "one box that misses a whole pool, and so every subfamily",
        {
            "--pool-size": dict(type=nonnegative_int, default=4),
            "--quartered": dict(action="store_true", help="quarter-clipped pool variant"),
            "--expr-file": dict(default=None, help="JSON list overriding the built-in pool"),
            "--stage-cap": dict(type=nonnegative_int, default=DEFAULT_WITNESS_STAGE_CAP),
        },
        inputs=lambda a, s: {
            # the pool size is checked before a pool that large is built
            "pool": exprs_from_json(_load_json_file(a.expr_file))
            if a.expr_file is not None
            else (quartered_translate_pool if a.quartered else grid_translate_pool)(
                s, check_pool_size(a.pool_size)
            ),
            "stage_cap": a.stage_cap,
        },
        run=_infinite_cube_core,
        check=lambda s, i, core, replay: _check_uncovered_box(
            s, {**i, "target": Box.unit_cube(s.d)}, core, replay
        ),
    ),
    "pack": Command(
        "cover a cube by translates of given cubes",
        {
            "--sides": dict(type=_frac_list_arg, required=True, help="e.g. 1/2,1/4,1/4"),
            "--alpha": dict(type=rational, default=DEFAULT_ALPHA),
            "--target-side": dict(type=rational, default=DEFAULT_TARGET_SIDE),
        },
        inputs=lambda a, s: {
            "family": CubeFamily(a.d, tuple(a.sides)),
            "alpha": a.alpha,
            "target_side": a.target_side,
        },
        run=lambda s, i: (
            {
                "layout": (
                    layout := pack_cover(
                        i["family"], target_side=i["target_side"], alpha=i["alpha"]
                    )
                ),
                "placements": len(layout.placements),
                "covered_cube": layout.target,
            },
            0,
        ),
        check=_check_pack,
    ),
    "hausdorff-bound": Command(
        "gauge sum over a stage cover",
        {
            "--delta": dict(type=rational, required=True),
            "--exponent": dict(type=int, default=None, help="gauge power (default: d)"),
            "--stage": dict(type=int, default=None, help="explicit admissible stage"),
        },
        inputs=lambda a, s: {
            "delta": a.delta,
            "exponent": s.d if a.exponent is None else a.exponent,
            "stage": a.stage,
        },
        run=lambda s, i: (
            {"cover": nu_delta_upper(s, PowerGauge(i["exponent"]), i["delta"], stage=i["stage"])},
            0,
        ),
    ),
    "corollary-demo": Command(
        "measure bound to covered cube, end to end",
        {
            "--delta": dict(type=rational, required=True),
            "--a": dict(type=rational, default=None, help="measure bound (default: limit)"),
            "--bits": dict(type=int, default=DEFAULT_ROOT_BITS, help="dyadic grid for inexact roots"),
        },
        inputs=lambda a, s: {"delta": a.delta, "a": a.a, "bits": a.bits},
        run=lambda s, i: (
            {"report": (report := corollary_pipeline(s, i["delta"], a=i["a"], bits=i["bits"]))},
            0 if report.checks.all_ok() else 1,
        ),
        check=_check_corollary_demo,
    ),
    "range-solve": Command(
        "level function bounds, or invert them",
        {
            "--x": dict(type=rational, default=None),
            "--stage": dict(type=int, default=8),
            "--target": dict(type=rational, default=None),
            "--tol": dict(type=rational, default=DEFAULT_LEVEL_TOL),
            "--max-iter": dict(type=nonnegative_int, default=DEFAULT_MAX_ITER),
        },
        inputs=lambda a, s: (
            _refuse("range-solve needs exactly one of --x or --target")
            if (a.x is None) == (a.target is None)
            else {"x": a.x, "stage": a.stage, "target": None}
            if a.x is not None
            else {"x": None, "target": a.target, "tol": a.tol, "max_iter": a.max_iter}
        ),
        run=lambda s, i: (
            {"bounds": range_function(s, i["x"], check_stage(i["stage"]))}
            if i["x"] is not None
            else {"solution": solve_level(s, i["target"], tol=i["tol"], max_iter=i["max_iter"])},
            0,
        ),
        check=_check_range_solve,
    ),
    "tile-check": Command(
        "exact tiling of a scaled box",
        {
            "--base-file": dict(default=None, help="box JSON (default: unit cube)"),
            "--q": dict(type=_frac_list_arg, required=True, help="per-axis scale factors"),
            "--max-tiles": dict(type=nonnegative_int, default=DEFAULT_TILE_CAP),
        },
        inputs=lambda a, s: {
            "base": Box.unit_cube(len(a.q))
            if a.base_file is None
            else box_from_json(_load_json_file(a.base_file)),
            "q": a.q,
            "max_tiles": a.max_tiles,
        },
        run=lambda s, i: ({"report": tile_check(i["base"], i["q"], max_tiles=i["max_tiles"])}, 0),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``COMMANDS`` entry, strict about unknown flags."""
    parser = argparse.ArgumentParser(
        prog="fatcantor",
        description="Exact-arithmetic reports on the fat Cantor construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in {**_SCHEDULE_FLAGS, **command.flags}.items():
            p.add_argument(flag, **options)
    return parser


def _error(exc: Exception) -> "tuple[int, dict, str]":
    """The exit code, ``result.error`` and stderr line of a run that raised."""
    if isinstance(exc, PreconditionError):
        return 2, {"kind": "precondition", "message": str(exc)}, f"precondition violated: {exc}"
    if isinstance(exc, BudgetError):
        error = {"kind": "budget", "message": str(exc), "partial": to_json(exc.partial)}
        return 3, error, f"budget exhausted: {exc}"
    message = f"{type(exc).__name__}: {exc}"
    return 1, {"kind": "internal", "message": message}, f"internal error: {message}"


def _verify(command: Command, s: CantorSchedule, inputs: dict, core: dict) -> bool:
    """Replay a run from its decoded inputs and its result core's JSON."""

    def replay() -> bool:
        return same_json(core, to_json(command.run(s, inputs)[0]))

    try:
        return replay() if command.check is None else command.check(s, inputs, core, replay)
    except PreconditionError as exc:
        print(f"verification refused: {exc}", file=sys.stderr)
        return False
    except Exception as exc:  # pragma: no cover - defensive
        print(f"verification crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def _emit(doc: dict, out: "str | None") -> None:
    # compact, so the stdlib writes it with its C encoder
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# Built on the first call of ``main``, not at import: parsing keeps no state
# in the parser, so one instance serves every call in a process.
_parser = functools.cache(build_parser)


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a refusal (usage on stderr, exit 2) or --help: no document
        return int(exc.code or 0)

    command = COMMANDS[args.command]
    doc: dict = {"command": args.command, "config": {}, "inputs": {}, "result": {}}
    try:
        schedule = CantorSchedule(args.d, args.c, args.rho)
        doc["config"] = {**to_json(schedule), "seed": args.seed}
        doc["inputs"] = to_json(command.inputs(args, schedule))
        inputs = _decode(doc["inputs"])
        core, code = command.run(schedule, inputs)
        result = to_json(core)
    except Exception as exc:  # every failure past parsing still prints a document
        code, error, message = _error(exc)
        print(message, file=sys.stderr)
        result = {"error": error}
    else:
        verification: dict = {"requested": args.verify}
        if args.verify:
            verification["ok"] = _verify(command, schedule, inputs, result)
            if not verification["ok"] and code == 0:
                code = 1
                print("verification failed", file=sys.stderr)
        result["verification"] = verification

    doc["result"] = result
    try:
        _emit(doc, args.out)
    except OSError as exc:
        print(f"cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
