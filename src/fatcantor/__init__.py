"""Exact-arithmetic fat Cantor sets, box algebra, and covering certificates.

Everything is computed over rationals (or the quadratic field ℚ[√d] where
diameters force it): stage measures in closed form, certified upper/lower
bounds for measures of set-ring expressions, uncovered-box witnesses,
cube-packing layouts with explicit translations, gauge sums over stage
covers, and a certified bisection inverse for the level function.  The
``fatcantor`` CLI exposes each piece as a JSON-emitting subcommand.
"""

from .cantor import (
    CantorSchedule,
    GapCertificate,
    NeedsDeeperStage,
    find_gap,
    middle_half,
)
from .cover import (
    CoverAttempt,
    UncoveredWitness,
    find_uncovered_box,
    grid_translate_pool,
    outer_upper,
    positive_hull,
    quartered_translate_pool,
    uncovered_witness_valid,
    verify_cover,
)
from .errors import (
    BudgetError,
    DimensionMismatchError,
    FatCantorError,
    PreconditionError,
    UnboundedBoxError,
)
from .geometry import Box, BoxUnion, TileReport, tile_check
from .hausdorff import (
    ChainChecks,
    CorollaryReport,
    DeltaCover,
    LevelSolution,
    PowerGauge,
    corollary_pipeline,
    dyadic_root_floor,
    min_stage_for_delta,
    nu_delta_upper,
    range_function,
    rational_root,
    side_scale_for,
    solve_level,
)
from .packing import (
    CubeFamily,
    PackingLayout,
    layout_covers,
    merge_dyadic,
    pack_cover,
)
from .quadratic import ExtendedRational
from .rationals import NEG_INF, POS_INF, Coord, pow2
from .ring import (
    Diff,
    Gen,
    Inter,
    MeasureBounds,
    RingExpr,
    SplitReport,
    Union,
    base_expr,
    clip_to_box,
    expr_dim,
    generate_rn,
    iter_leaves,
    leaf_count,
    measure_bounds,
    premeasure,
    simplify,
    split_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Box",
    "BoxUnion",
    "CantorSchedule",
    "ChainChecks",
    "Coord",
    "CorollaryReport",
    "CoverAttempt",
    "CubeFamily",
    "DeltaCover",
    "Diff",
    "DimensionMismatchError",
    "ExtendedRational",
    "FatCantorError",
    "GapCertificate",
    "Gen",
    "Inter",
    "LevelSolution",
    "MeasureBounds",
    "NEG_INF",
    "NeedsDeeperStage",
    "POS_INF",
    "PackingLayout",
    "PowerGauge",
    "PreconditionError",
    "RingExpr",
    "SplitReport",
    "TileReport",
    "UnboundedBoxError",
    "UncoveredWitness",
    "Union",
    "base_expr",
    "clip_to_box",
    "corollary_pipeline",
    "dyadic_root_floor",
    "expr_dim",
    "find_gap",
    "find_uncovered_box",
    "generate_rn",
    "grid_translate_pool",
    "iter_leaves",
    "layout_covers",
    "leaf_count",
    "measure_bounds",
    "merge_dyadic",
    "middle_half",
    "min_stage_for_delta",
    "nu_delta_upper",
    "outer_upper",
    "pack_cover",
    "positive_hull",
    "pow2",
    "premeasure",
    "quartered_translate_pool",
    "range_function",
    "rational_root",
    "side_scale_for",
    "simplify",
    "solve_level",
    "split_identity_check",
    "tile_check",
    "uncovered_witness_valid",
    "verify_cover",
]
