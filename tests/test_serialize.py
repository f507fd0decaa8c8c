"""JSON encoding: bit-exact round-trips and schema shape pins.

Every value crosses the wire as a string "p/q" (or "inf"/"-inf" for the
two unbounded markers); no decimal floats appear anywhere.  The expression
schema is shape-checked explicitly because external tooling consumes it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatcantor import (
    Box,
    CantorSchedule,
    CubeFamily,
    Diff,
    ExtendedRational,
    Gen,
    Inter,
    PackingLayout,
    PreconditionError,
    Union,
    base_expr,
    cli,
    corollary_pipeline,
    find_uncovered_box,
    layout_covers,
    measure_bounds,
    nu_delta_upper,
    outer_upper,
    pack_cover,
    solve_level,
    split_identity_check,
    tile_check,
)
from fatcantor import serialize
from fatcantor.cli import _target_from_json
from fatcantor.cover import grid_translate_pool
from fatcantor.hausdorff import PowerGauge
from fatcantor.rationals import format_fraction
from fatcantor.serialize import (
    MAX_EXPR_DEPTH,
    box_from_json,
    box_to_json,
    cube_family_from_json,
    expr_from_json,
    expr_to_json,
    exprs_from_json,
    frac_from_json,
    frac_to_json,
    int_to_json,
    placements_from_json,
    quad_to_json,
    same_json,
    to_json,
    witness_from_json,
)

from strategies import approx_set, boxes, fractions, ring_exprs, schedules

S1 = CantorSchedule(1)


def quad_of(doc) -> ExtendedRational:
    """A quadratic value back from its JSON fields."""
    return ExtendedRational(frac_from_json(doc["a"]), frac_from_json(doc["b"]), doc["sqrt"])


def schedule_of(doc) -> CantorSchedule:
    """A schedule back from its JSON fields; documents echo it as ``config``."""
    return CantorSchedule(doc["d"], frac_from_json(doc["c"]), frac_from_json(doc["rho"]))


def _no_floats(doc) -> bool:
    if isinstance(doc, float):
        return False
    if isinstance(doc, dict):
        return all(_no_floats(v) for v in doc.values())
    if isinstance(doc, (list, tuple)):
        return all(_no_floats(v) for v in doc)
    return True


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


@given(q=fractions())
def test_fraction_round_trip_is_bit_exact(q):
    assert frac_from_json(frac_to_json(q)) == q
    assert isinstance(frac_to_json(q), str)


def test_fraction_decoding_rejects_floats_and_junk():
    with pytest.raises(PreconditionError):
        frac_from_json(0.5)
    with pytest.raises(PreconditionError):
        frac_from_json({"p": 1, "q": 2})
    with pytest.raises(PreconditionError):
        frac_from_json("1/0")


@given(a=fractions(), b=fractions(), n=st.sampled_from([2, 3, 5, 7]))
def test_quadratic_round_trip(a, b, n):
    x = ExtendedRational(a, b, n)
    doc = quad_to_json(x)
    assert set(doc) == {"a", "b", "sqrt"}
    assert isinstance(doc["sqrt"], int)
    assert quad_of(doc) == x


def test_quadratic_shape_pin():
    x = ExtendedRational(Fraction(1, 2), Fraction(3), 2)
    assert quad_to_json(x) == {"a": "1/2", "b": "3/1", "sqrt": 2}


def test_a_radicand_too_long_to_print_is_refused():
    with pytest.raises(PreconditionError, match="^result too large to print"):
        quad_to_json(ExtendedRational(Fraction(0), Fraction(1), 10**5000 + 1))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


@given(b=boxes(dim=2))
def test_box_round_trip(b):
    doc = box_to_json(b)
    assert set(doc) == {"lo", "hi"}
    assert box_from_json(doc) == b


def test_half_space_serializes_with_infinity_markers():
    hs = Box.half_space(1, 0, Fraction(1, 2), above=True)
    doc = box_to_json(hs)
    assert doc["hi"] == ["inf"]
    assert box_from_json(doc) == hs


# ---------------------------------------------------------------------------
# expressions: the pinned schema
# ---------------------------------------------------------------------------


def test_generator_schema_shape():
    g = Gen((Fraction(1, 4),), Box.unit_cube(1))
    doc = expr_to_json(g)
    assert doc == {
        "gen": {"x": ["1/4"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}
    }


def test_combinator_schema_shapes():
    g = base_expr(S1)
    h = Gen((Fraction(1, 2),), Box.unit_cube(1))
    assert set(expr_to_json(Union(g, h))) == {"union"}
    assert set(expr_to_json(Diff(g, h))) == {"diff"}
    assert set(expr_to_json(Inter(g, h))) == {"inter"}
    two = expr_to_json(Union(g, h))["union"]
    assert isinstance(two, list) and len(two) == 2


@given(e=ring_exprs(max_leaves=5))
def test_expression_round_trip_preserves_structure(e):
    back = expr_from_json(expr_to_json(e))
    assert back == e
    # belt and braces: same approximation at a couple of stages
    for n in (0, 2):
        assert approx_set(back, S1, n) == approx_set(e, S1, n)


@given(e=ring_exprs(max_leaves=4))
def test_expression_json_is_actually_json(e):
    doc = expr_to_json(e)
    assert _no_floats(doc)
    assert expr_from_json(json.loads(json.dumps(doc))) == e


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"gen": {"x": ["0"]}},  # missing clip
        {"union": [{"gen": {"x": ["0"], "clip": {"lo": ["0"], "hi": ["1"]}}}]},  # arity
        {"gen": {"x": ["0"], "clip": {"lo": ["0"], "hi": ["1"]}}, "union": []},  # two keys
        {"frobnicate": []},
        "gen",
        42,
    ],
)
def test_malformed_expressions_are_rejected(bad):
    with pytest.raises(PreconditionError):
        expr_from_json(bad)


def _union_chain(depth: int) -> dict:
    """A left-nested union with ``depth`` nodes on its longest path."""
    doc = expr_to_json(base_expr(S1))
    for k in range(1, depth):
        doc = {"union": [doc, expr_to_json(Gen((Fraction(k, 128),), Box.unit_cube(1)))]}
    return doc


def test_expressions_deeper_than_the_cap_are_refused():
    assert isinstance(expr_from_json(_union_chain(MAX_EXPR_DEPTH)), Union)
    assert exprs_from_json([_union_chain(MAX_EXPR_DEPTH)])
    for refused in (_union_chain(MAX_EXPR_DEPTH + 1), [_union_chain(MAX_EXPR_DEPTH + 1)]):
        with pytest.raises(
            PreconditionError, match=f"expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ):
            exprs_from_json(refused)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"lo": 5, "hi": ["1"]}, "box: 'lo' must be a list, got int"),
        ({"lo": ["0"], "hi": "1"}, "box: 'hi' must be a list, got str"),
        ({"lo": [1.5], "hi": ["2"]}, "expected a rational string, got 1.5"),
        ({"lo": ["0"], "hi": [float("inf")]}, "expected a rational string, got inf"),
        ({"lo": [True], "hi": ["1"]}, "expected a rational string, got True"),
    ],
)
def test_box_corners_must_be_lists_of_strings_or_ints(doc, message):
    with pytest.raises(PreconditionError) as info:
        box_from_json(doc)
    assert str(info.value) == message


def test_generator_translations_must_be_lists_of_strings_or_ints():
    clip = {"lo": ["0"], "hi": ["1"]}
    with pytest.raises(PreconditionError, match="generator expression: 'x' must be a list, got int"):
        expr_from_json({"gen": {"x": 5, "clip": clip}})
    with pytest.raises(PreconditionError, match="expected a rational string, got 0.5"):
        expr_from_json({"gen": {"x": [0.5], "clip": clip}})
    assert expr_from_json({"gen": {"x": [0], "clip": {"lo": [0], "hi": ["inf"]}}}) == Gen(
        (Fraction(0),), Box.half_space(1, 0, Fraction(0), above=True)
    )


# Arbitrary JSON, with the schema's own keys and scalar texts mixed in so
# that many documents get past the first shape checks.
_SCHEMA_KEYS = st.sampled_from(["gen", "union", "diff", "inter", "x", "clip", "lo", "hi"])
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["0", "1/2", "-3/4", "inf", "-inf", "1/0", "x"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_SCHEMA_KEYS | st.text(max_size=4), children, max_size=3),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=_json_values)
def test_decoders_return_a_value_or_refuse_arbitrary_json(doc):
    for decode in (expr_from_json, exprs_from_json, box_from_json, _target_from_json):
        try:
            decode(doc)
        except PreconditionError:
            pass


# ---------------------------------------------------------------------------
# schedules and certificates
# ---------------------------------------------------------------------------


def test_schedule_round_trip():
    s = CantorSchedule(2, c=Fraction(1, 2), rho=Fraction(1, 3))
    doc = to_json(s)
    assert set(doc) == {"d", "c", "rho"}
    back = schedule_of(doc)
    assert (back.d, back.c, back.rho) == (2, Fraction(1, 2), Fraction(1, 3))


def test_witness_round_trip():
    w = find_uncovered_box(Box.unit_cube(1), [base_expr(S1)], S1, 8)
    back = witness_from_json(to_json(w))
    assert back == w


def _witness_doc():
    unit = Box.unit_cube(1)
    pool = [Gen((Fraction(0),), unit), Gen((Fraction(1, 2),), unit)]
    return json.loads(json.dumps(to_json(find_uncovered_box(unit, pool, S1, 8))))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("certificates",), {}, "uncovered witness: 'certificates' must be a list, got dict"),
        (("certificates", 1), 1.0, "uncovered witness: certificate 1 must be an integer, got float"),
        (("certificates", 0), True, "uncovered witness: certificate 0 must be an integer, got bool"),
        (("certificates", 0), "1", "uncovered witness: certificate 0 must be an integer, got str"),
        (("certificates", 1), -1, "uncovered witness: certificate 1 must be nonnegative"),
        (("certificates", 0), {"element_index": 0, "leaf_index": 0, "translation": ["0"], "stage": 1},
         "uncovered witness: certificate 0 must be an integer, got dict"),
        (("box", "lo"), "0", "box: 'lo' must be a list, got str"),
    ],
)
def test_the_witness_decoder_takes_exact_integers_and_lists(path, value, message):
    doc = _witness_doc()
    witness_from_json(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(PreconditionError) as info:
        witness_from_json(doc)
    assert str(info.value) == message


# Arbitrary JSON in the certificate fields, mixed with the fields' own shapes
# so that many documents get past the first checks.
_CERT_KEYS = st.sampled_from(
    ["stage", "box", "lo", "hi", "certificates"]
)
_cert_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=3)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["0", "1/2", "-3/4", "inf", "1/0"])
)
_cert_anything = st.recursive(
    _cert_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_CERT_KEYS | st.text(max_size=4), children, max_size=3),
    max_leaves=16,
)


def _shaped(fields):
    return st.fixed_dictionaries(fields) | _cert_anything


_coords = st.lists(_cert_scalars, max_size=2) | _cert_anything
_box_docs = _shaped({"lo": _coords, "hi": _coords})
_witness_docs = _shaped(
    {"box": _box_docs, "certificates": st.lists(_cert_scalars, max_size=3) | _cert_anything}
)


@settings(max_examples=300, deadline=None)
@given(witness=_witness_docs)
def test_the_witness_decoder_returns_a_value_or_refuses_arbitrary_json(witness):
    try:
        value = witness_from_json(witness)
    except PreconditionError:
        return
    assert all(type(stage) is int and stage >= 0 for stage in value.certificates)
    assert witness_from_json(to_json(value)) == value


def test_an_old_witness_does_not_re_encode_to_its_text():
    # The decoder reads only the box and the stages; a ``stage`` key or a
    # leaf object makes the text differ from the re-encoded witness, which
    # ``--verify`` compares with, or is refused outright.
    doc = _witness_doc()
    old = {**doc, "stage": max(doc["certificates"])}
    assert not same_json(old, to_json(witness_from_json(old)))
    assert same_json(doc, to_json(witness_from_json(doc)))
    leaves = [{"element_index": k, "leaf_index": 0, "translation": ["0"], "stage": stage}
              for k, stage in enumerate(doc["certificates"])]
    with pytest.raises(PreconditionError, match="certificate 0 must be an integer, got dict"):
        witness_from_json({**doc, "certificates": leaves})


def test_measure_bounds_document_carries_the_bracket():
    b = measure_bounds(base_expr(S1), S1, 4)
    doc = to_json(b)
    assert doc["lower"] == "1/2"
    assert doc["upper"] == "17/32"
    assert doc["stage"] == 4
    assert _no_floats(doc)


# ---------------------------------------------------------------------------
# packing and pipeline documents
# ---------------------------------------------------------------------------


def test_cube_family_round_trip():
    fam = CubeFamily(2, (Fraction(1, 2), Fraction(2, 3)))
    assert cube_family_from_json(to_json(fam)) == fam


def test_the_family_encoder_formats_each_distinct_side_once(monkeypatch):
    half, third = Fraction(1, 2), Fraction(1, 3)
    fam = CubeFamily(3, (half, third) * 300 + (Fraction(1, 2),))
    formatted = []

    def counted(value):
        formatted.append(value)
        return format_fraction(value)

    monkeypatch.setattr(serialize, "frac_to_json", counted)
    doc = to_json(fam)
    # the object of the fields, as every other dataclass prints
    assert doc == {"dim": 3, "sides": ["1/2", "1/3"] * 300 + ["1/2"]}
    assert list(doc) == [f.name for f in dataclasses.fields(fam)]
    # once per side object: the last half is a second object, equal to the first
    assert formatted == [half, third, Fraction(1, 2)]
    assert cube_family_from_json(doc) == fam


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 1.9, "sides": ["1/2"]}, "'dim' must be an integer, got float"),
        ({"dim": True, "sides": ["1/2"]}, "'dim' must be an integer, got bool"),
        ({"dim": "2", "sides": ["1/2"]}, "'dim' must be an integer, got str"),
        ({"dim": 1, "sides": {"1/2": 0}}, "'sides' must be a list, got dict"),
        ({"dim": 1, "sides": 5}, "'sides' must be a list, got int"),
    ],
)
def test_cube_family_decodes_dim_and_sides_by_their_shape(doc, message):
    with pytest.raises(PreconditionError, match=f"cube family: {message}"):
        cube_family_from_json(doc)


@pytest.mark.parametrize(
    "sides, message",
    [
        (["1/2", True], "expected a rational string, got True"),
        (["1/2", 1.0], "expected a rational string, got 1.0"),
        ([True, "1/2", 1], "expected a rational string, got True"),
        ([1, "1/2", True], "expected a rational string, got True"),
        (["1", "1/2", 1.0], "expected a rational string, got 1.0"),
        (["1/2", None], "expected a rational string, got None"),
    ],
)
def test_family_sides_that_hash_alike_are_each_checked(sides, message):
    # 1, true and 1.0 are one dict key, so only all-string sides skip the per-entry check
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        cube_family_from_json({"dim": 1, "sides": sides})


def test_family_sides_decode_each_distinct_text_once():
    fam = cube_family_from_json({"dim": 1, "sides": ["1/2", 1, "1/2", "1", 1]})
    assert fam.sides == (Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1))
    # equal texts decode to one object; "1" and 1 are distinct texts of one value
    assert fam.sides[0] is fam.sides[2] and fam.sides[1] is fam.sides[4]


def test_layout_round_trip():
    # a layout is its unit, placements and target, and the replays decode all three
    # (the quarters, merged into [1/2, 1), miss the target and are not placed)
    for sides, placements in [
        ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), ((0, (0,)),)),
        ((Fraction(1, 4),) * 4, ((0, (0,)), (1, (1,)))),
    ]:
        layout = pack_cover(CubeFamily(1, sides))
        doc = to_json(layout)
        assert doc["unit"] == "1/4"
        assert doc["placements"] == [{"index": i, "position": list(p)} for i, p in placements]
        # decoded on the document's unit, here pack_cover's own
        assert placements_from_json(doc) == (layout.unit, layout.placements)
        assert layout.unit == Fraction(1, 4) and layout.placements == placements
        assert box_from_json(doc["target"]) == layout.target


def test_corollary_document_is_float_free_and_json_safe():
    rep = corollary_pipeline(S1, Fraction(1, 4))
    doc = to_json(rep)
    assert _no_floats(doc)
    json.dumps(doc)  # must not choke
    assert doc["checks"]["cube_constant"] == "enclosing axis cube, constant 1"


def test_level_solution_document(tmp_path):
    sol = solve_level(S1, Fraction(1, 4))
    doc = to_json(sol)
    assert doc["point"] == "1/2"
    assert doc["status"] == "straddle"
    assert _no_floats(doc)


def test_tile_report_document():
    rep = tile_check(Box.unit_cube(1), [Fraction(3, 2)])
    doc = to_json(rep)
    assert _no_floats(doc)
    assert doc["count"] == 3
    json.dumps(doc)


# ---------------------------------------------------------------------------
# the one encoder: to_json
# ---------------------------------------------------------------------------


@given(q=fractions())
def test_to_json_round_trips_fractions(q):
    assert frac_from_json(to_json(q)) == q
    assert to_json(q) == frac_to_json(q)


@given(a=fractions(), b=fractions(), n=st.sampled_from([2, 3, 5, 7]))
def test_to_json_round_trips_quadratic_values(a, b, n):
    x = ExtendedRational(a, b, n)
    assert to_json(x) == quad_to_json(x)
    assert quad_of(to_json(x)) == x


@given(b=boxes(dim=2))
def test_to_json_round_trips_boxes(b):
    assert to_json(b) == box_to_json(b)
    assert box_from_json(to_json(b)) == b


@given(s=schedules(dim=2))
def test_to_json_round_trips_schedules(s):
    assert schedule_of(to_json(s)) == s


@given(es=st.lists(ring_exprs(max_leaves=4), min_size=1, max_size=3))
def test_to_json_round_trips_expressions(es):
    assert [to_json(e) for e in es] == [expr_to_json(e) for e in es]
    assert [expr_from_json(to_json(e)) for e in es] == es
    assert exprs_from_json(to_json(es)) == es
    assert exprs_from_json(to_json(tuple(es))) == es


def test_to_json_round_trips_every_certificate():
    s = CantorSchedule(2)
    w = find_uncovered_box(Box.unit_cube(2), [base_expr(s)], s, 8)
    assert witness_from_json(to_json(w)) == w
    assert w.certificates
    doc = to_json(w)
    assert set(doc) == {"box", "certificates"}
    assert doc["certificates"] == list(w.certificates)
    assert all(type(stage) is int for stage in doc["certificates"])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_to_json_round_trips_packing_documents(dim):
    fam = CubeFamily(dim, (Fraction(1, 2),) * (1 << dim) + (Fraction(1, 3), Fraction(1, 5)))
    layout = pack_cover(fam)
    assert cube_family_from_json(to_json(fam)) == fam
    doc = to_json(layout)
    assert set(doc) == {"unit", "placements", "target"}
    assert placements_from_json(doc) == (layout.unit, layout.placements)
    assert box_from_json(doc["target"]) == layout.target
    for placement in doc["placements"]:
        assert set(placement) == {"index", "position"}
        assert all(type(v) is int for v in placement["position"])


@st.composite
def _feasible_families(draw):
    """A family of d = 1-3 with sum side**d >= 1: equal sides held in one
    object, or sides with distinct denominators."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        side = Fraction(1, draw(st.sampled_from([2, 3, 4, 8])))
        sides = [side] * (int(1 / side**dim) + draw(st.integers(0, 9)))
    else:
        sides, volume = [], Fraction(0)
        while volume < 1:
            sides.append(Fraction(draw(st.integers(13, 63)), draw(st.integers(64, 97))))
            volume += sides[-1] ** dim
    return CubeFamily(dim, tuple(sides))


@settings(max_examples=60, deadline=None)
@given(fam=_feasible_families())
def test_layouts_decode_to_their_unit_and_positions(fam):
    layout = pack_cover(fam)
    doc = json.loads(json.dumps(to_json(layout)))
    assert placements_from_json(doc) == (layout.unit, layout.placements)
    unit, placements = placements_from_json(doc)
    assert layout_covers(fam, PackingLayout(unit, placements, box_from_json(doc["target"])))


_S1_HALF = Gen((Fraction(1, 2),), Box.unit_cube(1))
_S1_DIFF = Diff(base_expr(S1), _S1_HALF)
# One factory per report the CLI emits.
REPORTS = {
    "MeasureBounds": lambda: measure_bounds(_S1_DIFF, S1, 3),
    "SplitReport": lambda: split_identity_check(
        _S1_DIFF, S1, 3, axis=0, threshold=Fraction(1, 3), above=False
    ),
    "CoverAttempt": lambda: outer_upper(
        Box.interval(Fraction(0), Fraction(1, 8)), [base_expr(S1), _S1_HALF], S1, stage=2
    ),
    "NeedsDeeperStage": lambda: find_uncovered_box(
        Box.unit_cube(1), [base_expr(S1), _S1_HALF, Gen((Fraction(-1, 2),), Box.unit_cube(1))],
        S1,
        1,
    ),
    "UncoveredWitness": lambda: find_uncovered_box(Box.unit_cube(1), grid_translate_pool(S1, 2), S1, 8),
    "DeltaCover": lambda: nu_delta_upper(CantorSchedule(2), PowerGauge(2), Fraction(1, 8)),
    "CorollaryReport": lambda: corollary_pipeline(S1, Fraction(1, 4)),
    "LevelSolution": lambda: solve_level(S1, Fraction(1, 4)),
    "TileReport": lambda: tile_check(Box.unit_cube(2), [Fraction(3, 2), Fraction(2)]),
}


def _json_values_only(doc) -> bool:
    """Only what ``json.loads`` gives back: dicts with str keys, lists, str,
    int, bool and None; never a tuple or a float."""
    kind = type(doc)
    if kind is dict:
        return all(type(k) is str and _json_values_only(v) for k, v in doc.items())
    if kind is list:
        return all(_json_values_only(v) for v in doc)
    return kind in (str, int, bool, type(None))


# Everything else a document holds: the schedule, inputs of every kind, a layout.
OTHER_VALUES = {
    "CantorSchedule": lambda: CantorSchedule(2, Fraction(1, 2), Fraction(1, 3)),
    "PackingLayout": lambda: pack_cover(CubeFamily(2, (Fraction(1, 2),) * 4 + (Fraction(1, 3),))),
    "inputs": lambda: {
        "pool": grid_translate_pool(S1, 3),
        "expr": _S1_DIFF,
        "family": CubeFamily(1, (Fraction(1, 2), Fraction(1, 2))),
        "target": Box.unit_cube(2),
        "base": Box.half_space(1, 0, Fraction(1, 3), above=True),
        "q": [Fraction(3, 2), Fraction(2)],
        "stage": 3,
        "above": True,
        "a": None,
    },
}


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_reports_are_encoded_from_their_fields(kind):
    report = REPORTS[kind]()
    assert type(report).__name__ == kind
    doc = to_json(report)
    names = [f.name for f in dataclasses.fields(report)]
    assert list(doc) == names
    for name in names:
        assert doc[name] == to_json(getattr(report, name))
    # ``--verify`` reads a run's ``to_json`` output as the document's JSON
    assert _json_values_only(doc)
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("kind", sorted(OTHER_VALUES))
def test_to_json_holds_only_json_values(kind):
    doc = to_json(OTHER_VALUES[kind]())
    assert _json_values_only(doc)
    assert json.loads(json.dumps(doc)) == doc


def _layout_doc(*placements, unit="1/4"):
    """A layout document holding ``placements``, on ``unit``, with a unit target."""
    return {"unit": unit, "placements": list(placements), "target": {"lo": ["0/1"], "hi": ["1/1"]}}


def test_placements_decode_their_index_as_an_exact_int():
    layout = _layout_doc({"index": 1, "position": [0]}, unit="1/1")
    assert placements_from_json(layout) == (Fraction(1), ((1, (0,)),))
    for index in (1.0, True, "1", -1):
        layout["placements"][0]["index"] = index
        with pytest.raises(PreconditionError, match="placement: 'index' must be"):
            placements_from_json(layout)


_positions = st.integers(-40, 40) | st.integers(-(10**30), 10**30)


@settings(max_examples=200)
@given(
    unit=st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_lattice_placements_round_trip_through_their_text(unit, dim, data):
    positions = data.draw(st.lists(st.tuples(*[_positions] * dim), max_size=12))
    layout = PackingLayout(unit, tuple(enumerate(positions)), Box.unit_cube(dim))
    doc = to_json(layout)
    # the unit once, each position as its ints
    assert doc["unit"] == format_fraction(unit)
    assert [placement["position"] for placement in doc["placements"]] == [list(p) for p in positions]
    decoded_unit, placements = placements_from_json(json.loads(json.dumps(doc)))
    assert (decoded_unit, placements) == (unit, layout.placements)
    decoded = PackingLayout(decoded_unit, placements, layout.target)
    assert same_json(to_json(decoded), doc)


def test_a_lattice_coordinate_too_long_to_print_is_refused():
    huge = 10**5000
    for unit, position in [(Fraction(1, 3), huge), (Fraction(1, 3), -huge), (Fraction(huge, 7), 1),
                           (Fraction(1, huge), 1)]:
        with pytest.raises(PreconditionError, match="^result too large to print"):
            to_json(PackingLayout(unit, ((0, (0, position)),), Box.unit_cube(2)))
    # the unit is written once, so it is refused even where every position is 0
    with pytest.raises(PreconditionError, match="^result too large to print"):
        to_json(PackingLayout(Fraction(1, huge), ((0, (0,)),), Box.unit_cube(1)))
    # a position just short of the limit prints
    most = 10 ** (sys.get_int_max_str_digits() - 1)
    assert to_json(PackingLayout(Fraction(1), ((0, (-most,)),), Box.unit_cube(1)))["placements"] == [
        {"index": 0, "position": [-most]}
    ]


_PLACEMENT = {"index": 1, "position": [1]}


@pytest.mark.parametrize(
    "unit, message",
    [
        *[
            (text, "in lowest terms")
            for text in ["2/8", "0.25", "01/4", "-0/1", " 1/4", "1/4 ", "0/2", "1/04", "+1/4", "1/-4", "1/0",
                         "1", "\uff11/4", 0, 1, 0.25, None, True, ["1/4"], {"1/4": 0}]
        ],
        ("1" * 5000 + "/1", "a rational has more than"),
        ("0/1", "the unit must be positive, got '0/1'"),
        ("-1/4", "the unit must be positive, got '-1/4'"),
    ],
)
def test_a_layout_unit_decodes_only_as_the_encoder_writes_it(unit, message):
    with pytest.raises(PreconditionError, match=message):
        placements_from_json(_layout_doc(_PLACEMENT, unit=unit))


@pytest.mark.parametrize(
    "position, message",
    [
        *[([1, value], f"got {kind}") for value, kind in
          [(1.0, "float"), (True, "bool"), ("1", "str"), (None, "NoneType"), ([0], "list")]],
        ([[0]], "got list"),
        *[(value, f"'position' must be a list, got {kind}") for value, kind in
          [(1.0, "float"), (True, "bool"), ("1", "str"), (None, "NoneType"), ({"0": 0}, "dict")]],
    ],
)
def test_placements_decode_only_int_positions(position, message):
    with pytest.raises(PreconditionError, match=f"^placement: .*{message}$"):
        placements_from_json(_layout_doc(_PLACEMENT, {"index": 0, "position": position}))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({k: v for k, v in _layout_doc().items() if k != "unit"}, r"missing keys \['unit'\]"),
        ({k: v for k, v in _layout_doc().items() if k != "target"}, r"missing keys \['target'\]"),
        ({**_layout_doc(), "merge_tree": []},
         r"expected the keys \['unit', 'placements', 'target'\] alone, got \['unit', 'placements', 'target', 'merge_tree'\]"),
        ({**_layout_doc(), "placements": {}}, "'placements' must be a list, got dict"),
        ([], "expected an object, got list"),
        (None, "expected an object, got NoneType"),
    ],
)
def test_a_layout_decodes_only_in_the_shape_the_encoder_writes(doc, message):
    with pytest.raises(PreconditionError, match=f"^packing layout: {message}"):
        placements_from_json(doc)


@pytest.mark.parametrize(
    "placement, message",
    [
        ([1, [1]], "placement: expected an object, got list"),
        ({"index": 1}, r"placement: missing keys \['position'\]"),
        ({"index": 1, "position": (1,)}, "placement: 'position' must be a list, got tuple"),
        ({"index": 1, "position": "1"}, "placement: 'position' must be a list, got str"),
        ({"index": 1, "translate": ["1/4"]}, r"placement: missing keys \['position'\]"),
        ({"index": 1, "position": [1], "note": 0},
         r"placement: expected the keys \['index', 'position'\] alone, got \['index', 'position', 'note'\]"),
        ({"index": -2, "position": [1]}, "placement: 'index' must be nonnegative"),
        ({"index": False, "position": [1]}, "placement: 'index' must be an integer, got bool"),
        ({"index": True, "position": [1]}, "placement: 'index' must be an integer, got bool"),
    ],
)
def test_placements_off_the_written_shape_get_the_checks_messages(placement, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        placements_from_json(_layout_doc({"index": 0, "position": [0]}, placement))


def test_placements_off_the_written_shape_decode_as_the_written_shape():
    # a mapping that is not a dict, and a dict in another key order, pass the checks
    written = _layout_doc({"index": 1, "position": [3, 0]}, {"index": 0, "position": [6, 4]}, unit="1/12")
    other = _layout_doc(
        types.MappingProxyType({"position": [3, 0], "index": 1}),
        {"position": [6, 4], "index": 0},
        unit="1/12",
    )
    assert placements_from_json(other) == placements_from_json(written) == (
        Fraction(1, 12), ((1, (3, 0)), (0, (6, 4)))
    )


def test_placements_decode_on_the_documents_unit():
    # the positions as written, with no common factor taken out
    doc = _layout_doc({"index": 0, "position": [-2, 0]}, {"index": 1, "position": [8, -2]}, unit="1/12")
    assert placements_from_json(doc) == (Fraction(1, 12), ((0, (-2, 0)), (1, (8, -2))))
    assert placements_from_json(_layout_doc(unit="3/2")) == (Fraction(3, 2), ())


def test_scalars_and_containers():
    assert to_json(None) is None
    assert to_json(True) is True
    assert to_json(7) == 7
    assert to_json("straddle") == "straddle"
    assert to_json((Fraction(1, 2), Fraction(3, 4))) == ["1/2", "3/4"]
    assert to_json([[Fraction(1)], ()]) == [["1/1"], []]
    assert to_json({"k": Fraction(-2, 3), "n": None}) == {"k": "-2/3", "n": None}


def test_each_place_holds_its_own_json_object():
    # One box and one tuple held twice: an edit of one place leaves the other.
    box, pair = Box.unit_cube(1), (Fraction(1, 2), Fraction(3, 4))
    doc = to_json({"a": [box, pair], "b": [box, pair]})
    doc["a"][0]["lo"][0] = doc["a"][1][0] = "x"
    assert doc["b"] == [{"lo": ["0/1"], "hi": ["1/1"]}, ["1/2", "3/4"]]


class _Opaque:
    pass


@dataclasses.dataclass
class _Holder:
    values: list


@pytest.mark.parametrize(
    "value",
    [object(), _Opaque(), 0.5, {1, 2}, b"1/2", [Fraction(1), 0.25], {"x": 1.0},
     _Holder([Fraction(1), 0.5]), {1: "a"}, {True: "a"}, {"a": 1, None: "b"}, {"k": {2: "b"}}],
    ids=["object", "class", "float", "set", "bytes", "float-in-list", "float-in-dict",
         "float-in-a-dataclass-list", "int-key", "bool-key", "none-key", "nested-int-key"],
)
def test_to_json_rejects_unregistered_types(value):
    # ``json.dumps`` would write a float, and a non-str key as a string
    with pytest.raises(TypeError):
        to_json(value)


def test_to_json_names_a_refused_key_type():
    with pytest.raises(TypeError, match="^JSON object keys must be str, not int$"):
        to_json({7: "seven"})
    with pytest.raises(TypeError, match="^JSON object keys must be str, not bool$"):
        to_json({"report": {True: Fraction(1)}})


def test_int_to_json_checks_only_what_could_exceed_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert int_to_json(10**limit - 1) == 10**limit - 1
    with pytest.raises(PreconditionError, match="too large to print"):
        int_to_json(10**limit)
    with pytest.raises(PreconditionError, match="too large to print"):
        int_to_json(-(10**limit))
    # at the lowest limit Python admits, just inside and just outside it
    low = sys.int_info.str_digits_check_threshold
    sys.set_int_max_str_digits(low)
    try:
        assert int_to_json(10**low - 1) == 10**low - 1
        assert int_to_json(1 << 3 * low) == 1 << 3 * low
        with pytest.raises(PreconditionError, match="too large to print"):
            int_to_json(10**low)
    finally:
        sys.set_int_max_str_digits(limit)


def test_to_json_refuses_numbers_too_long_to_print():
    huge = 10 ** 5000
    with pytest.raises(PreconditionError, match="too large to print"):
        to_json(Fraction(huge, 3))
    with pytest.raises(PreconditionError, match="too large to print"):
        to_json({"count": huge})
    with pytest.raises(PreconditionError, match="too large to print"):
        to_json(Box((Fraction(0),), (Fraction(huge, 7),)))


def test_to_json_names_the_refused_type():
    with pytest.raises(TypeError, match="^no JSON encoding for float$"):
        to_json({"x": [0.5]})
    with pytest.raises(TypeError, match="^no JSON encoding for _Opaque$"):
        to_json(_Opaque())
    with pytest.raises(TypeError, match="^no JSON encoding for set$"):
        to_json(_Holder([{1, 2}]))


# ---------------------------------------------------------------------------
# the document text: the stdlib's compact JSON of what to_json returns
# ---------------------------------------------------------------------------


def _emitted(doc) -> str:
    """The text ``cli`` prints for ``doc``."""
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        cli._emit(doc, None)
    return buffer.getvalue()


# Every code point, lone surrogates included, plus the characters JSON escapes.
_texts = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff\ud800", "\u00e9\u20ac\U0001f600", "\u2028"]
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**4000), max_value=10**4000)
    | st.sampled_from([10**3999, -(10**3999)])
    | _texts
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24,
)


def _containers(value) -> list:
    """Every list and dict in ``value``, the root included, by walk."""
    found = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            found.append(v)
            stack.extend(v)
        elif isinstance(v, dict):
            found.append(v)
            stack.extend(v.values())
    return found


@given(value=json_values)
@settings(max_examples=300)
def test_to_json_keeps_every_json_value_the_stdlib_writes(value):
    # tuples become lists; nothing else changes, bools stay apart from ints
    assert same_json(to_json(value), json.loads(json.dumps(value)))


@given(value=json_values)
@settings(max_examples=200)
def test_emitted_text_is_one_ascii_line_of_compact_sorted_json(value):
    text = _emitted(to_json(value))
    assert text.isascii() and text.endswith("\n") and text.count("\n") == 1
    parsed = json.loads(text)
    assert same_json(parsed, json.loads(json.dumps(value)))
    assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"


@given(value=json_values)
@settings(max_examples=200)
def test_shared_subtrees_become_separate_objects_with_the_same_text(value):
    shared = {"v": value, "w": [value]}
    doc = {"a": shared, "b": [shared, {"c": shared}], "d": [[shared, shared]], "e": value}
    encoded = to_json(doc)
    assert _emitted(encoded) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    containers = _containers(encoded)
    assert len(set(map(id, containers))) == len(containers)


def test_emit_sorts_keys_at_every_depth_and_keeps_empty_containers():
    value = {"b": [[], {}, [[{}]], ()], "a": {"z": None, "": True, "A": False}, "\u00e9": -7}
    expected = '{"a":{"":true,"A":false,"z":null},"b":[[],{},[[{}]],[]],"\\u00e9":-7}\n'
    assert _emitted(to_json(value)) == expected
    assert _emitted([]) == "[]\n" and _emitted({}) == "{}\n"


@pytest.mark.parametrize(
    "text, escaped",
    [
        ("\u00e9", "\\u00e9"),
        ("\u20ac", "\\u20ac"),
        ("\U0001f600", "\\ud83d\\ude00"),
        ("\ud800", "\\ud800"),
        ("\u2028", "\\u2028"),
        ('"\\\x00\x1f\x7f', '\\"\\\\\\u0000\\u001f\\u007f'),
    ],
    ids=["latin", "bmp", "astral", "lone-surrogate", "line-separator", "json-escapes"],
)
def test_emit_escapes_what_is_not_printable_ascii(text, escaped):
    assert _emitted({"s": text}) == '{"s":"' + escaped + '"}\n'


def test_out_file_holds_the_bytes_stdout_prints(tmp_path, capsys):
    argv = ["infinite-cube", "--pool-size", "3", "--d", "2", "--verify"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "doc.json"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()
    assert printed == json.dumps(json.loads(printed), sort_keys=True, separators=(",", ":")) + "\n"
