"""Lossless JSON encoding for every structure the CLI emits or reads.

Scalars are strings ("p/q", "inf", "-inf") or JSON ints, never floats, so
encode/decode round-trips are bit-exact.  One encoder, :func:`to_json`,
emits every report: a dataclass becomes the object of its fields, keyed by
the field names, so a report's JSON keys are its field names and a new
field cannot be left out.  Only the types whose JSON is not their fields'
object have a hand-written encoder: scalars, ``Box`` (infinity markers),
``ExtendedRational`` (field ``n`` prints as ``"sqrt"``), ``PackingLayout``
(placements print as ``{"index", "position"}``, the position a list of
JSON ints) and ring expressions (one-key objects).  ``CubeFamily`` prints
as its fields' object, but has its own encoder too, which formats each
distinct side object once.  No encoder checks printability itself:
``rationals.format_fraction`` and ``printable`` refuse a number with more
digits than Python prints.  Each place in a document holds its own JSON
object, so a caller may edit one place without touching another.
:func:`to_json` returns only dicts with ``str`` keys, lists, and exact
``str``, ``int``, ``bool`` and ``None``: a float, any other key type and
any type without an encoder raise ``TypeError``.  The CLI writes that as
the stdlib's compact JSON, ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))``, which runs its C encoder and is ASCII.

The decoders stay hand-written, because they validate input from outside
the program: they check shapes and raise ``PreconditionError`` on malformed
input.  They are the same functions the ``--verify`` replay path uses.
A layout is its unit, placements and target, and stays on one integer
lattice from encoder to decoder: the document holds the unit once, as
``"p/q"``, and each placement's position as a list of JSON ints, a
translation being ``unit * position``.  :func:`placements_from_json`
reads the unit and the integer positions back as they are written, with
no rational text per coordinate, and refuses any other shape.  It tests
each placement for the exact shape the encoder writes before it checks
one in detail.  A witness is its box and one stage per hull leaf: the
leaves themselves, translations included, are read from the document's
inputs, never from the witness.

:func:`same_json` is the one comparison behind every ``--verify`` verdict:
two JSON values match when their objects have the same keys, in any order,
and every value has the same JSON type, so ``1``, ``1.0`` and ``true``
differ, as their text does.  It skips a subtree both sides hold as one
object, so a check that builds its expectation around the document's own
certificates walks only the rest.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .cover import UncoveredWitness
from .errors import PreconditionError
from .geometry import Box
from .packing import CubeFamily, PackingLayout, _distinct
from .quadratic import ExtendedRational
from .rationals import (
    coord_from_json,
    coord_to_json,
    format_fraction,
    parse_each,
    parse_fraction,
    parse_ratio,
    printable,
)
from .ring import Diff, Gen, Inter, RingExpr, Union

# Deepest expression ``expr_from_json`` admits, counted in nodes on the
# longest root-to-leaf path (a generator alone has depth 1).  Every pass over
# a decoded tree recurses once or twice per level (simplify, ring._evaluate,
# positive_hull, to_json, ``json.dumps``, and ``rn-enumerate`` output seven
# layers deeper), so this keeps them all far below the interpreter's
# recursion limit, even from a caller already deep in its stack.  Golden and
# benchmark expressions have at most four leaves.
MAX_EXPR_DEPTH = 64


def _expect(doc: Any, keys: Sequence[str], what: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise PreconditionError(f"{what}: expected an object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise PreconditionError(f"{what}: missing keys {missing}")
    return doc


# -- scalars ----------------------------------------------------------------


def frac_to_json(value: Fraction) -> str:
    return format_fraction(value)


def int_to_json(value: int) -> int:
    return printable(value)


def _scalar_text(value: Any) -> str:
    # JSON floats are refused: ``str(1.5)`` is not the text the file holds.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise PreconditionError(f"expected a rational string, got {value!r}")
    return str(value)


def frac_from_json(text: Any) -> Fraction:
    return parse_fraction(_scalar_text(text))


def _list_of(doc: Mapping[str, Any], key: str, what: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise PreconditionError(f"{what}: {key!r} must be a list, got {type(value).__name__}")
    return value


def _count(value: Any, what: str) -> int:
    # An exact int: ``int()`` would take 1.9 as 1 and true as 1.
    if type(value) is not int:
        raise PreconditionError(f"{what} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise PreconditionError(f"{what} must be nonnegative")
    return value


def _count_of(doc: Mapping[str, Any], key: str, what: str) -> int:
    return _count(doc[key], f"{what}: {key!r}")


def quad_to_json(value: ExtendedRational) -> dict:
    return {"a": frac_to_json(value.a), "b": frac_to_json(value.b), "sqrt": printable(value.n)}


# -- geometry ---------------------------------------------------------------


def box_to_json(box: Box) -> dict:
    return {"lo": [coord_to_json(v) for v in box.lo], "hi": [coord_to_json(v) for v in box.hi]}


def box_from_json(doc: Any) -> Box:
    m = _expect(doc, ("lo", "hi"), "box")
    lo = tuple(coord_from_json(_scalar_text(v)) for v in _list_of(m, "lo", "box"))
    hi = tuple(coord_from_json(_scalar_text(v)) for v in _list_of(m, "hi", "box"))
    return Box(lo, hi)


# -- ring expressions ---------------------------------------------------------

_BINARY_OPS = {"union": Union, "diff": Diff, "inter": Inter}


def expr_to_json(e: "RingExpr") -> dict:
    """One-key objects: {"gen": {...}} or {"union"|"diff"|"inter": [l, r]}."""
    if isinstance(e, Gen):
        return {"gen": {"x": _list(e.translation), "clip": _encode(e.clip)}}
    name = {Union: "union", Diff: "diff", Inter: "inter"}[type(e)]
    return {name: [_encode(e.left), _encode(e.right)]}


def expr_from_json(doc: Any) -> "RingExpr":
    """Decode an expression nested at most ``MAX_EXPR_DEPTH`` levels deep."""
    return _expr_from_json(doc, 1)


def _expr_from_json(doc: Any, depth: int) -> "RingExpr":
    if depth > MAX_EXPR_DEPTH:
        raise PreconditionError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if not isinstance(doc, Mapping) or len(doc) != 1:
        raise PreconditionError(
            "expression must be an object with exactly one of the keys"
            " 'gen', 'union', 'diff', 'inter'"
        )
    (op, body), = doc.items()
    if op == "gen":
        g = _expect(body, ("x", "clip"), "generator expression")
        return Gen(
            tuple(frac_from_json(v) for v in _list_of(g, "x", "generator expression")),
            box_from_json(g["clip"]),
        )
    if op in _BINARY_OPS:
        if not isinstance(body, Sequence) or isinstance(body, (str, bytes)) or len(body) != 2:
            raise PreconditionError(f"{op!r} expression needs a [left, right] pair")
        return _BINARY_OPS[op](
            _expr_from_json(body[0], depth + 1), _expr_from_json(body[1], depth + 1)
        )
    raise PreconditionError(f"unknown expression op {op!r}")


def exprs_from_json(doc: Any) -> list["RingExpr"]:
    """A pool file: either one expression object or a list of them."""
    if isinstance(doc, Mapping):
        return [expr_from_json(doc)]
    if isinstance(doc, Sequence) and not isinstance(doc, (str, bytes)):
        return [expr_from_json(item) for item in doc]
    raise PreconditionError("expected an expression object or a list of them")


# -- certificates and packing ------------------------------------------------


def witness_from_json(doc: Any) -> UncoveredWitness:
    """One witness: a box and one exact nonnegative int stage per hull
    leaf; ``null``, like any other malformed document, is refused."""
    what = "uncovered witness"
    m = _expect(doc, ("box", "certificates"), what)
    stages = _list_of(m, "certificates", what)
    certificates = tuple(_count(v, f"{what}: certificate {k}") for k, v in enumerate(stages))
    return UncoveredWitness(box=box_from_json(m["box"]), certificates=certificates)


def cube_family_from_json(doc: Any) -> CubeFamily:
    """A cube family; each distinct side text is parsed once.  Sides that
    are all strings skip the per-entry shape check: ``1``, ``true`` and
    ``1.0`` are equal keys, so a list holding any other type is checked
    entry by entry first."""
    what = "cube family"
    m = _expect(doc, ("dim", "sides"), what)
    sides = _list_of(m, "sides", what)
    if not set(map(type, sides)) <= {str}:
        sides = list(map(_scalar_text, sides))
    return CubeFamily(_count_of(m, "dim", what), tuple(parse_each(sides, parse_fraction)))


def _only_keys(doc: Mapping[str, Any], keys: Sequence[str], what: str) -> None:
    if len(doc) != len(keys):
        raise PreconditionError(f"{what}: expected the keys {list(keys)} alone, got {list(doc)}")


_LAYOUT_KEYS = ("unit", "placements", "target")
_PLACEMENT_KEYS = ("index", "position")


def placements_from_json(doc: Any) -> tuple[Fraction, tuple[tuple[int, tuple[int, ...]], ...]]:
    """A layout's unit and placements, as the document writes them; the
    layout must hold exactly ``{"unit", "placements", "target"}``, and its
    target is not read here.

    The unit is exactly the text the encoder writes
    (:func:`rationals.parse_ratio`), and positive.  Each placement is
    exactly ``{"index", "position"}``, with an exact nonnegative int index
    and a list of exact ints (``type(v) is int``: ``true`` and ``1.0`` are
    refused) as its position.  No coordinate is parsed as a rational, so
    the layout re-encodes to the document it was read from."""
    what = "placement"
    m = _expect(doc, _LAYOUT_KEYS, "packing layout")
    _only_keys(m, _LAYOUT_KEYS, "packing layout")
    p, q = parse_ratio(m["unit"])
    if p <= 0:
        raise PreconditionError(f"packing layout: the unit must be positive, got {m['unit']!r}")
    indices, positions = [], []
    for placement in _list_of(m, "placements", "packing layout"):
        # The shape the encoder writes is tested first; anything else goes
        # through the checks, which raise or accept it as this test would.
        if not (
            type(placement) is dict
            and len(placement) == 2
            and type(index := placement.get("index")) is int
            and index >= 0
            and type(position := placement.get("position")) is list
        ):
            pm = _expect(placement, _PLACEMENT_KEYS, what)
            _only_keys(pm, _PLACEMENT_KEYS, what)
            index = _count_of(pm, "index", what)
            position = _list_of(pm, "position", what)
        indices.append(index)
        positions.append(position)
    if not set(map(type, itertools.chain.from_iterable(positions))) <= {int}:
        bad = next(v for v in itertools.chain.from_iterable(positions) if type(v) is not int)
        raise PreconditionError(f"{what}: 'position' must hold integers, got {type(bad).__name__}")
    return Fraction(p, q), tuple(zip(indices, map(tuple, positions)))


# -- comparison -----------------------------------------------------------------


def same_json(doc: Any, expected: Any) -> bool:
    """Do two JSON values print as the same document, but for key order?

    Objects must have the same keys, in any order, and every value the same
    JSON type: unlike ``==``, this tells apart ``1``, ``1.0`` and ``true``,
    as their text does.  A subtree that both sides hold as the same object
    is equal without a walk.  Any shape is compared, none raises.
    """
    if doc is expected:
        return True
    kind = type(expected)
    if type(doc) is not kind:
        return False
    if kind is dict:
        if doc.keys() != expected.keys():
            return False
        pairs = zip(map(doc.__getitem__, expected), expected.values())
    elif kind is list:
        if len(doc) != len(expected):
            return False
        pairs = zip(doc, expected)
    else:
        return doc == expected
    # the identity test inlined: one call less per shared or cached value
    for a, b in pairs:
        if a is not b and not same_json(a, b):
            return False
    return True


# -- the encoder --------------------------------------------------------------


def _encode_layout(layout: PackingLayout) -> dict:
    """The unit once, as ``"p/q"``, and each position as its list of ints.
    The coordinate of the largest magnitude stands for the printability of
    all of them."""
    unit = frac_to_json(layout.unit)
    coordinates = itertools.chain.from_iterable(position for _, position in layout.placements)
    printable(max(map(abs, coordinates), default=0))
    return {
        "unit": unit,
        "placements": [
            {"index": idx, "position": list(position)} for idx, position in layout.placements
        ],
        "target": _encode(layout.target),
    }


def _encode_family(family: CubeFamily) -> dict:
    """Each distinct side object is formatted once: the CLI and
    :func:`cube_family_from_json` parse each distinct text once, so equal
    sides share one object."""
    text = {key: frac_to_json(v) for key, v in _distinct(family.sides).items()}
    sides = list(map(text.__getitem__, map(id, family.sides)))
    return {"dim": int_to_json(family.dim), "sides": sides}


def _same(value: Any) -> Any:
    return value


def _list(values: Sequence[Any]) -> list:
    # ``_encode`` inlined here, in ``_dict`` and in ``_by_fields``: one call
    # less per value
    return [_ENCODERS.get(type(v), _by_fields)(v) for v in values]


def _dict(doc: dict) -> dict:
    # ``json.dumps`` would write an int, bool or None key as a string
    encoded = {}
    for key, v in doc.items():
        if type(key) is not str:
            raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        encoded[key] = _ENCODERS.get(type(v), _by_fields)(v)
    return encoded


# Encoders by exact type.  A dataclass not listed gets its encoder from
# ``_by_fields`` on first use.  The encoders recurse through this table,
# never through a public name, so a wrapper on a public function sees one
# call per document.
_ENCODERS: "dict[type, Callable[[Any], Any]]" = {
    Fraction: frac_to_json,
    int: int_to_json,
    bool: _same,
    str: _same,
    type(None): _same,
    tuple: _list,
    list: _list,
    dict: _dict,
    Box: box_to_json,
    ExtendedRational: quad_to_json,
    CubeFamily: _encode_family,
    PackingLayout: _encode_layout,
    Gen: expr_to_json,
    Union: expr_to_json,
    Diff: expr_to_json,
    Inter: expr_to_json,
}


def _by_fields(value: Any) -> dict:
    """Encode a dataclass as the object of its fields, and register that
    encoder for its type; refuse any other type."""
    kind = type(value)
    if not dataclasses.is_dataclass(kind):
        raise TypeError(f"no JSON encoding for {kind.__name__}")
    names = tuple(f.name for f in dataclasses.fields(kind))

    def encode(obj: Any) -> dict:
        doc = {}
        for name in names:
            v = getattr(obj, name)
            doc[name] = _ENCODERS.get(type(v), _by_fields)(v)
        return doc

    _ENCODERS[kind] = encode
    return encode(value)


def _encode(value: Any) -> Any:
    return _ENCODERS.get(type(value), _by_fields)(value)


def to_json(value: Any) -> Any:
    """The JSON document of ``value``: a scalar, a list, a dict or a report.

    A dataclass without its own encoder becomes ``{field: to_json(value)}``;
    ``Fraction`` prints as ``"p/q"``; tuples become lists.  Any other type,
    and a dict key that is not a ``str``, raises ``TypeError``.  Each place
    in the document holds its own JSON
    object, even where ``value`` holds one object twice.
    """
    return _encode(value)
