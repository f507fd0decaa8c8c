"""Exact rational scalars plus explicit infinity markers.

Every coordinate in this package is a ``fractions.Fraction``; the two
singletons below let boxes have unbounded sides (half-space clips) without
ever touching floating point.  Rationals serialize as ``"p/q"`` in lowest
terms with a positive denominator, infinities as ``"inf"`` / ``"-inf"``;
:func:`parse_ratio` reads back that text and no other, where
:func:`parse_fraction` takes any text ``Fraction()`` reads.
``functools.total_ordering`` derives the infinities' ``<=``, ``>`` and
``>=`` from their ``<`` and identity equality.

This module owns printability: Python prints an integer of at most
``sys.get_int_max_str_digits()`` digits, and a number longer than that
refuses the run with ``errors.too_large_to_print()`` (exit 2) instead of
failing where it is printed.  :func:`format_fraction` refuses so for every
rational a document holds, and :func:`printable` for an integer a
document holds or a number a refusal message shows.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence, TypeVar, Union

from .errors import PreconditionError, too_large_to_print


@functools.total_ordering
class _Infinity:
    """Signed infinity, totally ordered against rationals and itself."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int) -> None:
        self._sign = sign

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Infinity):
            return self._sign < other._sign
        if isinstance(other, (Fraction, int)):
            return self._sign < 0
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(("_Infinity", self._sign))

    # Shifting an unbounded side by a finite amount leaves it unbounded.
    def __add__(self, other: object) -> "_Infinity":
        if isinstance(other, (Fraction, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __repr__(self) -> str:
        return "POS_INF" if self._sign > 0 else "NEG_INF"


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

Coord = Union[Fraction, _Infinity]


def is_finite(value: Coord) -> bool:
    return not isinstance(value, _Infinity)


def as_fraction(value: object) -> Fraction:
    """Coerce ints and Fractions; reject floats loudly (exact package)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PreconditionError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


def format_fraction(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise too_large_to_print() from exc


# Python prints at most ``sys.get_int_max_str_digits()`` digits, a limit of
# at least ``str_digits_check_threshold`` or none.  An integer of at most
# three bits per digit of that is below 8**threshold < 10**threshold, so it
# prints under every limit without being printed to check.
_PRINTABLE_BITS = 3 * sys.int_info.str_digits_check_threshold

_T = TypeVar("_T")


def printable(value: _T) -> _T:
    """``value`` itself, once ``str(value)`` prints; a number in it with more
    digits than Python prints raises ``too_large_to_print()``.  An integer of
    at most ``_PRINTABLE_BITS`` bits is returned without printing it."""
    if type(value) is not int or value.bit_length() > _PRINTABLE_BITS:
        try:
            str(value)
        except ValueError as exc:
            raise too_large_to_print() from exc
    return value


# Largest decimal exponent ``parse_fraction`` admits, in absolute value: a
# longer power of ten is more digits than Python prints by default, so it
# could never appear in a document, and ``1e-100000000`` would otherwise
# build 10^100000000 before any cap is checked.
MAX_DECIMAL_EXPONENT = 4300

# The text every document holds: ASCII digits, a sign only on the numerator.
_CANONICAL = re.compile(r"(-?[0-9]+)/([0-9]+)")
# The exponent of a decimal, in the syntax ``Fraction()`` accepts.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p/q"`` or any other text ``Fraction()`` reads, such as a bare
    integer or an exact decimal whose exponent is at most
    ``MAX_DECIMAL_EXPONENT`` in absolute value."""
    canonical = _CANONICAL.fullmatch(text)
    exponent = None if canonical is not None else _EXPONENT.search(text)
    try:
        if canonical is not None:
            return Fraction(int(canonical[1]), int(canonical[2]))
        if exponent is None or abs(int(exponent[1])) <= MAX_DECIMAL_EXPONENT:
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not a rational: {text!r}") from exc
    raise PreconditionError(
        f"exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
    )


# Exactly the text ``format_fraction`` writes: lowest terms, a denominator of
# at least 1, ASCII digits without leading zeros, and no sign on zero.
_REDUCED = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def parse_ratio(text: object) -> tuple[int, int]:
    """The numerator and denominator of ``text`` written exactly as
    :func:`format_fraction` writes a rational; any other value or text, or a
    number with more digits than Python reads, raises ``PreconditionError``."""
    match = _REDUCED.fullmatch(text) if type(text) is str else None
    if match is not None:
        try:
            p, q = int(match[1]), int(match[2])
        except ValueError as exc:
            raise PreconditionError(
                f"a rational has more than {sys.get_int_max_str_digits()} digits"
            ) from exc
        if gcd(p, q) == 1:
            return p, q
    raise PreconditionError(f'expected a rational written "p/q" in lowest terms, got {text!r}')


def parse_each(texts: Sequence[str], parse: "Callable[[str], _T]") -> list[_T]:
    """``[parse(text) for text in texts]``, calling ``parse`` once per
    distinct text, in order of first occurrence: a refusal is still the
    first text's, in order, and equal texts give one object."""
    distinct = dict.fromkeys(texts)
    parsed = dict(zip(distinct, map(parse, distinct)))
    return list(map(parsed.__getitem__, texts))


def coord_to_json(value: Coord) -> str:
    if value is POS_INF:
        return "inf"
    if value is NEG_INF:
        return "-inf"
    return format_fraction(value)  # type: ignore[arg-type]


def coord_from_json(text: str) -> Coord:
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    return parse_fraction(text)


def pow2(k: int) -> Fraction:
    """2**k as an exact rational, for any integer k."""
    if k >= 0:
        return Fraction(1 << k)
    return Fraction(1, 1 << (-k))


def _floor_log2_ratio(p: int, q: int) -> int:
    """Largest k with 2**k <= p/q, for positive integers p, q in any terms.

    p/q lies in (2**(k-1), 2**(k+1)) for k = bitlen(p) - bitlen(q), reduced
    or not, so one shifted integer comparison decides.
    """
    k = p.bit_length() - q.bit_length()
    fits = q << k <= p if k >= 0 else q <= p << -k  # 2**k <= p/q
    return k if fits else k - 1
