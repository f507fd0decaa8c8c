"""Exact-rational helpers: parsing, dyadic logs, extended coordinates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatcantor import NEG_INF, POS_INF, PreconditionError, floor_log2, pow2
from fatcantor.rationals import (
    as_fraction,
    coord_from_json,
    coord_to_json,
    format_fraction,
    is_finite,
    parse_fraction,
)

from strategies import positive_fractions


# ---------------------------------------------------------------------------
# pow2 / floor_log2
# ---------------------------------------------------------------------------


@given(k=st.integers(min_value=-200, max_value=200))
def test_pow2_matches_repeated_multiplication(k):
    # independent oracle: build 2**k by integer shifts only
    if k >= 0:
        expected = Fraction(1 << k)
    else:
        expected = Fraction(1, 1 << (-k))
    assert pow2(k) == expected


@given(q=positive_fractions(max_value=Fraction(512)))
def test_floor_log2_brackets_its_argument(q):
    k = floor_log2(q)
    assert pow2(k) <= q < pow2(k + 1)


@given(k=st.integers(min_value=-64, max_value=64))
def test_floor_log2_inverts_pow2(k):
    assert floor_log2(pow2(k)) == k
    # just below a power of two drops one level
    assert floor_log2(pow2(k) - pow2(k - 10)) == k - 1


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1), Fraction(-1, 7)])
def test_floor_log2_rejects_nonpositive(bad):
    with pytest.raises(PreconditionError):
        floor_log2(bad)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_parse_format_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_fraction(format_fraction(q)) == q


def test_parse_fraction_accepts_plain_integers_and_whitespace():
    assert parse_fraction("3") == 3
    assert parse_fraction(" -7/2 ") == Fraction(-7, 2)


@pytest.mark.parametrize("bad", ["3/0", "a/b", "1/-2", "", "inf", "-inf", "1/2/3"])
def test_parse_fraction_rejects_garbage(bad):
    with pytest.raises(PreconditionError):
        parse_fraction(bad)


def test_format_fraction_always_writes_numerator_slash_denominator():
    assert format_fraction(Fraction(4, 8)) == "1/2"
    assert format_fraction(Fraction(-6, 3)) == "-2/1"
    assert format_fraction(Fraction(0)) == "0/1"


def test_as_fraction_coerces_ints_but_not_strings():
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        as_fraction("5/3")  # strings go through parse_fraction


def test_as_fraction_rejects_floats():
    with pytest.raises(PreconditionError):
        as_fraction(0.5)


# ---------------------------------------------------------------------------
# extended coordinates (the two infinite markers)
# ---------------------------------------------------------------------------


def test_infinities_bound_every_fraction():
    for q in (Fraction(-10**9), Fraction(0), Fraction(10**9)):
        assert NEG_INF < q < POS_INF
    assert NEG_INF < POS_INF
    assert not is_finite(POS_INF)
    assert not is_finite(NEG_INF)
    assert is_finite(Fraction(7, 3))


def test_coord_json_round_trip():
    assert coord_from_json(coord_to_json(POS_INF)) is POS_INF
    assert coord_from_json(coord_to_json(NEG_INF)) is NEG_INF
    assert coord_from_json(coord_to_json(Fraction(22, 7))) == Fraction(22, 7)
    assert coord_to_json(POS_INF) == "inf"
    assert coord_to_json(NEG_INF) == "-inf"
