"""Exact-rational helpers: parsing, dyadic logs, extended coordinates."""

from __future__ import annotations

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatcantor import NEG_INF, POS_INF, PreconditionError, pow2
from fatcantor.rationals import (
    MAX_DECIMAL_EXPONENT,
    _floor_log2_ratio,
    as_fraction,
    coord_from_json,
    coord_to_json,
    format_fraction,
    is_finite,
    parse_each,
    parse_fraction,
    printable,
)

from strategies import positive_fractions


# ---------------------------------------------------------------------------
# pow2 / _floor_log2_ratio
# ---------------------------------------------------------------------------


def floor_log2(value: Fraction) -> int:
    """The bit-length rule on a value's lowest terms."""
    return _floor_log2_ratio(value.numerator, value.denominator)


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


_widths = st.one_of(st.integers(1, 2**8), st.integers(2**200, 2**260))


@given(p=_widths, q=_widths)
def test_floor_log2_meets_its_definition_on_wide_fractions(p, q):
    v = Fraction(p, q)
    k = floor_log2(v)
    assert pow2(k) <= v < pow2(k + 1)


@given(a=st.integers(0, 260), b=st.integers(0, 260), odd=st.integers(0, 2**210).map(lambda n: 2 * n + 1))
def test_floor_log2_of_powers_of_two_and_their_neighbours(a, b, odd):
    assert floor_log2(Fraction(1 << a, 1 << b)) == a - b
    # an odd factor keeps the fraction in lowest terms and lifts it by its own log
    assert floor_log2(Fraction(odd << a, 1 << b)) == a - b + odd.bit_length() - 1
    if a > 0:  # just below a power of two
        assert floor_log2(Fraction((1 << a) - 1, 1 << b)) == a - b - 1
    assert floor_log2(Fraction(1 << a, (1 << b) + 1)) == a - b - 1


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


# Texts off the canonical ``p/q`` path, all of which ``Fraction()`` reads.
_NON_CANONICAL = st.sampled_from(
    ["+3/4", " 3/4 ", "\t-3/4\n", "1_000/3", "0.25", "-.5", "1e-3", "2.5E+2", "7", "-0",
     "\u0663/\u0664", "\uff11\uff12/5", "1/\u0668"]
)


@given(
    text=st.builds(
        "{}/{}".format,
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**30),
    )
    | st.builds("{:0>3}/{:0>4}".format, st.integers(0, 999), st.integers(1, 9999))
    | _NON_CANONICAL
)
def test_parse_fraction_reads_what_fraction_reads(text):
    assert parse_fraction(text) == Fraction(text.strip())


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_parse_fraction_admits_exponents_up_to_the_cap(sign):
    text = f"1e{sign}{MAX_DECIMAL_EXPONENT}"
    assert parse_fraction(text) == Fraction(text)
    assert parse_fraction(f" 25E{sign}{MAX_DECIMAL_EXPONENT} ") == Fraction(f"25E{sign}{MAX_DECIMAL_EXPONENT}")


@pytest.mark.parametrize(
    "text",
    [f"1e{MAX_DECIMAL_EXPONENT + 1}", f"1e-{MAX_DECIMAL_EXPONENT + 1}", f"0.5E+{MAX_DECIMAL_EXPONENT + 1}",
     "1e-100000000", "3e1_000_000"],
)
def test_parse_fraction_refuses_exponents_above_the_cap(text):
    with pytest.raises(PreconditionError, match=f"exceeds {MAX_DECIMAL_EXPONENT}"):
        parse_fraction(text)


def test_format_fraction_always_writes_numerator_slash_denominator():
    assert format_fraction(Fraction(4, 8)) == "1/2"
    assert format_fraction(Fraction(-6, 3)) == "-2/1"
    assert format_fraction(Fraction(0)) == "0/1"


def test_printable_returns_what_prints_and_refuses_the_rest():
    limit = sys.get_int_max_str_digits()
    big = 10**limit - 1
    for value in (0, -big, big, Fraction(1, big), Fraction(-big, 7), POS_INF):
        assert printable(value) is value
    for value in (10**limit, -(10**limit), Fraction(1, 10**limit), Fraction(10**limit, 3)):
        with pytest.raises(PreconditionError, match="^result too large to print"):
            printable(value)
        with pytest.raises(PreconditionError, match="^result too large to print"):
            format_fraction(Fraction(value))


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


_ORDER_OPS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def _order_key(value):
    return (-1, 0) if value is NEG_INF else (1, 0) if value is POS_INF else (0, value)


def test_infinities_compare_with_every_operator():
    # the signed order: NEG_INF below every rational, POS_INF above, each
    # equal only to itself; checked from both sides of every operator
    values = [NEG_INF, POS_INF, -1, 0, Fraction(1, 2), 3]
    for a in (NEG_INF, POS_INF):
        for b in values:
            for op in _ORDER_OPS:
                assert op(a, b) is op(_order_key(a), _order_key(b)), (op, a, b)
                assert op(b, a) is op(_order_key(b), _order_key(a)), (op, b, a)


def test_infinity_order_is_derived_from_lt_and_eq():
    from fatcantor.rationals import _Infinity

    for name in ("__le__", "__gt__", "__ge__"):
        assert getattr(_Infinity, name).__module__ == "functools", name


def test_coord_json_round_trip():
    assert coord_from_json(coord_to_json(POS_INF)) is POS_INF
    assert coord_from_json(coord_to_json(NEG_INF)) is NEG_INF
    assert coord_from_json(coord_to_json(Fraction(22, 7))) == Fraction(22, 7)
    assert coord_to_json(POS_INF) == "inf"
    assert coord_to_json(NEG_INF) == "-inf"


def test_parse_each_parses_each_distinct_text_once_in_order():
    parsed = []

    def parse(text):
        parsed.append(text)
        return parse_fraction(text)

    values = parse_each(["1/2", "1/3", "1/2", "2/4", "1/3"], parse)
    assert values == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    assert parsed == ["1/2", "1/3", "2/4"]
    assert values[0] is values[2] and values[1] is values[4]
    # a refusal is the first refused text's, in order
    with pytest.raises(PreconditionError, match="not a rational: 'x'"):
        parse_each(["1/2", "x", "1/2", "y"], parse_fraction)
    assert parse_each([], parse_fraction) == []
