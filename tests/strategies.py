"""Shared hypothesis strategies for the exact-arithmetic test suite.

Everything generated here is a Fraction (or a structure built from
Fractions); no strategy ever produces a float.  Sizes are kept small on
purpose: the interesting failures in this code base are combinatorial
(box decompositions, stage descents), not magnitude-driven, and small
rationals keep shrunk counterexamples readable.

``lattice_union`` and ``approx_set`` turn the library's integer-lattice
stage sets into Fraction ``BoxUnion`` objects, so tests can compare them
with the oracles' sets box for box.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from hypothesis import strategies as st

from fatcantor import Box, BoxUnion, CantorSchedule, Diff, Gen, Inter, Union, geometry, ring


# Small signed rationals with denominators that are products of 2s and 3s,
# so translated Cantor stages stay exactly representable at low stages.
_denoms = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 32, 64])


@st.composite
def fractions(draw, min_value=None, max_value=None):
    num = draw(st.integers(min_value=-96, max_value=96))
    den = draw(_denoms)
    q = Fraction(num, den)
    if min_value is not None and q < min_value:
        q = Fraction(min_value)
    if max_value is not None and q > max_value:
        q = Fraction(max_value)
    return q


@st.composite
def unit_fractions(draw):
    """A rational in [0, 1] with a small denominator."""
    den = draw(_denoms)
    num = draw(st.integers(min_value=0, max_value=den))
    return Fraction(num, den)


@st.composite
def positive_fractions(draw, max_value=Fraction(4)):
    den = draw(_denoms)
    num = draw(st.integers(min_value=1, max_value=4 * den))
    q = Fraction(num, den)
    return min(q, Fraction(max_value))


@st.composite
def boxes(draw, dim=1, span=Fraction(2)):
    """A nonempty bounded box in [-span, span]^dim with rational corners."""
    lo, hi = [], []
    for _ in range(dim):
        a = draw(fractions(min_value=-span, max_value=span))
        w = draw(positive_fractions(max_value=span))
        lo.append(a)
        hi.append(a + w)
    return Box(tuple(lo), tuple(hi))


@st.composite
def schedules(draw, dim=1):
    c = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4)]))
    rho = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 8), Fraction(2, 5)]))
    # keep the removed total strictly below 1
    if c * rho / (1 - 2 * rho) >= 1:
        c = Fraction(1, 2)
        rho = Fraction(1, 4)
    return CantorSchedule(dim, c=c, rho=rho)


@st.composite
def gens(draw, dim=1):
    t = tuple(draw(fractions(min_value=Fraction(-2), max_value=Fraction(2))) for _ in range(dim))
    clip = draw(st.one_of(st.just(Box.unit_cube(dim)), boxes(dim=dim)))
    return Gen(t, clip)


@st.composite
def odd_gens(draw, dim=1):
    """A generator whose translation may have a denominator coprime to any
    stage's (5, 7, 9), clipped to a bounded, empty, unbounded or half-space
    box."""
    t = tuple(
        Fraction(draw(st.integers(min_value=-18, max_value=18)), draw(st.sampled_from([1, 2, 5, 7, 9])))
        for _ in range(dim)
    )
    axis = draw(st.integers(min_value=0, max_value=dim - 1))
    threshold = Fraction(draw(st.integers(min_value=-3, max_value=12)), draw(st.sampled_from([3, 7, 8])))
    clip = draw(
        st.sampled_from(
            [
                Box.unit_cube(dim),
                Box.empty(dim),
                Box.whole_space(dim),
                Box.half_space(dim, axis, threshold, above=True),
                Box.half_space(dim, axis, threshold, above=False),
            ]
        )
        | boxes(dim=dim)
    )
    return Gen(t, clip)


@st.composite
def ring_exprs(draw, dim=1, max_leaves=6, positive_only=False, leaves_from=gens):
    """A random ring expression over translated Cantor generators.

    ``positive_only`` restricts to union/intersection nodes (no set
    difference), the shape for which stage upper bounds are monotone.
    ``leaves_from`` is the strategy of the generator leaves.
    """
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    expr = draw(leaves_from(dim=dim))
    combos = [Union, Inter] if positive_only else [Union, Diff, Inter]
    for _ in range(leaves - 1):
        node = draw(st.sampled_from(combos))
        other = draw(leaves_from(dim=dim))
        if draw(st.booleans()):
            expr = node(expr, other)
        else:
            expr = node(other, expr)
    return expr


def lattice_union(lattice, tree) -> BoxUnion:
    """A canonical lattice slab tree as the ``BoxUnion`` of its rational coordinates."""
    to_fraction = [functools.partial(Fraction, denominator=scale) for scale in lattice.scales]
    return BoxUnion(lattice.d, geometry._map_ends(tree, to_fraction))


def approx_set(e, s: CantorSchedule, n: int) -> BoxUnion:
    """The library's stage-n set of ``e`` (``ring._evaluate`` on ``ring._lattice``)."""
    lattice = ring._lattice([e], s, n)
    return lattice_union(lattice, ring._evaluate(e, lattice))
