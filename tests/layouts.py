"""Packing layouts written with rational translations, put on a lattice.

A ``PackingLayout`` holds one rational unit and integer positions, and a
translation is ``unit * position``.  Tests state placements as rational
translations, which read as the geometry they describe; these helpers turn
them into a layout and back.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from fatcantor import Box, PackingLayout


def lattice_layout(placements, target: Box, unit: "Fraction | None" = None) -> PackingLayout:
    """The layout placing each (index, translation) pair, on ``unit``: by
    default ``1/L``, ``L`` the lcm of the translations' denominators, as a
    decoded layout is.  Every translation must be a multiple of ``unit``."""
    placements = [(index, tuple(map(Fraction, translation))) for index, translation in placements]
    if unit is None:
        unit = Fraction(1, lcm(*{x.denominator for _, t in placements for x in t}))
    lattice = []
    for index, translation in placements:
        position = tuple(x / unit for x in translation)
        assert all(p.denominator == 1 for p in position), f"{translation} is off the lattice of {unit}"
        lattice.append((index, tuple(int(p) for p in position)))
    return PackingLayout(unit, tuple(lattice), target)


def translations(layout: PackingLayout) -> tuple:
    """The layout's (index, translation) pairs, each translation ``unit * position``."""
    return tuple((index, tuple(layout.unit * p for p in position)) for index, position in layout.placements)
