"""Exception types shared across the package.

The CLI maps these onto exit codes (see ``cli.py``): precondition
violations exit 2, exhausted stage caps or search budgets exit 3, and
anything else exits 1.
"""

from __future__ import annotations

import sys


class FatCantorError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(FatCantorError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(PreconditionError):
    """Operands live in different ambient dimensions."""


class UnboundedBoxError(PreconditionError):
    """A bounded box was required but an infinite side was present."""


class BudgetError(FatCantorError):
    """A stage cap or search budget ran out before the result was certified.

    ``partial`` carries the best result computed before exhaustion (or
    ``None``) so callers and the CLI can still report something useful.
    """

    def __init__(self, message: str, *, partial: object | None = None) -> None:
        super().__init__(message)
        self.partial = partial


def too_large_to_print() -> PreconditionError:
    """The refusal of a result holding an integer longer than Python prints."""
    return PreconditionError(
        f"result too large to print: a number in it has more than"
        f" {sys.get_int_max_str_digits()} digits"
    )
