"""Text form of the exact ``Fraction`` values the closed forms return."""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: Fraction | int) -> str:
    """Render ``value`` as ``num/den``, always including the denominator."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"
