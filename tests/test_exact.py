"""Text form of exact rational values."""

from __future__ import annotations

from fractions import Fraction

from flowergraphs import format_rational


def test_format_rational_always_shows_denominator():
    assert format_rational(Fraction(33)) == "33/1"
    assert format_rational(Fraction(-5, 10)) == "-1/2"
