"""Closed forms for flowers built on complete base graphs.

With a complete base every pairwise base resistance is ``2/m``, so the general
flower formulas collapse to three cases distinguished only by which endpoints
are junction vertices and by the inclusive petal separation ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .flower import FlowerSpec
from .graphs import complete_graph


class PairCase(Enum):
    """Which endpoints of a vertex pair are associated (junction) vertices."""

    BOTH_ASSOCIATED = "both-associated"
    ONE_ASSOCIATED = "one-associated"
    NEITHER = "neither"


@dataclass(frozen=True)
class CompleteFlowerParams:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError("complete base needs at least three vertices")
        if self.n < 3:
            raise ValueError("petal count must be at least 3")


def complete_flower_spec(params: CompleteFlowerParams) -> FlowerSpec:
    """Canonical flower spec: complete base with marked vertices 0 and 1."""
    return FlowerSpec(complete_graph(params.m), 0, 1, params.n)


def cf_resistance(params: CompleteFlowerParams, case: PairCase, d: int) -> Fraction:
    """Pairwise resistance in a complete flower for the given case and separation.

    ``d`` counts junction gaps for the both-associated case (``1..n-1``) and
    inclusive petals otherwise (``1..n``; ``d = 1`` covers same-petal pairs).
    """
    m, n = params.m, params.n
    if case is PairCase.BOTH_ASSOCIATED:
        if not 1 <= d <= n - 1:
            raise ValueError(f"d={d} invalid for associated pairs (1..{n - 1})")
        return Fraction(2 * d * (n - d), m * n)
    if not 1 <= d <= n:
        raise ValueError(f"d={d} invalid for case {case.value} (1..{n})")
    if case is PairCase.ONE_ASSOCIATED:
        return Fraction(2 * d, m) - Fraction((2 * d - 1) ** 2, 2 * m * n)
    return Fraction(2 * d, m) - Fraction(2 * (d - 1) ** 2, m * n)


def cf_max_resistance(params: CompleteFlowerParams) -> Fraction:
    """Maximum resistance over all vertex pairs of a complete flower."""
    m, n = params.m, params.n
    if n % 2 == 0:
        return Fraction(n + 4, 2 * m)
    return Fraction(n * n + 4 * n - 1, 2 * m * n)


def cf_kirchhoff(params: CompleteFlowerParams) -> Fraction:
    m, n = params.m, params.n
    return Fraction(
        n * (5 + 12 * n + n * n + m * m * (-1 + 6 * n + n * n) - m * (1 + 18 * n + 2 * n * n)),
        6 * m,
    )


def cf_kemeny(params: CompleteFlowerParams) -> Fraction:
    m, n = params.m, params.n
    return Fraction((m - 1) * (-12 * n + m * (n * n + 6 * n - 1)), 6 * m)
