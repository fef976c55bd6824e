"""The paper's closed forms for complete- and cycle-base flowers, as the paper
states them: the tests' transcription, which ``test_paper_forms`` proves equal to
the library's general-base path for every parameter.

``cf_*`` take a complete flower's base size ``m`` and petal count ``n`` and, per
pair, its ``PairCase`` and inclusive petal separation; ``gs_*`` take a cycle
flower's ``m``, ``n`` and marked distance ``p`` and, per pair, its
``CyclePairPosition``.  Nothing here reads the library: the module imports only
the standard library, so the proof compares two independent derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class PairCase(Enum):
    """Which endpoints of a vertex pair are associated (junction) vertices."""

    BOTH_ASSOCIATED = "both-associated"
    ONE_ASSOCIATED = "one-associated"
    NEITHER = "neither"


def cf_resistance(m: int, n: int, case: PairCase, d: int) -> Fraction:
    """Pairwise resistance in a complete flower for the given case and separation.

    ``d`` counts junction gaps for the both-associated case (``1..n-1``) and
    inclusive petals otherwise (``1..n``; ``d = 1`` covers same-petal pairs).
    """
    if case is PairCase.BOTH_ASSOCIATED:
        if not 1 <= d <= n - 1:
            raise ValueError(f"d={d} invalid for associated pairs (1..{n - 1})")
        return Fraction(2 * d * (n - d), m * n)
    if not 1 <= d <= n:
        raise ValueError(f"d={d} invalid for case {case.value} (1..{n})")
    if case is PairCase.ONE_ASSOCIATED:
        return Fraction(2 * d, m) - Fraction((2 * d - 1) ** 2, 2 * m * n)
    return Fraction(2 * d, m) - Fraction(2 * (d - 1) ** 2, m * n)


def cf_max_resistance(m: int, n: int) -> Fraction:
    """Maximum resistance over all vertex pairs of a complete flower."""
    if n % 2 == 0:
        return Fraction(n + 4, 2 * m)
    return Fraction(n * n + 4 * n - 1, 2 * m * n)


def cf_kirchhoff(m: int, n: int) -> Fraction:
    return Fraction(
        n * (5 + 12 * n + n * n + m * m * (-1 + 6 * n + n * n) - m * (1 + 18 * n + 2 * n * n)),
        6 * m,
    )


def cf_kemeny(m: int, n: int) -> Fraction:
    return Fraction((m - 1) * (-12 * n + m * (n * n + 6 * n - 1)), 6 * m)


@dataclass(frozen=True)
class CyclePairPosition:
    """Arc-and-offset description of a vertex pair in a cycle flower.

    ``p_u``/``p_v`` are the lengths of the arcs *not* containing each endpoint
    (a junction counts as sitting on the long arc for cross-petal pairs, so it
    gets ``p``).  ``l``/``k`` are distances from the marked vertex ``x`` to
    each endpoint measured along the endpoint's own arc.
    """

    d: int
    p_u: int
    p_v: int
    l: int
    k: int
    same_petal: bool
    same_arc: bool


def _validate_position(m: int, n: int, p: int, pos: CyclePairPosition) -> None:
    arcs = {p, m - p}
    if pos.p_u not in arcs or pos.p_v not in arcs:
        raise ValueError(f"arc lengths must lie in {sorted(arcs)}")
    if pos.p_u in (0, m) or pos.p_v in (0, m):
        raise ValueError("degenerate arc of length 0 or m")
    if not 0 <= pos.l <= m - pos.p_u:
        raise ValueError(f"offset l={pos.l} exceeds its arc of length {m - pos.p_u}")
    if not 0 <= pos.k <= m - pos.p_v:
        raise ValueError(f"offset k={pos.k} exceeds its arc of length {m - pos.p_v}")
    if pos.same_petal:
        if pos.d != 1:
            raise ValueError("same-petal pairs have petal separation 1")
        if pos.same_arc:
            if pos.p_u != pos.p_v:
                raise ValueError("same-arc pairs share the complementary arc length")
            if pos.k < pos.l:
                raise ValueError("same-arc pairs must be labelled with k >= l")
    elif not 2 <= pos.d <= n:
        raise ValueError(f"petal separation d={pos.d} out of range 2..{n}")


def gs_resistance(m: int, n: int, p: int, pos: CyclePairPosition) -> Fraction:
    """Pairwise resistance in a cycle flower from a validated pair position."""
    _validate_position(m, n, p, pos)
    p_u, p_v, l, k, d = pos.p_u, pos.p_v, pos.l, pos.k, pos.d
    arc_product = p_u * (m - p_u)
    if not pos.same_petal:
        series = (p_u + l) * (m - p_u - l) + k * (m - k) + arc_product * (d - 2)
        imbalance = p_v * (m - p_v - 2 * k) + p_u * (m - p_u + 2 * l) - 2 * d * arc_product
        return Fraction(series, m) - Fraction(imbalance * imbalance, 4 * n * m * arc_product)
    if pos.same_arc:
        t = k - l
        return Fraction(t * (m - t), m) - Fraction(p_u * t * t, n * m * (m - p_u))
    imbalance = p_u * p_u + p_u * (2 * l - m) + p_v * (m - 2 * k - p_v)
    return Fraction((k + l) * (m - k - l), m) - Fraction(
        imbalance * imbalance, 4 * n * m * arc_product
    )


def gs_kirchhoff(m: int, n: int, p: int) -> Fraction:
    span = p * m - p * p
    first = Fraction(
        n * span * (n * n * (m - 1) ** 2 + m * m * (4 - 6 * n) + 6 * m * n - 1),
        12 * m,
    )
    second = Fraction(n * (m**3 + m - 2 - 2 * n * (m - 1) ** 2 * (m + 1)), 12)
    return first - second


def gs_kemeny(m: int, n: int, p: int) -> Fraction:
    span = p * m - p * p
    return Fraction(
        (n * n - 6 * n + 4) * span + m * m * (2 * n - 1) - 2 * n - 1, 6
    )
