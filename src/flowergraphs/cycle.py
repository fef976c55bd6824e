"""Closed forms for flowers built on cycle base graphs (generalized sunflowers).

The base cycle has ``m`` vertices with the marked pair at cycle distance
``p``, splitting it into a short arc of length ``p`` and a long arc of length
``m - p``.  Pairwise resistances depend on each endpoint's arc, its offset
along that arc, and the petal separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flower import FlowerSpec
from .graphs import cycle_graph


@dataclass(frozen=True)
class CycleFlowerParams:
    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError("cycle base needs at least three vertices")
        if self.n < 3:
            raise ValueError("petal count must be at least 3")
        if not 1 <= self.p <= self.m // 2:
            raise ValueError(f"marked distance p={self.p} out of range 1..{self.m // 2}")


def cycle_flower_spec(params: CycleFlowerParams) -> FlowerSpec:
    """Canonical flower spec: cycle base with marked vertices 0 and ``p``."""
    return FlowerSpec(cycle_graph(params.m), 0, params.p, params.n)


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


def _validate_position(params: CycleFlowerParams, pos: CyclePairPosition) -> None:
    m, n, p = params.m, params.n, params.p
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


def gs_resistance(params: CycleFlowerParams, pos: CyclePairPosition) -> Fraction:
    """Pairwise resistance in a cycle flower from a validated pair position."""
    _validate_position(params, pos)
    m, n = params.m, params.n
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


def gs_kirchhoff(params: CycleFlowerParams) -> Fraction:
    m, n, p = params.m, params.n, params.p
    span = p * m - p * p
    first = Fraction(
        n * span * (n * n * (m - 1) ** 2 + m * m * (4 - 6 * n) + 6 * m * n - 1),
        12 * m,
    )
    second = Fraction(n * (m**3 + m - 2 - 2 * n * (m - 1) ** 2 * (m + 1)), 12)
    return first - second


def gs_kemeny(params: CycleFlowerParams) -> Fraction:
    m, n, p = params.m, params.n, params.p
    span = p * m - p * p
    return Fraction(
        (n * n - 6 * n + 4) * span + m * m * (2 * n - 1) - 2 * n - 1, 6
    )
