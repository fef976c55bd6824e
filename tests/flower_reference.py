"""Reference implementations the tests compare the library against exactly.

The base resistance table comes from plain ``Fraction`` Gauss-Jordan
inversion of the grounded Laplacian, with row swaps, where the library runs
fraction-free integer elimination.  The flower indices are the direct
O(m^2 n) definitions: the Kirchhoff index and Kemeny constant as sums of the
closed-form pair resistance, and the maximum resistance as an exhaustive
scan.  The library evaluates the same quantities in time independent of the
petal count.  ``located_pairs`` lists the general formula's parameters
``(a, b, e)``; ``complete_case`` and ``cycle_position`` map them to the
parameters of the paper's complete- and cycle-base pair forms.
"""

from __future__ import annotations

from fractions import Fraction

from flowergraphs import (
    CycleFlowerParams,
    CyclePairPosition,
    FlowerLocator,
    FlowerSpec,
    Graph,
    MaxResistance,
    PairCase,
    flower_resistance,
)
from flowergraphs.flower import normalized_petal_separation


def exact_resistance_table(g: Graph) -> tuple[tuple[Fraction, ...], ...]:
    """Base resistances from the inverse of the grounded Laplacian in ``Fraction``."""
    m, k = g.vertex_count, g.vertex_count - 1
    lap = [[Fraction(0)] * m for _ in range(m)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    rows = [lap[i][1:] + [Fraction(int(i - 1 == j)) for j in range(k)] for i in range(1, m)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [value / scale for value in rows[col]]
        for r in range(k):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    green = [[Fraction(0)] * m] + [[Fraction(0)] + row[k:] for row in rows]
    return tuple(
        tuple(green[i][i] + green[j][j] - 2 * green[i][j] for j in range(m)) for i in range(m)
    )


def all_locators(spec: FlowerSpec) -> list[FlowerLocator]:
    outer = spec.outer_vertices()
    locs = []
    for petal in range(1, spec.n + 1):
        locs.append(FlowerLocator(petal, spec.x, True))
        locs.extend(FlowerLocator(petal, w, False) for w in outer)
    return locs


def located_pairs(spec: FlowerSpec):
    """Every ``(a, b, e, u, v)`` of ``R_ab(e)``: ``u`` is base locator ``a`` in petal 1
    and ``v`` is ``b``, ``e`` petals down the chain from it."""
    n, x = spec.n, spec.x
    reps = (x,) + spec.outer_vertices()
    for a in reps:
        u = FlowerLocator(1, a, a == x)
        for b in reps:
            for e in range(a == b, n):
                yield a, b, e, u, FlowerLocator((1 - e) % n or n, b, b == x)


def complete_case(a: int, b: int, e: int, n: int) -> tuple[PairCase, int]:
    """The complete-flower case and ``d`` of ``R_ab(e)``, with ``x = 0``."""
    if a == 0 and b == 0:
        return PairCase.BOTH_ASSOCIATED, e
    if a == 0:
        return PairCase.ONE_ASSOCIATED, e + 1
    if b == 0:
        return PairCase.ONE_ASSOCIATED, (n - e) % n + 1
    return PairCase.NEITHER, e + 1


def cycle_position(params: CycleFlowerParams, a: int, b: int, e: int) -> CyclePairPosition:
    """The cycle-flower position of ``R_ab(e)``, with ``x = 0`` and ``y = p``; ``arc(w)``
    is an interior vertex's complementary arc length and its offset from ``x``."""
    m, p = params.m, params.p

    def arc(w: int) -> tuple[int, int]:
        return (m - p, w) if 0 < w < p else (p, m - w)

    if e >= 1:
        (p_a, l_a), (p_b, l_b) = ((p, 0) if w == 0 else arc(w) for w in (a, b))
        return CyclePairPosition(e + 1, p_a, p_b, l_a, l_b, same_petal=False, same_arc=False)
    if a == 0 or b == 0:
        side, along = arc(a or b)
        return CyclePairPosition(1, side, side, 0, along, same_petal=True, same_arc=True)
    (side_a, along_a), (side_b, along_b) = arc(a), arc(b)
    if (a < p) == (b < p):
        lo, hi = sorted((along_a, along_b))
        return CyclePairPosition(1, side_a, side_b, lo, hi, same_petal=True, same_arc=True)
    return CyclePairPosition(1, side_a, side_b, along_a, along_b, same_petal=True, same_arc=False)


def _anchored_pairs(spec: FlowerSpec):
    everyone = all_locators(spec)
    for u in everyone:
        if u.petal != 1:
            continue
        for v in everyone:
            if u != v:
                yield u, v


def exhaustive_max_resistance(spec: FlowerSpec) -> MaxResistance:
    """Maximum over all pairs; ties break toward the smallest locator pair."""
    best: MaxResistance | None = None
    for u, v in _anchored_pairs(spec):
        value = flower_resistance(spec, u, v)
        pair = (u, v) if u <= v else (v, u)
        d = normalized_petal_separation(spec, u, v)
        if (
            best is None
            or value > best.value
            or (value == best.value and pair < (best.u, best.v))
        ):
            best = MaxResistance(value, pair[0], pair[1], d)
    assert best is not None
    return best


def summed_kirchhoff(spec: FlowerSpec) -> Fraction:
    anchored = sum(
        (flower_resistance(spec, u, v) for u, v in _anchored_pairs(spec)),
        start=Fraction(0),
    )
    return spec.n * anchored / 2


def summed_kemeny(spec: FlowerSpec) -> Fraction:
    base = spec.base
    junction_degree = base.degree(spec.x) + base.degree(spec.y)

    def degree(loc: FlowerLocator) -> int:
        return junction_degree if loc.is_associated else base.degree(loc.base_vertex)

    anchored = sum(
        (
            degree(u) * degree(v) * flower_resistance(spec, u, v)
            for u, v in _anchored_pairs(spec)
        ),
        start=Fraction(0),
    )
    # The flower has n * q_base edges; the rotation factor n cancels one n.
    return anchored / (4 * base.edge_count)
