"""Reference implementations the tests compare the library against exactly.

The base resistance table comes from plain ``Fraction`` Gauss-Jordan
inversion of the grounded Laplacian, with row swaps, where the library runs
fraction-free integer elimination.  The flower indices are the direct
O(m^2 n) definitions: the Kirchhoff index and Kemeny constant as sums of the
closed-form pair resistance, and the maximum resistance as an exhaustive
scan.  The library evaluates the same quantities in time independent of the
petal count.
"""

from __future__ import annotations

from fractions import Fraction

from flowergraphs import (
    FlowerLocator,
    FlowerSpec,
    Graph,
    MaxResistance,
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
