"""Reference implementations the tests compare the library against exactly.

The base resistance table comes from plain ``Fraction`` Gauss-Jordan
inversion of the grounded Laplacian, with row swaps, where the library runs
fraction-free integer elimination.  The flower indices are the direct
O(m^2 n) definitions: the Kirchhoff index and Kemeny constant as sums of the
closed-form pair resistance, and the maximum resistance as an exhaustive
scan, its petal separation counted from the two locators.  The library
evaluates the same quantities in time independent of the petal count.
``max_diff_sequence`` differences the library's maxima over a range of petal
counts.  ``reference_flower`` labels every petal's vertices one
by one, where the library shifts petal 1's labels by whole blocks.
``located_pairs`` lists the general formula's parameters ``(a, b, e)``;
``complete_case`` and ``cycle_position`` map them to the parameters of the
paper's complete- and cycle-base pair forms in ``paper_forms``.
"""

from __future__ import annotations

from fractions import Fraction

from flowergraphs import (
    FlowerLocator,
    FlowerSpec,
    Graph,
    MaxResistance,
    flower_resistance,
    graph_from_edge_list,
    max_resistance_search,
)

from paper_forms import CyclePairPosition, PairCase


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


def outer_vertices(spec: FlowerSpec) -> list[int]:
    """Base vertices other than the marked pair, ascending: a petal's labels after
    its junction."""
    return [v for v in range(spec.base.vertex_count) if v not in (spec.x, spec.y)]


def reference_flower(spec: FlowerSpec) -> Graph:
    """The flower built petal by petal: petal ``i``'s ``x`` is label ``(i - 1)(m - 1)``,
    its ``y`` is petal ``i - 1``'s ``x`` and its outer vertices follow its junction."""
    block = spec.block_size
    outer_index = {v: off for off, v in enumerate(outer_vertices(spec))}

    def label(petal: int, base_vertex: int) -> int:
        if base_vertex == spec.x:
            return (petal - 1) * block
        if base_vertex == spec.y:
            return ((petal - 2) % spec.n) * block
        return (petal - 1) * block + 1 + outer_index[base_vertex]

    return graph_from_edge_list(
        (label(petal, a), label(petal, b))
        for petal in range(1, spec.n + 1)
        for a, b in spec.base.edges
    )


def all_locators(spec: FlowerSpec) -> list[FlowerLocator]:
    outer = outer_vertices(spec)
    locs = []
    for petal in range(1, spec.n + 1):
        locs.append(FlowerLocator(petal, spec.x))
        locs.extend(FlowerLocator(petal, w) for w in outer)
    return locs


def located_pairs(spec: FlowerSpec):
    """Every ``(a, b, e, u, v)`` of ``R_ab(e)``: ``u`` is base locator ``a`` in petal 1
    and ``v`` is ``b``, ``e`` petals down the chain from it."""
    n, x = spec.n, spec.x
    reps = (x, *outer_vertices(spec))
    for a in reps:
        u = FlowerLocator(1, a)
        for b in reps:
            for e in range(a == b, n):
                yield a, b, e, u, FlowerLocator((1 - e) % n or n, b)


def complete_case(a: int, b: int, e: int, n: int) -> tuple[PairCase, int]:
    """The complete-flower case and ``d`` of ``R_ab(e)``, with ``x = 0``."""
    if a == 0 and b == 0:
        return PairCase.BOTH_ASSOCIATED, e
    if a == 0:
        return PairCase.ONE_ASSOCIATED, e + 1
    if b == 0:
        return PairCase.ONE_ASSOCIATED, (n - e) % n + 1
    return PairCase.NEITHER, e + 1


def cycle_position(m: int, p: int, a: int, b: int, e: int) -> CyclePairPosition:
    """The cycle-flower position of ``R_ab(e)``, with ``x = 0`` and ``y = p``; ``arc(w)``
    is an interior vertex's complementary arc length and its offset from ``x``."""

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


def petal_separation(spec: FlowerSpec, u: FlowerLocator, v: FlowerLocator) -> int:
    """Inclusive petal count between two canonical locators, the shorter way round."""
    if u.petal == v.petal:
        return 1
    d = (u.petal - v.petal) % spec.n + 1
    return min(d, spec.n - d + 2)


def exhaustive_max_resistance(spec: FlowerSpec) -> MaxResistance:
    """Maximum over all pairs; ties break toward the smallest locator pair."""
    best: MaxResistance | None = None
    for u, v in _anchored_pairs(spec):
        value = flower_resistance(spec, u, v)
        pair = (u, v) if u <= v else (v, u)
        d = petal_separation(spec, u, v)
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
    junction_degree = base.degrees[spec.x] + base.degrees[spec.y]

    def degree(loc: FlowerLocator) -> int:
        return junction_degree if loc.base_vertex == spec.x else base.degrees[loc.base_vertex]

    anchored = sum(
        (
            degree(u) * degree(v) * flower_resistance(spec, u, v)
            for u, v in _anchored_pairs(spec)
        ),
        start=Fraction(0),
    )
    # The flower has n * q_base edges; the rotation factor n cancels one n.
    return anchored / (4 * base.edge_count)


def max_diff_sequence(
    base: Graph, x: int, y: int, n_from: int, n_to: int
) -> list[Fraction]:
    """Consecutive differences of the maximum resistance as petals are added.

    Entry ``k`` is ``max(F_{n+1}) - max(F_n)`` for ``n = n_from + k``; the
    sequence converges to a quarter of the base resistance between the marked
    vertices.  Each maximum comes from the O(m^2) candidate search of
    ``max_resistance_search``, so the cost does not grow with ``n``.
    """
    if n_from < 3:
        raise ValueError("petal counts start at 3")
    if n_to < n_from:
        raise ValueError("empty range")
    maxima = [
        max_resistance_search(FlowerSpec(base, x, y, n)).value for n in range(n_from, n_to + 1)
    ]
    return [maxima[i + 1] - maxima[i] for i in range(len(maxima) - 1)]
