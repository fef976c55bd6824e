"""Generalized flower graphs and their closed-form resistance machinery.

A flower on base graph ``G`` with marked vertices ``x != y`` and petal count
``n`` is built from ``n`` disjoint copies of ``G`` (the petals) by identifying
the ``x`` vertex of each petal with the ``y`` vertex of the next petal,
cyclically.  The shared vertices are the "associated" vertices; everything
else is an "outer" vertex of its petal.

The flower is never built as an ``N``-vertex graph: ``FlowerSpec.lift`` gives it
as the Z_n lift of one petal, whose arcs the oracle reads and whose edges ``gen``
streams, and every closed form reads only the base graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from .graphs import Graph, Lift, integer


class FlowerLocator(NamedTuple):
    """Position of a flower vertex: petal index and base vertex."""

    petal: int
    base_vertex: int


@dataclass(frozen=True)
class FlowerSpec:
    """Base graph, marked vertex pair and petal count defining one flower.

    The junction between petal ``i`` and petal ``i + 1`` is petal ``i``'s copy
    of ``x`` and petal ``i + 1``'s copy of ``y`` (petal ``n``'s ``x`` is petal
    1's ``y``), and a canonical locator records it as ``(i, x)``.  Petal ``i``
    owns the labels ``(i - 1) * (m - 1) .. i * (m - 1) - 1`` in ``block_order``:
    its junction ``x`` first, then its base vertices other than ``x`` and ``y``
    in ascending order.
    """

    base: Graph
    x: int
    y: int
    n: int

    def __post_init__(self) -> None:
        for name in ("x", "y", "n"):  # numpy integers become ints, which the exact sums need
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        m = self.base.vertex_count
        if not (0 <= self.x < m and 0 <= self.y < m):
            raise ValueError(f"marked vertices ({self.x}, {self.y}) out of range")
        if self.x == self.y:
            raise ValueError("marked vertices must be distinct")
        if self.n < 3:
            raise ValueError("petal count must be at least 3")
        others = (v for v in range(m) if v not in (self.x, self.y))
        object.__setattr__(self, "block_order", (self.x, *others))
        # flower_resistance's memo, keyed by (a, b, e); not a field, so it stays out
        # of equality, the hash and the repr.
        object.__setattr__(self, "_resistances", {})

    @property
    def block_size(self) -> int:
        """Labels per petal block: one junction plus the non-marked vertices."""
        return self.base.vertex_count - 1

    @property
    def vertex_count(self) -> int:
        return self.n * self.block_size

    def label_of(self, petal: int, base_vertex: int) -> int:
        """The flower label of ``base_vertex`` inside ``petal``."""
        petal, v = locator(self, petal, base_vertex)
        return (petal - 1) * self.block_size + self.block_order.index(v)

    def locator_of(self, label: int) -> FlowerLocator:
        """The canonical locator of flower label ``label``."""
        label = integer("label", label)
        if not (0 <= label < self.vertex_count):
            raise ValueError(f"label {label} out of range")
        petal, offset = divmod(label, self.block_size)
        return FlowerLocator(petal + 1, self.block_order[offset])

    def lift(self) -> Lift:
        """The flower as the Z_n lift of its petal, whose arcs ``_petal_arcs`` keeps
        per base and marked pair.

        The lift is a simple connected graph, so ``Lift`` checks nothing.  ``Graph``
        has certified the base simple and connected.  ``_petal_arcs`` makes steps 0
        and +-1 only, and ``n >= 3`` keeps them centred in ``(-n/2, n/2]`` and
        distinct modulo ``n``: a step-0 arc joins two distinct offsets of one block,
        so there is no loop; distinct base edges give distinct arcs, so there is no
        repeated one; and no step is ``n/2``, so there is no half-turn arc.  The
        quotient is the base with ``x`` and ``y`` identified, which is connected, and
        an ``x``-``y`` path in the base is a closed walk in it of voltage +-1: the
        gcd of the cycle voltages is 1, so the lift is connected (Gross and Tucker,
        *Topological Graph Theory*, 1987, ch. 2)."""
        return Lift(self.block_size, self.n, _petal_arcs(self.base, self.block_order, self.y))


@lru_cache(maxsize=64)
def _petal_arcs(base: Graph, block_order: tuple[int, ...], y: int) -> memoryview:
    """The arcs that leave block 0 of every flower on ``base`` with this
    ``block_order`` and ``y``, in O(|E_base|) whatever the petal count.

    A base vertex other than ``y`` sits in block 0 at its ``block_order`` offset;
    ``y`` is the junction ``x`` of block ``n - 1``, offset 0 one block back.  So
    the base edge ``(a, b)`` gives the arcs ``a -> b`` and ``b -> a`` with steps
    0 or +-1 between the two places.  The rows are packed as the read-only
    ``(rows, 3)`` memoryview of 64-bit ints over bytes that ``Lift`` holds.
    """
    place = {v: (offset, 0) for offset, v in enumerate(block_order)}
    place[y] = (0, -1)
    arcs = array("q")
    for a, b in base.edges:
        (ra, pa), (rb, pb) = place[a], place[b]
        arcs.extend((ra, rb, pb - pa, rb, ra, pa - pb))
    return memoryview(arcs.tobytes()).cast("q", (len(arcs) // 3, 3))


def locator(spec: FlowerSpec, petal: int, base_vertex: int) -> FlowerLocator:
    """The canonical locator of ``base_vertex`` inside ``petal``: a junction
    reads as vertex ``x`` of the previous petal, cyclically."""
    petal, base_vertex = integer("petal", petal), integer("base_vertex", base_vertex)
    if not (1 <= petal <= spec.n):
        raise ValueError(f"petal {petal} out of range 1..{spec.n}")
    if not (0 <= base_vertex < spec.base.vertex_count):
        raise ValueError(f"base vertex {base_vertex} out of range")
    if base_vertex == spec.y:
        return FlowerLocator((petal - 2) % spec.n + 1, spec.x)
    return FlowerLocator(petal, base_vertex)


@lru_cache(maxsize=64)
def _laplacian_solve(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Spanning-tree count ``det`` and integer resistances ``k = det * r``, certified.

    Fraction-free (Bareiss) Gauss-Jordan elimination of the integer Laplacian
    with vertex 0 grounded, augmented by the identity, ends as ``det I | adj``:
    ``det`` is the spanning-tree count (matrix-tree theorem) and ``adj`` the
    adjugate, so ``k_ij = adj_ii + adj_jj - 2 adj_ij = det r_ij`` with row and
    column 0 of ``adj`` zero.  The grounded Laplacian of a connected graph is
    positive definite, so no pivot is zero and no row swaps are needed.  The
    elimination runs in place on the ``(m - 1) x (m - 1)`` grounded Laplacian:
    the identity's column ``p`` is ``det e_p`` until row ``p`` pivots, and the
    Laplacian's is after, so column ``p`` holds the Laplacian's column until then
    and the adjugate's column once row ``p`` has pivoted.  That pivot turns the
    identity's column into ``-row_i[p]`` in every other row ``i`` and the previous
    pivot in row ``p``.  Before ``k`` is returned, the adjugate is checked exactly
    against the sparse Laplacian, ``deg(i) adj_ij - sum of adj_wj over neighbours
    w = det [i == j]``; a failure raises ``ArithmeticError``.  The solve costs
    O(m^3) big-integer operations and the check O(|E| m), once per base while it
    stays cached.
    """
    m = g.vertex_count
    k = m - 1
    rows = []
    for i in range(1, m):
        row = [0] * k
        row[i - 1] = g.degrees[i]
        for w in g.neighbors(i):
            if w:
                row[w - 1] = -1
        rows.append(row)
    det = 1
    for p in range(k):
        pivot_row = rows[p]
        pivot = pivot_row[p]
        for i, row in enumerate(rows):
            if i != p:
                f = row[p]
                # Exact division: each entry is a minor of the augmented matrix.
                new = [(pivot * a - f * b) // det for a, b in zip(row, pivot_row)]
                new[p] = -f
                rows[i] = new
        pivot_row[p] = det
        det = pivot
    adj = [[0] * m] + [[0] + row for row in rows]
    for i in range(1, m):
        residual = [g.degrees[i] * a for a in adj[i]]
        for w in g.neighbors(i):
            residual = [r - a for r, a in zip(residual, adj[w])]
        residual[i] -= det
        if det <= 0 or any(residual):
            raise ArithmeticError(f"exact Laplacian solve failed its check at vertex {i}")
    return det, tuple(
        tuple(adj[i][i] + adj[j][j] - 2 * adj[i][j] for j in range(m)) for i in range(m)
    )


@lru_cache(maxsize=64)
def base_resistance_table(g: Graph) -> tuple[tuple[Fraction, ...], ...]:
    """Exact pairwise resistances of a base graph: the certified integers of
    ``_laplacian_solve`` over the spanning-tree count."""
    det, k = _laplacian_solve(g)
    return tuple(tuple(Fraction(value, det) for value in row) for row in k)


# Every pair resistance is one formula.  Let u be a copy of base locator a
# (one of spec.block_order; a junction reads as its x copy) and v the copy of b
# that lies e petals down the chain from u (e = 0 within one petal).  With
# s = r_xy > 0,
#     R_ab(e) = series - imbalance^2 / (4ns),
#     series = r_ab if e = 0, else r_ay + r_bx + (e - 1) s,
#     imbalance = r_ax - r_ay - r_bx + r_by - 2es.
# That is compose_two_sep (tests/separation.py) across the two end vertices of the
# chain of e + 1 petals from u's to v's (r1_uv = series), where the other
# n - e - 1 petals make r1_ij + r2_ij = ns.  In the integers k = det * r of
# the base solve (det the spanning-tree count) the same expressions give
#     4 n k_xy det R_ab(e) = 4 n k_xy series_k - imbalance_k^2,
# which _scaled_pair_resistance evaluates for one pair.  It is symmetric:
# seen from v, u is n - e petals down the chain (0 if e = 0), and the key
# (b, a, -e mod n) gives the same value.  At e = 0 the series k_ab = k_ba is
# shared and the imbalance only changes sign.  For e >= 1 the mirror's
# imbalance is r_bx - r_by - r_ax + r_ay - 2(n - e)s = -(imbalance + 2ns), so
# its square is imbalance^2 + 4ns imbalance + 4n^2 s^2, while its series
# r_by + r_ax + (n - e - 1)s exceeds series by exactly imbalance + ns; times
# 4ns the two differences cancel.  flower_resistance divides the value out
# and keeps it under both keys; rotating the petals is an automorphism, so
# max_resistance_search compares it across pairs anchored in petal 1.  With
# c = r_ax - r_ay - r_bx + r_by, the imbalance at e = 0, R_ab(e) is for e >= 1
# a concave quadratic peaking at e* = (ns + c) / 2s.  The index sums evaluate
# no pair: _weighted_pair_total sums it over all pairs and steps in closed form.


def _scaled_pair_resistance(
    spec: FlowerSpec, k: tuple[tuple[int, ...], ...], a: int, b: int, e: int
) -> int:
    """``4 n k_xy det R_ab(e)``, from the integer resistances ``k = det * r``."""
    s = k[spec.x][spec.y]
    row_a, row_b = k[a], k[b]
    series = row_a[b] if e == 0 else row_a[spec.y] + row_b[spec.x] + (e - 1) * s
    imbalance = row_a[spec.x] - row_a[spec.y] - row_b[spec.x] + row_b[spec.y] - 2 * e * s
    return 4 * spec.n * s * series - imbalance * imbalance


def flower_resistance(spec: FlowerSpec, u: tuple[int, int], v: tuple[int, int]) -> Fraction:
    """Exact resistance between two located flower vertices.

    ``u`` and ``v`` are ``(petal, base vertex)`` pairs, a ``FlowerLocator`` or a
    plain tuple.  Evaluates ``R_ab(e)`` on the canonical locators, with ``v``
    ``e`` petals down the chain from ``u``; ``R_aa(0)`` is 0.  Rotating the
    petals is an automorphism and the resistance is symmetric (see above
    ``_scaled_pair_resistance``), so the value depends on the unordered key
    ``{(a, b, e), (b, a, -e mod n)}`` alone.  It is computed once per unordered
    key and kept on the spec under both orderings: at most ``(m - 1)^2 n``
    entries.

    A hit checks that all four fields are exactly ``int`` and both petals lie
    in ``1..n``, and probes the memo once with ``(a, b, (petal_u - petal_v) mod
    n)``.  The memo holds only canonical keys of ints, so a ``y`` copy and an
    out-of-range base vertex miss.  Anything else, a bool, an integral float
    such as ``2.0``, a fractional petal or a string, misses before the probe.
    A miss passes any locator that is not four ints in range with no ``y``
    through ``locator``, so a warm spec refuses with the ``ValueError`` a cold
    one raises, and the keys stored are made of ints.
    """
    (pu, a), (pv, b) = u, v
    n = spec.n
    memo = spec._resistances
    if type(pu) is type(pv) is type(a) is type(b) is int and 0 < pu <= n and 0 < pv <= n:
        value = memo.get((a, b, (pu - pv) % n))
        if value is not None:
            return value
    m, x, y = spec.base.vertex_count, spec.x, spec.y
    if not (type(pu) is type(pv) is type(a) is type(b) is int and 0 < pu <= n
            and 0 < pv <= n and 0 <= a < m and 0 <= b < m and a != y != b):
        (pu, a), (pv, b) = locator(spec, pu, a), locator(spec, pv, b)
        value = memo.get((a, b, (pu - pv) % n))
        if value is not None:
            return value
    e = (pu - pv) % n
    det, k = _laplacian_solve(spec.base)
    value = Fraction(_scaled_pair_resistance(spec, k, a, b, e), 4 * n * k[x][y] * det)
    memo[a, b, e] = memo[b, a, -e % n] = value
    return value


@dataclass(frozen=True)
class MaxResistance:
    value: Fraction
    u: FlowerLocator
    v: FlowerLocator
    d: int


def max_resistance_search(spec: FlowerSpec) -> MaxResistance:
    """Maximum resistance over all vertex pairs of the flower.

    For each base-locator pair the scaled ``R_ab(e)`` is, on ``e = 1..n-1``, a
    concave quadratic: a step on adds ``s`` to the series and takes ``2s`` off the
    imbalance ``c - 2es``, so it rises by ``4s (ns + c - (2e + 1) s)``.  With
    ``below, r = divmod(ns + c, 2s)`` the rise at ``e = below`` is ``4s (r - s)``,
    so the best step is ``below + 1`` if ``r > s``, ``below`` if ``r < s`` and both
    at ``r == s``.  Since ``|k_ax - k_ay| <= s`` (the triangle inequality),
    ``|c| <= 2s`` and the vertex ``e* = (ns + c) / 2s`` lies within 1 of ``n/2``,
    so a best step leaves ``1..n-1`` only in the ties at ``e* = 1/2`` and
    ``e* = n - 1/2``, both at ``n = 3``, where step 1 or step ``n - 1`` alone is
    then the best.
    With the same-petal value ``R_ab(0)`` that is at most three formula calls per
    pair, whatever the petal count; their integer keys share one denominator, so
    comparing the keys compares the resistances exactly.  Ties break toward the
    lexicographically smallest locator pair.  The reported ``d`` is the inclusive
    petal count between the pair, the smaller way round the chain:
    ``min(e, n - e) + 1`` for the best pair's step.
    """
    det, k = _laplacian_solve(spec.base)
    n, x, y = spec.n, spec.x, spec.y
    s = k[x][y]
    # Keys are nonnegative, so the first candidate always wins against -1.  A key
    # below the best cannot win, so its locators are never built.
    best_value, best_pair, best_step = -1, None, 0
    for a in spec.block_order:
        u = FlowerLocator(1, a)
        for b in spec.block_order:
            below, r = divmod(n * s + k[a][x] - k[a][y] - k[b][x] + k[b][y], 2 * s)
            if r == s and 1 <= below < n - 1:
                steps = [below, below + 1]
            else:
                steps = [max(below + (r > s), 1)]
            if a != b:
                steps.append(0)
            for e in steps:
                value = _scaled_pair_resistance(spec, k, a, b, e)
                if value < best_value:
                    continue
                # e petals down the chain from petal 1 is petal 1 - e (mod n).
                v = FlowerLocator((1 - e) % n or n, b)
                pair = (u, v) if u <= v else (v, u)
                if value > best_value or pair < best_pair:
                    best_value, best_pair, best_step = value, pair, e
    d = min(best_step, n - best_step) + 1
    return MaxResistance(Fraction(best_value, 4 * n * s * det), *best_pair, d)


def kirchhoff_bounds(spec: FlowerSpec) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds on the flower's Kirchhoff index."""
    det, k = _laplacian_solve(spec.base)
    kf_base, r_xy = base_kirchhoff(spec.base), Fraction(k[spec.x][spec.y], det)
    m = spec.base.vertex_count
    n = spec.n
    lo = n * kf_base - Fraction(m * (m - 1)) * r_xy / 2
    hi = kf_base * (n + n * m * (n - 1)) + r_xy * Fraction((n**3 - n**2) * m * m) / 4
    return lo, hi


def kemeny_bounds(spec: FlowerSpec) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds on the flower's Kemeny constant."""
    det, k = _laplacian_solve(spec.base)
    kem_base, r_xy = base_kemeny(spec.base), Fraction(k[spec.x][spec.y], det)
    m = spec.base.vertex_count
    n = spec.n
    q = spec.base.edge_count
    lo = kem_base - Fraction(m * (m - 1) ** 3) * r_xy / (2 * n * q)
    hi = kem_base * (4 * n - 1) + r_xy * Fraction(
        (n * n - 3 * n + 2) * (2 * m - 2) ** 2 * m * m, 8 * q
    )
    return lo, hi


def _pair_moment(k: tuple[tuple[int, ...], ...], weights) -> int:
    """``sum of w_i w_j k_ij`` over ordered base vertex pairs."""
    return sum(w * v * k[i][j] for i, w in enumerate(weights) for j, v in enumerate(weights))


@lru_cache(maxsize=64)
def base_kirchhoff(g: Graph) -> Fraction:
    """Kirchhoff index of the base graph: its resistance sum over vertex pairs."""
    det, k = _laplacian_solve(g)
    return Fraction(_pair_moment(k, (1,) * g.vertex_count), 2 * det)


@lru_cache(maxsize=64)
def base_kemeny(g: Graph) -> Fraction:
    """Kemeny's constant of the base graph: ``sum of d_i d_j r_ij / 4|E|``."""
    det, k = _laplacian_solve(g)
    return Fraction(_pair_moment(k, g.degrees), 4 * g.edge_count * det)


def _weighted_pair_total(spec: FlowerSpec, weights: Sequence[int]) -> Fraction:
    """Weighted resistance sum over all pairs whose first vertex is in petal 1.

    With ``f(e)`` the sum of ``w_a w_b 4 n k_xy det R_ab(e)`` over ordered pairs
    ``a, b`` of ``spec.block_order``, every base vertex but ``y``, the total is
    ``f(0) + ... + f(n - 1)`` over ``4 n k_xy det``.  Under ``w'``, ``w`` with
    ``w'_y = 0``, each sum below runs over all base vertices.  With ``s = k_xy``,
    ``alpha_a = k_ax - k_ay``, ``W = sum w'_a``, ``X = sum w'_a k_ax``,
    ``Y = sum w'_a k_ay``, ``B = sum w'_a alpha_a^2`` and ``P = sum w'_a w'_b k_ab``,
    the imbalance ``alpha_a - alpha_b - 2es`` squared sums to
    ``spread = sum w'_a w'_b (alpha_a - alpha_b)^2 = 2 W B - 2 (X - Y)^2``, plus
    the cross term ``-4es sum w'_a w'_b (alpha_a - alpha_b)``, zero because its
    summand is antisymmetric in ``a, b``, plus ``4 e^2 s^2 W^2``.  At ``e = 0`` the
    series is ``k_ab``, so ``f(0) = 4ns P - spread``.  For ``e >= 1`` the series
    ``k_ay + k_bx + (e - 1) s`` sums to ``W (X + Y) + (e - 1) s W^2``.  With
    ``1 + ... + (n - 2) = C(n - 1, 2)`` and the sum of squares
    ``1^2 + ... + (n - 1)^2 = (n - 1) n (2n - 1) / 6``, the sum over ``e`` is
    ``4ns (P + (n - 1) W (X + Y) + C(n - 1, 2) s W^2) - n spread``
    ``- 4 s^2 W^2 (n - 1) n (2n - 1) / 6`` exactly, a cubic in ``n`` whose
    coefficients, from ``_moments``, do not depend on ``n``.
    """
    det, s, W, XY, spread, P = _moments(spec.base, spec.x, spec.y, tuple(weights))
    n = spec.n
    total = (
        4 * n * s * (P + (n - 1) * W * XY + comb(n - 1, 2) * s * W * W)
        - n * spread
        - 4 * s * s * W * W * (n - 1) * n * (2 * n - 1) // 6
    )
    return Fraction(total, 4 * n * s * det)


@lru_cache(maxsize=128)
def _moments(
    base: Graph, x: int, y: int, weights: tuple[int, ...]
) -> tuple[int, int, int, int, int, int]:
    """``det``, ``s``, ``W``, ``X + Y``, ``spread`` and ``P`` of ``_weighted_pair_total``
    for one base, marked pair and weighting: one O(m^2) moment ``P`` plus O(m)
    moments, kept for the last 64 marked bases under both indices' weightings."""
    det, k = _laplacian_solve(base)
    weights = [*weights[:y], 0, *weights[y + 1:]]
    W = sum(weights)
    X = sum(w * row[x] for w, row in zip(weights, k))
    Y = sum(w * row[y] for w, row in zip(weights, k))
    B = sum(w * (row[x] - row[y]) ** 2 for w, row in zip(weights, k))
    return det, k[x][y], W, X + Y, 2 * W * B - 2 * (X - Y) ** 2, _pair_moment(k, weights)


def flower_kirchhoff_exact(spec: FlowerSpec) -> Fraction:
    """Exact Kirchhoff index in O(m^2) time, independent of the petal count.

    Rotation symmetry reduces the sum to pairs anchored in petal 1, and the sum
    over base-locator pairs and petal steps is one closed expression in weighted
    moments of the base table, a polynomial in the petal count.
    """
    return spec.n * _weighted_pair_total(spec, (1,) * spec.base.vertex_count) / 2


def flower_kemeny_exact(spec: FlowerSpec) -> Fraction:
    """Exact Kemeny constant in O(m^2) time, independent of the petal count.

    Uses the Kemeny-resistance identity: the degree-weighted resistance sum
    over all vertex pairs divided by four times the edge count.  A junction
    carries the degrees of both marked vertices.
    """
    base = spec.base
    degrees = list(base.degrees)
    degrees[spec.x] += base.degrees[spec.y]
    # The flower has n * q_base edges; the rotation factor n cancels one n.
    return _weighted_pair_total(spec, degrees) / (4 * base.edge_count)
