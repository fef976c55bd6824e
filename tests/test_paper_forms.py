"""The paper's complete- and cycle-flower forms equal the general path for every
parameter.

``paper_forms`` transcribes the paper's forms.  The library evaluates the general
formula ``R_ab(e) = series - imbalance^2 / (4ns)`` of ``flowergraphs.flower`` and
its index sums on ``FlowerSpec(complete_graph(m), 0, 1, n)`` and
``FlowerSpec(cycle_graph(m), 0, p, n)``.  Each test proves one identity for every
parameter, not only the ones it evaluates, by this lemma: a polynomial of degree
at most ``d_i`` in its ``i``-th variable that vanishes on a product grid with
``d_i + 1`` points in that variable is zero (Alon, *Combinatorial
Nullstellensatz*, 1999, Lemma 2.1; Schwartz 1980).  For each identity, both
sides times a denominator ``D``, nonzero for valid parameters, are polynomials
whose degrees the sections below bound.  Each test checks exact ``Fraction``
equality on a grid of ``degree + 1`` consecutive integers per variable
(``points``) that lies inside the valid region.  ``D`` does not change equality at a point, so the
tests compare the values themselves.

**Base resistances.**  On K_m, ``r_ab = 2/m`` for ``a != b``.  On C_m, with
``x = 0`` and ``y = p``, the vertex ``l`` steps from ``x`` along the short arc is
``l``, and along the long arc it is ``m - l``.  Offset 0 is ``x`` on both arcs.
Two vertices ``t`` apart have ``r = t(m - t)/m``.

**Pairs on K_m** (``x = 0``, ``y = 1``).  Every ``r`` is 0 or ``2/m`` and
``s = 2/m``.  So ``series = 2σ/m`` and ``imbalance = 2ι/m``, with integers ``σ`` and
``ι`` affine in ``e``, and ``2mn R_ab(e) = 4nσ - ι^2``.  The paper's forms times
``D = 2mn`` are ``4d(n - d)``, ``4nd - (2d - 1)^2`` and ``4nd - 4(d - 1)^2``, and
``e`` is ``d``, ``d - 1`` and ``d - 1`` in the three cases.  Both sides have
degree 0 in ``m``, 1 in ``n`` and 2 in ``d``.

**Pairs on C_m.**  Between two vertices, ``t`` is ``c`` or ``m - c``, with ``c``
affine in ``p``, ``l`` and ``k`` and free of ``m``.  So ``m r = c(m - c)`` has
degree 1 in ``m`` and at most 2 in ``p``, ``l`` and ``k``.  The potential
``m (r_ax - r_ay)`` is affine in ``a``'s offset on each arc, because its ``l^2``
terms cancel.  With ``D = 4nm p(m - p)``,
``D R_ab(e) = 4n p(m - p) (m series) - (m imbalance)^2``.  In
``(m, p, l, k, e)``, ``m series`` has degrees at most ``(1, 2, 2, 2, 1)`` and
``m imbalance`` at most ``(1, 2, 1, 1, 1)``.  So ``D R`` has degree at most 1 in
``n``, 2 in ``m``, 4 in ``p``, 2 in ``l`` and ``k``, and 2 in ``d = e + 1``.  The
paper's branches use ``p_u(m - p_u) = p(m - p)``, so ``D`` is the same.  Times
``D`` they are ``4n p(m - p) series - imbalance^2``, or on one arc
``4n p(m - p) t(m - t) - 4 p_u^2 t^2``.  Their ``series`` and ``imbalance`` are
affine in ``m``, so the same bounds hold.  Offset 0 on either arc is ``x``, so
each piece's value at offset 0 is the junction's.

**Index sums.**  ``T(w)`` is the sum of ``w_a w_b R_ab(e)`` over ordered block
pairs and ``e = 0..n - 1``.  The derivation in ``flower._weighted_pair_total``'s
docstring, read in ``r`` rather than in ``k = det r``, gives
``T = P + (n - 1) W (X + Y) + C(n - 1, 2) s W^2 - spread/(4s)``
``- s W^2 (n - 1)(2n - 1)/6``, with ``spread = 2 W B - 2 (X - Y)^2``.  Here
``w'`` is ``w`` with ``w'_y = 0``, ``W`` is the sum of ``w'_a``, and ``X``, ``Y``,
``B`` and ``P`` are the sums of ``w'_a r_ax``, ``w'_a r_ay``,
``w'_a (r_ax - r_ay)^2`` and ``w'_a w'_b r_ab``.  Then ``Kf = n T(1) / 2`` and
``Kemeny = T(deg) / 4q``, where ``q`` is the base's edge count and the junction
weighs ``deg x + deg y``.

- K_m.  Kirchhoff: ``W = m - 1``, ``X = 2(m - 2)/m``, ``Y = 2(m - 1)/m``,
  ``B = 4/m^2`` and ``P = 2(m - 1)(m - 2)/m``.  Kemeny's weights are ``m - 1``
  times ``ŵ`` (2 at ``x``, 1 elsewhere), and ``T`` is quadratic in the weights,
  so ``T = (m - 1)^2 T(ŵ)``.  Under ``ŵ``, ``W = m``, ``X = 2(m - 2)/m``,
  ``Y = 2``, ``B = 8/m^2`` and ``P = 2(m - 2)(m + 1)/m``, with
  ``q = m(m - 1)/2``.  So ``6m Kf`` has degree 2 in ``m`` and 3 in ``n``, and
  ``6m^2 Kemeny`` has degree 3 in ``m`` and 2 in ``n``.
- C_m, with ``σ = p(m - p)`` and ``s = σ/m``.  Every row of ``r`` sums to
  ``(m^3 - m)/6m``.  Kirchhoff: ``W = m - 1``, ``X = ((m^3 - m)/6 - σ)/m``,
  ``Y = (m^3 - m)/6m``, ``P = (m - 2)(m^3 - m)/6m`` and
  ``B = σ(σ(m - 3) + 2m)/3m^2``.  ``B`` is the sum of the squared potentials
  ``(2(m - p)i - σ)/m`` for ``0 <= i < p`` and ``p(m + p - 2i)/m`` for
  ``p < i < m``.  Kemeny doubles every weight and adds 2 at ``x``.  With
  ``_1`` marking the Kirchhoff moments, ``W = 2m``, ``X = 2X_1``,
  ``Y = 2Y_1 + 2s``, ``B = 2B_1 + 2s^2``, ``P = 4P_1 + 8X_1`` and ``q = m``.
  ``B`` and ``(X - Y)^2`` are multiples of ``s``, so ``m spread/(4s)`` is a
  polynomial.  ``12m Kf`` has degree 4 in ``m``, 3 in ``n`` and 2 in ``p``.
  ``24m^2 Kemeny`` has degree 4 in ``m``, 2 in ``n`` and 2 in ``p``.

Each paper form times the same ``D`` has these degrees or lower.
"""

from __future__ import annotations

from itertools import product

import pytest

from flowergraphs import (
    CompleteFlowerParams,
    CycleFlowerParams,
    FlowerLocator,
    FlowerSpec,
    complete_graph,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
)

from paper_forms import (CyclePairPosition, PairCase, cf_kemeny, cf_kirchhoff, cf_resistance,
                         gs_kemeny, gs_kirchhoff, gs_resistance)


def points(degree: int, first: int) -> range:
    """``degree + 1`` consecutive integers from ``first``: enough points for a
    variable of that degree."""
    return range(first, first + degree + 1)


def test_complete_index_forms():
    """``6m Kf``: degree 2 in ``m``, 3 in ``n``.  ``6m^2 Kemeny``: 3 in ``m``, 2 in ``n``."""
    for m, n in product(points(2, 3), points(3, 3)):
        spec = FlowerSpec(complete_graph(m), 0, 1, n)
        assert flower_kirchhoff_exact(spec) == cf_kirchhoff(CompleteFlowerParams(m, n))
    for m, n in product(points(3, 3), points(2, 3)):
        spec = FlowerSpec(complete_graph(m), 0, 1, n)
        assert flower_kemeny_exact(spec) == cf_kemeny(CompleteFlowerParams(m, n))


def test_cycle_index_forms():
    """``12m Kf``: degree 4 in ``m``, 3 in ``n``, 2 in ``p``.  ``24m^2 Kemeny``: 4 in
    ``m``, 2 in ``n``, 2 in ``p``.  ``p <= 3 <= m // 2`` on the grid."""
    for m, n, p in product(points(4, 6), points(3, 3), points(2, 1)):
        spec = FlowerSpec(cycle_graph(m), 0, p, n)
        assert flower_kirchhoff_exact(spec) == gs_kirchhoff(CycleFlowerParams(m, n, p))
    for m, n, p in product(points(4, 6), points(2, 3), points(2, 1)):
        spec = FlowerSpec(cycle_graph(m), 0, p, n)
        assert flower_kemeny_exact(spec) == gs_kemeny(CycleFlowerParams(m, n, p))


# One pair per case on K_m, as (a, b, e - d): vertices 2 and 3 are outer when m >= 4.
COMPLETE_PAIRS = {
    PairCase.BOTH_ASSOCIATED: (0, 0, 0),
    PairCase.ONE_ASSOCIATED: (0, 2, -1),
    PairCase.NEITHER: (2, 3, -1),
}


@pytest.mark.parametrize("case", PairCase, ids=lambda case: case.value)
def test_complete_pair_forms(case):
    """``2mn R``: degree 0 in ``m``, 1 in ``n``, 2 in ``d``.  ``d <= 3 <= n - 1``."""
    a, b, shift = COMPLETE_PAIRS[case]
    for m, n, d in product(points(0, 4), points(1, 4), points(2, 1)):
        spec = FlowerSpec(complete_graph(m), 0, 1, n)
        # (1, b) is e = d + shift petals down the chain from (1 + e, a).
        u, v = FlowerLocator(1 + d + shift, a), FlowerLocator(1, b)
        assert flower_resistance(spec, u, v) == cf_resistance(CompleteFlowerParams(m, n), case, d)


SHORT, LONG = "short", "long"


def place(m: int, arc: str, offset: int) -> int:
    """The base vertex ``offset`` steps from ``x = 0`` along ``arc``."""
    return offset if arc == SHORT else (m - offset) % m


def other_arc_length(m: int, p: int, arc: str) -> int:
    """``p_u`` of a vertex on ``arc``: the length of the arc that does not hold it."""
    return m - p if arc == SHORT else p


@pytest.mark.parametrize(
    "arc_u,arc_v,same_petal",
    product((SHORT, LONG), (SHORT, LONG), (False, True)),
    ids=lambda value: value if isinstance(value, str) else ("same" if value else "cross"),
)
def test_cycle_pair_forms(arc_u, arc_v, same_petal):
    """Each piece of ``gs_resistance``: cross-petal pairs on any two arcs, and
    same-petal pairs on one arc or on two.  ``D R``: degree 1 in ``n``, 2 in
    ``m``, 4 in ``p``, 2 in ``l``, ``k`` and ``d``.  Offsets ``l <= 3 <= k <= 5``
    lie inside both arcs, as ``p`` runs over 6..10 and ``m`` over 20..22, and a
    pair on one arc is labelled with ``k >= l``."""
    separations = [1] if same_petal else points(2, 2)
    for m, n, p in product(points(2, 20), points(1, 4), points(4, 6)):
        params = CycleFlowerParams(m, n, p)
        spec = FlowerSpec(cycle_graph(m), 0, p, n)
        p_u, p_v = other_arc_length(m, p, arc_u), other_arc_length(m, p, arc_v)
        for l, k, d in product(points(2, 1), points(2, 3), separations):
            u, v = FlowerLocator(d, place(m, arc_u, l)), FlowerLocator(1, place(m, arc_v, k))
            pos = CyclePairPosition(d, p_u, p_v, l, k, same_petal, same_petal and arc_u == arc_v)
            assert flower_resistance(spec, u, v) == gs_resistance(params, pos)
