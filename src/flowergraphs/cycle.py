"""Flowers built on cycle base graphs (generalized sunflowers).

The base cycle has ``m`` vertices with the marked pair at cycle distance
``p``, splitting it into a short arc of length ``p`` and a long arc of length
``m - p``.  ``cycle_flower_spec(m, n, p)`` gives the flower with ``n`` petals and
marked vertices 0 and ``p``, on which the general-base formulas of
``flowergraphs.flower`` evaluate every value.  The paper's cycle-flower pair,
Kirchhoff and Kemeny forms are transcribed in ``tests/paper_forms.py``, where the
tests prove them equal to the general path for every ``m``, ``n`` and ``p``.
"""

from __future__ import annotations

from .flower import FlowerSpec
from .graphs import cycle_graph, integer


def cycle_flower_spec(m: int, n: int, p: int) -> FlowerSpec:
    """Canonical flower spec: cycle base ``C_m`` with marked vertices 0 and ``p``."""
    m, n, p = integer("m", m), integer("n", n), integer("p", p)
    if m < 3:
        raise ValueError("cycle base needs at least three vertices")
    if n < 3:  # FlowerSpec checks n too, but only after this p check
        raise ValueError("petal count must be at least 3")
    if not 1 <= p <= m // 2:
        raise ValueError(f"marked distance p={p} out of range 1..{m // 2}")
    return FlowerSpec(cycle_graph(m), 0, p, n)
