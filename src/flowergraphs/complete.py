"""Flowers built on complete base graphs.

``complete_flower_spec(m, n)`` gives the flower on ``K_m`` with ``n`` petals and
marked vertices 0 and 1, on which the general-base formulas of
``flowergraphs.flower`` evaluate every value.  The paper's complete-flower pair,
Kirchhoff and Kemeny forms are transcribed in ``tests/paper_forms.py``, where the
tests prove them equal to the general path for every ``m`` and ``n``.
"""

from __future__ import annotations

from .flower import FlowerSpec
from .graphs import complete_graph, integer


def complete_flower_spec(m: int, n: int) -> FlowerSpec:
    """Canonical flower spec: complete base ``K_m`` with marked vertices 0 and 1."""
    m, n = integer("m", m), integer("n", n)
    if m < 3:
        raise ValueError("complete base needs at least three vertices")
    return FlowerSpec(complete_graph(m), 0, 1, n)
