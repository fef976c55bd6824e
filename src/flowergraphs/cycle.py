"""Flowers built on cycle base graphs (generalized sunflowers).

The base cycle has ``m`` vertices with the marked pair at cycle distance
``p``, splitting it into a short arc of length ``p`` and a long arc of length
``m - p``.  ``CycleFlowerParams`` holds ``m``, the petal count ``n`` and ``p``,
and ``cycle_flower_spec`` gives the flower with marked vertices 0 and ``p``, on
which the general-base formulas of ``flowergraphs.flower`` evaluate every value.
The paper's cycle-flower pair, Kirchhoff and Kemeny forms are transcribed in
``tests/paper_forms.py``, where the tests prove them equal to the general path
for every ``m``, ``n`` and ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flower import FlowerSpec
from .graphs import cycle_graph, integer


@dataclass(frozen=True)
class CycleFlowerParams:
    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "p"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.m < 3:
            raise ValueError("cycle base needs at least three vertices")
        if self.n < 3:
            raise ValueError("petal count must be at least 3")
        if not 1 <= self.p <= self.m // 2:
            raise ValueError(f"marked distance p={self.p} out of range 1..{self.m // 2}")


def cycle_flower_spec(params: CycleFlowerParams) -> FlowerSpec:
    """Canonical flower spec: cycle base with marked vertices 0 and ``p``."""
    return FlowerSpec(cycle_graph(params.m), 0, params.p, params.n)
