"""Flowers built on complete base graphs.

``CompleteFlowerParams`` holds the base size ``m`` and petal count ``n``, and
``complete_flower_spec`` gives the flower with marked vertices 0 and 1, on which
the general-base formulas of ``flowergraphs.flower`` evaluate every value.  The
paper's complete-flower pair, Kirchhoff and Kemeny forms are transcribed in
``tests/paper_forms.py``, where the tests prove them equal to the general path
for every ``m`` and ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flower import FlowerSpec
from .graphs import complete_graph, integer


@dataclass(frozen=True)
class CompleteFlowerParams:
    m: int
    n: int

    def __post_init__(self) -> None:
        for name in ("m", "n"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.m < 3:
            raise ValueError("complete base needs at least three vertices")
        if self.n < 3:
            raise ValueError("petal count must be at least 3")


def complete_flower_spec(params: CompleteFlowerParams) -> FlowerSpec:
    """Canonical flower spec: complete base with marked vertices 0 and 1."""
    return FlowerSpec(complete_graph(params.m), 0, 1, params.n)
