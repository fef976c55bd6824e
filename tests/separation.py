"""Compose effective resistances across one- and two-vertex separators.

These rules assemble the resistance of a whole graph from resistances
measured inside the two edge-disjoint parts of a separation.  The functions
work for any field-like scalar; exact rationals and floats both pass through
unchanged.  The tests hold ``compose_two_sep`` as an independent reference for
the library's flower pair formula, which is this rule across the two end
vertices of a chain of petals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TypeVar, Union

Scalar = TypeVar("Scalar")
ResValue = Union[Fraction, float]


def compose_one_sep(r1_iu: Scalar, r2_ju: Scalar) -> Scalar:
    """Resistance across a cut vertex ``u``: the two sides add in series."""
    if r1_iu < 0 or r2_ju < 0:
        raise ValueError("resistances must be nonnegative")
    return r1_iu + r2_ju


@dataclass(frozen=True)
class TwoSepBundle:
    """Resistances feeding the two-separator rule.

    ``u`` and ``v`` live in part 1 of the separation, ``i`` and ``j`` are the
    separator vertices.  ``r1_*`` are measured inside part 1, ``r2_ij`` inside
    part 2.
    """

    r1_uv: ResValue
    r1_ui: ResValue
    r1_vj: ResValue
    r1_uj: ResValue
    r1_vi: ResValue
    r1_ij: ResValue
    r2_ij: ResValue

    def validate(self) -> None:
        entries = (
            self.r1_uv, self.r1_ui, self.r1_vj,
            self.r1_uj, self.r1_vi, self.r1_ij, self.r2_ij,
        )
        if any(entry < 0 for entry in entries):
            raise ValueError("bundle entries must be nonnegative")
        if self.r1_ij + self.r2_ij == 0:
            raise ValueError("separator resistance r1_ij + r2_ij must be positive")


def compose_two_sep(bundle: TwoSepBundle):
    """Resistance between ``u`` and ``v`` across a two-vertex separator.

    Subtracts a squared imbalance term from the part-1 resistance; the
    correction is never negative, so the result is at most ``r1_uv``.
    """
    bundle.validate()
    imbalance = bundle.r1_ui + bundle.r1_vj - bundle.r1_uj - bundle.r1_vi
    return bundle.r1_uv - imbalance * imbalance / (4 * (bundle.r1_ij + bundle.r2_ij))
