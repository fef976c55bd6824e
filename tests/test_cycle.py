"""The paper's cycle-flower forms from ``paper_forms``: cycle resistance, the three
pair cases and the indices, by example, by symmetry and against the oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from flowergraphs import (
    CompleteFlowerParams,
    CycleFlowerParams,
    cycle_flower_spec,
    flower_resistance,
    numeric_indices,
    resistance_matrix,
)

from flower_reference import cycle_position, located_pairs
from paper_forms import (CyclePairPosition, cf_kemeny, cf_kirchhoff, gs_kemeny, gs_kirchhoff,
                         gs_resistance)


def cycle_resistance(m: int, dist: int) -> Fraction:
    """Resistance across a cycle: the two arcs of lengths ``dist`` and ``m - dist``
    in parallel."""
    if m < 3:
        raise ValueError("a cycle needs at least three vertices")
    if not 0 <= dist <= m:
        raise ValueError(f"distance {dist} out of range 0..{m}")
    return Fraction((m - dist) * dist, m)


def test_cycle_resistance_examples():
    assert cycle_resistance(4, 2) == 1
    assert cycle_resistance(7, 0) == 0
    assert cycle_resistance(5, 1) == Fraction(4, 5)


def test_cycle_resistance_complement_symmetry():
    for m in range(3, 10):
        for dist in range(m + 1):
            assert cycle_resistance(m, dist) == cycle_resistance(m, m - dist)


def test_cycle_resistance_rejects_out_of_range():
    with pytest.raises(ValueError):
        cycle_resistance(5, 6)
    with pytest.raises(ValueError):
        cycle_resistance(5, -1)


def test_gs_resistance_triangle_reduction():
    # With a triangle base the cross-petal case collapses to the sunflower
    # outer-outer formula.
    params = CycleFlowerParams(3, 3, 1)
    pos = CyclePairPosition(2, 1, 1, 1, 1, same_petal=False, same_arc=False)
    assert gs_resistance(params, pos) == Fraction(10, 9)


def test_gs_resistance_coincident_positions():
    params = CycleFlowerParams(6, 4, 2)
    pos = CyclePairPosition(1, 2, 2, 1, 1, same_petal=True, same_arc=True)
    assert gs_resistance(params, pos) == 0


def test_gs_resistance_validates_positions():
    params = CycleFlowerParams(6, 4, 2)
    with pytest.raises(ValueError, match="arc lengths"):
        gs_resistance(params, CyclePairPosition(2, 3, 2, 0, 0, False, False))
    with pytest.raises(ValueError, match="k >= l"):
        gs_resistance(params, CyclePairPosition(1, 2, 2, 3, 1, True, True))
    with pytest.raises(ValueError, match="petal separation"):
        gs_resistance(params, CyclePairPosition(5, 2, 2, 0, 0, False, False))
    with pytest.raises(ValueError, match="exceeds"):
        gs_resistance(params, CyclePairPosition(2, 2, 2, 5, 0, False, False))


def test_gs_same_petal_different_arcs_against_oracle():
    params = CycleFlowerParams(6, 4, 3)  # both arcs have length 3
    spec = cycle_flower_spec(params)
    matrix = resistance_matrix(spec.lift())
    pos = cycle_position(params, 1, 5, 0)   # short-arc and long-arc interiors, offset 1
    assert pos.same_petal and not pos.same_arc
    value = gs_resistance(params, pos)
    assert abs(float(value) - matrix[spec.label_of(1, 1), spec.label_of(1, 5)]) <= 1e-9


def test_gs_swap_symmetry():
    # Swapping the endpoints exchanges (p_u, l) with (p_v, k); cross-petal
    # pairs also reverse the petal count to n - d + 2.
    params = CycleFlowerParams(7, 5, 3)
    pos = CyclePairPosition(3, 3, 4, 2, 1, same_petal=False, same_arc=False)
    swapped = CyclePairPosition(
        params.n - 3 + 2, 4, 3, 1, 2, same_petal=False, same_arc=False
    )
    assert gs_resistance(params, pos) == gs_resistance(params, swapped)
    same = CyclePairPosition(1, 3, 4, 2, 1, same_petal=True, same_arc=False)
    same_swapped = CyclePairPosition(1, 4, 3, 1, 2, same_petal=True, same_arc=False)
    assert gs_resistance(params, same) == gs_resistance(params, same_swapped)


def test_gs_kirchhoff_examples():
    assert gs_kirchhoff(CycleFlowerParams(3, 3, 1)) == Fraction(65, 6)
    assert gs_kirchhoff(CycleFlowerParams(4, 3, 2)) == 33
    for n in range(3, 13):
        assert gs_kirchhoff(CycleFlowerParams(3, n, 1)) == Fraction(
            4 * n**3 + 12 * n * n - 7 * n, 18
        )


def test_gs_kemeny_examples():
    assert gs_kemeny(CycleFlowerParams(3, 3, 1)) == Fraction(14, 3)
    assert gs_kemeny(CycleFlowerParams(4, 3, 2)) == Fraction(53, 6)
    for n in range(3, 13):
        assert gs_kemeny(CycleFlowerParams(3, n, 1)) == Fraction(n * n + 2 * n - 1, 3)


def test_cross_family_identities():
    # A triangle is both a complete graph and a cycle, so the two families
    # must agree exactly on every index.
    for n in range(3, 13):
        assert gs_kirchhoff(CycleFlowerParams(3, n, 1)) == cf_kirchhoff(CompleteFlowerParams(3, n))
        assert gs_kemeny(CycleFlowerParams(3, n, 1)) == cf_kemeny(CompleteFlowerParams(3, n))


GS_ORACLE_CASES = [(3, 3, 1), (4, 3, 1), (4, 3, 2), (5, 4, 2), (6, 3, 3)]


@pytest.mark.parametrize(
    "m,n,p",
    GS_ORACLE_CASES
    + [
        (m, n, p)
        for m in range(3, 10)
        for n in (3, 4, 7)
        for p in range(1, m // 2 + 1)
        if (m, n, p) not in GS_ORACLE_CASES
    ],
)
def test_gs_pair_resistance_matches_oracle_and_generic(m, n, p):
    """Every (a, b, e) equals the general-base formula exactly; some also the oracle."""
    params = CycleFlowerParams(m, n, p)
    spec = cycle_flower_spec(params)
    matrix = resistance_matrix(spec.lift()) if (m, n, p) in GS_ORACLE_CASES else None
    for a, b, e, u, v in located_pairs(spec):
        value = gs_resistance(params, cycle_position(params, a, b, e))
        assert value == flower_resistance(spec, u, v)
        if matrix is not None:
            i, j = spec.label_of(1, a), spec.label_of(v.petal, b)
            assert abs(float(value) - matrix[i, j]) <= 1e-9


@pytest.mark.parametrize("m,n,p", [(4, 3, 2), (5, 3, 2), (6, 4, 2)])
def test_gs_indices_match_oracle(m, n, p):
    params = CycleFlowerParams(m, n, p)
    kf, kem = numeric_indices(cycle_flower_spec(params).lift())
    assert abs(float(gs_kirchhoff(params)) - kf) <= 1e-9
    assert abs(float(gs_kemeny(params)) - kem) <= 1e-9


def test_params_validation():
    with pytest.raises(ValueError):
        CycleFlowerParams(2, 3, 1)
    with pytest.raises(ValueError):
        CycleFlowerParams(5, 3, 3)
    with pytest.raises(ValueError):
        CycleFlowerParams(5, 3, 0)
