"""Complete-flower closed forms and the sunflower specializations."""

from __future__ import annotations

from fractions import Fraction

import pytest

from flowergraphs import (
    CompleteFlowerParams,
    PairCase,
    build_flower,
    case_for_locators,
    cf_kemeny,
    cf_kirchhoff,
    cf_max_resistance,
    cf_pair_resistance,
    cf_resistance,
    complete_flower_spec,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    max_resistance_search,
    numeric_indices,
    resistance_matrix,
    sunflower_kemeny,
    sunflower_kirchhoff,
    sunflower_resistance,
)


def test_cf_resistance_examples():
    assert cf_resistance(CompleteFlowerParams(3, 3), PairCase.BOTH_ASSOCIATED, 1) == Fraction(4, 9)
    assert cf_resistance(CompleteFlowerParams(3, 4), PairCase.ONE_ASSOCIATED, 2) == Fraction(23, 24)
    for m in (3, 4, 7):
        assert cf_resistance(CompleteFlowerParams(m, 5), PairCase.NEITHER, 1) == Fraction(2, m)


def test_cf_resistance_rejects_invalid_d():
    params = CompleteFlowerParams(3, 4)
    with pytest.raises(ValueError):
        cf_resistance(params, PairCase.BOTH_ASSOCIATED, 4)
    with pytest.raises(ValueError):
        cf_resistance(params, PairCase.ONE_ASSOCIATED, 0)
    with pytest.raises(ValueError):
        cf_resistance(params, PairCase.NEITHER, 5)


@pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 6), (5, 7)])
def test_cf_orientation_identities(m, n):
    params = CompleteFlowerParams(m, n)
    for d in range(1, n):
        assert cf_resistance(params, PairCase.BOTH_ASSOCIATED, d) == cf_resistance(
            params, PairCase.BOTH_ASSOCIATED, n - d
        )
    # a junction endpoint belongs to two petals, so its reflection is n - d + 1
    for d in range(1, n + 1):
        assert cf_resistance(params, PairCase.ONE_ASSOCIATED, d) == cf_resistance(
            params, PairCase.ONE_ASSOCIATED, n - d + 1
        )
    for d in range(2, n + 1):
        assert cf_resistance(params, PairCase.NEITHER, d) == cf_resistance(
            params, PairCase.NEITHER, n - d + 2
        )


@pytest.mark.parametrize(
    "m,n,expected",
    [(3, 4, Fraction(4, 3)), (3, 5, Fraction(22, 15)), (4, 6, Fraction(5, 4))],
)
def test_cf_max_resistance_examples(m, n, expected):
    assert cf_max_resistance(CompleteFlowerParams(m, n)) == expected


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cf_max_equals_exhaustive_search(m, n):
    params = CompleteFlowerParams(m, n)
    result = max_resistance_search(complete_flower_spec(params))
    assert result.value == cf_max_resistance(params)


def test_cf_kirchhoff_examples():
    assert cf_kirchhoff(CompleteFlowerParams(3, 3)) == Fraction(65, 6)
    for n in range(3, 13):
        assert cf_kirchhoff(CompleteFlowerParams(3, n)) == Fraction(
            4 * n**3 + 12 * n * n - 7 * n, 18
        )


def test_cf_kemeny_examples():
    assert cf_kemeny(CompleteFlowerParams(3, 3)) == Fraction(14, 3)
    for n in range(3, 13):
        assert cf_kemeny(CompleteFlowerParams(3, n)) == Fraction(n * n + 2 * n - 1, 3)


@pytest.mark.parametrize("m,n", [(4, 3), (4, 4), (5, 3)])
def test_cf_indices_match_oracle(m, n):
    params = CompleteFlowerParams(m, n)
    kf, kem = numeric_indices(build_flower(complete_flower_spec(params)).graph)
    assert abs(float(cf_kirchhoff(params)) - kf) <= 1e-9
    assert abs(float(cf_kemeny(params)) - kem) <= 1e-9


def test_sunflower_formulas_match_complete_at_three():
    for n in range(3, 13):
        params = CompleteFlowerParams(3, n)
        for d in range(1, n):
            assert sunflower_resistance(n, PairCase.BOTH_ASSOCIATED, d) == cf_resistance(
                params, PairCase.BOTH_ASSOCIATED, d
            )
        for case in (PairCase.ONE_ASSOCIATED, PairCase.NEITHER):
            for d in range(1, n + 1):
                assert sunflower_resistance(n, case, d) == cf_resistance(params, case, d)


def test_sunflower_examples():
    assert sunflower_resistance(3, PairCase.BOTH_ASSOCIATED, 1) == Fraction(4, 9)
    assert sunflower_resistance(3, PairCase.NEITHER, 2) == Fraction(10, 9)
    assert sunflower_kirchhoff(3) == Fraction(65, 6)
    assert sunflower_kemeny(3) == Fraction(14, 3)


def test_sunflower_index_identities():
    for n in range(3, 13):
        assert sunflower_kirchhoff(n) == cf_kirchhoff(CompleteFlowerParams(3, n))
        assert sunflower_kemeny(n) == cf_kemeny(CompleteFlowerParams(3, n))


CF_ORACLE_CASES = [(3, 3), (3, 5), (4, 4), (5, 3)]


@pytest.mark.parametrize(
    "m,n",
    CF_ORACLE_CASES
    + [(m, n) for m in range(3, 7) for n in (3, 4, 7) if (m, n) not in CF_ORACLE_CASES],
)
def test_cf_pair_resistance_matches_oracle_and_generic(m, n):
    """Every pair equals the general-base formula exactly; some also the oracle."""
    params = CompleteFlowerParams(m, n)
    spec = complete_flower_spec(params)
    flower = build_flower(spec)
    matrix = resistance_matrix(flower.graph) if (m, n) in CF_ORACLE_CASES else None
    for i in range(spec.vertex_count):
        for j in range(i + 1, spec.vertex_count):
            u, v = flower.locator_of(i), flower.locator_of(j)
            value = cf_pair_resistance(params, u, v)
            assert value == flower_resistance(spec, u, v)
            if matrix is not None:
                assert abs(float(value) - matrix[i, j]) <= 1e-9


def test_case_adapter_classifies_pairs():
    params = CompleteFlowerParams(3, 4)
    spec = complete_flower_spec(params)
    flower = build_flower(spec)
    both = case_for_locators(params, flower.locator_of(0), flower.locator_of(2))
    assert both[0] is PairCase.BOTH_ASSOCIATED
    mixed = case_for_locators(params, flower.locator_of(0), flower.locator_of(1))
    assert mixed[0] is PairCase.ONE_ASSOCIATED
    outer = case_for_locators(params, flower.locator_of(1), flower.locator_of(3))
    assert outer[0] is PairCase.NEITHER
    with pytest.raises(ValueError, match="same vertex"):
        case_for_locators(params, flower.locator_of(0), flower.locator_of(0))


def test_upper_bound_ratios_at_large_petal_count():
    n = 400
    for m in (3, 4, 6):
        params = CompleteFlowerParams(m, n)
        spec = complete_flower_spec(params)
        _, kf_hi = kirchhoff_bounds(spec)
        _, kem_hi = kemeny_bounds(spec)
        kf_ratio = float(kf_hi / cf_kirchhoff(params))
        kem_ratio = float(kem_hi / cf_kemeny(params))
        assert abs(kf_ratio - 3 * m * m / (m - 1) ** 2) <= 0.02 * 3 * m * m / (m - 1) ** 2
        assert abs(kem_ratio - 12) <= 0.02 * 12


def test_params_validation():
    with pytest.raises(ValueError):
        CompleteFlowerParams(2, 3)
    with pytest.raises(ValueError):
        CompleteFlowerParams(3, 2)
