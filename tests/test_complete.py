"""The paper's complete-flower forms from ``paper_forms``: examples, their m = 3
sunflower identities, orientation symmetry, the maximum-resistance form, and the
pair and index forms against the oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from flowergraphs import (
    complete_flower_spec,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    max_resistance_search,
    numeric_indices,
    resistance_matrix,
)

from flower_reference import complete_case, located_pairs
from paper_forms import PairCase, cf_kemeny, cf_kirchhoff, cf_max_resistance, cf_resistance


def test_cf_resistance_examples():
    assert cf_resistance(3, 3, PairCase.BOTH_ASSOCIATED, 1) == Fraction(4, 9)
    assert cf_resistance(3, 4, PairCase.ONE_ASSOCIATED, 2) == Fraction(23, 24)
    for m in (3, 4, 7):
        assert cf_resistance(m, 5, PairCase.NEITHER, 1) == Fraction(2, m)


def test_cf_resistance_rejects_invalid_d():
    with pytest.raises(ValueError):
        cf_resistance(3, 4, PairCase.BOTH_ASSOCIATED, 4)
    with pytest.raises(ValueError):
        cf_resistance(3, 4, PairCase.ONE_ASSOCIATED, 0)
    with pytest.raises(ValueError):
        cf_resistance(3, 4, PairCase.NEITHER, 5)


@pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 6), (5, 7)])
def test_cf_orientation_identities(m, n):
    for d in range(1, n):
        assert cf_resistance(m, n, PairCase.BOTH_ASSOCIATED, d) == cf_resistance(
            m, n, PairCase.BOTH_ASSOCIATED, n - d
        )
    # a junction endpoint belongs to two petals, so its reflection is n - d + 1
    for d in range(1, n + 1):
        assert cf_resistance(m, n, PairCase.ONE_ASSOCIATED, d) == cf_resistance(
            m, n, PairCase.ONE_ASSOCIATED, n - d + 1
        )
    for d in range(2, n + 1):
        assert cf_resistance(m, n, PairCase.NEITHER, d) == cf_resistance(
            m, n, PairCase.NEITHER, n - d + 2
        )


@pytest.mark.parametrize(
    "m,n,expected",
    [(3, 4, Fraction(4, 3)), (3, 5, Fraction(22, 15)), (4, 6, Fraction(5, 4))],
)
def test_cf_max_resistance_examples(m, n, expected):
    assert cf_max_resistance(m, n) == expected


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cf_max_equals_exhaustive_search(m, n):
    result = max_resistance_search(complete_flower_spec(m, n))
    assert result.value == cf_max_resistance(m, n)


def test_cf_kirchhoff_examples():
    assert cf_kirchhoff(3, 3) == Fraction(65, 6)
    for n in range(3, 13):
        assert cf_kirchhoff(3, n) == Fraction(
            4 * n**3 + 12 * n * n - 7 * n, 18
        )


def test_cf_kemeny_examples():
    assert cf_kemeny(3, 3) == Fraction(14, 3)
    for n in range(3, 13):
        assert cf_kemeny(3, n) == Fraction(n * n + 2 * n - 1, 3)


@pytest.mark.parametrize("m,n", [(4, 3), (4, 4), (5, 3)])
def test_cf_indices_match_oracle(m, n):
    kf, kem = numeric_indices(complete_flower_spec(m, n).lift())
    assert abs(float(cf_kirchhoff(m, n)) - kf) <= 1e-9
    assert abs(float(cf_kemeny(m, n)) - kem) <= 1e-9


def test_sunflower_formulas_match_complete_at_three():
    for n in range(3, 13):
        for d in range(1, n + 1):
            both = Fraction(2 * d * (n - d), 3 * n)
            one = Fraction(4 * n * d - 4 * d * d + 4 * d - 1, 6 * n)
            neither = Fraction(2 * (n * d - (d - 1) ** 2), 3 * n)
            assert d == n or cf_resistance(3, n, PairCase.BOTH_ASSOCIATED, d) == both
            assert cf_resistance(3, n, PairCase.ONE_ASSOCIATED, d) == one
            assert cf_resistance(3, n, PairCase.NEITHER, d) == neither


def test_sunflower_examples():
    spec = complete_flower_spec(3, 3)
    assert cf_resistance(3, 3, PairCase.BOTH_ASSOCIATED, 1) == Fraction(4, 9)
    assert cf_resistance(3, 3, PairCase.NEITHER, 2) == Fraction(10, 9)
    assert cf_kirchhoff(3, 3) == flower_kirchhoff_exact(spec) == Fraction(65, 6)
    assert cf_kemeny(3, 3) == flower_kemeny_exact(spec) == Fraction(14, 3)


CF_ORACLE_CASES = [(3, 3), (3, 5), (4, 4), (5, 3)]


@pytest.mark.parametrize(
    "m,n",
    CF_ORACLE_CASES
    + [(m, n) for m in range(3, 7) for n in (3, 4, 7) if (m, n) not in CF_ORACLE_CASES],
)
def test_cf_pair_resistance_matches_oracle_and_generic(m, n):
    """Every (a, b, e) equals the general-base formula exactly; some also the oracle."""
    spec = complete_flower_spec(m, n)
    matrix = resistance_matrix(spec.lift()) if (m, n) in CF_ORACLE_CASES else None
    for a, b, e, u, v in located_pairs(spec):
        value = cf_resistance(m, n, *complete_case(a, b, e, n))
        assert value == flower_resistance(spec, u, v)
        if matrix is not None:
            i, j = spec.label_of(1, a), spec.label_of(v.petal, b)
            assert abs(float(value) - matrix[i, j]) <= 1e-9


def test_upper_bound_ratios_at_large_petal_count():
    n = 400
    for m in (3, 4, 6):
        spec = complete_flower_spec(m, n)
        _, kf_hi = kirchhoff_bounds(spec)
        _, kem_hi = kemeny_bounds(spec)
        kf_ratio = float(kf_hi / cf_kirchhoff(m, n))
        kem_ratio = float(kem_hi / cf_kemeny(m, n))
        assert abs(kf_ratio - 3 * m * m / (m - 1) ** 2) <= 0.02 * 3 * m * m / (m - 1) ** 2
        assert abs(kem_ratio - 12) <= 0.02 * 12


def test_params_validation():
    with pytest.raises(ValueError, match="^complete base needs at least three vertices$"):
        complete_flower_spec(2, 3)
    with pytest.raises(ValueError, match="^petal count must be at least 3$"):
        complete_flower_spec(3, 2)
