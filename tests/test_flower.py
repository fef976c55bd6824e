"""Flower construction, the general resistance formulas, search and bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flowergraphs import (
    BaseResBundle,
    FlowerLocator,
    FlowerSpec,
    base_kemeny,
    base_kirchhoff,
    base_resistance_table,
    build_flower,
    canonical_locator,
    complete_graph,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    flower_resistance_cross,
    flower_resistance_same,
    kemeny_bounds,
    kirchhoff_bounds,
    locator,
    max_diff_sequence,
    max_resistance_search,
    numeric_indices,
    path_graph,
    petersen_graph,
    resistance_matrix,
)

from conftest import connected_graphs, grid_graph, random_connected_graph
from flower_reference import exact_resistance_table

THIRD = Fraction(2, 3)


def k3_spec(n: int) -> FlowerSpec:
    return FlowerSpec(complete_graph(3), 0, 1, n)


# ---------------------------------------------------------------- construction


def test_build_triangle_flower_counts():
    flower = build_flower(k3_spec(3))
    assert flower.graph.vertex_count == 6
    assert flower.graph.edge_count == 9
    assert sorted(flower.graph.degrees) == [2, 2, 2, 4, 4, 4]


def test_flower_of_single_edge_is_a_cycle():
    for n in (3, 5, 8):
        flower = build_flower(FlowerSpec(path_graph(2), 0, 1, n))
        assert flower.graph == cycle_graph(n)


def test_build_cycle_flower_counts():
    flower = build_flower(FlowerSpec(cycle_graph(6), 0, 2, 4))
    assert flower.graph.vertex_count == 20
    assert flower.graph.edge_count == 24


def test_junction_degree_is_sum_of_marked_degrees():
    base = path_graph(3)
    flower = build_flower(FlowerSpec(base, 0, 2, 4))
    junction = flower.label_of(1, 0)
    assert flower.graph.degree(junction) == base.degree(0) + base.degree(2)


def test_labeling_is_a_bijection_with_contiguous_blocks():
    spec = FlowerSpec(complete_graph(4), 0, 1, 5)
    flower = build_flower(spec)
    seen = set()
    for petal in range(1, 6):
        for v in range(4):
            seen.add(flower.label_of(petal, v))
    assert seen == set(range(spec.vertex_count))
    # petal blocks are contiguous with the junction first
    for petal in range(1, 6):
        block = [flower.label_of(petal, v) for v in (0, 2, 3)]
        assert block == [(petal - 1) * 3, (petal - 1) * 3 + 1, (petal - 1) * 3 + 2]


def test_locator_round_trip():
    spec = FlowerSpec(cycle_graph(5), 0, 2, 4)
    flower = build_flower(spec)
    for label in range(spec.vertex_count):
        loc = flower.locator_of(label)
        assert flower.label_of(loc.petal, loc.base_vertex) == label


def test_shared_vertex_canonicalizes_to_lower_petal():
    spec = k3_spec(4)
    as_y = canonical_locator(spec, FlowerLocator(2, 1, False))
    assert as_y == FlowerLocator(1, 0, True)
    wraparound = canonical_locator(spec, FlowerLocator(1, 1, False))
    assert wraparound == FlowerLocator(4, 0, True)


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 3"):
        FlowerSpec(complete_graph(3), 0, 1, 2)
    with pytest.raises(ValueError, match="distinct"):
        FlowerSpec(complete_graph(3), 1, 1, 3)


# ------------------------------------------------------------- cross formula


def test_cross_formula_triangle_bundle():
    bundle = BaseResBundle(THIRD, THIRD, THIRD, THIRD, THIRD)
    assert flower_resistance_cross(bundle, 2, 3) == Fraction(10, 9)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 5), (4, 7), (5, 8)])
def test_cross_formula_junction_pair_simplifies(d, n):
    r_xy = Fraction(5, 7)
    bundle = BaseResBundle(
        r_ux=Fraction(0), r_uy=r_xy, r_vx=r_xy, r_vy=Fraction(0), r_xy=r_xy
    )
    assert flower_resistance_cross(bundle, d, n) == d * (n - d) * r_xy / n


def test_cross_formula_rejects_bad_inputs():
    bundle = BaseResBundle(THIRD, THIRD, THIRD, THIRD, THIRD)
    with pytest.raises(ValueError, match="out of range"):
        flower_resistance_cross(bundle, 1, 3)
    with pytest.raises(ValueError, match="out of range"):
        flower_resistance_cross(bundle, 4, 3)
    degenerate = BaseResBundle(THIRD, THIRD, THIRD, THIRD, Fraction(0))
    with pytest.raises(ValueError, match="positive"):
        flower_resistance_cross(degenerate, 2, 3)


@given(
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=Fraction(1, 10), max_value=5),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=12, max_value=20),
)
def test_cross_orientation_invariance(r_ux, r_uy, r_vx, r_vy, r_xy, d, n):
    """Reversing the petal-count direction (swapping the endpoint roles and
    replacing d with n - d + 2) leaves the value unchanged."""
    bundle = BaseResBundle(r_ux, r_uy, r_vx, r_vy, r_xy)
    swapped = BaseResBundle(r_ux=r_vx, r_uy=r_vy, r_vx=r_ux, r_vy=r_uy, r_xy=r_xy)
    assert flower_resistance_cross(bundle, d, n) == flower_resistance_cross(
        swapped, n - d + 2, n
    )
    mirrored = BaseResBundle(r_ux=r_uy, r_uy=r_ux, r_vx=r_vy, r_vy=r_vx, r_xy=r_xy)
    assert flower_resistance_cross(bundle, d, n) == flower_resistance_cross(
        mirrored, n - d + 2, n
    )


def test_cross_correction_is_nonnegative():
    bundle = BaseResBundle(Fraction(1), Fraction(2), Fraction(3), Fraction(1), Fraction(2))
    d, n = 3, 6
    series = bundle.r_uy + bundle.r_vx + (d - 2) * bundle.r_xy
    assert flower_resistance_cross(bundle, d, n) <= series


# -------------------------------------------------------- same-petal formula


def test_same_petal_symmetric_bundle_returns_base_value():
    # zero correction: r_ux + r_vy equals r_uy + r_vx
    bundle = BaseResBundle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1))
    assert flower_resistance_same(bundle, Fraction(4, 5), 6) == Fraction(4, 5)


def test_same_petal_outer_pair_of_complete_base_unchanged():
    for m in (4, 5, 6):
        r = Fraction(2, m)
        bundle = BaseResBundle(r, r, r, r, r)
        assert flower_resistance_same(bundle, r, 5) == r


def test_same_petal_mixed_pair_triangle():
    bundle = BaseResBundle(Fraction(0), THIRD, THIRD, THIRD, THIRD)
    assert flower_resistance_same(bundle, THIRD, 3) == Fraction(11, 18)


@given(
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=Fraction(1, 10), max_value=5),
    st.fractions(min_value=0, max_value=5),
    st.integers(min_value=3, max_value=20),
)
def test_same_petal_never_exceeds_base_resistance(r_ux, r_uy, r_vx, r_vy, r_xy, r_uv, n):
    bundle = BaseResBundle(r_ux, r_uy, r_vx, r_vy, r_xy)
    assert flower_resistance_same(bundle, r_uv, n) <= r_uv


# ------------------------------------------------------------- full dispatch


def test_adjacent_junctions_of_triangle_flower():
    spec = k3_spec(3)
    u = locator(spec, 1, 0)
    v = locator(spec, 2, 0)
    assert flower_resistance(spec, u, v) == Fraction(4, 9)


def test_resistance_of_vertex_with_itself_is_zero():
    spec = k3_spec(4)
    u = locator(spec, 2, 2)
    assert flower_resistance(spec, u, u) == 0
    # the same junction addressed through both petals
    assert flower_resistance(spec, locator(spec, 1, 0), locator(spec, 2, 1)) == 0


@pytest.mark.parametrize(
    "base,x,y,n",
    [
        (complete_graph(3), 0, 1, 3),
        (complete_graph(4), 0, 1, 4),
        (cycle_graph(6), 0, 3, 4),
        (cycle_graph(5), 0, 2, 5),
        (path_graph(3), 0, 2, 4),
        (petersen_graph(), 0, 2, 3),
    ],
)
def test_flower_resistance_matches_oracle(base, x, y, n):
    spec = FlowerSpec(base, x, y, n)
    flower = build_flower(spec)
    matrix = resistance_matrix(flower.graph)
    for i in range(spec.vertex_count):
        for j in range(i + 1, spec.vertex_count):
            closed = flower_resistance(spec, flower.locator_of(i), flower.locator_of(j))
            assert abs(float(closed) - matrix[i, j]) <= 1e-9


def test_flower_resistance_symmetric_in_arguments():
    spec = FlowerSpec(path_graph(3), 0, 1, 5)
    u = locator(spec, 1, 2)
    v = locator(spec, 3, 0)
    assert flower_resistance(spec, u, v) == flower_resistance(spec, v, u)


# ------------------------------------------------------------------- search


def test_max_resistance_odd_triangle_flower():
    result = max_resistance_search(k3_spec(5))
    assert result.value == Fraction(22, 15)
    assert result.d == 3


def test_max_resistance_even_triangle_flower():
    result = max_resistance_search(k3_spec(4))
    assert result.value == Fraction(4, 3)
    assert result.d == 3


def test_max_location_window():
    for base, x, y in [
        (complete_graph(3), 0, 1),
        (path_graph(2), 0, 1),
        (cycle_graph(5), 0, 2),
        (path_graph(3), 0, 2),
    ]:
        for n in range(3, 9):
            result = max_resistance_search(FlowerSpec(base, x, y, n))
            assert n / 2 <= result.d <= n / 2 + 2


def test_max_resistance_grows_without_bound():
    for base, x, y in [(complete_graph(3), 0, 1), (path_graph(3), 0, 2)]:
        table = base_resistance_table(base)
        for n in (3, 5, 8):
            small = max_resistance_search(FlowerSpec(base, x, y, n), table).value
            large = max_resistance_search(FlowerSpec(base, x, y, n + 8), table).value
            assert large > small


def test_max_diff_sequence_triangle_limit():
    diffs = max_diff_sequence(complete_graph(3), 0, 1, 20, 24)
    limit = Fraction(1, 6)
    assert all(abs(d - limit) < Fraction(1, 40) for d in diffs)


def test_max_diff_sequence_single_edge_limit():
    diffs = max_diff_sequence(path_graph(2), 0, 1, 12, 16)
    limit = Fraction(1, 4)
    assert all(abs(d - limit) < Fraction(1, 30) for d in diffs)


def test_max_diff_converges():
    for base, limit in [(complete_graph(3), Fraction(1, 6)), (path_graph(2), Fraction(1, 4))]:
        early = max_diff_sequence(base, 0, 1, 20, 21)[0]
        late = max_diff_sequence(base, 0, 1, 200, 201)[0]
        assert abs(late - limit) < abs(early - limit)


# ------------------------------------------------------------------- bounds


def test_kirchhoff_bounds_single_edge_base():
    spec = FlowerSpec(path_graph(2), 0, 1, 3)
    lo, hi = kirchhoff_bounds(spec, Fraction(1), Fraction(1))
    assert lo == 2
    assert hi == 33
    # the three-petal single-edge flower is a triangle, which attains the bound
    assert flower_kirchhoff_exact(spec) == 2


def test_kemeny_bound_triangle_base():
    spec = k3_spec(3)
    table = base_resistance_table(spec.base)
    lo, hi = kemeny_bounds(spec, base_kemeny(spec.base, table), table[0][1])
    assert lo == Fraction(4, 9)
    assert lo <= flower_kemeny_exact(spec) <= hi


@pytest.mark.parametrize(
    "base,x,y,n",
    [
        (complete_graph(3), 0, 1, 4),
        (complete_graph(5), 0, 1, 3),
        (cycle_graph(4), 0, 2, 3),
        (path_graph(3), 0, 2, 4),
    ],
)
def test_bounds_bracket_oracle(base, x, y, n):
    spec = FlowerSpec(base, x, y, n)
    table = base_resistance_table(base)
    r_xy = table[x][y]
    kf, kem = numeric_indices(build_flower(spec).graph)
    kf_lo, kf_hi = kirchhoff_bounds(spec, base_kirchhoff(table), r_xy)
    assert float(kf_lo) - 1e-9 <= kf <= float(kf_hi) + 1e-9
    kem_lo, kem_hi = kemeny_bounds(spec, base_kemeny(base, table), r_xy)
    assert float(kem_lo) - 1e-9 <= kem <= float(kem_hi) + 1e-9


# ------------------------------------------------------- base resistance table


def test_base_table_is_exact_beyond_a_million_spanning_trees():
    # The 4x5 grid has 4,140,081 spanning trees, the common denominator.
    grid = grid_graph(4, 5)
    table = base_resistance_table(grid)
    assert table == exact_resistance_table(grid)
    assert table[0][1] == Fraction(966079, 1380027)


LARGER_BASES = [
    random_connected_graph(random.Random(seed), max_vertices=24, min_vertices=14)
    for seed in range(8)
]


@pytest.mark.parametrize(
    "base", LARGER_BASES, ids=lambda g: f"m{g.vertex_count}-q{g.edge_count}"
)
def test_base_table_is_exact_on_larger_random_bases(base):
    assert base_resistance_table(base) == exact_resistance_table(base)


@given(connected_graphs())
def test_base_table_matches_fraction_reference(g):
    assert base_resistance_table(g) == exact_resistance_table(g)


# -------------------------------------------------------------- exact sums


def test_exact_index_sums_match_oracle():
    spec = FlowerSpec(path_graph(3), 0, 2, 4)
    kf, kem = numeric_indices(build_flower(spec).graph)
    assert abs(float(flower_kirchhoff_exact(spec)) - kf) <= 1e-9
    assert abs(float(flower_kemeny_exact(spec)) - kem) <= 1e-9


def test_base_index_helpers():
    table = base_resistance_table(complete_graph(3))
    assert base_kirchhoff(table) == 2
    assert base_kemeny(complete_graph(3), table) == Fraction(4, 3)
