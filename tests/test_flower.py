"""Flower construction, the general resistance formulas, search and bounds."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from flowergraphs import (
    FlowerLocator,
    FlowerSpec,
    base_kemeny,
    base_kirchhoff,
    base_resistance_table,
    build_flower,
    complete_graph,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    graph_from_edge_list,
    kemeny_bounds,
    kirchhoff_bounds,
    locator,
    max_resistance_search,
    numeric_indices,
    path_graph,
    petersen_graph,
    resistance_matrix,
)

from flowergraphs.flower import _laplacian_solve

from conftest import connected_graphs, flower_specs, grid_graph, random_connected_graph
from flower_reference import (
    exact_resistance_table,
    max_diff_sequence,
    outer_vertices,
    reference_flower,
)
from separation import TwoSepBundle, compose_two_sep


def k3_spec(n: int) -> FlowerSpec:
    return FlowerSpec(complete_graph(3), 0, 1, n)


# ---------------------------------------------------------------- construction


def test_build_triangle_flower_counts():
    flower = build_flower(k3_spec(3))
    assert flower.vertex_count == 6
    assert flower.edge_count == 9
    assert sorted(flower.degrees) == [2, 2, 2, 4, 4, 4]


def test_flower_of_single_edge_is_a_cycle():
    for n in (3, 5, 8):
        flower = build_flower(FlowerSpec(path_graph(2), 0, 1, n))
        assert flower == cycle_graph(n)


def test_build_cycle_flower_counts():
    flower = build_flower(FlowerSpec(cycle_graph(6), 0, 2, 4))
    assert flower.vertex_count == 20
    assert flower.edge_count == 24


def test_junction_degree_is_sum_of_marked_degrees():
    base = path_graph(3)
    spec = FlowerSpec(base, 0, 2, 4)
    flower = build_flower(spec)
    junction = spec.label_of(1, 0)
    assert flower.degrees[junction] == base.degrees[0] + base.degrees[2]


def test_labeling_is_a_bijection_with_contiguous_blocks():
    spec = FlowerSpec(complete_graph(4), 0, 1, 5)
    seen = set()
    for petal in range(1, 6):
        for v in range(4):
            seen.add(spec.label_of(petal, v))
    assert seen == set(range(spec.vertex_count))
    # petal blocks are contiguous with the junction first
    for petal in range(1, 6):
        block = [spec.label_of(petal, v) for v in (0, 2, 3)]
        assert block == [(petal - 1) * 3, (petal - 1) * 3 + 1, (petal - 1) * 3 + 2]


def test_locator_round_trip():
    spec = FlowerSpec(cycle_graph(5), 0, 2, 4)
    for label in range(spec.vertex_count):
        loc = spec.locator_of(label)
        assert spec.label_of(loc.petal, loc.base_vertex) == label


@example(k3_spec(4))
@given(flower_specs())
def test_label_map_matches_the_reference_construction(spec):
    """``build_flower`` equals the petal-by-petal reference, a block holds ``x`` and
    then the outer vertices, ``label_of`` and ``locator_of`` are inverse bijections
    between the labels and the canonical locators, a junction reads as ``x`` of the
    previous petal, shifting every label by one block maps the edge set onto itself,
    and the lift made a graph is the same flower."""
    n, size, count = spec.n, spec.block_size, spec.vertex_count
    assert spec.block_order == (spec.x, *outer_vertices(spec))
    graph = build_flower(spec)
    assert graph == reference_flower(spec) == spec.lift().graph()
    locators = [spec.locator_of(label) for label in range(count)]
    assert [spec.label_of(*loc) for loc in locators] == list(range(count))
    assert all(locator(spec, *loc) == loc for loc in locators)
    for petal in range(1, n + 1):
        assert locator(spec, petal, spec.y) == ((petal - 2) % n + 1, spec.x)
        for v in range(spec.base.vertex_count):
            assert spec.locator_of(spec.label_of(petal, v)) == locator(spec, petal, v)
    shifted = {tuple(sorted(((a + size) % count, (b + size) % count))) for a, b in graph.edges.tolist()}
    assert shifted == set(map(tuple, graph.edges.tolist()))


@pytest.mark.parametrize("n", [10, 10**6])
def test_a_lift_does_not_grow_with_the_petal_count(n):
    """The lift holds petal 1's arcs, 30 for the Petersen graph at any ``n``; the
    flower graph at n = 10**6 would sort 30M arc keys, over 1 GiB."""
    spec = FlowerSpec(petersen_graph(), 0, 2, n)
    tracemalloc.start()
    try:
        lift = spec.lift()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lift.k, lift.n, lift.arcs.shape) == (9, n, (30, 3))
    assert set(lift.arcs[:, 2].tolist()) == {-1, 0, 1}
    assert peak < 64 * 2**10


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 3"):
        FlowerSpec(complete_graph(3), 0, 1, 2)
    with pytest.raises(ValueError, match="distinct"):
        FlowerSpec(complete_graph(3), 1, 1, 3)


@pytest.mark.parametrize(
    "x,y,n,message",
    [
        (0, 2.0, 3, "y must be an integer, not 2.0"),
        (0.0, 2, 3, "x must be an integer, not 0.0"),
        (0, 2, 3.5, "n must be an integer, not 3.5"),
        (0, 2, "3", "n must be an integer, not '3'"),
    ],
)
def test_spec_rejects_non_integer_marked_vertices_and_petal_counts(x, y, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FlowerSpec(path_graph(3), x, y, n)


def test_spec_takes_numpy_integers_as_python_ints():
    spec = FlowerSpec(path_graph(3), np.int32(0), np.int64(2), np.int64(5))
    assert spec == FlowerSpec(path_graph(3), 0, 2, 5)
    assert all(type(value) is int for value in (spec.x, spec.y, spec.n))


# ------------------------------------------------------ the resistance formula


def petal_chain(spec: FlowerSpec, k: int):
    """The chain of ``k`` petals as a graph of its own: copy ``c``'s ``y`` is copy
    ``c + 1``'s ``x``, as petal ``i``'s ``y`` is petal ``i - 1``'s ``x`` in the flower.

    Returns the chain and the label of base vertex ``w`` in copy ``c``.
    """

    def key(c: int, w: int) -> tuple[int, int]:
        return (c + 1, spec.x) if w == spec.y and c < k - 1 else (c, w)

    keys = sorted({key(c, w) for c in range(k) for w in range(spec.base.vertex_count)})
    index = {copy_vertex: i for i, copy_vertex in enumerate(keys)}

    def label(c: int, w: int) -> int:
        return index[key(c, w)]

    edges = [(label(c, a), label(c, b)) for c in range(k) for a, b in spec.base.edges]
    return graph_from_edge_list(edges), label


@given(flower_specs())
def test_flower_resistance_is_the_two_separator_rule(spec):
    """For v e petals down the chain from u, part 1 is the chain of e + 1 petals
    from u's petal to v's, split at its two end vertices from part 2, the other
    n - e - 1 petals.  Every resistance is measured exactly on the chains."""
    n, x, y = spec.n, spec.x, spec.y
    chains = [petal_chain(spec, k) for k in range(1, n + 1)]
    tables = [base_resistance_table(chain) for chain, _ in chains]

    def end_to_end(k: int) -> Fraction:
        if k == 0:
            return Fraction(0)
        label = chains[k - 1][1]
        return tables[k - 1][label(0, x)][label(k - 1, y)]

    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    for u in locators:
        for v in locators:
            if u == v:
                continue
            e = (u.petal - v.petal) % n
            table, label = tables[e], chains[e][1]
            a, b = label(0, u.base_vertex), label(e, v.base_vertex)
            i, j = label(0, x), label(e, y)
            bundle = TwoSepBundle(
                r1_uv=table[a][b], r1_ui=table[a][i], r1_vj=table[b][j],
                r1_uj=table[a][j], r1_vi=table[b][i], r1_ij=table[i][j],
                r2_ij=end_to_end(n - e - 1),
            )
            assert flower_resistance(spec, u, v) == compose_two_sep(bundle)


def test_cross_formula_triangle_outer_pair():
    # outer vertices one petal apart
    spec = k3_spec(3)
    assert flower_resistance(spec, locator(spec, 1, 2), locator(spec, 2, 2)) == Fraction(10, 9)


@pytest.mark.parametrize("e,n", [(2, 3), (3, 5), (4, 7), (5, 8)])
def test_cross_formula_junction_pair_simplifies(e, n):
    # junctions e petals apart: e (n - e) s / n with s = r_xy
    for base, x, y in [
        (complete_graph(4), 0, 1),
        (cycle_graph(6), 0, 3),
        (path_graph(3), 0, 2),
        (petersen_graph(), 0, 2),
    ]:
        spec = FlowerSpec(base, x, y, n)
        s = base_resistance_table(base)[x][y]
        value = flower_resistance(spec, locator(spec, 1 + e, x), locator(spec, 1, x))
        assert value == e * (n - e) * s / n


def test_cross_formula_rejects_bad_inputs():
    spec = k3_spec(3)
    outer = locator(spec, 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        flower_resistance(spec, FlowerLocator(0, 2), outer)
    with pytest.raises(ValueError, match="out of range"):
        flower_resistance(spec, outer, FlowerLocator(4, 2))


@settings(max_examples=40)
@given(flower_specs())
def test_cross_orientation_invariance(spec):
    """Counting petals the other way round (swapping the endpoints, or swapping
    x and y, which reverses the petal order) leaves every value unchanged."""
    n = spec.n
    mirror = FlowerSpec(spec.base, spec.y, spec.x, n)
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    for u in locators:
        mirrored_u = FlowerLocator(n + 1 - u.petal, u.base_vertex)
        for v in locators:
            value = flower_resistance(spec, u, v)
            assert flower_resistance(spec, v, u) == value
            mirrored_v = FlowerLocator(n + 1 - v.petal, v.base_vertex)
            assert flower_resistance(mirror, mirrored_u, mirrored_v) == value


@settings(max_examples=40)
@given(flower_specs())
def test_cross_correction_is_nonnegative(spec):
    # Rayleigh: the other n - e - 1 petals only lower the series value.
    n, x, y = spec.n, spec.x, spec.y
    table = base_resistance_table(spec.base)
    s = table[x][y]
    for a in spec.block_order:
        for b in spec.block_order:
            for e in range(1, n):
                series = table[a][y] + table[b][x] + (e - 1) * s
                value = flower_resistance(spec, locator(spec, 1 + e, a), locator(spec, 1, b))
                assert value <= series


def test_same_petal_balanced_pair_returns_base_value():
    # In C6 marked at 0 and 3, vertices 1 and 5 mirror each other:
    # r_1x - r_1y = r_5x - r_5y, so the correction vanishes.
    for n in (3, 6):
        spec = FlowerSpec(cycle_graph(6), 0, 3, n)
        assert flower_resistance(spec, locator(spec, 2, 1), locator(spec, 2, 5)) == Fraction(4, 3)


def test_same_petal_outer_pair_of_complete_base_unchanged():
    for m in (4, 5, 6):
        spec = FlowerSpec(complete_graph(m), 0, 1, 5)
        assert flower_resistance(spec, locator(spec, 2, 2), locator(spec, 2, 3)) == Fraction(2, m)


def test_same_petal_mixed_pair_triangle():
    # the junction and the outer vertex of one petal
    spec = k3_spec(3)
    assert flower_resistance(spec, locator(spec, 1, 0), locator(spec, 1, 2)) == Fraction(11, 18)


@settings(max_examples=40)
@given(flower_specs())
def test_same_petal_never_exceeds_base_resistance(spec):
    table = base_resistance_table(spec.base)
    for a in spec.block_order:
        for b in spec.block_order:
            value = flower_resistance(spec, locator(spec, 1, a), locator(spec, 1, b))
            assert value <= table[a][b]


# ------------------------------------------------------------- full dispatch


@settings(max_examples=150)
@given(flower_specs(max_vertices=10, max_petals=8))
@example(FlowerSpec(path_graph(2), 0, 1, 3))
def test_foster_sum_over_the_petal_one_edges(spec):
    """Foster: edge resistances sum to N - 1; the edges are n rotations of petal 1's."""
    total = sum(
        flower_resistance(spec, locator(spec, 1, u), locator(spec, 1, v))
        for u, v in spec.base.edges
    )
    assert spec.n * total == spec.n * (spec.base.vertex_count - 1) - 1


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
    matrix = resistance_matrix(spec.lift())
    for i in range(spec.vertex_count):
        for j in range(i + 1, spec.vertex_count):
            closed = flower_resistance(spec, spec.locator_of(i), spec.locator_of(j))
            assert abs(float(closed) - matrix[i, j]) <= 1e-9


def test_flower_resistance_symmetric_in_arguments():
    spec = FlowerSpec(path_graph(3), 0, 1, 5)
    u = locator(spec, 1, 2)
    v = locator(spec, 3, 0)
    assert flower_resistance(spec, u, v) == flower_resistance(spec, v, u)


@pytest.mark.parametrize(
    "base,x,y,n",
    [
        (complete_graph(4), 0, 1, 5),
        (cycle_graph(6), 0, 2, 4),
        (random_connected_graph(random.Random(29), max_vertices=7, min_vertices=7), 1, 4, 4),
    ],
    ids=["K4", "C6-p2", "random"],
)
def test_memoised_resistance_equals_a_fresh_evaluation(base, x, y, n):
    """One spec reused for every ordered pair, its memo filling as it goes, gives
    what a fresh spec with an empty memo gives; the ``y`` locators are not
    canonical and go through ``locator``."""
    spec = FlowerSpec(base, x, y, n)
    every = [FlowerLocator(p, v) for p in range(1, n + 1) for v in range(base.vertex_count)]
    for u in every:
        for v in every:
            fresh = flower_resistance(FlowerSpec(base, x, y, n), u, v)
            assert flower_resistance(spec, u, v) == fresh, (u, v)


def test_the_memo_is_outside_equality_the_hash_and_the_repr():
    base = complete_graph(4)
    used, unused = FlowerSpec(base, 0, 1, 5), FlowerSpec(base, 0, 1, 5)
    flower_resistance(used, FlowerLocator(1, 2), FlowerLocator(3, 3))
    assert used._resistances and not unused._resistances
    assert used == unused
    assert hash(used) == hash(unused)
    assert repr(used) == repr(unused)


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
        for n in (3, 5, 8):
            small = max_resistance_search(FlowerSpec(base, x, y, n)).value
            large = max_resistance_search(FlowerSpec(base, x, y, n + 8)).value
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
    lo, hi = kirchhoff_bounds(spec)
    assert lo == 2
    assert hi == 33
    # the three-petal single-edge flower is a triangle, which attains the bound
    assert flower_kirchhoff_exact(spec) == 2


def test_kemeny_bound_triangle_base():
    spec = k3_spec(3)
    lo, hi = kemeny_bounds(spec)
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
    kf, kem = numeric_indices(spec.lift())
    kf_lo, kf_hi = kirchhoff_bounds(spec)
    assert float(kf_lo) - 1e-9 <= kf <= float(kf_hi) + 1e-9
    kem_lo, kem_hi = kemeny_bounds(spec)
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


TREE_COUNTS = (
    [(f"K{m}", complete_graph(m), m ** (m - 2)) for m in range(3, 9)]  # Cayley
    + [(f"C{m}", cycle_graph(m), m) for m in range(3, 9)]
    + [("petersen", petersen_graph(), 2000), ("grid4x5", grid_graph(4, 5), 4_140_081)]
)


@pytest.mark.parametrize(
    "g,trees", [case[1:] for case in TREE_COUNTS], ids=[case[0] for case in TREE_COUNTS]
)
def test_solve_determinant_is_the_spanning_tree_count(g, trees):
    det, _ = _laplacian_solve(g)
    assert det == trees


@given(connected_graphs())
def test_solve_integers_are_the_table_times_the_tree_count(g):
    det, k = _laplacian_solve(g)
    table = base_resistance_table(g)
    m = g.vertex_count
    assert all(k[i][j] == det * table[i][j] for i in range(m) for j in range(m))


# -------------------------------------------------------------- exact sums


def test_exact_index_sums_match_oracle():
    spec = FlowerSpec(path_graph(3), 0, 2, 4)
    kf, kem = numeric_indices(spec.lift())
    assert abs(float(flower_kirchhoff_exact(spec)) - kf) <= 1e-9
    assert abs(float(flower_kemeny_exact(spec)) - kem) <= 1e-9


def test_base_index_helpers():
    assert base_kirchhoff(complete_graph(3)) == 2
    assert base_kemeny(complete_graph(3)) == Fraction(4, 3)


@given(connected_graphs())
def test_base_indices_match_the_reference_table(g):
    table = exact_resistance_table(g)
    m, degrees = g.vertex_count, g.degrees
    assert base_kirchhoff(g) == sum(
        (table[i][j] for i in range(m) for j in range(i + 1, m)), start=Fraction(0)
    )
    weighted = sum(
        (degrees[i] * degrees[j] * table[i][j] for i in range(m) for j in range(m)),
        start=Fraction(0),
    )
    assert base_kemeny(g) == weighted / (4 * g.edge_count)
