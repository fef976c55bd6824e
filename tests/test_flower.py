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
    complete_flower_spec,
    complete_graph,
    cycle_flower_spec,
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
    resistance,
    resistance_matrix,
)

from flowergraphs import flower as flower_module
from flowergraphs.flower import _laplacian_solve, _scaled_pair_resistance

from conftest import connected_graphs, flower_specs, grid_graph, random_connected_graph
from flower_reference import (
    exact_resistance_table,
    max_diff_sequence,
    outer_vertices,
    reference_flower,
)
from rotations import build_flower
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
    and the lift lists the same flower's edges in sorted order."""
    n, size, count = spec.n, spec.block_size, spec.vertex_count
    assert spec.block_order == (spec.x, *outer_vertices(spec))
    graph = build_flower(spec)
    assert graph == reference_flower(spec)
    assert list(spec.lift().edges()) == list(graph.edges)
    locators = [spec.locator_of(label) for label in range(count)]
    assert [spec.label_of(*loc) for loc in locators] == list(range(count))
    assert all(locator(spec, *loc) == loc for loc in locators)
    for petal in range(1, n + 1):
        assert locator(spec, petal, spec.y) == ((petal - 2) % n + 1, spec.x)
        for v in range(spec.base.vertex_count):
            assert spec.locator_of(spec.label_of(petal, v)) == locator(spec, petal, v)
    shifted = {tuple(sorted(((a + size) % count, (b + size) % count))) for a, b in graph.edges}
    assert shifted == set(graph.edges)


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
    assert (lift.k, lift.n, len(lift.arcs)) == (9, n, 30)
    assert {step for _, _, step in lift.arcs} == {-1, 0, 1}
    assert type(lift.arcs) is tuple and {type(v) for arc in lift.arcs for v in arc} == {int}
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


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: complete_flower_spec(3.0, 4), "m must be an integer, not 3.0"),
        (lambda: complete_flower_spec(3, 4.5), "n must be an integer, not 4.5"),
        (lambda: complete_flower_spec(2, 4.5), "n must be an integer, not 4.5"),
        (lambda: cycle_flower_spec(6.0, 4, 1), "m must be an integer, not 6.0"),
        (lambda: cycle_flower_spec(6, "4", 1), "n must be an integer, not '4'"),
        (lambda: cycle_flower_spec(6, 4, 1.0), "p must be an integer, not 1.0"),
    ],
    ids=["complete-m", "complete-n", "complete-n-before-m-range", "cycle-m", "cycle-n",
         "cycle-p"],
)
def test_family_params_refuse_non_integers(make, message):
    """The complete and cycle builders name the argument that is no integer, as
    ``FlowerSpec`` does, before any range check or base graph is built."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_spec_takes_numpy_integers_as_python_ints():
    spec = FlowerSpec(path_graph(3), np.int32(0), np.int64(2), np.int64(5))
    assert spec == FlowerSpec(path_graph(3), 0, 2, 5)
    assert all(type(value) is int for value in (spec.x, spec.y, spec.n))


C5_SPEC = FlowerSpec(cycle_graph(5), 0, 2, 4)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: locator(C5_SPEC, 1.5, 3), "petal must be an integer, not 1.5"),
        (lambda: locator(C5_SPEC, 1, 2.0), "base_vertex must be an integer, not 2.0"),
        (lambda: C5_SPEC.label_of(1, 2.5), "base_vertex must be an integer, not 2.5"),
        (lambda: C5_SPEC.locator_of(2.0), "label must be an integer, not 2.0"),
        (lambda: resistance(C5_SPEC.lift(), 1.5, 0), "i must be an integer, not 1.5"),
        (lambda: resistance(C5_SPEC.lift(), 0, "3"), "j must be an integer, not '3'"),
        (lambda: flower_resistance(C5_SPEC, FlowerLocator(1.5, 3), FlowerLocator(1, 4)),
         "petal must be an integer, not 1.5"),
        (lambda: FlowerSpec(complete_graph(4), True, 0, 3), "x must be an integer, not True"),
        (lambda: cycle_flower_spec(6, 4, True), "p must be an integer, not True"),
        (lambda: locator(C5_SPEC, True, 2), "petal must be an integer, not True"),
        (lambda: resistance(C5_SPEC.lift(), True, 0), "i must be an integer, not True"),
        (lambda: flower_resistance(C5_SPEC, FlowerLocator(1, False), FlowerLocator(1, 4)),
         "base_vertex must be an integer, not False"),
        (lambda: complete_graph(3.5), "vertices must be an integer, not 3.5"),
        (lambda: path_graph(2.5), "vertices must be an integer, not 2.5"),
        (lambda: cycle_graph(4.0), "vertices must be an integer, not 4.0"),
        (lambda: complete_graph(True), "vertices must be an integer, not True"),
    ],
    ids=["locator-petal", "locator-vertex", "label_of", "locator_of", "resistance-i",
         "resistance-j", "flower_resistance", "spec-bool", "cycle-params-bool",
         "locator-bool", "resistance-bool", "flower_resistance-bool", "complete_graph",
         "path_graph", "cycle_graph", "complete_graph-bool"],
)
def test_vertex_arguments_must_be_integers(call, message):
    """A float, string or bool petal, base vertex, label, oracle vertex or graph size
    is refused as ``FlowerSpec`` refuses a non-integer ``x``, ``y`` or ``n``, not located,
    looked up or indexed as it is, and a bool is not read as 0 or 1.
    ``flower_resistance`` passes a locator that misses its memo through
    ``locator``."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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
    x and y, which reverses the petal order) leaves every value unchanged.  The
    memo stores each value under its mirror too, so the swapped endpoints are
    evaluated on a cold spec, equal to ``spec``, that has evaluated nothing else."""
    base, x, y, n = spec.base, spec.x, spec.y, spec.n
    mirror = FlowerSpec(base, y, x, n)
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    for u in locators:
        mirrored_u = FlowerLocator(n + 1 - u.petal, u.base_vertex)
        for v in locators:
            value = flower_resistance(spec, u, v)
            assert flower_resistance(FlowerSpec(base, x, y, n), v, u) == value
            mirrored_v = FlowerLocator(n + 1 - v.petal, v.base_vertex)
            assert flower_resistance(mirror, mirrored_u, mirrored_v) == value


@given(flower_specs(max_petals=8))
def test_the_scaled_pair_resistance_is_its_own_mirror(spec):
    """``4 n k_xy det R_ab(e)`` takes the same value on ``(b, a, -e mod n)``, the
    key of the same pair seen from its other end: the symmetry the memo's
    mirrored fill relies on, checked without the memo."""
    _, k = _laplacian_solve(spec.base)
    n = spec.n
    for a in spec.block_order:
        for b in spec.block_order:
            for e in range(n):
                assert (_scaled_pair_resistance(spec, k, a, b, e)
                        == _scaled_pair_resistance(spec, k, b, a, -e % n)), (a, b, e)


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


def _filled(spec: FlowerSpec) -> FlowerSpec:
    """``spec`` after every ordered pair of canonical locators has been evaluated."""
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    for u in locators:
        for v in locators:
            flower_resistance(spec, u, v)
    assert len(spec._resistances) == spec.block_size ** 2 * spec.n
    return spec


@pytest.mark.parametrize(
    "u,v,message",
    [
        (FlowerLocator(0, 3), FlowerLocator(1, 4), "petal 0 out of range 1..4"),
        (FlowerLocator(1, 3), FlowerLocator(5, 4), "petal 5 out of range 1..4"),
        (FlowerLocator(2, 5), FlowerLocator(1, 4), "base vertex 5 out of range"),
        (FlowerLocator(1, 3), FlowerLocator(1, -1), "base vertex -1 out of range"),
        (FlowerLocator(1.5, 3), FlowerLocator(1, 4), "petal must be an integer, not 1.5"),
        (FlowerLocator(1, 3), FlowerLocator(2.5, 4), "petal must be an integer, not 2.5"),
        (FlowerLocator("1", 3), FlowerLocator(1, 4), "petal must be an integer, not '1'"),
        (FlowerLocator(1, 3), FlowerLocator(None, 4), "petal must be an integer, not None"),
        (FlowerLocator(1.5, 3), FlowerLocator(0.5, 4), "petal must be an integer, not 1.5"),
        (FlowerLocator(True, 3), FlowerLocator(2, 4), "petal must be an integer, not True"),
        (FlowerLocator(2.0, 3), FlowerLocator(1, 4), "petal must be an integer, not 2.0"),
        ((1, 3.0), (2, 4), "base_vertex must be an integer, not 3.0"),
    ],
    ids=["petal-0", "petal-n+1", "vertex-m", "vertex-negative", "petal-1.5", "petal-2.5",
         "petal-str", "petal-None", "petals-an-integer-apart", "petal-bool", "petal-2.0",
         "vertex-3.0"],
)
def test_a_warm_memo_refuses_what_a_cold_one_refuses(u, v, message):
    """A hit needs four exact ints and petals in range before it probes the
    memo, so with every key stored an out-of-range petal or base vertex, a
    fractional petal, a bool and an integral float still miss into ``locator``,
    which raises what it raises on a cold spec.  An int-keyed memo would answer
    the last three by hash equality: ``1.5 - 0.5 == 1``, ``True == 1`` and
    ``2.0 == 2``."""
    cold = FlowerSpec(cycle_graph(5), 0, 2, 4)
    for spec in (cold, _filled(FlowerSpec(cycle_graph(5), 0, 2, 4))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            flower_resistance(spec, u, v)


def test_a_warm_memo_reads_a_y_locator_as_the_previous_junction():
    """Petal ``p``'s ``y`` is petal ``p - 1``'s ``x``; the memo holds no key with
    ``y``, so the ``y`` locator misses, and ``locator`` canonicalises it."""
    spec = _filled(FlowerSpec(cycle_graph(5), 0, 2, 4))
    keys = dict(spec._resistances)
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    for p in range(1, spec.n + 1):
        y_copy, junction = FlowerLocator(p, spec.y), FlowerLocator((p - 2) % spec.n + 1, spec.x)
        for w in locators:
            assert flower_resistance(spec, y_copy, w) == flower_resistance(spec, junction, w)
            assert flower_resistance(spec, w, y_copy) == flower_resistance(spec, w, junction)
    assert spec._resistances == keys


@pytest.mark.parametrize("n", [5, 6])
def test_one_miss_stores_its_key_and_its_mirror(n):
    """Each miss adds its key ``(a, b, e)`` and its mirror ``(b, a, -e mod n)``,
    one entry when the two are the same key: ``(a, a, 0)``, and ``(a, a, n/2)``
    at even ``n``."""
    spec = FlowerSpec(cycle_graph(5), 0, 2, n)
    own_mirrors = 0
    for a in spec.block_order:
        for b in spec.block_order:
            for e in range(n):
                key, mirror = (a, b, e), (b, a, -e % n)
                before = dict(spec._resistances)
                if key in before:
                    continue
                own_mirrors += key == mirror
                u, v = FlowerLocator(1, a), FlowerLocator((1 - e) % n or n, b)
                value = flower_resistance(spec, u, v)
                assert spec._resistances == {**before, key: value, mirror: value}
    assert own_mirrors == spec.block_size * (2 if n % 2 == 0 else 1)
    assert len(spec._resistances) == spec.block_size ** 2 * n


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


def _step_rule_specs():
    """At least 200 small flowers, n = 3..12: random bases, plus paths whose
    marked vertices hang a pendant off each end, so that at n = 3 a pair's vertex
    ``e*`` sits below step 1 and halfway between steps n - 1 and n."""
    rng = random.Random(43)
    specs = [FlowerSpec(path_graph(m), x, x + 1, n)
             for m in (4, 5, 6) for x in range(1, m - 2) for n in (3, 4)]
    while len(specs) < 240:
        base = random_connected_graph(rng, max_vertices=8)
        x, y = rng.sample(range(base.vertex_count), 2)
        specs.append(FlowerSpec(base, x, y, rng.randint(3, 12)))
    return specs


def test_the_search_evaluates_exactly_the_best_steps_of_each_pair(monkeypatch):
    """For each ordered base-locator pair the search evaluates ``R_ab(e)`` at
    ``e >= 1`` only at the steps of ``1..n-1`` where it is largest, each once, so
    one call per pair and one more per tie, and ``e = 0`` once for ``a != b``."""
    calls = []

    def recorded(spec, k, a, b, e):
        calls.append((a, b, e))
        return _scaled_pair_resistance(spec, k, a, b, e)

    monkeypatch.setattr(flower_module, "_scaled_pair_resistance", recorded)
    seen = {"tie": 0, "below 1": 0, "past n - 1": 0}
    for spec in _step_rule_specs():
        calls.clear()
        max_resistance_search(spec)
        _, k = _laplacian_solve(spec.base)
        n, s = spec.n, k[spec.x][spec.y]
        made = {}
        for a, b, e in calls:
            made.setdefault((a, b), []).append(e)
        assert set(made) == {(a, b) for a in spec.block_order for b in spec.block_order}
        for (a, b), steps in made.items():
            values = {e: _scaled_pair_resistance(spec, k, a, b, e) for e in range(1, n)}
            best = sorted(e for e, value in values.items() if value == max(values.values()))
            assert sorted(e for e in steps if e) == best, (spec, a, b)
            assert steps.count(0) == (a != b), (spec, a, b)
            vertex = Fraction(n * s + k[a][spec.x] - k[a][spec.y] - k[b][spec.x] + k[b][spec.y],
                              2 * s)
            seen["tie"] += len(best) == 2
            seen["below 1"] += vertex < 1
            seen["past n - 1"] += vertex >= n - 1 + Fraction(1, 2)
    assert all(seen.values()), seen


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
