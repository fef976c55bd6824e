"""Numeric resistance oracle: examples, the dense reference on random lifts and on
graphs with and without their rotation, the rotation certificate, metric contract,
solver residuals, accuracy and memory at large N."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowergraphs import (
    CompleteFlowerParams,
    CycleFlowerParams,
    FlowerSpec,
    Graph,
    Lift,
    build_flower,
    complete_flower_spec,
    complete_graph,
    cycle_flower_spec,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    graph_from_edge_list,
    grounded_potentials,
    numeric_indices,
    path_graph,
    petersen_graph,
    resistance,
    resistance_matrix,
    values_close,
)
from flowergraphs import oracle

import dense_oracle as dense
from conftest import (
    connected_graphs,
    flower_specs,
    metric_violations,
    quotient_arcs,
    random_connected_graph,
    scalar_values_close,
)
from flower_reference import located_pairs
from rotations import graph_lift


def test_single_edge_resistance():
    assert resistance(graph_lift(path_graph(2)), 0, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(3, 8))
def test_complete_graph_resistance(m):
    g = graph_lift(complete_graph(m))
    assert resistance(g, 0, m - 1) == pytest.approx(2 / m, abs=1e-12)


def test_cycle_opposite_pair():
    assert resistance(graph_lift(cycle_graph(4)), 0, 2) == pytest.approx(1.0, abs=1e-12)


def test_identical_vertices_have_zero_resistance():
    g = graph_lift(complete_graph(4))
    for v in range(4):
        assert resistance(g, v, v) == 0.0


def test_out_of_range_indices():
    with pytest.raises(IndexError):
        resistance(graph_lift(path_graph(2)), 0, 2)


@pytest.mark.parametrize("i,j", [(-1, 2), (2, -1), (4, 0), (0, 7)])
def test_grounded_potentials_rejects_out_of_range_vertices(i, j):
    with pytest.raises(IndexError, match=rf"vertex pair \({i}, {j}\) out of range for 4 vertices"):
        grounded_potentials(graph_lift(path_graph(4)), i, j)


def test_resistance_matrix_triangle():
    matrix = resistance_matrix(graph_lift(complete_graph(3)))
    for i in range(3):
        for j in range(3):
            expected = 0.0 if i == j else 2 / 3
            assert matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_resistance_matrix_path():
    matrix = resistance_matrix(graph_lift(path_graph(3)))
    assert matrix[0, 2] == pytest.approx(2.0, abs=1e-12)
    assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert matrix[1, 2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")  # the indices are real: no ComplexWarning on the way
def test_kirchhoff_examples():
    assert numeric_indices(graph_lift(complete_graph(3)))[0] == pytest.approx(2.0, abs=1e-12)
    assert numeric_indices(graph_lift(path_graph(2)))[0] == pytest.approx(1.0, abs=1e-12)
    sunflower = complete_flower_spec(CompleteFlowerParams(3, 3)).lift()
    assert numeric_indices(sunflower)[0] == pytest.approx(float(Fraction(65, 6)), abs=1e-9)


def test_kemeny_examples():
    assert numeric_indices(graph_lift(complete_graph(3)))[1] == pytest.approx(4 / 3, abs=1e-12)
    assert numeric_indices(graph_lift(path_graph(2)))[1] == pytest.approx(0.5, abs=1e-12)
    sunflower = complete_flower_spec(CompleteFlowerParams(3, 3)).lift()
    assert numeric_indices(sunflower)[1] == pytest.approx(float(Fraction(14, 3)), abs=1e-9)


def _assert_indices_match_definitions(g, lift):
    """Kf is half the resistance sum, Kemeny d^T R d / 4q, with the degrees and q
    read off ``g``, the graph ``lift`` stands for."""
    matrix = resistance_matrix(lift)
    degrees = np.asarray(g.degrees, dtype=float)
    kirchhoff, kemeny = numeric_indices(lift)
    assert kirchhoff == pytest.approx(matrix.sum() / 2.0, rel=1e-12)
    assert kemeny == pytest.approx(degrees @ matrix @ degrees / (4.0 * g.edge_count), rel=1e-12)


@settings(max_examples=40)
@given(connected_graphs())
def test_numeric_indices_equal_the_matrix_sums(g):
    _assert_indices_match_definitions(g, graph_lift(g))


@pytest.mark.parametrize(
    "spec",
    [
        complete_flower_spec(CompleteFlowerParams(3, 3)),
        complete_flower_spec(CompleteFlowerParams(6, 40)),
        cycle_flower_spec(CycleFlowerParams(5, 7, 2)),
        cycle_flower_spec(CycleFlowerParams(8, 30, 4)),
        FlowerSpec(petersen_graph(), 0, 2, 12),
        FlowerSpec(path_graph(4), 0, 3, 25),
    ],
    ids=lambda spec: f"m{spec.base.vertex_count}-n{spec.n}-x{spec.x}-y{spec.y}",
)
def test_numeric_indices_equal_the_matrix_sums_on_flowers(spec):
    # Kemeny's constant by its definition, sum 1/nu, against the resistance identity.
    _assert_indices_match_definitions(build_flower(spec), spec.lift())


ENTRY_POINTS = {
    "numeric_indices": numeric_indices,
    "resistance_matrix": resistance_matrix,
    "resistance": lambda lift: resistance(lift, 1, lift.vertex_count - 1),
    "grounded_potentials": lambda lift: grounded_potentials(lift, 1, lift.vertex_count - 1),
}
# N = 24 in blocks of 4.
SHIFTED = cycle_flower_spec(CycleFlowerParams(5, 6, 2))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_oracle_raises_when_the_shift_does_not_divide_n(entry):
    """No entry point runs on a graph read as a lift under a rotation that does not
    divide its vertex count."""
    flower = build_flower(SHIFTED)
    for shift in (0, -4, 5, 25):
        with pytest.raises(ValueError, match=f"shift {shift} does not divide the vertex count 24"):
            ENTRY_POINTS[entry](graph_lift(flower, shift))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=20)
@given(spec=flower_specs(max_vertices=6, max_petals=9), data=st.data())
def test_oracle_raises_when_an_edge_breaks_the_rotation(entry, spec, data):
    flower = build_flower(spec)
    edges = flower.edges.tolist()
    at = data.draw(st.integers(0, len(edges) - 1))
    to = data.draw(st.integers(0, flower.vertex_count - 1).filter(lambda v: v != edges[at][1]))
    edges[at][1] = to
    try:
        Graph(flower.vertex_count, edges)
    except ValueError:  # a self-loop, a duplicate edge, a label gap or a disconnected graph
        return
    # Every orbit has n >= 3 edges, so moving one leaves a part of its orbit behind.
    with pytest.raises(ValueError, match=f"shift {spec.block_size} does not map the edges"):
        ENTRY_POINTS[entry](graph_lift(Graph(flower.vertex_count, edges), spec.block_size))


def _assert_equals_dense(lift):
    """All four entry points on ``lift`` agree to 1e-12 with the dense Cholesky
    reference on the graph it stands for."""
    g = lift.graph()
    close = {"rtol": 1e-12, "atol": 1e-12}
    np.testing.assert_allclose(numeric_indices(lift), dense.numeric_indices(g), **close)
    np.testing.assert_allclose(resistance_matrix(lift), dense.resistance_matrix(g), **close)
    last = g.vertex_count - 1
    for i, j in ((0, last), (last, last // 2), (last // 2, 0), (1, last)):
        np.testing.assert_allclose(
            grounded_potentials(lift, i, j), dense.grounded_potentials(g, i, j), **close)
        np.testing.assert_allclose(resistance(lift, i, j), dense.resistance(g, i, j), **close)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_fourier_oracle_equals_the_dense_reference(g):
    _assert_equals_dense(graph_lift(g))


@settings(max_examples=60, deadline=None)
@example((1, 6, [(0, 0, -1), (0, 0, 1), (0, 0, 3)]))  # a half-turn orbit of n/2 edges
@example((3, 4, [(0, 1, 2), (0, 2, -1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]))
@example((4, 1, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (1, 3, 0), (2, 1, 0), (2, 3, 0),
                 (3, 1, 0), (3, 2, 0)]))  # one block: only w = 1
@example((2, 2, [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]))  # w = 1 and -1
@given(quotient_arcs(max_offsets=5, max_blocks=9))
def test_fourier_oracle_equals_the_dense_reference_on_random_lifts(drawn):
    """A random quotient with random voltages in (-n/2, n/2], each arc beside its
    reverse; steps of n/2, several steps between two offsets and loops at an
    offset all occur, and so do lifts of one and two blocks, whose degrees
    differ between offsets."""
    _assert_equals_dense(Lift(*drawn))


@settings(max_examples=60, deadline=None)
@example(FlowerSpec(path_graph(2), 0, 1, 7))  # one label a block: the flower is C_7
@example(FlowerSpec(path_graph(2), 1, 0, 4))
@given(flower_specs(max_vertices=7, max_petals=9))
def test_oracle_on_the_rotation_equals_the_dense_reference(spec):
    """The Fourier blocks of the flower's lift, k = m - 1 labels each, and the one
    block of the same flower read without its rotation give what the dense
    reference gives; m = 2 makes one label a block and the flower a cycle."""
    _assert_equals_dense(spec.lift())
    _assert_equals_dense(graph_lift(build_flower(spec)))


def test_every_multiple_of_the_shift_gives_the_same_values():
    lift = SHIFTED.lift()
    assert (lift.k, lift.n) == (4, 6)
    close = {"rtol": 1e-12, "atol": 1e-12}
    expected = numeric_indices(lift), resistance_matrix(lift)
    for shift in (8, 12, 24):
        rotated = graph_lift(lift.graph(), shift)
        np.testing.assert_allclose(numeric_indices(rotated), expected[0], **close)
        np.testing.assert_allclose(resistance_matrix(rotated), expected[1], **close)


@pytest.mark.parametrize(
    "lift",
    [
        graph_lift(path_graph(2)),
        graph_lift(path_graph(9)),
        # Stars and bowties centred at 0 ground to isolated vertices or components.
        graph_lift(graph_from_edge_list([(0, v) for v in range(1, 7)])),
        graph_lift(graph_from_edge_list([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (4, 5)])),
        complete_flower_spec(CompleteFlowerParams(5, 20)).lift(),
        cycle_flower_spec(CycleFlowerParams(8, 15, 3)).lift(),
        FlowerSpec(petersen_graph(), 0, 2, 12).lift(),
    ],
    ids=["edge", "path", "star", "bowtie", "K5-flower", "C8-flower",
         "petersen-flower"],
)
def test_fourier_oracle_equals_the_dense_reference_on_examples(lift):
    _assert_equals_dense(lift)


@pytest.mark.parametrize("m,p,n", [(8, 4, 160), (8, 3, 200), (6, 3, 220)])
def test_indices_within_rel_tol_on_large_cycle_flowers(m, p, n):
    # The dense oracle's relative error passed REL_TOL = 1e-12 first at these sizes.
    spec = cycle_flower_spec(CycleFlowerParams(m, n, p))
    observed = numeric_indices(spec.lift())
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= oracle.REL_TOL * float(exact)


def test_the_default_shift_is_the_rotation_the_flower_was_built_with():
    """A flower's lift is its petal rotation, one block of ``m - 1`` labels, and the
    oracle works under it.  One dense block of this flower, the default before the
    oracle read the rotation, was off by 1.3e-10 relative."""
    spec = cycle_flower_spec(CycleFlowerParams(8, 160, 4))
    lift = spec.lift()
    assert (lift.k, lift.n, lift.vertex_count) == (spec.block_size, 160, 1120)
    observed = numeric_indices(lift)
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-14 * float(exact)


def test_resistance_matrix_within_1e_9_of_every_exact_pair_at_n_1960():
    spec = cycle_flower_spec(CycleFlowerParams(8, 280, 4))
    # R depends on the base vertices a, b and the petal step e only: one value each.
    table = np.zeros((8, 8, spec.n))
    for a, b, e, u, v in located_pairs(spec):
        table[a, b, e] = float(flower_resistance(spec, u, v))
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    base = np.array([loc.base_vertex for loc in locators])
    petal = np.array([loc.petal for loc in locators])
    assert spec.vertex_count == 1960
    matrix = resistance_matrix(spec.lift())
    for rows in np.array_split(np.arange(spec.vertex_count), 8):
        step = (petal[rows, None] - petal[None, :]) % spec.n
        expected = table[base[rows, None], base[None, :], step]
        assert np.abs(matrix[rows] - expected).max() <= 1e-9


@pytest.mark.parametrize(
    "spec",
    [
        complete_flower_spec(CompleteFlowerParams(10, 2000)),
        cycle_flower_spec(CycleFlowerParams(8, 2572, 4)),
        FlowerSpec(petersen_graph(), 0, 2, 2000),
    ],
    ids=["K10", "C8-p4", "petersen"],
)
def test_indices_within_1e_12_relative_at_n_18000(spec):
    """A grounded banded Cholesky solve errs by 3.6e-12 (K10) to 1.4e-11 (Petersen)
    at this size; the deflated Fourier blocks keep both indices near 1e-15."""
    assert abs(spec.vertex_count - 18_000) <= 10
    observed = numeric_indices(spec.lift())
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-12 * float(exact)


@pytest.mark.parametrize(
    "spec",
    [
        complete_flower_spec(CompleteFlowerParams(10, 20_000)),
        cycle_flower_spec(CycleFlowerParams(8, 20_000, 4)),
        FlowerSpec(petersen_graph(), 0, 2, 20_000),
    ],
    ids=["K10", "C8-p4", "petersen"],
)
def test_indices_within_1e_14_relative_at_n_20000(spec):
    """N = 180,000 (C8: 140,000), with no N-vertex graph built.  The indices err by
    at most 3.3e-15 relative (Petersen); with the steps left uncentred, in [0, n),
    K10's Kirchhoff index errs by 4.4e-13."""
    observed = numeric_indices(spec.lift())
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-14 * float(exact)


def test_numeric_indices_memory_is_linear_in_n():
    spec = complete_flower_spec(CompleteFlowerParams(10, 200))
    lift = spec.lift()
    tracemalloc.start()
    try:
        numeric_indices(lift)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One grounded 1799 x 1799 float matrix alone is 25.9 MB.
    assert peak < 2_000_000


@settings(max_examples=40)
@given(st.data())
def test_entry_points_agree_on_every_pair(data):
    g = graph_lift(data.draw(connected_graphs()))
    vertex = st.integers(0, g.vertex_count - 1)
    i, j = data.draw(vertex), data.draw(vertex)
    potentials = grounded_potentials(g, i, j)
    value = resistance(g, i, j)
    assert value == pytest.approx(resistance_matrix(g)[i, j], abs=1e-12)
    assert value == pytest.approx(potentials[i] - potentials[j], abs=1e-12)


@settings(max_examples=40)
@given(connected_graphs())
def test_matrix_is_symmetric_with_zero_diagonal(g):
    matrix = resistance_matrix(graph_lift(g))
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


@settings(max_examples=25)
@given(connected_graphs(max_vertices=8))
def test_metric_contract_on_random_graphs(g):
    assert metric_violations(resistance_matrix(graph_lift(g))) == []


def test_solver_residual_contract():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20)
        i, j = rng.sample(range(g.vertex_count), 2)
        potentials = grounded_potentials(graph_lift(g), i, j)
        current = np.zeros(g.vertex_count)
        current[i], current[j] = 1.0, -1.0
        residual = dense.laplacian(g).astype(float) @ potentials - current
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(current)


def test_oracle_results_are_fresh_arrays():
    g = graph_lift(cycle_graph(5))
    matrix = resistance_matrix(g)
    matrix[0, 1] = -1.0
    potentials = grounded_potentials(g, 1, 2)
    potentials[0] = 5.0
    assert resistance_matrix(g)[0, 1] == pytest.approx(4 / 5, abs=1e-12)
    assert grounded_potentials(g, 1, 2)[0] == 0.0


def test_oracle_keeps_no_array_after_return():
    graphs = [
        graph_lift(random_connected_graph(random.Random(seed), max_vertices=200, min_vertices=200))
        for seed in (11, 12, 13)
    ]
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        for g in graphs:
            resistance_matrix(g)
            resistance(g, 5, 150)
            grounded_potentials(g, 150, 5)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One grounded 199 x 199 float matrix alone is 317 kB.
    assert current - baseline < 32_000
def test_edge_removal_never_decreases_resistance():
    # Rayleigh monotonicity, spot-checked on graphs that stay connected.
    cases = [
        (complete_graph(4), (0, 1)),
        (cycle_graph(5), (2, 3)),
        (graph_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]), (2, 3)),
    ]
    for g, removed in cases:
        before = resistance_matrix(graph_lift(g))
        smaller = graph_from_edge_list(sorted(set(map(tuple, g.edges.tolist())) - {removed}))
        after = resistance_matrix(graph_lift(smaller))
        assert np.all(after >= before - 1e-9)


def test_values_close_policy():
    assert values_close(1.0, 1.0 + 5e-10)
    assert not values_close(1.0, 1.0 + 5e-9)
    # beyond the magnitude cutoff the comparison turns relative
    assert values_close(2e6, 2e6 * (1 + 5e-13))
    assert not values_close(2e6, 2e6 * (1 + 5e-12))


def test_values_close_at_the_magnitude_cutoff():
    """At exactly ``MAGNITUDE_CUTOFF`` the absolute rule decides: 1e-7 apart is within
    ``abs_tol = 1e-6``, where the relative rule's 1e-12 * 1e3 = 1e-9 would refuse it.
    One ulp above the cutoff the relative rule decides, both ways."""
    assert oracle.MAGNITUDE_CUTOFF == 1e3 and oracle.REL_TOL == 1e-12
    assert values_close(1e3, 1e3 - 1e-7, abs_tol=1e-6)
    above = float(np.nextafter(1e3, np.inf))
    assert not values_close(above, above - 1e-7, abs_tol=1e-6)
    assert values_close(above, above - 5e-10, abs_tol=0.0)


@pytest.mark.parametrize("abs_tol", [1e-9, 0.0])
def test_values_close_on_arrays_matches_the_scalar_rule(abs_tol):
    """Each element of one array call decides as a call on its two floats does and
    as the scalar rule did: at and just above the cutoff, with a zero tolerance,
    on negative values, infinities and NaNs, which are never close."""
    above = float(np.nextafter(1e3, np.inf))
    nan, inf = float("nan"), float("inf")
    cases = [
        (1e3, 1e3), (1e3, 1e3 + 1e-9), (1e3, 1e3 + 5e-10), (-1e3, -1e3 - 5e-10),
        (above, above + 5e-10), (above, above * (1 + 5e-13)), (1e3, above),
        (1.0, 1.0), (1.0, 1.0 + 5e-10), (0.0, -0.0), (-2.5, -2.5 - 2e-9), (-1.0, 1.0),
        (-2e6, -2e6 * (1 + 5e-13)), (-2e6, -2e6 * (1 + 5e-12)), (-2e6, 2e6),
        (inf, inf), (-inf, -inf), (inf, -inf), (inf, 1.0),
        (nan, nan), (nan, 1.0), (1.0, nan), (nan, 2e6), (2e6, nan), (nan, inf),
    ]
    a, b = (np.array(side) for side in zip(*cases))
    close = values_close(a, b, abs_tol=abs_tol)
    single = [values_close(x, y, abs_tol=abs_tol) for x, y in cases]
    expected = [scalar_values_close(x, y, abs_tol) for x, y in cases]
    assert close.tolist() == expected == single
    assert not close[np.isnan(a) | np.isnan(b)].any()


def test_metric_violations_flags_bad_matrix():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert any("symmetric" in msg for msg in metric_violations(bad))
    far = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )
    assert any("triangle" in msg for msg in metric_violations(far))


def test_metric_violations_memory_stays_quadratic():
    g = random_connected_graph(random.Random(3), max_vertices=200, min_vertices=200)
    matrix = resistance_matrix(graph_lift(g))
    tracemalloc.start()
    try:
        assert metric_violations(matrix) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A few N x N float temporaries; one N^3 tensor would take 64 MB.
    assert peak <= 8 * matrix.nbytes
