"""Numeric resistance oracle: examples, metric contract, solver residuals."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from flowergraphs import (
    CompleteFlowerParams,
    CycleFlowerParams,
    FlowerSpec,
    build_flower,
    complete_flower_spec,
    complete_graph,
    cycle_flower_spec,
    cycle_graph,
    graph_from_edge_list,
    grounded_potentials,
    laplacian,
    metric_violations,
    numeric_indices,
    path_graph,
    petersen_graph,
    resistance,
    resistance_matrix,
    values_close,
)
from flowergraphs import oracle
from flowergraphs.oracle import _grounded_green

from conftest import connected_graphs, random_connected_graph


def test_single_edge_resistance():
    assert resistance(path_graph(2), 0, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(3, 8))
def test_complete_graph_resistance(m):
    g = complete_graph(m)
    assert resistance(g, 0, m - 1) == pytest.approx(2 / m, abs=1e-12)


def test_cycle_opposite_pair():
    assert resistance(cycle_graph(4), 0, 2) == pytest.approx(1.0, abs=1e-12)


def test_identical_vertices_have_zero_resistance():
    g = complete_graph(4)
    for v in range(4):
        assert resistance(g, v, v) == 0.0


def test_out_of_range_indices():
    with pytest.raises(IndexError):
        resistance(path_graph(2), 0, 2)


@pytest.mark.parametrize("i,j", [(-1, 2), (2, -1), (4, 0), (0, 7)])
def test_grounded_potentials_rejects_out_of_range_vertices(i, j):
    with pytest.raises(IndexError, match=rf"vertex pair \({i}, {j}\) out of range for 4 vertices"):
        grounded_potentials(path_graph(4), i, j)


def test_resistance_matrix_triangle():
    matrix = resistance_matrix(complete_graph(3))
    for i in range(3):
        for j in range(3):
            expected = 0.0 if i == j else 2 / 3
            assert matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_resistance_matrix_path():
    matrix = resistance_matrix(path_graph(3))
    assert matrix[0, 2] == pytest.approx(2.0, abs=1e-12)
    assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert matrix[1, 2] == pytest.approx(1.0, abs=1e-12)


def test_kirchhoff_examples():
    assert numeric_indices(complete_graph(3))[0] == pytest.approx(2.0, abs=1e-12)
    assert numeric_indices(path_graph(2))[0] == pytest.approx(1.0, abs=1e-12)
    sunflower = build_flower(complete_flower_spec(CompleteFlowerParams(3, 3))).graph
    assert numeric_indices(sunflower)[0] == pytest.approx(float(Fraction(65, 6)), abs=1e-9)


def test_kemeny_examples():
    assert numeric_indices(complete_graph(3))[1] == pytest.approx(4 / 3, abs=1e-12)
    assert numeric_indices(path_graph(2))[1] == pytest.approx(0.5, abs=1e-12)
    sunflower = build_flower(complete_flower_spec(CompleteFlowerParams(3, 3))).graph
    assert numeric_indices(sunflower)[1] == pytest.approx(float(Fraction(14, 3)), abs=1e-9)


def _assert_indices_match_definitions(g):
    """Kf is half the resistance sum, Kemeny d^T R d / 4q."""
    matrix = resistance_matrix(g)
    degrees = np.asarray(g.degrees, dtype=float)
    kirchhoff, kemeny = numeric_indices(g)
    assert kirchhoff == pytest.approx(matrix.sum() / 2.0, rel=1e-12)
    assert kemeny == pytest.approx(degrees @ matrix @ degrees / (4.0 * g.edge_count), rel=1e-12)


@settings(max_examples=40)
@given(connected_graphs())
def test_numeric_indices_equal_the_matrix_sums(g):
    _assert_indices_match_definitions(g)


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
    _assert_indices_match_definitions(build_flower(spec).graph)


def test_numeric_indices_raise_when_the_triangular_inverse_fails(monkeypatch):
    monkeypatch.setattr(oracle, "dtrtri", lambda c, **kwargs: (c, 2))
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        numeric_indices(cycle_graph(5))


def test_numeric_indices_raise_when_the_factorization_fails(monkeypatch):
    monkeypatch.setattr(oracle, "dpotrf", lambda a, **kwargs: (a, 3))
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf info=3"):
        numeric_indices(cycle_graph(5))


@settings(max_examples=40)
@given(connected_graphs())
def test_matrix_is_symmetric_with_zero_diagonal(g):
    matrix = resistance_matrix(g)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


@settings(max_examples=25)
@given(connected_graphs(max_vertices=8))
def test_metric_contract_on_random_graphs(g):
    assert metric_violations(resistance_matrix(g)) == []


def test_solver_residual_contract():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20)
        i, j = rng.sample(range(g.vertex_count), 2)
        potentials = grounded_potentials(g, i, j)
        current = np.zeros(g.vertex_count)
        current[i], current[j] = 1.0, -1.0
        residual = laplacian(g).astype(float) @ potentials - current
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(current)


def test_cached_green_matrix_is_read_only():
    g = cycle_graph(5)
    green = _grounded_green(g)
    with pytest.raises(ValueError):
        green[0, 0] = 1.0
    assert _grounded_green(g) is green
    # Results built from the cached matrix are fresh arrays the caller may edit.
    matrix = resistance_matrix(g)
    matrix[0, 1] = -1.0
    potentials = grounded_potentials(g, 1, 2)
    potentials[0] = 5.0
    assert resistance_matrix(g)[0, 1] == pytest.approx(4 / 5, abs=1e-12)
    assert grounded_potentials(g, 1, 2)[0] == 0.0


def test_edge_removal_never_decreases_resistance():
    # Rayleigh monotonicity, spot-checked on graphs that stay connected.
    cases = [
        (complete_graph(4), (0, 1)),
        (cycle_graph(5), (2, 3)),
        (graph_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]), (2, 3)),
    ]
    for g, removed in cases:
        before = resistance_matrix(g)
        smaller = graph_from_edge_list(sorted(g.edges - {removed}))
        after = resistance_matrix(smaller)
        assert np.all(after >= before - 1e-9)


def test_values_close_policy():
    assert values_close(1.0, 1.0 + 5e-10)
    assert not values_close(1.0, 1.0 + 5e-9)
    # beyond the magnitude cutoff the comparison turns relative
    assert values_close(2e6, 2e6 * (1 + 5e-13))
    assert not values_close(2e6, 2e6 * (1 + 5e-12))


def test_metric_violations_flags_bad_matrix():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert any("symmetric" in msg for msg in metric_violations(bad))
    far = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )
    assert any("triangle" in msg for msg in metric_violations(far))


def test_metric_violations_memory_stays_quadratic():
    g = random_connected_graph(random.Random(3), max_vertices=200, min_vertices=200)
    matrix = resistance_matrix(g)
    tracemalloc.start()
    try:
        assert metric_violations(matrix) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A few N x N float temporaries; one N^3 tensor would take 64 MB.
    assert peak <= 8 * matrix.nbytes
