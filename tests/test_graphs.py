"""Graph construction, validation, Laplacian assembly and edge-list round trips."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from flowergraphs import (
    complete_graph,
    cycle_graph,
    format_edge_list,
    graph_from_edge_list,
    parse_edge_list,
    path_graph,
    petersen_graph,
)

from conftest import connected_graphs
from dense_oracle import laplacian


def test_triangle_from_edge_list():
    g = graph_from_edge_list([(0, 1), (1, 2), (0, 2)])
    assert g.vertex_count == 3
    assert g.degrees == (2, 2, 2)
    assert g.edge_count == 3


def test_path_from_edge_list():
    g = graph_from_edge_list([(0, 1), (1, 2)])
    assert g.degrees == (1, 2, 1)
    assert g.edge_count == 2


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        graph_from_edge_list([(0, 1), (2, 3)])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edge_list([(0, 0), (0, 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        graph_from_edge_list([(0, 1), (1, 0)])


def test_label_gap_rejected():
    with pytest.raises(ValueError, match="label gap"):
        graph_from_edge_list([(0, 2), (2, 4), (4, 0)])
    # The check and its message stay small however large the missing range.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="label gap") as excinfo:
            graph_from_edge_list([(0, 10**9)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(excinfo.value)) < 200
    assert peak < 1 << 20


def test_negative_label_rejected():
    with pytest.raises(ValueError, match="negative"):
        graph_from_edge_list([(-1, 0)])


def test_empty_edge_list_rejected():
    with pytest.raises(ValueError, match="empty"):
        graph_from_edge_list([])


def test_laplacian_single_edge():
    lap = laplacian(path_graph(2))
    assert lap.tolist() == [[1, -1], [-1, 1]]


def test_laplacian_triangle():
    lap = laplacian(complete_graph(3))
    assert lap.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


@given(connected_graphs())
def test_laplacian_rows_sum_to_zero(g):
    assert laplacian(g).sum(axis=1).tolist() == [0] * g.vertex_count


@given(connected_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees) == 2 * g.edge_count


@given(connected_graphs(max_vertices=8))
def test_laplacian_psd_with_one_zero_eigenvalue(g):
    eigenvalues = np.linalg.eigvalsh(laplacian(g).astype(float))
    assert abs(eigenvalues[0]) < 1e-9
    assert eigenvalues[1] > 1e-9


def test_parse_edge_list_skips_comments_and_blanks():
    text = "# triangle\n0 1\n\n1 2\n  # done\n0 2\n"
    assert parse_edge_list(text) == [(0, 1), (1, 2), (0, 2)]


def test_parse_edge_list_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="non-integer"):
        parse_edge_list("a b\n")


def test_edge_list_round_trip():
    g = petersen_graph()
    again = graph_from_edge_list(parse_edge_list(format_edge_list(g)))
    assert again == g


def test_named_graphs():
    assert complete_graph(3) == graph_from_edge_list([(0, 1), (1, 2), (0, 2)])
    assert path_graph(3).degrees == (1, 2, 1)
    assert cycle_graph(5).degrees == (2,) * 5
    assert complete_graph(4).edge_count == 6
    pet = petersen_graph()
    assert pet.vertex_count == 10
    assert pet.degrees == (3,) * 10
