"""Graph construction, validation, Laplacian assembly and edge-list round trips."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowergraphs import (
    Graph,
    complete_flower_spec,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    parse_edge_list,
    path_graph,
    petersen_graph,
)

from flowergraphs.flower import _laplacian_solve

from conftest import connected_graphs, quotient_arcs
from dense_oracle import laplacian
from rotations import (build_flower, certified_lift, check_shift, format_edge_list,
                       graph_lift, lift_graph)


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


def test_edge_order_and_orientation_do_not_matter():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
    g = graph_from_edge_list(edges)
    again = graph_from_edge_list([(v, u) if i % 2 else (u, v) for i, (u, v) in
                                  enumerate(reversed(edges))])
    assert again is not g
    assert again == g and hash(again) == hash(g)
    assert again != graph_from_edge_list(edges[:-1] + [(2, 4)])
    assert list(g.edges) == sorted(tuple(sorted(edge)) for edge in edges)
    _laplacian_solve.cache_clear()
    _laplacian_solve(g)
    _laplacian_solve(again)
    info = _laplacian_solve.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_graph_arrays_are_read_only():
    """The edges, the degrees and every neighbour row are tuples."""
    g = petersen_graph()
    for held in (g.edges, g.degrees, g.neighbors(0)):
        with pytest.raises(TypeError):
            held[0] = 1


@given(connected_graphs())
def test_csr_lists_each_row_ascending(g):
    """Each vertex's neighbour row lists its neighbours ascending, one per degree."""
    for v in range(g.vertex_count):
        row = list(g.neighbors(v))
        assert row == sorted(row) == sorted(
            w for edge in g.edges if v in edge for w in edge if w != v)
        assert g.degrees[v] == len(row)


def test_degree_degrees_and_neighbors_give_python_ints():
    g = build_flower(complete_flower_spec(4, 3))
    assert type(g.degrees) is tuple and type(g.neighbors(0)) is tuple
    values = [*g.degrees, *g.neighbors(0), g.edge_count, g.vertex_count]
    assert {type(value) for value in values} == {int}


def test_graph_constructor_rejects_bad_edges():
    assert Graph(3, [(1, 0), (1, 2)]) == path_graph(3)
    with pytest.raises(ValueError, match=r"edge \(1, 3\) is out of range for 3 vertices"):
        Graph(3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        Graph(3, [(0, 1), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match="pair"):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="edge list is empty"):
        Graph(1, ())


@given(connected_graphs())
def test_either_orientation_gives_the_same_graph(g):
    flipped = Graph(g.vertex_count, [(v, u) for u, v in reversed(g.edges)])
    assert flipped == g and hash(flipped) == hash(g)
    assert flipped.edges == g.edges and flipped.degrees == g.degrees
    assert all(flipped.neighbors(v) == g.neighbors(v) for v in range(g.vertex_count))


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1), (2, -1)], r"negative vertex label in edge \(2, -1\)"),
        ([(0, 1), (1, 1)], "self-loop at vertex 1"),
        ([(0, 1), (1, 10**30)], rf"a vertex label is outside 0\.\.{np.iinfo(np.intp).max}"),
        ([(0, 1), (1, 2), (2, 0), (1, 0)], r"duplicate edge \(0, 1\)"),
        ([], "edge list is empty"),
        ([(0, 1), (1, 2, 3)], "every edge must be a pair of vertex labels"),
        ([(0, 1), 2], "every edge must be a pair of vertex labels"),
    ],
    ids=["negative", "self-loop", "out-of-range", "duplicate", "empty", "ragged", "scalar"],
)
def test_the_constructor_and_the_edge_list_builder_give_the_same_message(edges, message):
    for build in (lambda: Graph(3, edges), lambda: graph_from_edge_list(edges)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def _lift_edges(k, n, arcs):
    """The lift's edges, ``u < v``, one orbit of block 0's arcs at a time."""
    return {
        tuple(sorted((q * k + tail, (q + step) % n * k + head)))
        for tail, head, step in arcs for q in range(n)
    }


def test_lift_graph_keeps_a_half_turn_orbit_once():
    """At even n an arc of step n/2 from an offset to itself is its own reverse,
    and its orbit has n/2 edges; the lift lists each edge once."""
    ring = certified_lift(2, 3, [(0, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, -1)])
    assert list(ring.edges()) == list(cycle_graph(6).edges)
    assert ring.vertex_count == 6
    path = certified_lift(2, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert list(path.edges()) == list(graph_from_edge_list([(1, 0), (0, 2), (2, 3)]).edges)


def _bfs_connected(count, edges):
    neighbours = {v: [] for v in range(count)}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == count


@settings(max_examples=500)
@given(quotient_arcs(connected=False))
def test_block_shift_graph_accepts_exactly_the_connected_lifts(drawn):
    """``certified_lift`` agrees with a plain breadth-first pass over the whole graph
    on every simple lift, the lift lists its edges, half-turn orbits included, as its
    arcs moved through every block in sorted order, and reading that graph's block-0
    rows back gives the same arcs."""
    k, n, arcs = drawn
    assume(arcs)  # a lift with no arc has no rows
    edges = _lift_edges(k, n, arcs)
    if _bfs_connected(k * n, edges):
        lift = certified_lift(k, n, arcs)
        assert list(lift.edges()) == sorted(edges)
        assert sorted(map(tuple, graph_lift(lift_graph(lift), k).arcs.tolist())) == arcs
    else:
        with pytest.raises(ValueError, match="^graph is disconnected$"):
            certified_lift(k, n, arcs)


def test_block_shift_graph_rejects_a_disconnected_lift():
    # N = 6: the quotient by 2 has no arc between its offsets 0 and 1 (two triangles).
    # N = 12: the quotient is connected, but its one cycle, a loop at offset 0, has
    # voltage 2 and gcd(6, 2) = 2.
    for k, n, arcs in ((2, 3, [(0, 0, 1), (0, 0, -1), (1, 1, 1), (1, 1, -1)]),
                       (2, 6, [(0, 1, 0), (1, 0, 0), (0, 0, 2), (0, 0, -2)])):
        for build in (lambda: certified_lift(k, n, arcs),
                      lambda: Graph(k * n, sorted(_lift_edges(k, n, arcs)))):
            with pytest.raises(ValueError, match="^graph is disconnected$"):
                build()
    # An arc from offset 1 to offset 0 one block on closes a cycle of voltage 1.
    closed = [(0, 1, 0), (1, 0, 0), (0, 0, 2), (0, 0, -2), (1, 0, 1), (0, 1, -1)]
    assert lift_graph(certified_lift(2, 6, closed)).vertex_count == 12


@pytest.mark.parametrize(
    "k,n,arcs,message",
    [
        (2, 4, [(0, 1, 0), (1, 0, 1)], "do not come back"),
        (2, 3, [(0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, -1), (0, 0, 1)], "do not come back"),
        (1, 4, [(0, 0, 3), (0, 0, 1)], "do not come back"),
        (2, 3, [(0, 0, 0), (0, 1, 0), (1, 0, 0)], "^self-loop at vertex"),
        (2, 3, [(0, 2, 0), (2, 0, 0)], "is out of range for 6 vertices$"),
    ],
    ids=["unpaired", "repeated", "uncentred-step", "loop", "offset-range"],
)
def test_certified_lift_refuses_rows_that_are_no_simple_lift(k, n, arcs, message):
    """The rows' lift graph refuses a loop or a label off the lift, and reading its
    block-0 arcs back exposes an arc without its reverse, a repeated arc and a step
    outside the centred ones."""
    with pytest.raises(ValueError, match=message):
        certified_lift(k, n, arcs)


def test_lift_arcs_are_read_only_and_centred():
    lift = certified_lift(1, 4, np.array([[0, 0, 1], [0, 0, -1], [0, 0, 2]]))
    assert lift.arcs.format == "q" and lift.arcs.readonly
    assert lift.arcs.tolist() == [[0, 0, 1], [0, 0, -1], [0, 0, 2]]
    assert list(lift.edges()) == list(graph_from_edge_list(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]).edges)
    with pytest.raises(TypeError):
        lift.arcs[0, 0] = 1


def test_check_shift_certifies_exactly_the_automorphic_shifts():
    for shift in (1, 2, 3, 6):
        check_shift(cycle_graph(6), shift)
    check_shift(path_graph(5), 5)  # the whole vertex count is the identity
    ladder = certified_lift(2, 4, [(0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, -1), (1, 1, 1), (1, 1, -1)])
    check_shift(lift_graph(ladder), 4)
    for g, shift in ((path_graph(4), 1), (path_graph(4), 2), (petersen_graph(), 5)):
        with pytest.raises(ValueError, match=f"^shift {shift} does not map the edges"):
            check_shift(g, shift)
    for shift in (0, -2, 4, 12):
        with pytest.raises(ValueError, match=f"^shift {shift} does not divide the vertex count 6"):
            check_shift(cycle_graph(6), shift)


def test_label_beyond_the_index_range_rejected():
    with pytest.raises(ValueError, match="vertex label is outside"):
        graph_from_edge_list([(0, 1), (1, 10**30)])


OUTSIDE = rf"a vertex label is outside 0\.\.{np.iinfo(np.intp).max}"


# numpy infers float64 for a list holding 2**63 beside small ints, uint64 for one
# holding only labels in 2**63 .. 2**64 - 1 and object for 2**70; none of them may
# reach the int cast that would truncate or wrap it.
@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1.7), (1, 2)], r"vertex label 1\.7 is not an integer"),
        ([(0, 1), (1.0, 2)], r"vertex label 1\.0 is not an integer"),
        ([("0", "1"), ("1", "2")], "vertex label '0' is not an integer"),
        (np.array([[0.0, 1.0], [1.0, 2.0]]), r"vertex label 0\.0 is not an integer"),
        ([(0, 1), (1, 2**63)], OUTSIDE),
        ([(0, 1), (1, 2**70)], OUTSIDE),
        ([(2**63, 2**63 + 1)], OUTSIDE),
        (np.array([[0, 1], [1, 2**64 - 1]], dtype=np.uint64), OUTSIDE),
        ([(True, False)], "vertex label True is not an integer"),
        ([(0, 1), (1, True)], "vertex label True is not an integer"),
        (np.array([[0, 1], [1, 2]]) == 1, "vertex label False is not an integer"),
    ],
    ids=["float", "integral-float", "string", "float-array", "2^63", "2^70", "uint64",
         "uint64-array", "bool", "bool-beside-ints", "bool-array"],
)
def test_non_integer_and_oversized_labels_rejected_not_truncated(edges, message):
    for build in (lambda: Graph(3, edges), lambda: graph_from_edge_list(edges)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_numpy_integer_edge_arrays_are_accepted(dtype):
    """Signed and unsigned arrays alike, and memoised as the list of the same pairs."""
    edges = np.array([[0, 1], [1, 2], [2, 0]], dtype=dtype)
    assert Graph(3, edges) == graph_from_edge_list(edges) == cycle_graph(3)
    path = [(0, 1), (1, 2)]
    assert graph_from_edge_list(path) is graph_from_edge_list(np.array(path, dtype=dtype))


def test_memo_hits_keep_the_faults_that_depend_on_n():
    """Rows that make a simple connected lift at one n and not at another: the gcd
    with the new n, and the half-turn arcs (``2d = n``, their own reverse only
    there); and labels of another type, equal in value to those of a memoised
    graph, which ``graph_from_edge_list`` still refuses."""
    gcd = [(0, 0, 2), (0, 0, -2)]
    assert certified_lift(1, 5, gcd).vertex_count == 5
    with pytest.raises(ValueError, match="^graph is disconnected$"):
        certified_lift(1, 6, gcd)
    half_turn = [(0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, -1), (0, 1, 2), (1, 0, 2)]
    assert certified_lift(2, 4, half_turn).vertex_count == 8
    for n in (6, 5, 3):
        with pytest.raises(ValueError, match=r"^arcs .* do not come back from their lift$"):
            certified_lift(2, n, half_turn)
    path = [(0, 1), (1, 2)]
    assert graph_from_edge_list(path) is graph_from_edge_list(np.array(path))
    for labels, shown in (([(0, True), (True, 2)], "True"), ([(0.0, 1.0), (1.0, 2.0)], "0.0")):
        with pytest.raises(ValueError, match=f"^vertex label {shown} is not an integer$"):
            graph_from_edge_list(labels)
