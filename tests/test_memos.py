"""The per-process memos of a base's and a lift pattern's petal-count-free work:
the same values cold and warm, and memory that stops growing once more bases than
any memo's bound have passed through."""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowergraphs import (
    FlowerSpec,
    complete_graph,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    graph_from_edge_list,
    kemeny_bounds,
    kirchhoff_bounds,
    numeric_indices,
    path_graph,
    read_edge_list,
    resistance_matrix,
)
from flowergraphs import flower, graphs, oracle

from conftest import connected_graphs
from rotations import build_flower, certified_lift, format_edge_list, graph_lift

# Every memo of work that does not depend on the petal count.
MEMOS = (graphs._graph_of, graphs._graph_of_text, flower._petal_arcs, flower._moments,
         flower.base_kirchhoff, flower.base_kemeny, oracle._pattern)


def _observed(base, x, y, ns, path):
    """What the memos feed, for one marked base at several petal counts."""
    values = [read_edge_list(path)]
    for n in ns:
        spec = FlowerSpec(base, x, y, n)
        lift = spec.lift()
        values += [flower_kirchhoff_exact(spec), flower_kemeny_exact(spec),
                   kirchhoff_bounds(spec), kemeny_bounds(spec),
                   lift.arcs.tolist(), lift.vertex_count,
                   np.array(numeric_indices(lift)).tobytes(), resistance_matrix(lift).tobytes()]
    return values


@st.composite
def marked_bases(draw):
    """``(base, x, y, ns)``: a connected base, two distinct marked vertices and a
    few petal counts."""
    base = draw(connected_graphs(max_vertices=7))
    x, y = draw(st.permutations(range(base.vertex_count)))[:2]
    return base, x, y, draw(st.lists(st.integers(3, 12), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@example((path_graph(2), 0, 1, [3, 4]))  # the single-edge base: the flower is C_n
@example((complete_graph(4), 2, 0, [3]))  # n = 3, the least n with +-1 distinct; x-y an edge
@example((cycle_graph(6), 0, 3, [3, 5]))  # no x-y edge
@given(marked_bases())
def test_every_memo_gives_the_same_values_cold_and_warm(tmp_path_factory, drawn):
    """Every memo, cleared, gives what it gave warm; and every flower's lift is a
    simple connected graph that gives its arcs back, as ``FlowerSpec.lift`` proves."""
    base, x, y, ns = drawn
    path = tmp_path_factory.mktemp("base") / "base.edges"
    path.write_text(format_edge_list(base))
    warm = _observed(base, x, y, ns, path)
    assert warm[0] == base and warm[0].edges == base.edges
    for memo in MEMOS:
        memo.cache_clear()
        assert _observed(base, x, y, ns, path) == warm
    for n in ns:
        spec = FlowerSpec(base, x, y, n)
        lift = spec.lift()
        # The same rows certified, and read back off the built graph, whose block 0
        # has the degrees the arcs count.
        cold = certified_lift(spec.block_size, n, lift.arcs.tolist())
        assert cold.arcs.tolist() == lift.arcs.tolist()
        graph = build_flower(spec)
        read = graph_lift(graph, spec.block_size)
        assert sorted(read.arcs.tolist()) == sorted(lift.arcs.tolist())
        tails = [tail for tail, _, _ in lift.arcs.tolist()]
        assert graph.degrees[:spec.block_size] == tuple(map(tails.count, range(spec.block_size)))


def test_the_memos_stop_growing_and_keep_no_graph_the_solves_drop():
    """300 bases of one size, more than any memo's bound, in two halves, each flower
    also through the oracle: the second half leaves the traced memory about where
    the first did, and every graph the memos still hold is one
    ``_laplacian_solve``'s cache holds too."""
    path = [(i, i + 1) for i in range(7)]
    chords = [(u, v) for u, v in combinations(range(8), 2) if v > u + 1]
    bases = [path + list(extra) for extra in islice(combinations(chords, 4), 300)]
    assert len(bases) > 2 * max(memo.cache_info().maxsize for memo in MEMOS)
    built = []

    def run(edge_lists):
        for edges in edge_lists:
            g = graph_from_edge_list(edges)
            built.append(weakref.ref(g))
            for n in (3, 4):
                spec = FlowerSpec(g, 0, 7, n)
                numeric_indices(spec.lift())
                flower_kirchhoff_exact(spec), flower_kemeny_exact(spec)
                kirchhoff_bounds(spec), kemeny_bounds(spec)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = run(bases[:150])
        second = run(bases[150:])
        alive = sum(ref() is not None for ref in built)
        for memo in MEMOS:
            memo.cache_clear()
        gc.collect()
        held = second - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A memo that grew with the bases would add about its own share again.
    assert abs(second - first) < held / 4
    assert alive == sum(ref() is not None for ref in built) == 64
    assert flower._laplacian_solve.cache_info().currsize == 64
    flower._laplacian_solve.cache_clear()
    gc.collect()
    assert not any(ref() is not None for ref in built)


def test_a_rewritten_base_file_reads_as_its_new_graph(tmp_path):
    """``read_edge_list`` reads the file on every call and memoises on its text, so
    an unchanged file gives the same graph and a rewritten one the new graph."""
    path = tmp_path / "base.edges"
    path.write_text(format_edge_list(complete_graph(4)))
    first = read_edge_list(path)
    assert read_edge_list(path) is first
    path.write_text(format_edge_list(cycle_graph(5)))
    assert read_edge_list(path) == cycle_graph(5) != first
    path.write_text("# the first graph again, written another way\n" + "\n".join(
        f"{v} {u}" for u, v in reversed(complete_graph(4).edges)))
    assert read_edge_list(path) == first


@pytest.mark.parametrize(
    "text,message",
    [("0 1\n1 2\n2\n", "line 3: expected two vertex labels, got '2'"),
     ("0 1\n\n1 x\n", "line 3: non-integer vertex label in '1 x'"),
     ("0 1\n2 3\n", "graph is disconnected")],
    ids=["two-labels", "non-integer", "disconnected"],
)
def test_a_bad_base_file_raises_on_every_read(tmp_path, text, message):
    """The memo keeps only graphs, so a bad file raises its ``ValueError``, with
    its line number, on every read, cold and warm."""
    path = tmp_path / "bad.edges"
    path.write_text(text)
    held = graphs._graph_of_text.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_edge_list(path)
    assert graphs._graph_of_text.cache_info().currsize == held


def test_the_oracle_memo_hands_out_read_only_arrays():
    """A caller that wrote into a cached array would change every later result of
    its lift pattern, so every array of ``oracle._pattern`` is read-only."""
    lift = FlowerSpec(graph_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)]), 0, 3, 5).lift()
    pattern = oracle._pattern(lift.k, lift.arcs.tobytes())
    assert not any(array.flags.writeable for array in pattern)
    with pytest.raises(ValueError, match="read-only"):
        pattern.green[0, 0] = 0.0
