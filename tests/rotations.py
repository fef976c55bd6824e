"""Any graph under a label rotation as the ``Lift`` the oracle takes, any arcs as a
certified lift, and any lift or flower as the N-vertex ``Graph`` the library never
builds.

``check_shift`` certifies that moving every label by ``shift`` modulo the vertex
count maps a graph's edges onto themselves; ``graph_lift`` then reads the arcs
that leave block 0 off the graph's neighbour rows.  ``lift_graph`` moves every arc
of a lift through every block, and ``build_flower`` is a flower spec's lift made a
graph that way.  ``certified_lift`` takes arbitrary arcs, which ``Lift`` holds
unchecked, only when their lift is a simple connected graph that gives them back.
``format_edge_list`` writes a graph as edge-list text.  The library builds its
lifts from flower specs and lists a lift's edges with ``Lift.edges``; the tests
use these to run the oracle on arbitrary graphs and arcs, under one block or
under a rotation, to compare a flower or a lift with an independently built
graph, and to write the files the command line reads.
"""

from __future__ import annotations

from array import array
from itertools import chain

from flowergraphs import FlowerSpec, Graph
from flowergraphs.graphs import Lift


def check_shift(g: Graph, shift: int) -> None:
    """Certify that moving every label by ``shift`` modulo the vertex count maps
    ``g``'s edges onto themselves, exactly.  A ``shift`` that does not divide
    ``N`` (``N`` itself is the identity) or does not map the edges onto
    themselves raises ``ValueError`` naming it.
    """
    count = g.vertex_count
    if not 0 < shift <= count or count % shift:
        raise ValueError(f"shift {shift} does not divide the vertex count {count}")
    moved = sorted(tuple(sorted(((u + shift) % count, (v + shift) % count)))
                   for u, v in g.edges)
    if moved != list(g.edges):
        raise ValueError(f"shift {shift} does not map the edges of the graph onto themselves")


def graph_lift(g: Graph, shift: int | None = None) -> Lift:
    """``g`` as the Z_n lift of its quotient by the certified rotation ``shift``,
    ``n = N / shift``; by default ``shift = N``, one block and every arc at step 0.

    Row ``r < shift`` holds the arcs that leave offset ``r`` of block 0: neighbour
    ``c`` is offset ``c % shift`` at block step ``c // shift``, centred.
    """
    count = g.vertex_count
    k = count if shift is None else shift
    check_shift(g, k)
    n = count // k
    arcs = []
    for tail in range(k):
        for neighbour in g.neighbors(tail):
            step, head = divmod(neighbour, k)
            arcs.append((tail, head, step - n if 2 * step > n else step))
    return Lift(k, n, _packed(arcs))


def certified_lift(k: int, n: int, rows) -> Lift:
    """The lift on ``k`` offsets and ``n`` blocks whose arcs leaving block 0 are the
    ``(tail, head, step)`` ``rows``, a numpy array read through ``tolist``.

    ``lift_graph`` makes it a ``Graph``, which certifies it simple and connected:
    a loop or an arc off the labels is refused there.  Reading that graph's block-0
    arcs back by ``graph_lift``'s rule must give ``rows`` again, in any order, which
    an arc without its reverse, a repeated arc or an uncentred step would not, so a
    ``ValueError`` refuses those.
    """
    lift = Lift(k, n, _packed(rows))
    if sorted(graph_lift(lift_graph(lift), k).arcs.tolist()) != sorted(lift.arcs.tolist()):
        raise ValueError(f"arcs {lift.arcs.tolist()} do not come back from their lift")
    return lift


def _packed(rows) -> memoryview:
    """``rows`` of three integers as the read-only ``(rows, 3)`` memoryview of 64-bit
    ints that ``Lift`` holds."""
    rows = rows.tolist() if hasattr(rows, "tolist") else rows
    flat = array("q", chain.from_iterable(rows))
    return memoryview(flat.tobytes()).cast("q", (len(flat) // 3, 3))


def lift_graph(lift: Lift) -> Graph:
    """The lift as an N-vertex ``Graph``: every arc moved through every block."""
    k, n = lift.k, lift.n
    return Graph(lift.vertex_count, {
        tuple(sorted((q * k + tail, (q + step) % n * k + head)))
        for tail, head, step in lift.arcs.tolist() for q in range(n)
    })


def build_flower(spec: FlowerSpec) -> Graph:
    """The flower graph: petal 1 labelled by ``spec.label_of`` and petal ``i`` its
    copy moved by ``i - 1`` whole blocks, modulo the vertex count, so that petal
    ``i``'s ``y`` lands on petal ``i - 1``'s ``x``: ``spec.lift()`` made a graph."""
    return lift_graph(spec.lift())


def format_edge_list(g: Graph) -> str:
    """``g``'s edges as edge-list text, one ``u v`` line each, as ``gen`` writes them."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)
