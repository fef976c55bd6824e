"""Any graph under a label rotation, as the ``Lift`` the oracle takes.

``check_shift`` certifies that moving every label by ``shift`` modulo the vertex
count maps a graph's edges onto themselves; ``graph_lift`` then reads the arcs
that leave block 0 off the graph's CSR rows.  The library builds its lifts from
flower specs and never needs either; the tests use them to run the oracle on
arbitrary graphs, under one block or under a rotation.
"""

from __future__ import annotations

import numpy as np

from flowergraphs import Graph, Lift


def check_shift(g: Graph, shift: int) -> None:
    """Certify that moving every label by ``shift`` modulo the vertex count maps
    ``g``'s edges onto themselves, exactly.

    The moved edges' keys ``u * N + v`` (``u < v``) are sorted and compared with
    the stored edges' keys, which are sorted already.  A ``shift`` that does not
    divide ``N`` (``N`` itself is the identity) or does not map the edges onto
    themselves raises ``ValueError`` naming it.
    """
    count = g.vertex_count
    if not 0 < shift <= count or count % shift:
        raise ValueError(f"shift {shift} does not divide the vertex count {count}")
    if shift == count:
        return
    moved = g.edges + shift
    np.subtract(moved, count, out=moved, where=moved >= count)
    u, v = moved.T
    keys = np.minimum(u, v) * count + np.maximum(u, v)
    # The moved edges form a few sorted runs, which a stable sort merges in O(|E|).
    keys.sort(kind="stable")
    if keys.tobytes() != (g.edges[:, 0] * count + g.edges[:, 1]).tobytes():
        raise ValueError(f"shift {shift} does not map the edges of the graph onto themselves")


def graph_lift(g: Graph, shift: int | None = None) -> Lift:
    """``g`` as the Z_n lift of its quotient by the certified rotation ``shift``,
    ``n = N / shift``; by default ``shift = N``, one block and every arc at step 0.

    Row ``r < shift`` of the CSR holds the arcs that leave offset ``r`` of block 0:
    neighbour ``c`` is offset ``c % shift`` at block step ``c // shift``, centred.
    """
    count = g.vertex_count
    k = count if shift is None else shift
    check_shift(g, k)
    n = count // k
    tails = np.repeat(np.arange(k), np.diff(g.indptr[:k + 1]))
    steps, heads = np.divmod(g.indices[:g.indptr[k]], k)
    steps -= n * (2 * steps > n)
    return Lift(k, n, np.stack((tails, heads, steps), 1))
