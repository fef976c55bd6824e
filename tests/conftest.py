"""Shared helpers: random connected graphs, grids and flower specs for oracle and
metric tests, and the metric contract a resistance matrix must satisfy."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from flowergraphs import FlowerSpec, Graph, graph_from_edge_list


def random_connected_graph(
    rng: random.Random, max_vertices: int = 12, min_vertices: int = 2
) -> Graph:
    """Random connected simple graph: a spanning tree plus a few extra edges."""
    n = rng.randint(min_vertices, max_vertices)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):
        parent = order[rng.randrange(idx)]
        edges.add(tuple(sorted((parent, order[idx]))))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return graph_from_edge_list(sorted(edges))


def grid_graph(rows: int, cols: int) -> Graph:
    """Rectangular grid; vertex ``r * cols + c`` sits in row ``r``, column ``c``."""
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return graph_from_edge_list(right + down)


@st.composite
def connected_graphs(draw, max_vertices: int = 10) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    for u, v in extras:
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return graph_from_edge_list(sorted(edges))


@st.composite
def flower_specs(draw, max_vertices: int = 6, max_petals: int = 5) -> FlowerSpec:
    base = draw(connected_graphs(max_vertices))
    x = draw(st.integers(0, base.vertex_count - 1))
    y = draw(st.integers(0, base.vertex_count - 2))
    return FlowerSpec(base, x, y + (y >= x), draw(st.integers(3, max_petals)))


@st.composite
def quotient_arcs(draw, max_offsets: int = 5, max_blocks: int = 9, connected: bool = True):
    """``(k, n, arcs)`` for a random simple lift: a spanning tree of the ``k``-vertex
    quotient and a few more arcs, each with a random voltage, every arc beside its
    reverse.  With ``connected``, offset 0 also gets a loop of voltage 1, so the
    lift is connected; without it, it may not be."""
    k = draw(st.integers(1, max_offsets), "k")
    n = draw(st.integers(2 if k == 1 else 1, max_blocks), "n")  # at least two vertices
    step = st.integers(-((n - 1) // 2), n // 2)
    orbits = [(draw(st.integers(0, r - 1)), r, draw(step)) for r in range(1, k)]
    orbits += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), step),
                            max_size=k + 2), "extra arcs")
    if connected and n > 1:
        orbits.append((0, 0, 1))
    arcs = set()
    for tail, head, d in orbits:
        if tail != head or d:
            arcs |= {(tail, head, d), (head, tail, -d if 2 * d != n else d)}
    return k, n, sorted(arcs)


def metric_violations(matrix: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Check the metric contract of a resistance matrix; return failure messages.

    Verifies exact symmetry, zero diagonal, strictly positive off-diagonal
    entries, and the triangle plus reverse triangle inequalities within ``tol``.
    """
    problems: list[str] = []
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        return [f"not square: shape {matrix.shape}"]
    if not np.array_equal(matrix, matrix.T):
        problems.append("matrix is not exactly symmetric")
    if np.any(np.diag(matrix) != 0.0):
        problems.append("diagonal is not identically zero")
    off_diag = matrix[~np.eye(n, dtype=bool)]
    if off_diag.size and off_diag.min() <= 0.0:
        problems.append("nonpositive off-diagonal resistance")
    # One row x at a time, so memory stays O(N^2):
    # excess[y, z] = r(x, z) - r(x, y) - r(y, z)
    # reverse[y, z] = |r(x, y) - r(y, z)| - r(x, z)
    worst_excess = worst_reverse = -np.inf
    for row in matrix:
        worst_excess = max(worst_excess, (row[None, :] - row[:, None] - matrix).max())
        worst_reverse = max(worst_reverse, (np.abs(row[:, None] - matrix) - row[None, :]).max())
    if worst_excess > tol:
        problems.append(f"triangle inequality violated by {worst_excess:.3e}")
    if worst_reverse > tol:
        problems.append(f"reverse triangle inequality violated by {worst_reverse:.3e}")
    return problems


def scalar_values_close(a: float, b: float, abs_tol: float) -> bool:
    """``oracle.values_close``'s rule on two Python floats, as the scalar function
    had it before the comparison became elementwise numpy."""
    scale = max(abs(a), abs(b))
    if scale <= 1e3:
        return abs(a - b) <= abs_tol
    return abs(a - b) <= 1e-12 * scale
