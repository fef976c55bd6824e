"""Simple undirected connected graphs with dense 0-based vertex labels."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Iterable

import numpy as np

Edge = tuple[int, int]


def _edge_array(pairs) -> np.ndarray:
    """``pairs`` as a nonempty ``(|E|, 2)`` integer array; float and string labels fail."""
    edges = np.asarray(pairs)
    if edges.dtype.kind not in "bi":
        # numpy holds ints past int64 as uint64, float64 or object: check them exactly.
        edges = np.asarray(pairs, dtype=object)
        bad = [label for label in edges.flat if not isinstance(label, (int, np.integer))]
        if bad:
            raise ValueError(f"vertex label {bad[0]!r} is not an integer")
    try:
        edges = edges.astype(np.intp, copy=False)
    except OverflowError as exc:
        raise ValueError(f"a vertex label is outside 0..{np.iinfo(np.intp).max}") from exc
    if not edges.size:
        raise ValueError("edge list is empty")
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("every edge must be a pair of vertex labels")
    return edges


def _duplicate(u: int, v: int) -> ValueError:
    return ValueError(f"duplicate edge {(u, v)}")


def _label_gap(count: int, touched: np.ndarray) -> ValueError:
    """The error for labels ``0 .. count - 1`` of which only ``touched`` (ascending)
    are touched by an edge."""
    misplaced = np.flatnonzero(touched != np.arange(touched.size))
    first = int(misplaced[0]) if misplaced.size else touched.size
    return ValueError(
        f"label gap: no edge touches {count - touched.size} of the "
        f"labels 0..{count - 1} (the first is {first})"
    )


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple connected graph on vertex labels ``0 .. vertex_count - 1``.

    ``edges`` is a nonempty ``(|E|, 2)`` integer array of ``(u, v)`` rows in any
    order and either orientation; it is stored sorted with ``u < v``, so two
    graphs are equal, and hash equal, exactly when their vertex counts and
    edge arrays' bytes are.  ``indptr`` and ``indices`` are the graph in CSR
    form, every row's neighbours ascending.  Negative or out-of-range labels,
    self-loops, duplicate edges, label gaps and disconnected graphs are
    rejected here, the one place edges are checked, so every instance can be
    fed to the resistance machinery without further checks.  ``degrees`` and
    ``neighbors`` give Python ints, which the exact solves need.

    ``shift`` is a label rotation the graph is built with: moving every label by
    it modulo the vertex count maps the edges onto themselves.  ``None``, the
    constructor's default, stands for the vertex count, the identity, so every
    built graph's ``shift`` is an int; ``check_shift`` certifies it here, and it
    takes no part in equality or the hash.
    """

    vertex_count: int
    edges: np.ndarray
    shift: int | None = None

    def __post_init__(self) -> None:
        count = self.vertex_count
        edges = _edge_array(self.edges)
        u, v = edges.T
        if edges.min() < 0 or edges.max() >= count or (u == v).any():
            bad = (u < 0) | (v < 0) | (u == v) | (u >= count) | (v >= count)
            u, v = edges[bad.argmax()].tolist()
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex label in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) is out of range for {count} vertices")
        # |E| edges touch at most 2|E| labels.  Past that nothing of length
        # vertex_count is allocated; below it the keys u * N + v stay under 4|E|^2.
        if count > 2 * len(edges):
            pairs, repeats = np.unique(np.sort(edges, 1), axis=0, return_counts=True)
            if (repeats > 1).any():
                raise _duplicate(*pairs[(repeats > 1).argmax()].tolist())
            raise _label_gap(count, np.unique(edges))
        # Both orientations of every edge sorted by the key row * N + column are the
        # CSR arcs: a repeated key is a duplicate edge, and the arcs with
        # row < column are the edges in sorted order.
        keys = np.concatenate((u * count + v, v * count + u))
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            raise _duplicate(*sorted(divmod(int(keys[repeated.argmax()]), count)))
        rows = keys // count  # numpy divides by a scalar far faster than it takes remainders
        columns = keys - rows * count
        degrees = np.bincount(rows, minlength=count)
        if not degrees.all():
            raise _label_gap(count, np.flatnonzero(degrees))
        indptr = np.concatenate(((0,), degrees.cumsum()))
        forward = rows < columns
        key = np.stack((rows[forward], columns[forward]), 1).tobytes()
        arrays = {
            # A read-only view of the bytes that equality and the hash compare.
            "edges": np.frombuffer(key, np.intp).reshape(-1, 2),
            "indptr": indptr,
            "indices": columns,
        }
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "degrees", tuple(degrees.tolist()))
        object.__setattr__(self, "shift", count if self.shift is None else self.shift)
        check_shift(self, self.shift)
        if not self._is_connected():
            raise ValueError("graph is disconnected")
        object.__setattr__(self, "_key", (count, key))

    def _is_connected(self) -> bool:
        """Whether the graph is connected, by a breadth-first pass over its quotient
        by ``shift``: ``k = shift`` vertices, one per label offset.

        With ``n = N / k`` and labels ``p k + r``, the rotation makes the graph the
        Z_n lift of its quotient: the arc from ``r`` in block 0 to ``p k + r'``
        stands for the arcs ``(q, r) -> (q + p, r')`` of every block ``q``, so it
        is a quotient arc ``r -> r'`` with voltage ``p``.  The pass reaches each
        offset along a spanning tree, at a potential ``phi`` (``phi(0) = 0``,
        ``phi(r') = phi(r) + p`` on a tree arc), so every arc's cycle voltage
        ``c = phi(r) + p - phi(r')`` is zero on the tree.  The lift is connected
        iff the quotient is and ``gcd(n, every c) = 1`` (Gross and Tucker,
        *Topological Graph Theory*, 1987, ch. 2).  Proof, with ``g`` that gcd: a
        path in the lift projects to a walk in the quotient, and no arc changes
        ``q - phi(r) mod g``, so each of its ``g`` values, all of which occur, is
        a union of components.  Conversely, in a connected quotient the tree
        joins ``(q, 0)`` to ``(q + phi(r), r)``; out along the tree, over an arc
        and back moves ``(q, 0)`` to ``(q + c, 0)``, and those moves generate
        ``g Z_n``, so at ``g = 1`` every vertex is reached.

        The pass keeps the label ``phi(r) k + r`` of each offset's tree vertex, on
        which ``k c`` is a difference of labels, and ``gcd(N, every k c) = k g``.
        It stops taking gcds once that is ``k``.  At ``shift = N``, ``n = 1`` and
        this is a plain breadth-first pass.
        """
        k = self.shift
        indptr = self.indptr[:k + 1].tolist()
        columns = self.indices[:indptr[-1]].tolist()
        label = [0] + [None] * (k - 1)
        reached, divisor = [0], self.vertex_count
        for r in reached:  # breadth first: the loop runs over what it appends
            tail = label[r] - r
            for c in columns[indptr[r]:indptr[r + 1]]:
                w = c % k
                if label[w] is None:
                    label[w] = tail + c
                    reached.append(w)
                elif divisor > k:
                    divisor = gcd(divisor, tail + c - label[w])
        return len(reached) == k and divisor == k

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[v]:self.indptr[v + 1]].tolist())


def graph_from_edge_list(pairs: Iterable[tuple[int, int]]) -> Graph:
    """The graph on labels ``0 .. max`` whose edges are ``pairs``, unordered vertex
    pairs; ``Graph`` rejects what is not a simple connected graph."""
    edges = _edge_array(list(pairs))
    return Graph(1 + int(edges.max()), edges)


def block_shift_graph(count: int, first_edges: Iterable[Edge], shift: int) -> Graph:
    """The graph on ``count`` labels whose edges are ``first_edges`` moved by every
    multiple of ``shift`` below ``count``, modulo ``count``: one broadcast.

    ``shift`` divides ``count`` and is the graph's ``shift``; a shifted edge that
    repeats another is rejected as a duplicate.
    """
    first = _edge_array(list(first_edges)) % count
    shifted = first + np.arange(0, count, shift)[:, None, None]
    np.subtract(shifted, count, out=shifted, where=shifted >= count)
    return Graph(count, shifted.reshape(-1, 2), shift)


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


def parse_edge_list(text: str) -> list[Edge]:
    """Parse the one-edge-per-line text format.

    Lines starting with ``#`` and blank lines are ignored; every other line
    must hold exactly two whitespace-separated integers.  Labels are checked
    when the pairs become a ``Graph``.
    """
    pairs: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two vertex labels, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex label in {line!r}") from exc
        pairs.append((u, v))
    return pairs


def read_edge_list(path: str | Path) -> Graph:
    return graph_from_edge_list(parse_edge_list(Path(path).read_text()))


def format_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges.tolist())


def path_graph(vertices: int) -> Graph:
    if vertices < 2:
        raise ValueError("a path needs at least two vertices")
    return graph_from_edge_list((i, i + 1) for i in range(vertices - 1))


def cycle_graph(vertices: int) -> Graph:
    if vertices < 3:
        raise ValueError("a cycle needs at least three vertices")
    return graph_from_edge_list((i, (i + 1) % vertices) for i in range(vertices))


def complete_graph(vertices: int) -> Graph:
    if vertices < 2:
        raise ValueError("a complete graph needs at least two vertices")
    return graph_from_edge_list(
        (i, j) for i in range(vertices) for j in range(i + 1, vertices)
    )


def petersen_graph() -> Graph:
    """Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes between."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return graph_from_edge_list(edges)
