"""Simple undirected connected graphs with dense 0-based vertex labels."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

Edge = tuple[int, int]


def _normalize(u: int, v: int) -> Edge:
    """Order an edge's endpoints, rejecting self-loops."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph on vertex labels ``0 .. vertex_count - 1``.

    Edges are stored as normalized ``(u, v)`` pairs with ``u < v``.  Dense
    labelling and connectivity are enforced at construction, so every instance
    can be fed to the resistance machinery without further checks.
    """

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("graph must have at least one vertex")
        touched: set[int] = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) is out of range or not normalized")
            touched.add(u)
            touched.add(v)
        if self.vertex_count > 1 and len(touched) < self.vertex_count:
            first = next((i for i, v in enumerate(sorted(touched)) if i != v), len(touched))
            raise ValueError(
                f"label gap: no edge touches {self.vertex_count - len(touched)} of the "
                f"labels 0..{self.vertex_count - 1} (the first is {first})"
            )
        if not self._is_connected():
            raise ValueError("graph is disconnected")

    def _is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        seen = {0}
        queue = deque([0])
        adjacency = self.adjacency_lists
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.vertex_count

    @cached_property
    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(neighbors)) for neighbors in lists)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(neighbors) for neighbors in self.adjacency_lists)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency_lists[v]


def graph_from_edge_list(pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from unordered vertex pairs.

    Labels must be nonnegative and densely cover ``0 .. max``.  Self-loops,
    duplicate edges (in either orientation), label gaps and disconnected
    results are rejected.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("edge list is empty")
    edges: set[Edge] = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex label in edge ({u}, {v})")
        edge = _normalize(u, v)
        if edge in edges:
            raise ValueError(f"duplicate edge {edge}")
        edges.add(edge)
    vertex_count = 1 + max(max(edge) for edge in edges)
    return Graph(vertex_count, frozenset(edges))


def parse_edge_list(text: str) -> list[Edge]:
    """Parse the one-edge-per-line text format.

    Lines starting with ``#`` and blank lines are ignored; every other line
    must hold exactly two whitespace-separated nonnegative integers.
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
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


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
