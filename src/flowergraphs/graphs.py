"""Simple undirected connected base graphs, held in pure Python, and the Z_n
lifts that hold flowers without their N-vertex graphs."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

Edge = tuple[int, int]
Arc = tuple[int, int, int]  # (tail, head, step) of a Lift


def integer(name: str, value) -> int:
    """``value`` as an int, through ``operator.index``; a bool or anything else that
    is not an integer raises ``ValueError`` naming ``name``."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _label_pairs(pairs) -> tuple[Edge, ...]:
    """``pairs`` as a nonempty tuple of pairs of ints, every label that is not an int
    read through ``integer``; ragged pairs and labels that ``integer`` refuses fail."""
    try:
        edges = tuple(map(tuple, pairs))
    except TypeError:  # a pair that is not a sequence
        edges = None
    if edges == ():
        raise ValueError("edge list is empty")
    if edges is None or set(map(len, edges)) != {2}:
        raise ValueError("every edge must be a pair of vertex labels")
    if set(map(type, chain.from_iterable(edges))) != {int}:
        edges = tuple((integer("vertex label", u), integer("vertex label", v)) for u, v in edges)
    return edges


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple connected graph on vertex labels ``0 .. vertex_count - 1``.

    ``edges`` is given as a nonempty iterable of ``(u, v)`` integer pairs, or a
    numpy array of them, in any order and either orientation; it is stored as the
    sorted tuple of its ``u < v`` pairs, so two graphs are equal, and hash equal,
    exactly when their vertex counts and edge tuples are.  The hash is computed
    once, here.  Negative or out-of-range labels, self-loops, duplicate edges,
    label gaps and disconnected graphs are rejected here, the one place edges are
    checked, so every instance can be fed to the resistance machinery without
    further checks.  ``vertex_count`` and every label pass ``integer``, so each is
    stored as a Python int, as the exact solves need, and so are ``degrees`` and
    ``neighbors``, each vertex's neighbours in ascending order.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        count = integer("vertex_count", self.vertex_count)
        edges = _label_pairs(self.edges)
        for u, v in edges:
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex label in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u >= count or v >= count:
                raise ValueError(f"edge ({u}, {v}) is out of range for {count} vertices")
        edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
        repeated = next((edge for edge, after in zip(edges, edges[1:]) if edge == after), None)
        if repeated:
            raise ValueError(f"duplicate edge {repeated}")
        # |E| edges touch at most 2|E| labels: nothing of length vertex_count is
        # made before every label is known to be touched.
        touched = sorted(set(chain.from_iterable(edges)))
        if len(touched) < count:
            first = next((i for i, v in enumerate(touched) if i != v), len(touched))
            raise ValueError(f"label gap: no edge touches {count - len(touched)} of the "
                             f"labels 0..{count - 1} (the first is {first})")
        # The edges are sorted, so every vertex meets its neighbours in ascending order.
        neighbours = [[] for _ in range(count)]
        for u, v in edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        reached, seen = [0], [True] + [False] * (count - 1)
        for v in reached:  # breadth first: the loop runs over what it appends
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    reached.append(w)
        if len(reached) < count:
            raise ValueError("graph is disconnected")
        object.__setattr__(self, "vertex_count", count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degrees", tuple(map(len, neighbours)))
        object.__setattr__(self, "_neighbours", tuple(map(tuple, neighbours)))
        object.__setattr__(self, "_key", (count, edges))
        object.__setattr__(self, "_hash", hash(self._key))

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbours[v]


def graph_from_edge_list(pairs: Iterable[tuple[int, int]]) -> Graph:
    """The graph on labels ``0 .. max`` whose edges are ``pairs``, unordered vertex
    pairs; ``Graph`` rejects what is not a simple connected graph.  The labels are
    checked every call; the graph is memoised on the checked tuple of pairs, so a
    repeated edge list skips ``Graph``'s checks."""
    return _graph_of(_label_pairs(pairs))


@lru_cache(maxsize=64)
def _graph_of(edges: tuple[Edge, ...]) -> Graph:
    """The graph whose edges are the checked integer pairs ``edges``."""
    return Graph(1 + max(chain.from_iterable(edges)), edges)


@dataclass(frozen=True, eq=False)
class Lift:
    """The Z_n lift of a voltage graph on ``k`` offsets: the graph on ``N = k n``
    labels ``p k + r`` (block ``p``, offset ``r``) that moving every label by ``k``
    modulo ``N`` maps onto itself (Gross and Tucker, *Topological Graph Theory*,
    1987, ch. 2).

    ``arcs`` lists the arcs that leave block 0 as a tuple of int triples
    ``(tail, head, step)``, every step centred in ``(-n/2, n/2]``: the arc from
    ``(0, tail)`` to ``(step, head)`` stands for its orbit, the arcs
    ``(q, tail) -> (q + step, head)`` of every block ``q``, so there are |E| / n
    triples whatever ``n`` is.  A lift holds what it is given and checks
    nothing: ``FlowerSpec.lift`` builds the library's lifts, and its docstring
    proves each of them a simple connected graph.
    """

    k: int
    n: int
    arcs: tuple[Arc, ...]

    @property
    def vertex_count(self) -> int:
        return self.k * self.n

    def edges(self) -> Iterator[Edge]:
        """The lift's edges ``(u, v)``, ``u < v``, in sorted order, one block at a
        time: block ``p``'s, those whose smaller end is in it, are the arcs that
        leave block 0 moved ``p`` blocks on, each kept where it goes up, so an edge
        comes once, even from a half-turn arc, which meets it from both ends."""
        k, count = self.k, self.vertex_count
        # The arc (tail, head, step) from label start + tail ends at start + reach.
        arcs = [(tail, step * k + head) for tail, head, step in self.arcs]
        for start in range(0, count, k):
            yield from sorted((start + tail, end) for tail, reach in arcs
                              if start + tail < (end := (start + reach) % count))


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
    """The graph in the edge-list file at ``path``, read afresh on every call.

    The parsed and checked graph is memoised on the file's text, for the last
    64 texts, so a file read again unchanged skips ``parse_edge_list`` and the
    label checks and returns the same object, while an edited file is parsed
    again.  A bad file is never kept: its ``ValueError``, with the line number,
    comes on every read.
    """
    return _graph_of_text(Path(path).read_text())


@lru_cache(maxsize=64)
def _graph_of_text(text: str) -> Graph:
    """The graph whose edge list is ``text``, in ``parse_edge_list``'s format."""
    return graph_from_edge_list(parse_edge_list(text))


def path_graph(vertices: int) -> Graph:
    vertices = integer("vertices", vertices)
    if vertices < 2:
        raise ValueError("a path needs at least two vertices")
    return graph_from_edge_list((i, i + 1) for i in range(vertices - 1))


def cycle_graph(vertices: int) -> Graph:
    vertices = integer("vertices", vertices)
    if vertices < 3:
        raise ValueError("a cycle needs at least three vertices")
    return graph_from_edge_list((i, (i + 1) % vertices) for i in range(vertices))


def complete_graph(vertices: int) -> Graph:
    vertices = integer("vertices", vertices)
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
