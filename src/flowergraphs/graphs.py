"""Simple undirected connected graphs with dense 0-based vertex labels."""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

Edge = tuple[int, int]


def _edge_array(pairs) -> np.ndarray:
    """``pairs`` as a nonempty ``(|E|, 2)`` integer array; float, string and bool
    labels and ragged pairs fail."""
    try:
        edges = np.asarray(pairs)
    except ValueError:  # numpy refuses a ragged list with a message of its own
        edges = None
    if edges is not None and not edges.size:
        raise ValueError("edge list is empty")
    if edges is None or edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("every edge must be a pair of vertex labels")
    # numpy holds ints past int64 as uint64, float64 or object, and a bool beside
    # ints as an int: check those labels exactly.
    if edges.dtype.kind != "i" or (
        not isinstance(pairs, np.ndarray) and bool in set(map(type, chain.from_iterable(pairs)))
    ):
        edges = np.asarray(pairs, dtype=object)
        bad = [v for v in edges.flat if type(v) is bool or not isinstance(v, (int, np.integer))]
        if bad:
            raise ValueError(f"vertex label {bad[0]!r} is not an integer")
    try:
        return edges.astype(np.intp, copy=False)
    except OverflowError as exc:
        raise ValueError(f"a vertex label is outside 0..{np.iinfo(np.intp).max}") from exc


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
    """

    vertex_count: int
    edges: np.ndarray

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
        if not self._is_connected():
            raise ValueError("graph is disconnected")
        object.__setattr__(self, "_key", (count, key))

    def _is_connected(self) -> bool:
        """Whether a breadth-first pass from vertex 0 reaches every vertex.  It reads
        the neighbours through a memoryview, so no list of all of them is made."""
        indptr, columns = self.indptr.tolist(), memoryview(self.indices)
        seen = [True] + [False] * (self.vertex_count - 1)
        reached = [0]
        for v in reached:  # breadth first: the loop runs over what it appends
            for w in columns[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    reached.append(w)
        return len(reached) == self.vertex_count

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
    pairs; ``Graph`` rejects what is not a simple connected graph.  The labels are
    checked every call; the graph is memoised on the bytes of the checked ``intp``
    edge array, so a repeated edge list skips ``Graph``'s checks."""
    return _graph_of(_edge_array(list(pairs)).tobytes())


@lru_cache(maxsize=64)
def _graph_of(key: bytes) -> Graph:
    """The graph of the ``(|E|, 2)`` ``intp`` edge array whose bytes are ``key``."""
    edges = np.frombuffer(key, np.intp).reshape(-1, 2)
    return Graph(1 + int(edges.max()), edges)


@dataclass(frozen=True, eq=False)
class Lift:
    """The Z_n lift of a voltage graph on ``k`` offsets: the graph on ``N = k n``
    labels ``p k + r`` (block ``p``, offset ``r``) that moving every label by ``k``
    modulo ``N`` maps onto itself (Gross and Tucker, *Topological Graph Theory*,
    1987, ch. 2).

    ``arcs`` lists the arcs that leave block 0 as ``(tail, head, step)`` integer
    rows, every step centred in ``(-n/2, n/2]``: the arc from ``(0, tail)`` to
    ``(step, head)`` stands for its orbit, the arcs ``(q, tail) -> (q + step, head)``
    of every block ``q``, so there are |E| / n rows whatever ``n`` is.  They are
    stored as a read-only ``intp`` array.  The constructor certifies that the lift
    is a simple connected graph: no loop, no repeated arc, every arc ``(r, r', d)``
    beside its reverse ``(r', r, -d)`` (``(r', r, d)`` where ``2d = n``), and
    ``_cycle_voltages``.  The certificate has two parts.  ``_certificate``, the
    part that does not depend on ``n``, is memoised on ``k`` and the bytes of the
    ``intp`` arcs (the last 64): offset range, loops, repeats, reverse pairing,
    quotient connectivity, degrees, step extremes and the gcd of the cycle
    voltages.  Every construction checks the rest: centred steps, that only
    half-turn arcs (``2d = n``) lack their ``-d`` reverse, and ``gcd(n, g) = 1``
    for that gcd ``g``.  ``degrees`` gives each offset's degree.
    """

    k: int
    n: int
    arcs: np.ndarray

    def __post_init__(self) -> None:
        k, n = self.k, self.n
        arcs = np.asarray(self.arcs)
        if not arcs.size:
            raise ValueError("a lift needs at least one arc")
        if arcs.dtype.kind != "i" or arcs.ndim != 2 or arcs.shape[1] != 3:
            raise ValueError("a lift's arcs must be (tail, head, step) integer triples")
        key = arcs.astype(np.intp, copy=False).tobytes()
        # operator.index keeps a float k, equal in value and hash, off an int k's entry.
        certificate = _certificate(operator.index(k), key)
        if (
            certificate is None
            or not -n < 2 * certificate.low <= 2 * certificate.high <= n
            or any(2 * step != n for step in certificate.half_turns)
        ):
            raise _row_fault(k, n, list(map(tuple, arcs.tolist())))
        if certificate.voltages is None:
            raise ValueError("the quotient of the lift is disconnected")
        divisor = gcd(n, certificate.voltages)
        if divisor > 1:
            raise ValueError(f"the lift is disconnected: its cycle voltages share the "
                             f"factor {divisor} with n = {n}")
        object.__setattr__(self, "arcs", np.frombuffer(key, np.intp).reshape(-1, 3))
        object.__setattr__(self, "degrees", certificate.degrees)
        object.__setattr__(self, "vertex_count", k * n)

    def graph(self) -> Graph:
        """The lift as an N-vertex ``Graph``: every arc moved by every multiple of
        ``k`` modulo ``N`` in one broadcast, each edge kept as its ``u < v`` arc."""
        k, count = self.k, self.vertex_count
        first = self.arcs[:, :2] + np.outer(self.arcs[:, 2] % self.n, (0, k))
        arcs = (first + np.arange(0, count, k)[:, None, None]).reshape(-1, 2)
        np.subtract(arcs, count, out=arcs, where=arcs >= count)
        return Graph(count, arcs[arcs[:, 0] < arcs[:, 1]])


class _Certificate(NamedTuple):
    """What a lift's arcs certify whatever ``n`` is; see ``Lift``."""

    low: int  # the least and greatest step
    high: int
    half_turns: tuple[int, ...]  # steps of the arcs (r, r', d) whose reverse is (r', r, d)
    degrees: tuple[int, ...]
    voltages: int | None  # gcd of the cycle voltages; None if the quotient is disconnected


@lru_cache(maxsize=64)
def _certificate(k: int, key: bytes) -> _Certificate | None:
    """The ``n``-free part of ``Lift``'s certificate for the ``intp`` arcs whose
    bytes are ``key``, or None if the arcs hold a fault at every ``n``: a repeated
    arc, an offset outside ``0 .. k - 1``, a loop, or an arc ``(r, r', d)`` beside
    neither ``(r', r, -d)`` nor ``(r', r, d)``.  ``_row_fault`` names it."""
    rows = list(map(tuple, np.frombuffer(key, np.intp).reshape(-1, 3).tolist()))
    orbits = set(rows)
    if len(orbits) < len(rows):
        return None
    leaving = [[] for _ in range(k)]
    half_turns = set()
    for tail, head, step in rows:
        if not (0 <= tail < k and 0 <= head < k) or (tail == head and not step):
            return None
        if (head, tail, -step) not in orbits:
            if (head, tail, step) not in orbits:
                return None
            half_turns.add(step)
        leaving[tail].append((head, step))
    steps = [step for _, _, step in rows]
    return _Certificate(min(steps), max(steps), tuple(half_turns),
                        tuple(map(len, leaving)), _cycle_voltages(leaving))


def _cycle_voltages(leaving: list[list[tuple[int, int]]]) -> int | None:
    """The gcd of the integer cycle voltages of a quotient whose arcs leaving offset
    ``r`` are ``leaving[r]``, as ``(head, step)``; None if it is disconnected.

    A breadth-first pass reaches each offset along a spanning tree, at a potential
    ``phi`` (``phi(0) = 0``, ``phi(r') = phi(r) + d`` on a tree arc), so every arc's
    cycle voltage ``c = phi(r) + d - phi(r')`` is zero on the tree.  The Z_n lift is
    connected iff the quotient is and ``gcd(n, every c) = 1``.  Proof, with ``g``
    that gcd: a path in the lift projects to a walk in the quotient, and no arc
    changes ``q - phi(r) mod g``, so each of its ``g`` values, all of which occur,
    is a union of components.  Conversely, in a connected quotient the tree joins
    ``(q, 0)`` to ``(q + phi(r), r)``; out along the tree, over an arc and back
    moves ``(q, 0)`` to ``(q + c, 0)``, and those moves generate ``g Z_n``, so at
    ``g = 1`` every vertex is reached.  ``gcd(n, every c)`` is ``gcd(n, G)`` for the
    integer gcd ``G`` of every ``c``, which this returns.
    """
    potential = [0] + [None] * (len(leaving) - 1)
    reached, divisor = [0], 0
    for r in reached:  # breadth first: the loop runs over what it appends
        for head, step in leaving[r]:
            if potential[head] is None:
                potential[head] = potential[r] + step
                reached.append(head)
            else:
                divisor = gcd(divisor, potential[r] + step - potential[head])
    return divisor if len(reached) == len(leaving) else None


def _row_fault(k: int, n: int, rows: list[tuple[int, int, int]]) -> ValueError:
    """The fault that names arcs failing ``Lift``'s row checks at ``n``: a repeated
    arc, else the first arc that leaves the offsets or the centred steps, is a loop
    or lacks its reverse."""
    orbits = set(rows)
    if len(orbits) < len(rows):
        repeated = next(arc for arc, count in Counter(rows).items() if count > 1)
        return ValueError(f"repeated arc {repeated}")
    for tail, head, step in rows:
        if not (0 <= tail < k and 0 <= head < k and -n < 2 * step <= n):
            return ValueError(f"arc {(tail, head, step)} leaves the offsets 0..{k - 1} "
                              f"or the centred steps {-((n - 1) // 2)}..{n // 2}")
        if tail == head and not step:
            return ValueError(f"loop at offset {tail}")
        reverse = (head, tail, step if 2 * step == n else -step)  # n/2 is its own negative
        if reverse not in orbits:
            return ValueError(f"arc {(tail, head, step)} has no reverse arc {reverse}")
    raise AssertionError(f"arcs {rows} pass every row check at n = {n}")


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
