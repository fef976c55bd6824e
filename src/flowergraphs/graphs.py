"""Simple undirected connected base graphs, held in pure Python, and the Z_n
lifts that hold flowers without their N-vertex graphs."""

from __future__ import annotations

import operator
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from math import gcd
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

Edge = tuple[int, int]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer label or arc entry: an int or a numpy
    integer, never a bool."""
    return type(value) is not bool and hasattr(value, "__index__")


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
    """``pairs`` as a nonempty tuple of pairs of ints, a numpy array read through
    ``tolist``; ragged pairs and bool, float, string and oversized labels fail."""
    if hasattr(pairs, "tolist"):
        pairs = pairs.tolist()
    try:
        edges = tuple(map(tuple, pairs))
    except TypeError:  # a pair that is not a sequence
        edges = None
    if edges == ():
        raise ValueError("edge list is empty")
    if edges is None or set(map(len, edges)) != {2}:
        raise ValueError("every edge must be a pair of vertex labels")
    labels = list(chain.from_iterable(edges))
    if set(map(type, labels)) != {int}:
        bad = [v for v in labels if not _is_integer(v)]
        if bad:
            raise ValueError(f"vertex label {bad[0]!r} is not an integer")
        edges = tuple((operator.index(u), operator.index(v)) for u, v in edges)
        labels = list(chain.from_iterable(edges))
    if min(labels) < -sys.maxsize - 1 or max(labels) > sys.maxsize:
        raise ValueError(f"a vertex label is outside 0..{sys.maxsize}")
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
    further checks.  ``degrees`` and ``neighbors``, each vertex's neighbours in
    ascending order, give Python ints, which the exact solves need.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        count = self.vertex_count
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
        # A graph is the quotient of its one-block lift: every arc has step 0.
        if _cycle_voltages([zip(row, repeat(0)) for row in neighbours]) is None:
            raise ValueError("graph is disconnected")
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

    ``arcs`` lists the arcs that leave block 0 as ``(tail, head, step)`` integer
    rows, every step centred in ``(-n/2, n/2]``: the arc from ``(0, tail)`` to
    ``(step, head)`` stands for its orbit, the arcs ``(q, tail) -> (q + step, head)``
    of every block ``q``, so there are |E| / n rows whatever ``n`` is.  They are
    stored as a read-only ``(rows, 3)`` memoryview of 64-bit ints; one over bytes,
    such as ``flower._petal_arcs`` packs, is kept as it is, and any other rows, a
    numpy array read through ``tolist``, are packed after ``Graph``'s label rule:
    no bool, no float, nothing outside 64 bits.  The constructor certifies that
    the lift is a simple connected graph: no loop, no repeated arc, every arc
    ``(r, r', d)`` beside its reverse ``(r', r, -d)`` (``(r', r, d)`` where
    ``2d = n``), and ``_cycle_voltages``.  The certificate has two parts.
    ``_certificate``, the part that does not depend on ``n``, is memoised on ``k``
    and the bytes of the arcs (the last 64): offset range, loops, repeats, reverse
    pairing, quotient connectivity, step extremes and the gcd of the cycle
    voltages.  Every construction checks the rest: centred steps, that only
    half-turn arcs (``2d = n``) lack their ``-d`` reverse, and ``gcd(n, g) = 1``
    for that gcd ``g``.  A ``k`` or ``n`` that is a bool or no integer, and
    ``n < 1``, are refused first.
    """

    k: int
    n: int
    arcs: memoryview

    def __post_init__(self) -> None:
        for name in ("k", "n"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        k, n, arcs = self.k, self.n, self.arcs
        if n < 1:
            raise ValueError(f"a lift needs at least one block, not n = {n}")
        if not (type(arcs) is memoryview and type(arcs.obj) is bytes
                and arcs.format == "q" and arcs.shape[1:] == (3,)):
            arcs = _packed_arcs(arcs)
        certificate = _certificate(k, arcs.tobytes())
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
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "vertex_count", k * n)

    def edges(self) -> Iterator[Edge]:
        """The lift's edges ``(u, v)``, ``u < v``, in sorted order, one block at a
        time: block ``p``'s, those whose smaller end is in it, are the arcs that
        leave block 0 moved ``p`` blocks on, each kept where it goes up, so an edge
        comes once, even from a half-turn arc, which meets it from both ends."""
        k, count = self.k, self.vertex_count
        # The arc (tail, head, step) from label start + tail ends at start + reach.
        arcs = [(tail, step * k + head) for tail, head, step in self.arcs.tolist()]
        for start in range(0, count, k):
            yield from sorted((start + tail, end) for tail, reach in arcs
                              if start + tail < (end := (start + reach) % count))


def _packed_arcs(rows) -> memoryview:
    """``rows`` of three integers, a numpy array read through ``tolist``, as a
    read-only ``(rows, 3)`` memoryview of 64-bit ints."""
    rows = rows.tolist() if hasattr(rows, "tolist") else list(rows)
    if not rows:
        raise ValueError("a lift needs at least one arc")
    try:
        entries = list(chain.from_iterable(rows))
        if any(len(row) != 3 for row in rows) or not all(map(_is_integer, entries)):
            raise TypeError
        packed = array("q", map(operator.index, entries))
    except (TypeError, OverflowError):  # OverflowError: an entry outside 64 bits
        raise ValueError("a lift's arcs must be (tail, head, step) integer triples") from None
    return memoryview(packed.tobytes()).cast("q", (len(rows), 3))


class _Certificate(NamedTuple):
    """What a lift's arcs certify whatever ``n`` is; see ``Lift``."""

    low: int  # the least and greatest step
    high: int
    half_turns: tuple[int, ...]  # steps of the arcs (r, r', d) whose reverse is (r', r, d)
    voltages: int | None  # gcd of the cycle voltages; None if the quotient is disconnected


@lru_cache(maxsize=64)
def _certificate(k: int, key: bytes) -> _Certificate | None:
    """The ``n``-free part of ``Lift``'s certificate for the 64-bit arcs whose
    bytes are ``key``, or None if the arcs hold a fault at every ``n``: a repeated
    arc, an offset outside ``0 .. k - 1``, a loop, or an arc ``(r, r', d)`` beside
    neither ``(r', r, -d)`` nor ``(r', r, d)``.  ``_row_fault`` names it."""
    flat = array("q", key)
    rows = list(zip(flat[::3], flat[1::3], flat[2::3]))
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
    return _Certificate(min(steps), max(steps), tuple(half_turns), _cycle_voltages(leaving))


def _cycle_voltages(leaving: list[Iterable[tuple[int, int]]]) -> int | None:
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
            elif voltage := potential[r] + step - potential[head]:
                divisor = gcd(divisor, voltage)
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
