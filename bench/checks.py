"""Per-op output checks and the references they compare against.

Nothing here calls the package: exact base resistances come from Fraction
Gauss-Jordan elimination, flower values from the paper's same-petal and
cross-petal formulas summed over pairs anchored in petal 1, and a float
cross-check from a numpy dense solve of the flower Laplacian.  A check returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction

import numpy as np

from workloads import Flower, Op, Workload

# Relative tolerance for float-vs-exact comparisons.  The dense solves here
# have relative errors near 1e-13 at N <= 1800, so 1e-9 leaves ample headroom
# while still catching a wrong formula or a missing term.
REL_TOL = 1e-9

VERIFY_LINE = re.compile(r"^verify: ok \((\d+) instances, (\d+) pairs, tol=\S+\)$")


def close(exact: Fraction, numeric: float) -> bool:
    return abs(float(exact) - numeric) <= REL_TOL * max(1.0, abs(numeric))


def parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# --- references ------------------------------------------------------------


def exact_resistance_table(m: int, edges) -> list[list[Fraction]]:
    """Base resistances by exact Gauss-Jordan inversion of the grounded Laplacian."""
    lap = [[Fraction(0)] * m for _ in range(m)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    k = m - 1
    rows = [
        lap[i + 1][1:] + [Fraction(int(i == j)) for j in range(k)] for i in range(k)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [value / scale for value in rows[col]]
        for r in range(k):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    green = [[Fraction(0)] * m] + [[Fraction(0)] + row[k:] for row in rows]
    return [
        [green[i][i] + green[j][j] - 2 * green[i][j] for j in range(m)] for i in range(m)
    ]


class FlowerReference:
    """Exact and float values for one generic flower, computed independently."""

    def __init__(self, flower: Flower, edges):
        self.flower = flower
        self.edges = tuple(edges)
        m, x, y, n = flower.m, flower.x, flower.y, flower.n
        self.table = exact_resistance_table(m, edges)
        degree = [0] * m
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        self.edge_count = len(edges)
        self.outer = [b for b in range(m) if b not in (x, y)]
        # Vertices of petal 1 (its junction as x, then its outer vertices) and
        # of the whole flower, as (petal, base vertex, degree) triples.
        everyone = []
        for petal in range(1, n + 1):
            everyone.append((petal, x, degree[x] + degree[y]))
            everyone += [(petal, b, degree[b]) for b in self.outer]
        anchored = everyone[: m - 1]

        kirchhoff = kemeny = Fraction(0)
        best = None
        for pu, bu, du in anchored:
            for pv, bv, dv in everyone:
                if (pu, bu) == (pv, bv):
                    continue
                r = self.resistance(pu, bu, pv, bv)
                kirchhoff += r
                kemeny += du * dv * r
                if best is None or r > best:
                    best = r
        q = self.edge_count
        self.kirchhoff = n * kirchhoff / 2
        self.kemeny = kemeny / (4 * q)
        self.max_resistance = best

        # The paper's index bounds, from the base Kirchhoff index and Kemeny
        # constant and the marked-pair resistance.
        t, r_xy = self.table, self.table[x][y]
        kf_base = sum(t[i][j] for i in range(m) for j in range(i + 1, m))
        kem_base = sum(
            degree[i] * degree[j] * t[i][j] for i in range(m) for j in range(m)
        ) / (4 * q)
        self.kirchhoff_bounds = (
            n * kf_base - Fraction(m * (m - 1)) * r_xy / 2,
            kf_base * (n + n * m * (n - 1)) + r_xy * Fraction((n**3 - n**2) * m * m) / 4,
        )
        self.kemeny_bounds = (
            kem_base - Fraction(m * (m - 1) ** 3) * r_xy / (2 * n * q),
            kem_base * (4 * n - 1)
            + r_xy * Fraction((n * n - 3 * n + 2) * (2 * m - 2) ** 2 * m * m, 8 * q),
        )
        self._dense = None

    def _canonical(self, petal: int, base_vertex: int) -> tuple[int, int]:
        """Junctions read as vertex x of the lower petal."""
        if base_vertex == self.flower.y:
            return (petal - 2) % self.flower.n + 1, self.flower.x
        return petal, base_vertex

    def resistance(self, pu: int, bu: int, pv: int, bv: int) -> Fraction:
        t, x, y, n = self.table, self.flower.x, self.flower.y, self.flower.n
        pu, bu = self._canonical(pu, bu)
        pv, bv = self._canonical(pv, bv)
        if (pu, bu) == (pv, bv):
            return Fraction(0)
        s = t[x][y]
        if pu == pv:
            imbalance = t[bu][x] + t[bv][y] - t[bu][y] - t[bv][x]
            return t[bu][bv] - imbalance * imbalance / (4 * n * s)
        d = (pu - pv) % n + 1
        series = t[bu][y] + t[bv][x] + (d - 2) * s
        imbalance = t[bu][x] + t[bv][y] - t[bu][y] - t[bv][x] - 2 * (d - 1) * s
        return series - imbalance * imbalance / (4 * n * s)

    def label(self, petal: int, base_vertex: int) -> int:
        petal, base_vertex = self._canonical(petal, base_vertex)
        block = (petal - 1) * (self.flower.m - 1)
        if base_vertex == self.flower.x:
            return block
        return block + 1 + self.outer.index(base_vertex)

    def dense(self):
        """(resistance matrix, Kirchhoff, Kemeny) from a numpy dense solve."""
        if self._dense is None:
            size = self.flower.vertex_count
            edges = {
                tuple(sorted((self.label(petal, u), self.label(petal, v))))
                for petal in range(1, self.flower.n + 1)
                for u, v in self.edges
            }
            lap = np.zeros((size, size))
            degrees = np.zeros(size)
            for u, v in edges:
                lap[u, u] += 1
                lap[v, v] += 1
                lap[u, v] -= 1
                lap[v, u] -= 1
                degrees[u] += 1
                degrees[v] += 1
            green = np.zeros((size, size))
            green[1:, 1:] = np.linalg.inv(lap[1:, 1:])
            diag = np.diag(green)
            matrix = diag[:, None] + diag[None, :] - green - green.T
            self._dense = (
                matrix,
                float(matrix.sum() / 2),
                float(degrees @ matrix @ degrees / (4 * len(edges))),
            )
        return self._dense


# --- checks ----------------------------------------------------------------


def check_verify(op: Op, code: int, output: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = output.strip().splitlines()
    match = VERIFY_LINE.match(lines[-1]) if lines else None
    if match is None:
        return "no 'verify: ok' summary line"
    instances, pairs = int(match.group(1)), int(match.group(2))
    if instances != 1:
        return f"{instances} instances, expected 1"
    if pairs != op.flower.pairs:
        return f"{pairs} pairs checked, expected {op.flower.pairs}"
    return None


def check_sweep(op: Op, code: int, output: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    flower = op.flower
    rows = list(csv.DictReader(io.StringIO(output)))
    expected_key = (flower.family, str(flower.m), str(flower.n),
                    "" if flower.p is None else str(flower.p))
    seen = set()
    for row in rows:
        key = (row.get("family"), row.get("m"), row.get("n"), row.get("p"))
        if key != expected_key:
            return f"unexpected row {key}"
        try:
            exact = parse_fraction(row["closed_form"])
            numeric = float(row["oracle"])
        except (KeyError, ValueError, TypeError, ZeroDivisionError):
            return f"unparseable row {row}"
        if not close(exact, numeric):
            return f"{row['quantity']}: oracle {numeric!r} vs closed form {exact}"
        seen.add(row["quantity"])
    if seen != {"kirchhoff", "kemeny"} or len(rows) != 2:
        return f"rows {sorted(seen)} ({len(rows)}), expected kirchhoff and kemeny"
    return None


def check_exact(op: Op, code: int, output: str, reference: FlowerReference) -> str | None:
    if code != 0:
        return f"exit code {code}"
    matrix, kirchhoff_f, kemeny_f = reference.dense()
    lines = output.strip().splitlines()
    try:
        if op.command in ("kirchhoff", "kemeny"):
            if len(lines) != 1:
                return f"{len(lines)} lines, expected 1"
            value = parse_fraction(lines[0])
            exact = reference.kirchhoff if op.command == "kirchhoff" else reference.kemeny
            numeric = kirchhoff_f if op.command == "kirchhoff" else kemeny_f
            if value != exact:
                return f"{op.command} {value} != exact {exact}"
            if not close(value, numeric):
                return f"{op.command} {value} vs dense solve {numeric!r}"
            return None
        if op.command == "maxres":
            fields = dict(item.split("=", 1) for item in output.split())
            value = parse_fraction(fields["r"])
            (pu, bu), (pv, bv) = (map(int, fields[k].split(":")) for k in ("u", "v"))
            if value != reference.max_resistance:
                return f"max {value} != exact {reference.max_resistance}"
            if reference.resistance(pu, bu, pv, bv) != value:
                return f"pair {fields['u']},{fields['v']} does not attain {value}"
            observed = matrix[reference.label(pu, bu), reference.label(pv, bv)]
            if not close(value, float(observed)):
                return f"max {value} vs dense solve {observed!r}"
            return None
        # bounds: "kirchhoff lo hi actual" then "kemeny lo hi actual"
        if [line.split()[0] for line in lines] != ["kirchhoff", "kemeny"]:
            return "expected kirchhoff and kemeny lines"
        for line, exact, numeric in (
            (lines[0], (*reference.kirchhoff_bounds, reference.kirchhoff), kirchhoff_f),
            (lines[1], (*reference.kemeny_bounds, reference.kemeny), kemeny_f),
        ):
            name, *fields = line.split()
            values = tuple(map(parse_fraction, fields))
            if values != exact:
                return f"{name} (lo, hi, actual) {values} != exact {exact}"
            actual = values[2]
            if not close(actual, numeric):
                return f"{name} actual {actual} vs dense solve {numeric!r}"
        return None
    except (KeyError, ValueError, ZeroDivisionError, IndexError):
        return f"unparseable output {output.strip()[:80]!r}"


class Checker:
    """Checks every op of one workload; references are built once per flower."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._references: dict[Flower, FlowerReference] = {}

    def reference(self, flower: Flower) -> FlowerReference:
        if flower not in self._references:
            self._references[flower] = FlowerReference(flower, self.workload.bases[flower.base])
        return self._references[flower]

    def check(self, op: Op, code: int, output: str) -> str | None:
        if op.command == "verify":
            return check_verify(op, code, output)
        if op.command == "sweep":
            return check_sweep(op, code, output)
        return check_exact(op, code, output, self.reference(op.flower))
