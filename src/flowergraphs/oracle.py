"""Numeric ground truth: resistances from grounded Laplacian solves.

Resistances are computed by deleting the row and column of vertex 0 from the
Laplacian, solving the remaining symmetric positive-definite system with a
fixed Cholesky factorization, and reading the quadratic form off the inverse.
This sidesteps assembling a full pseudoinverse while satisfying the same
defining quadratic form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graphs import Graph, laplacian


@lru_cache(maxsize=256)
def _grounded_green(g: Graph) -> np.ndarray:
    """Inverse of the Laplacian with vertex 0 grounded (row/column removed).

    The cache hands the same array to every caller, so it is read-only.
    """
    reduced = laplacian(g)[1:, 1:].astype(float)
    factor = cho_factor(reduced, lower=False)
    green = cho_solve(factor, np.eye(g.vertex_count - 1))
    green = (green + green.T) / 2.0
    green.setflags(write=False)
    return green


def resistance(g: Graph, i: int, j: int) -> float:
    """Effective resistance between vertices ``i`` and ``j``."""
    n = g.vertex_count
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex pair ({i}, {j}) out of range for {n} vertices")
    if i == j:
        return 0.0
    green = _grounded_green(g)
    gii = green[i - 1, i - 1] if i > 0 else 0.0
    gjj = green[j - 1, j - 1] if j > 0 else 0.0
    gij = green[i - 1, j - 1] if i > 0 and j > 0 else 0.0
    return float(gii + gjj - 2.0 * gij)


def grounded_potentials(g: Graph, i: int, j: int) -> np.ndarray:
    """Vertex potentials for a unit current injected at ``i`` and drawn at ``j``.

    Vertex 0 is held at potential zero; the returned vector ``x`` satisfies
    ``L x = e_i - e_j`` up to solver precision.
    """
    n = g.vertex_count
    current = np.zeros(n)
    current[i] += 1.0
    current[j] -= 1.0
    potentials = np.zeros(n)
    potentials[1:] = _grounded_green(g) @ current[1:]
    return potentials


def resistance_matrix(g: Graph) -> np.ndarray:
    """Symmetric matrix of pairwise effective resistances with zero diagonal."""
    n = g.vertex_count
    padded = np.zeros((n, n))
    padded[1:, 1:] = _grounded_green(g)
    diag = np.diag(padded)
    matrix = diag[:, None] + diag[None, :] - 2.0 * padded
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


def kirchhoff_numeric(matrix: np.ndarray) -> float:
    """Kirchhoff index: half the sum of all resistance-matrix entries."""
    return float(matrix.sum() / 2.0)


def kemeny_numeric(g: Graph, matrix: np.ndarray) -> float:
    """Kemeny's constant: degree-weighted resistance sum over 4 times the edge count."""
    degrees = np.asarray(g.degrees, dtype=float)
    return float(degrees @ matrix @ degrees / (4.0 * g.edge_count))


def values_close(
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-12,
    magnitude_cutoff: float = 1e3,
) -> bool:
    """Compare values absolutely up to ``magnitude_cutoff``, relatively beyond it."""
    scale = max(abs(a), abs(b))
    if scale <= magnitude_cutoff:
        return abs(a - b) <= abs_tol
    return abs(a - b) <= rel_tol * scale


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
    # excess[x, y, z] = r(x, z) - r(x, y) - r(y, z)
    excess = matrix[:, None, :] - matrix[:, :, None] - matrix[None, :, :]
    if excess.max() > tol:
        problems.append(f"triangle inequality violated by {excess.max():.3e}")
    # reverse[x, y, z] = |r(x, y) - r(y, z)| - r(x, z)
    reverse = np.abs(matrix[:, :, None] - matrix[None, :, :]) - matrix[:, None, :]
    if reverse.max() > tol:
        problems.append(f"reverse triangle inequality violated by {reverse.max():.3e}")
    return problems
