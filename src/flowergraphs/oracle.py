"""Numeric ground truth: resistances from grounded Laplacian solves.

Resistances are computed by deleting the row and column of vertex 0 from the
Laplacian, solving the remaining symmetric positive-definite system with a
fixed Cholesky factorization, and reading the quadratic form off the inverse.
This sidesteps assembling a full pseudoinverse while satisfying the same
defining quadratic form.  The Kirchhoff index and Kemeny's constant come from
the same factor and its triangular inverse, without any N x N resistance
matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dtrtri

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


def _check_pair(g: Graph, i: int, j: int) -> None:
    n = g.vertex_count
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex pair ({i}, {j}) out of range for {n} vertices")


def resistance(g: Graph, i: int, j: int) -> float:
    """Effective resistance between vertices ``i`` and ``j``."""
    _check_pair(g, i, j)
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
    _check_pair(g, i, j)
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


def numeric_indices(g: Graph) -> tuple[float, float]:
    """Kirchhoff index and Kemeny's constant from one grounded Cholesky factor.

    With the vertex-0-grounded Laplacian factored as ``L0 = R^T R`` and
    ``S = R^-1`` (upper triangular, LAPACK ``dtrtri``), the grounded Green
    matrix is ``G = S S^T``, so ``G_ii`` is the squared norm of row ``i`` of
    ``S`` and ``u^T G u = |S^T u|^2``.  Summing ``r_ij = G_ii + G_jj - 2 G_ij``
    (``G`` is zero on vertex 0) gives, with ``d`` the degrees of vertices
    ``1..N-1`` and ``q`` the edge count:

    - Kirchhoff index ``N tr G - |S^T 1|^2``;
    - Kemeny's constant ``(2q sum_i d_i G_ii - |S^T d|^2) / (2q)``.

    About ``2N^3/3`` flops, against ``7N^3/3`` for ``resistance_matrix``.
    Both LAPACK calls work in place on the one ``(N-1)^2`` array: the grounded
    Laplacian is symmetric, so its transpose is the same matrix already in the
    column-major order LAPACK factors without a copy.
    """
    reduced = laplacian(g)[1:, 1:].astype(float)
    factor, info = dpotrf(reduced.T, lower=0, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed: dpotrf info={info}")
    inverse, info = dtrtri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular inverse failed: dtrtri info={info}")
    green_diag = np.einsum("ij,ij->i", inverse, inverse)
    degrees = np.asarray(g.degrees[1:], dtype=float)
    two_q = 2.0 * g.edge_count
    kirchhoff = g.vertex_count * green_diag.sum() - np.square(inverse.sum(axis=0)).sum()
    kemeny = (two_q * (degrees @ green_diag) - np.square(degrees @ inverse).sum()) / two_q
    return float(kirchhoff), float(kemeny)


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
