"""Numeric ground truth: resistances from one grounded Cholesky factor.

Every entry point deletes the row and column of vertex 0 from the Laplacian,
factors the rest as ``L0 = R^T R`` (LAPACK ``dpotrf``) and finishes with one
more LAPACK call on ``R``: ``dpotri`` for the Green matrix ``G = L0^-1``,
``dpotrs`` for the potentials of one current, ``dtrtri`` for the triangular
inverse the two indices are read from.  This satisfies the pseudoinverse's
defining quadratic form without assembling it, and nothing is cached.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtri

from .graphs import Graph, laplacian


def _check(routine, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed: info={info}")


def _factor_then(g: Graph, finish, *args, **kwargs) -> np.ndarray:
    """``finish(R, *args, **kwargs)`` for the upper Cholesky factor of ``L0 = R^T R``.

    ``dpotrf`` factors in place: ``L0`` is symmetric, so its transpose is the
    same matrix already in LAPACK's column-major order.  A nonzero ``info``
    raises ``LinAlgError``.  LAPACK rejects the empty system of a one-vertex
    graph, so its empty factor or right-hand side is returned as the result.
    """
    reduced = laplacian(g)[1:, 1:].astype(float)
    if not reduced.size:
        return args[0] if args else reduced
    factor, info = dpotrf(reduced.T, lower=0, clean=1, overwrite_a=1)
    _check(dpotrf, info)
    result, info = finish(factor, *args, **kwargs)
    _check(finish, info)
    return result


def _check_pair(g: Graph, i: int, j: int) -> None:
    n = g.vertex_count
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex pair ({i}, {j}) out of range for {n} vertices")


def resistance(g: Graph, i: int, j: int) -> float:
    """Effective resistance between ``i`` and ``j``: a unit current's potential drop."""
    potentials = grounded_potentials(g, i, j)
    return float(potentials[i] - potentials[j])


def grounded_potentials(g: Graph, i: int, j: int) -> np.ndarray:
    """Vertex potentials for a unit current injected at ``i`` and drawn at ``j``.

    Vertex 0 is held at potential zero; the returned vector ``x`` satisfies
    ``L x = e_i - e_j`` up to solver precision (``dpotrs``, O(N^2) after the factor).
    """
    _check_pair(g, i, j)
    n = g.vertex_count
    current = np.zeros(n)
    current[i] += 1.0
    current[j] -= 1.0
    potentials = np.zeros(n)
    potentials[1:] = _factor_then(g, dpotrs, current[1:, None])[:, 0]
    return potentials


def resistance_matrix(g: Graph) -> np.ndarray:
    """Symmetric matrix of pairwise effective resistances with zero diagonal.

    ``dpotri`` (about N^3 flops with the factor) writes only the upper triangle
    of ``G``; the lower one stays zero, so off the diagonal ``G + G^T`` is the
    full ``G``, exactly symmetric.
    """
    n = g.vertex_count
    padded = np.zeros((n, n))
    padded[1:, 1:] = _factor_then(g, dpotri, overwrite_c=1)
    diag = np.diag(padded)
    matrix = diag[:, None] + diag[None, :] - 2.0 * (padded + padded.T)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def numeric_indices(g: Graph) -> tuple[float, float]:
    """Kirchhoff index and Kemeny's constant from the grounded triangular inverse.

    With ``S = R^-1`` (upper triangular, LAPACK ``dtrtri`` in place on the
    factor) the grounded Green matrix is ``G = S S^T``, so ``G_ii`` is the
    squared norm of row ``i`` of ``S`` and ``u^T G u = |S^T u|^2``.  Summing
    ``r_ij = G_ii + G_jj - 2 G_ij`` (``G`` is zero on vertex 0) gives, with
    ``d`` the degrees of vertices ``1..N-1`` and ``q`` the edge count:

    - Kirchhoff index ``N tr G - |S^T 1|^2``;
    - Kemeny's constant ``(2q sum_i d_i G_ii - |S^T d|^2) / (2q)``.

    About ``2N^3/3`` flops and one ``(N-1)^2`` array, against ``N^3`` and an
    N x N matrix for ``resistance_matrix``.  Both sums are empty on one vertex.
    """
    inverse = _factor_then(g, dtrtri, overwrite_c=1)
    green_diag = np.einsum("ij,ij->i", inverse, inverse)
    degrees = np.asarray(g.degrees[1:], dtype=float)
    two_q = 2.0 * max(g.edge_count, 1)  # q = 0 only on one vertex, with empty sums
    kirchhoff = g.vertex_count * green_diag.sum() - np.square(inverse.sum(axis=0)).sum()
    kemeny = (two_q * (degrees @ green_diag) - np.square(degrees @ inverse).sum()) / two_q
    return float(kirchhoff), float(kemeny)


# The oracle's rounding error grows with the value, so values_close turns relative
# beyond this magnitude.
MAGNITUDE_CUTOFF = 1e3
REL_TOL = 1e-12


def values_close(a: float, b: float, *, abs_tol: float = 1e-9) -> bool:
    """Compare values within ``abs_tol`` up to ``MAGNITUDE_CUTOFF``, relatively beyond it."""
    scale = max(abs(a), abs(b))
    if scale <= MAGNITUDE_CUTOFF:
        return abs(a - b) <= abs_tol
    return abs(a - b) <= REL_TOL * scale


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
