"""The dense Cholesky oracle the banded library oracle is compared against.

It builds the integer Laplacian, deletes vertex 0's row and column, factors
the rest as ``L0 = R^T R`` (LAPACK ``dpotrf``, in place) and finishes with one
more LAPACK call on ``R``: ``dpotri`` for the Green matrix ``G = L0^-1``,
``dpotrs`` for the potentials of one current, ``dtrtri`` for the triangular
inverse ``S = R^-1`` the two indices are read from.  It costs O(N^3) time and
O(N^2) memory, against O(N b^2) and O(N b) for the library's index path.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtri

from flowergraphs import Graph


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian (degree matrix minus adjacency) as integers."""
    lap = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    for u, v in g.edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] = -1
        lap[v, u] = -1
    return lap


def _factor_then(g: Graph, finish, *args, **kwargs) -> np.ndarray:
    """``finish(R, *args, **kwargs)`` for the upper Cholesky factor of ``L0 = R^T R``."""
    reduced = laplacian(g)[1:, 1:].astype(float)
    if not reduced.size:
        return args[0] if args else reduced
    factor, info = dpotrf(reduced.T, lower=0, clean=1, overwrite_a=1)
    assert info == 0, f"dpotrf failed: info={info}"
    result, info = finish(factor, *args, **kwargs)
    assert info == 0, f"{finish.__name__} failed: info={info}"
    return result


def grounded_potentials(g: Graph, i: int, j: int) -> np.ndarray:
    """Potentials of a unit current from ``i`` to ``j`` with vertex 0 grounded."""
    current = np.zeros(g.vertex_count)
    current[i] += 1.0
    current[j] -= 1.0
    potentials = np.zeros(g.vertex_count)
    potentials[1:] = _factor_then(g, dpotrs, current[1:, None])[:, 0]
    return potentials


def resistance(g: Graph, i: int, j: int) -> float:
    potentials = grounded_potentials(g, i, j)
    return float(potentials[i] - potentials[j])


def resistance_matrix(g: Graph) -> np.ndarray:
    """Every pairwise resistance from the upper triangle ``dpotri`` writes."""
    n = g.vertex_count
    padded = np.zeros((n, n))
    padded[1:, 1:] = _factor_then(g, dpotri, overwrite_c=1)
    diag = np.diag(padded)
    matrix = diag[:, None] + diag[None, :] - 2.0 * (padded + padded.T)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def numeric_indices(g: Graph) -> tuple[float, float]:
    """Kirchhoff ``N tr G - |S^T 1|^2`` and Kemeny ``(2q d.diag G - |S^T d|^2) / 2q``."""
    inverse = _factor_then(g, dtrtri, overwrite_c=1)
    green_diag = np.einsum("ij,ij->i", inverse, inverse)
    degrees = np.asarray(g.degrees[1:], dtype=float)
    two_q = 2.0 * max(g.edge_count, 1)
    kirchhoff = g.vertex_count * green_diag.sum() - np.square(inverse.sum(axis=0)).sum()
    kemeny = (two_q * (degrees @ green_diag) - np.square(degrees @ inverse).sum()) / two_q
    return float(kirchhoff), float(kemeny)
