"""Numeric ground truth: resistances from one banded Cholesky factor.

Every entry point deletes the row and column of vertex 0 from the Laplacian
and orders the other vertices by reverse Cuthill-McKee (Cuthill & McKee 1969;
George & Liu 1981), so the grounded Laplacian ``L0`` has a small bandwidth
``b``: about one petal block on a flower.  ``L0`` goes straight from the
graph's CSR arrays and its degrees into LAPACK band storage, ``dpbtrf`` factors
it as ``L0 = U^T U`` and every entry point finishes with ``dpbtrs`` solves on
``U``; no N x N Laplacian is built.
``numeric_indices`` also reads the diagonal of ``G = L0^-1`` off ``U`` by
selected inversion.  This satisfies the pseudoinverse's defining quadratic
form without assembling it, and nothing is cached.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .graphs import Graph


def _check(routine, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed: info={info}")


def _banded_factor(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(U, order)``: the grounded Laplacian's upper band factor and its vertex order.

    ``order[k]`` is the vertex at row ``k`` of ``L0``, a reverse Cuthill-McKee
    order of vertices ``1..N-1``.  ``U`` is in LAPACK's upper band storage,
    ``U[i, j]`` at ``[b + i - j, j]``; ``b`` is the largest distance in that
    order between the ends of an edge that misses vertex 0.  A nonzero
    ``info`` raises ``LinAlgError``.
    """
    size = g.vertex_count - 1
    # Rows 1..N-1 of the graph's CSR without column 0 are the grounded graph in
    # canonical CSR form (columns ascending), so the order depends on the graph only.
    neighbors = g.indices[g.indptr[1]:]
    rows = np.repeat(np.arange(size), g.degrees[1:])
    grounded = neighbors > 0
    rows, columns = rows[grounded], neighbors[grounded] - 1
    starts = np.searchsorted(rows, np.arange(size + 1))
    adjacency = csr_matrix((np.ones(columns.size), columns, starts), (size, size))
    order = reverse_cuthill_mckee(adjacency, symmetric_mode=True)
    position = np.empty(size, np.intp)
    position[order] = np.arange(size)
    i = np.minimum(position[rows], position[columns])
    j = np.maximum(position[rows], position[columns])
    b = int((j - i).max(initial=0))
    band = np.zeros((b + 1, size), order="F")
    band[b] = np.asarray(g.degrees, dtype=float)[order + 1]
    band[b + i - j, j] = -1.0  # each edge twice, as (u, v) and (v, u)
    factor, info = dpbtrf(band, lower=0, overwrite_ab=1)
    _check(dpbtrf, info)
    return factor, order + 1


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``L0^-1 rhs`` for the columns of ``rhs``, in the factor's vertex order (``dpbtrs``)."""
    solution, info = dpbtrs(factor, rhs, lower=0, overwrite_b=1)
    _check(dpbtrs, info)
    return solution


def _green_diagonal(factor: np.ndarray) -> np.ndarray:
    """The diagonal of ``G = L0^-1`` from its upper band factor ``U``, in O(N b^2).

    ``U G = U^-T`` is lower triangular (Takahashi, Fagan & Chen 1973).  For a
    block of ``s = max(b, 1)`` rows ``I`` and the ``b`` rows ``J`` after it,
    the only ones row ``I`` of ``U`` reaches, that gives

        G_IJ = -W G_JJ,    G_II = V V^T + W G_JJ W^T,

    with ``V = U_II^-1`` and ``W = V U_IJ``.  ``G_JJ`` is the leading corner of
    the next block's ``G_II``, so the blocks run from the last one up, and the
    loop runs about N/b times.  ``U`` is padded with identity rows to whole
    blocks plus ``b``; every ``V`` and ``W`` comes from one stacked solve.
    Memory stays O(N b).
    """
    b, size = factor.shape[0] - 1, factor.shape[1]
    s = max(b, 1)
    blocks = -(-size // s)
    padded = np.zeros((b + 1, blocks * s + b))
    padded[:, :size] = factor
    padded[b, size:] = 1.0
    # Block k holds U[ks + r, ks + c] for r < s and c < s + b, zero off the band.
    band_row = b + np.arange(s)[:, None] - np.arange(s + b)
    in_band = (band_row >= 0) & (band_row <= b)
    columns = s * np.arange(blocks)[:, None, None] + np.arange(s + b)
    u = np.where(in_band, padded[np.where(in_band, band_row, 0), columns], 0.0)
    identity = np.broadcast_to(np.eye(s), (blocks, s, s))
    vw = np.linalg.solve(u[:, :, :s], np.concatenate((identity, u[:, :, s:]), axis=2))
    v, w = vw[:, :, :s], vw[:, :, s:]
    vvt = v @ v.transpose(0, 2, 1)
    diagonal = np.empty((blocks, s))
    corner = np.eye(b)  # G on the identity padding after the last block
    for k in reversed(range(blocks)):
        block = vvt[k] + w[k] @ corner @ w[k].T
        diagonal[k] = block.diagonal()
        corner = block[:b, :b]
    return diagonal.ravel()[:size]


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
    ``L x = e_i - e_j`` up to solver precision (one ``dpbtrs``, O(N b) after
    the O(N b^2) factor).
    """
    _check_pair(g, i, j)
    n = g.vertex_count
    current = np.zeros(n)
    current[i] += 1.0
    current[j] -= 1.0
    factor, order = _banded_factor(g)
    potentials = np.zeros(n)
    potentials[order] = _solve(factor, current[order, None])[:, 0]
    return potentials


def resistance_matrix(g: Graph) -> np.ndarray:
    """Symmetric matrix of pairwise effective resistances with zero diagonal.

    One ``dpbtrs`` against the identity gives ``G``, O(N^2 b).  Its columns
    are separate solves, so ``G`` is symmetric only up to rounding; the
    resistances use ``G + G^T``, which makes the matrix exactly symmetric.
    """
    n = g.vertex_count
    factor, order = _banded_factor(g)
    padded = np.zeros((n, n))
    padded[np.ix_(order, order)] = _solve(factor, np.eye(n - 1, order="F"))
    diag = np.diag(padded)
    matrix = diag[:, None] + diag[None, :] - (padded + padded.T)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def numeric_indices(g: Graph) -> tuple[float, float]:
    """Kirchhoff index and Kemeny's constant from the diagonal of ``G`` and two solves.

    Summing ``r_ij = G_ii + G_jj - 2 G_ij`` (``G`` is zero on vertex 0) gives,
    with ``d`` the degrees of vertices ``1..N-1`` and ``q`` the edge count:

    - Kirchhoff index ``N tr G - 1^T G 1``;
    - Kemeny's constant ``(2q sum_i d_i G_ii - d^T G d) / (2q)``.

    ``diag G`` comes from selected inversion of the band factor, ``G 1`` and
    ``G d`` from one ``dpbtrs``: O(N b^2) time and O(N b) memory.
    """
    factor, order = _banded_factor(g)
    green_diag = _green_diagonal(factor)
    degrees = np.asarray(g.degrees, dtype=float)[order]
    solved = _solve(factor, np.asfortranarray(np.stack((np.ones_like(degrees), degrees), 1)))
    two_q = 2.0 * g.edge_count
    kirchhoff = g.vertex_count * green_diag.sum() - solved[:, 0].sum()
    kemeny = (two_q * (degrees @ green_diag) - degrees @ solved[:, 1]) / two_q
    return float(kirchhoff), float(kemeny)


# The oracle's rounding error grows with the value, so values_close turns relative
# beyond this magnitude.
MAGNITUDE_CUTOFF = 1e3
DEFAULT_TOL = 1e-9
REL_TOL = 1e-12


def values_close(a: float, b: float, *, abs_tol: float = DEFAULT_TOL) -> bool:
    """Compare values within ``abs_tol`` up to ``MAGNITUDE_CUTOFF``, relatively beyond it."""
    scale = max(abs(a), abs(b))
    if scale <= MAGNITUDE_CUTOFF:
        return abs(a - b) <= abs_tol
    return abs(a - b) <= REL_TOL * scale
