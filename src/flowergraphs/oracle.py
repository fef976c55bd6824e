"""Numeric ground truth: resistances from the Fourier blocks of a block-circulant Laplacian.

Every entry point takes a ``graphs.Lift``: ``k`` offsets, ``n`` blocks and the arcs
that leave block 0, which its constructor certified simple and connected, and never
the ``N = k n``-vertex graph.  With labels ``v = p k + r`` the lift's Laplacian is
block circulant, ``L[(p, r), (p', r')] = C_{p'-p}[r, r']``, and a DFT over the blocks
splits it into ``n`` Hermitian ``k x k`` symbols ``L(w) = sum_d w^d C_d``,
``w = exp(2 pi i j / n)`` (Davis, *Circulant Matrices*, 1979, ch. 5), read off the
lift's arcs: the arc ``(r, r', d)`` adds to ``C_d[r, r']``.  The blocks of ``L^+``
are their inverse DFT, and ``L(conj w) = conj L(w)`` leaves ``j = 0 .. n // 2``.  A
lift with one block (``n = 1``, ``k = N``) is any connected graph: one dense deflated
solve of ``L`` itself.

Only ``L(1)`` is singular, but ``1^T L(w) 1`` is of order ``sigma^2``,
``sigma = |1 - w| = 2 sin(pi j / n)``.  In the orthonormal basis ``P = [u, Q]``
(``u = 1 / sqrt(k)``, ``Q`` from a Householder reflector) ``P^T L(w) P`` is
``[[sigma^2 alpha, sigma beta^H], [sigma beta, M]]``.  ``alpha`` and ``beta`` come
from ``rho_d = (1 - w^d) / sigma``, evaluated as ``-i e^{i phi} sin(phi) /
sin(pi j / n)``, ``phi = pi j d / n``: the factors of ``sigma`` are pulled out
analytically.  What is left, ``T = [[alpha, beta^H], [beta, M]]``, is well
conditioned, as its Schur complement ``alpha - beta^H M^-1 beta`` is of order one.
So ``L(w)^-1 = P S T^-1 S P^T`` with ``S = diag(1 / sigma, 1, ..)``, and
``L(1)^+ = Q M^-1 Q^T``; no entry comes from cancelling terms of size
``1 / sigma^2``.  Nothing is cached between calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import Lift


def _reflector(v: np.ndarray) -> np.ndarray:
    """An orthogonal matrix whose column 0 is the unit vector ``v``, ``v[0] > 0``: the
    Householder reflector that takes ``e_0`` to ``-v``, with column 0 negated."""
    w = v.copy()
    w[0] += 1.0
    basis = np.eye(v.size) - np.outer(w, w) / w[0]
    basis[:, 0] = v
    return basis


class _Symbols(NamedTuple):
    """``L(w_j)^+ = basis inverse_j basis^T`` for ``j = 0 .. n // 2``."""

    blocks: int
    arcs: np.ndarray  # arcs[e, r, r']: arcs from r in block 0 to offset r' at step e
    basis: np.ndarray
    inverse: np.ndarray


def _symbols(lift: Lift) -> _Symbols:
    """The deflated symbols ``L(w_j)`` of ``lift``, inverted in one batch."""
    k, n = lift.k, lift.n
    # Arc (r, r', d) stands for its orbit: from offset r to offset r' d blocks on,
    # with d centred in (-n/2, n/2].
    tails, heads, step = lift.arcs.T
    steps = np.unique(step)
    which = np.searchsorted(steps, step)
    arcs = np.bincount((which * k + tails) * k + heads, minlength=steps.size * k * k)
    arcs = arcs.reshape(-1, k, k).astype(float)
    leaving = arcs.sum(2)
    degrees = leaving.sum(0)
    freq = np.arange(n // 2 + 1)
    # e^{i phi} for phi = pi j d / n reduced exactly into [-pi, pi): w^d is its square
    # and sin(phi), accurate near w = 1, its imaginary part.
    half_turn = np.exp(1j * np.pi / n * ((np.outer(freq, steps) + n) % (2 * n) - n))
    basis = _reflector(np.full(k, k ** -0.5))
    # L(w) = diag(degrees) - sum_d w^d arcs[d], in the basis [u, Q] term by term.
    folded = (basis.T @ arcs @ basis).reshape(len(steps), k * k)
    symbols = ((basis.T * degrees) @ basis).ravel() - np.square(half_turn) @ folded
    symbols = symbols.reshape(-1, k, k)
    # T: row and column u over sigma.  With rho_d = (1 - w^d) / sigma, (L(w) 1)_r
    # sums sigma rho_d over the arcs leaving r.  The arcs of steps d and -d pair up,
    # so 1^T L(w) 1 sums sigma Re rho_d = sigma^2 |rho_d|^2 / 2: no cancellation.
    # At w = 1 row and column u vanish, and a unit pivot stands in.
    half_sigma = np.sin(np.pi / n * freq[1:])[:, None]
    rho = -1j * half_turn[1:] * half_turn[1:].imag / half_sigma
    column = (rho @ leaving) @ basis * k ** -0.5
    column[:, 0] = column[:, 0].real / (2 * half_sigma[:, 0])
    symbols[1:, :, 0] = column
    symbols[1:, 0] = column.conj()
    symbols[0, 0], symbols[0, :, 0], symbols[0, 0, 0] = 0.0, 0.0, 1.0
    inverse = np.linalg.inv(symbols)
    # S T^-1 S: row and column u of the inverse over sigma, and zero at w = 1.
    scale = np.vstack(([[0.0]], 0.5 / half_sigma))
    inverse[:, 0] *= scale
    inverse[:, :, 0] *= scale
    return _Symbols(n, arcs, basis, inverse)


def _green_blocks(lift: Lift) -> np.ndarray:
    """``B[d] = L^+[(d, r), (0, r')]``, the ``n`` blocks of ``L^+`` by ``irfft``."""
    s = _symbols(lift)
    return np.fft.irfft(s.basis @ s.inverse @ s.basis.T, s.blocks, axis=0)


def resistance(lift: Lift, i: int, j: int) -> float:
    """Effective resistance between ``i`` and ``j``: a unit current's potential drop."""
    potentials = grounded_potentials(lift, i, j)
    return float(potentials[i] - potentials[j])


def grounded_potentials(lift: Lift, i: int, j: int) -> np.ndarray:
    """Vertex potentials for a unit current injected at ``i`` and drawn at ``j``.

    Vertex 0 is held at potential zero; the returned vector ``x`` satisfies
    ``L x = e_i - e_j`` up to rounding.  It is ``L^+ (e_i - e_j)`` less its value
    at vertex 0, and column ``p k + r`` of ``L^+`` is column ``r`` of the blocks
    moved down by ``p`` blocks.
    """
    count = lift.vertex_count
    if not (0 <= i < count and 0 <= j < count):
        raise IndexError(f"vertex pair ({i}, {j}) out of range for {count} vertices")
    blocks = _green_blocks(lift)
    k = blocks.shape[1]
    (pi, ri), (pj, rj) = divmod(i, k), divmod(j, k)
    potentials = np.roll(blocks[:, :, ri], pi, axis=0) - np.roll(blocks[:, :, rj], pj, axis=0)
    potentials = potentials.ravel()
    return potentials - potentials[0]


def resistance_matrix(lift: Lift) -> np.ndarray:
    """Symmetric matrix of pairwise effective resistances with zero diagonal.

    ``L^+`` is gathered from its blocks, ``L^+[(p, r), (p', r')] = B[p - p' mod n]``,
    O(N^2) time and two N x N arrays of memory.  It is symmetric only up to
    rounding; the resistances use ``L^+ + L^+^T``, which makes the matrix exactly
    symmetric.
    """
    blocks = _green_blocks(lift)
    n, k = blocks.shape[:2]
    petals = np.arange(n)
    green = blocks[(petals[:, None] - petals) % n].transpose(0, 2, 1, 3).reshape(n * k, n * k)
    diag = green.diagonal().copy()
    pair_sums = green + green.T
    matrix = np.add.outer(diag, diag, out=green)
    matrix -= pair_sums
    np.fill_diagonal(matrix, 0.0)
    return matrix


def numeric_indices(lift: Lift) -> tuple[float, float]:
    """Kirchhoff index and Kemeny's constant from the traces of the inverse symbols.

    - Kirchhoff index ``N tr L^+ = N sum_j tr L(w_j)^+`` (Kf = N sum 1/mu over
      the nonzero Laplacian eigenvalues, Gutman and Mohar 1996);
    - Kemeny's constant ``sum 1/nu`` over the nonzero eigenvalues of the normalized
      Laplacian ``D^-1/2 L D^-1/2`` (Kemeny and Snell 1960; Levene and Loizou
      2002).  Its symbols are ``D^-1/2 L(w) D^-1/2``, so for ``w != 1`` the trace
      of their inverse is ``sum_r d_r L(w)^-1_rr``; ``w = 1`` is deflated by its
      null vector ``D^1/2 1`` the same way ``L(1)`` is by ``1``.

    ``w_j`` and its conjugate count once each: O(N k^2) time, O(N k) memory.
    """
    s = _symbols(lift)
    degrees = s.arcs.sum((0, 2))
    twice = 2.0 - (2 * np.arange(len(s.inverse)) % s.blocks == 0)
    traces = np.trace(s.inverse, axis1=1, axis2=2).real
    weighted = np.einsum("jab,ba->j", s.inverse, (s.basis.T * degrees) @ s.basis).real
    root = np.sqrt(degrees)
    null = _reflector(root / np.linalg.norm(root))[:, 1:]
    quotient = np.diag(degrees) - s.arcs.sum(0)  # L(1)
    normalized = null.T @ (quotient / np.outer(root, root)) @ null
    kirchhoff = lift.vertex_count * (twice @ traces)
    kemeny = np.trace(np.linalg.inv(normalized)) + twice[1:] @ weighted[1:]
    return float(kirchhoff), float(kemeny)


# The oracle's rounding error grows with the value, so values_close turns relative
# beyond this magnitude.
MAGNITUDE_CUTOFF = 1e3
DEFAULT_TOL = 1e-9
REL_TOL = 1e-12


def values_close(a, b, *, abs_tol: float = DEFAULT_TOL) -> np.bool_ | np.ndarray:
    """Compare floats, or arrays of them elementwise, within ``abs_tol`` up to
    ``MAGNITUDE_CUTOFF`` and relatively beyond it; a NaN is never close."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, quietly, as on floats
        diff, scale = np.abs(np.subtract(a, b)), np.maximum(np.abs(a), np.abs(b))
    return np.where(scale <= MAGNITUDE_CUTOFF, diff <= abs_tol, diff <= REL_TOL * scale)[()]
