"""Numeric ground truth: resistances from the Fourier blocks of a block-circulant Laplacian.

Every entry point takes a ``graphs.Lift``: ``k`` offsets, ``n`` blocks and the arcs
that leave block 0, which its constructor certified simple and connected, and never
the ``N = k n``-vertex graph.  With labels ``v = p k + r`` the lift's Laplacian is
block circulant, ``L[(p, r), (p', r')] = C_{p'-p}[r, r']``, and a DFT over the blocks
splits it into ``n`` Hermitian ``k x k`` symbols ``L(w) = sum_d w^d C_d``,
``w = exp(2 pi i j / n)`` (Davis, *Circulant Matrices*, 1979, ch. 5), read off the
lift's arcs: the arc ``(r, r', d)`` adds to ``C_d[r, r']``.  ``L(conj w) = conj L(w)``
leaves ``j = 0 .. n // 2``.  Any ``H`` with ``L H L = L`` gives
``R_ij = (e_i - e_j)^T H (e_i - e_j)`` (Bapat, *Graphs and Matrices*, 2010, ch. 9),
and the block-circulant ``H`` with symbols ``L(w)^-1``, and ``G`` with
``L(1) G L(1) = L(1)`` at ``w = 1``, is one: its ``n`` blocks give the ``n`` blocks of
the resistance matrix.  A lift with one block (``n = 1``) is any connected graph.

Only ``L(1)`` is singular, but ``1^T L(w) 1`` is of order ``|1 - w|^2``.  In the
grounding basis ``P = [1, e_1, .., e_{k-1}]``, ``L(w)^-1 = P T^-1 P^T`` with
``T = P^T L(w) P``: ``L(w)`` with column 0 replaced by ``L(w) 1``, row 0 by its
conjugate and entry ``[0, 0]`` by their total.  Entry ``r`` of ``L(w) 1`` sums
``1 - w^d = -2i e^{i phi} sin(phi)``, ``phi = pi j d / n`` with ``d`` centred and ``phi``
reduced exactly into ``[-pi, pi)``, over the arcs leaving ``r``; as differences of
order-one terms the inverse would lose about ``n^2 eps``.  At ``w = 1`` row and column 0
vanish and a unit pivot stands in: the rest of ``T`` is the integer Laplacian grounded
at offset 0, ``G`` its inverse bordered by zeros.  Nothing is cached.
"""

from __future__ import annotations

import numpy as np

from .graphs import Lift


def _symbols(lift: Lift) -> tuple[np.ndarray, np.ndarray]:
    """``(basis, inverse)``, ``basis inverse[j] basis^T`` is ``L(w_j)^-1`` for
    ``j = 1 .. n // 2`` and ``G`` for ``j = 0``: the symbols of ``lift`` in the basis
    ``[1, e_1, ..]``, inverted in one batch."""
    k, n = lift.k, lift.n
    # Arc (r, r', d) stands for its orbit: from offset r to offset r' d blocks on,
    # with d centred in (-n/2, n/2].
    tails, heads, step = lift.arcs.T
    steps = np.array(sorted(set(step.tolist())))
    which = np.searchsorted(steps, step)
    arcs = np.bincount((which * k + tails) * k + heads, minlength=steps.size * k * k)
    arcs = arcs.reshape(-1, k, k).astype(float)
    freq = np.arange(n // 2 + 1)
    # e^{i phi} for phi = pi j d / n reduced exactly into [-pi, pi): w^d is its square
    # and sin(phi), accurate near w = 1, its imaginary part.
    half_turn = np.exp(1j * np.pi / n * ((np.outer(freq, steps) + n) % (2 * n) - n))
    # L(w) = diag(degrees) - sum_d w^d arcs[d]: integers at w = 1, where half_turn is 1.
    symbols = np.diag(lift.degrees).ravel() - np.square(half_turn) @ arcs.reshape(-1, k * k)
    symbols = symbols.reshape(-1, k, k)
    # Column 0 is L(w) 1, from 1 - w^d = -2i e^{i phi} sin(phi), free of cancellation;
    # the arcs of steps d and -d pair up, so its total is real.  At w = 1 it is 0.
    column = (-2j * half_turn * half_turn.imag) @ arcs.sum(2)
    symbols[:, :, 0] = column
    symbols[:, 0] = column.conj()
    symbols[:, 0, 0] = column.sum(1).real
    symbols[0, 0, 0] = 1.0
    inverse = np.linalg.inv(symbols)
    inverse[0, 0], inverse[0, :, 0] = 0.0, 0.0
    basis = np.eye(k)
    basis[:, 0] = 1.0
    return basis, inverse


def _resistance_blocks(lift: Lift) -> np.ndarray:
    """``R[d][r, r'] = R[(d, r), (0, r')] = H_rr + H_r'r' - (B[d] + B[-d]^T)[r, r']``
    from ``B[d] = H[(d, r), (0, r')]``, the blocks of ``H`` by ``irfft``.  Float
    addition commutes, so ``R`` is exactly symmetric with an exactly zero diagonal."""
    basis, inverse = _symbols(lift)
    blocks = np.fft.irfft(basis @ inverse @ basis.T, lift.n, axis=0)
    diag = blocks[0].diagonal()
    reverse = blocks[-np.arange(lift.n)].transpose(0, 2, 1)
    return (diag[:, None] + diag) - (blocks + reverse)


def resistance(lift: Lift, i: int, j: int) -> float:
    """Effective resistance between ``i = p k + r`` and ``j = p' k + r'``: the entry
    ``[r, r']`` of block ``p - p' mod n``."""
    count = lift.vertex_count
    if not (0 <= i < count and 0 <= j < count):
        raise IndexError(f"vertex pair ({i}, {j}) out of range for {count} vertices")
    (pi, ri), (pj, rj) = divmod(i, lift.k), divmod(j, lift.k)
    return float(_resistance_blocks(lift)[(pi - pj) % lift.n, ri, rj])


def resistance_matrix(lift: Lift) -> np.ndarray:
    """Symmetric matrix of pairwise effective resistances with zero diagonal.

    ``R[(p, r), (p', r')]`` is entry ``[r, r']`` of block ``p - p' mod n``: row block
    ``p`` is blocks ``p, p - 1, ..`` in a row, a slice of the blocks reversed and
    doubled.  O(N^2) time, one N x N array.
    """
    n = lift.n
    blocks = _resistance_blocks(lift)[-np.arange(n)].transpose(1, 0, 2)
    doubled = np.concatenate((blocks, blocks), axis=1)
    matrix = np.empty((n, lift.k, n, lift.k))
    for p in range(n):
        matrix[p] = doubled[:, n - p : 2 * n - p]
    return matrix.reshape(lift.vertex_count, -1)


def numeric_indices(lift: Lift) -> tuple[float, float]:
    """Kirchhoff index and Kemeny's constant from one weighted trace of the inverse
    symbols, ``sum_j sum_r w_r L(w_j)^-1_rr - w^T G w / sum_r w_r``:

    - Kirchhoff index ``N tr L^+``, with ``w = 1`` (Kf = N sum 1/mu over the nonzero
      Laplacian eigenvalues, Gutman and Mohar 1996);
    - Kemeny's constant ``sum 1/nu`` over the nonzero eigenvalues of the normalized
      Laplacian ``D^-1/2 L D^-1/2`` (Kemeny and Snell 1960; Levene and Loizou
      2002), with ``w = d``.  Its symbols are ``N(w) = D^-1/2 L(w) D^-1/2``, so for
      ``w != 1`` the trace of their inverse is ``sum_r d_r L(w)^-1_rr``.  At ``w = 1``,
      with ``v = D^1/2 1 / |D^1/2 1|`` and ``X = (I - v v^T) D^1/2 L(1)^+ D^1/2 (I - v v^T)``,
      ``N(1) X = X N(1) = I - v v^T``, as ``L(1) L(1)^+ = L(1)^+ L(1)`` projects out
      ``1``: ``X`` meets the four Moore-Penrose conditions, so ``X = N(1)^+``, and
      ``tr N(1)^+ = sum_r d_r L(1)^+_rr - d^T L(1)^+ d / sum_r d_r``.

    With ``w = 1`` that term is ``tr L(1)^+``, as ``L(1)^+ 1 = 0``.  For either weight
    it is the same for ``G + 1 a^T + a 1^T + c 1 1^T`` as for ``G``, as the ``a`` and
    ``c`` terms cancel, and ``L(1)^+ = Q G Q``, ``Q = I - 1 1^T / k``, has that form.
    ``w_j`` and its conjugate count once each: O(N k^2) time, O(N k) memory.
    """
    basis, inverse = _symbols(lift)
    weights = np.stack((np.ones(lift.k), lift.degrees))
    twice = 2.0 - (2 * np.arange(len(inverse)) % lift.n == 0)
    gram = (basis.T * weights[:, None]) @ basis  # P^T W P for each weight w
    traces = twice @ np.einsum("jab,wba->jw", inverse, gram).real
    projected = weights @ basis  # P^T w
    grounded = np.einsum("wa,ab,wb->w", projected, inverse[0].real, projected)
    kirchhoff, kemeny = traces - grounded / weights.sum(1)
    return float(lift.vertex_count * kirchhoff), float(kemeny)


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
