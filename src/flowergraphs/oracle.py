"""Numeric ground truth: resistances from the Fourier blocks of a block-circulant
Laplacian, Kron-reduced onto a junction.

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
conjugate and entry ``[0, 0]`` by their total.  ``L(w) = L(1) + sum_d (1 - w^d) A_d``
for the step-``d`` arcs ``A_d``, and ``1 - w^d = -2i e^{i phi} sin(phi)``,
``phi = pi j d / n`` with ``d`` centred and ``phi`` reduced exactly into ``[-pi, pi)``,
so ``L(w) 1 = sum_d (1 - w^d) A_d 1`` has no entry made of cancelling order-one
terms, which would cost the inverse about ``n^2 eps``.

Kron reduction (Dorfler and Bullo, *Kron reduction of graphs with applications to
electrical networks*, IEEE TCAS-I 60, 2013) inverts ``T`` through a small Schur
complement.  The junction ``J`` is offset 0 and the tail of every nonzero-step arc
that avoids offset 0, so it meets every nonzero-step arc, and the interior ``I`` is
the rest: two interior offsets meet only by step-0 arcs, and ``T``'s interior block
``M = L(w)_II`` is the same real positive definite matrix at every ``w``, inverted
once.  A flower's petals meet only at its junction vertex, offset 0, so ``J = {0}``
for every flower, as for a one-block lift; ``J`` of every offset leaves ``T`` itself.
What is left at each ``w`` is the ``J x J`` Schur complement
``S = T_JJ - T_JI M^-1 T_IJ``, and ``L(w)^-1 = E M^-1 E^T + U S^-1 U^H`` with
``U = P_J - E M^-1 T_IJ``, for ``E`` and ``P_J`` the columns ``I`` of the identity and
``J`` of ``P``.  ``S[0, 0]`` is ``1^T L(w) 1 - b_I^H M^-1 b_I`` with ``b = L(w) 1``:
the first term sums the ``1 - w^d`` above, the second is a form in them, and both
are of order ``|1 - w|^2`` with constants set by the arcs, so how much of the first
the second cancels does not grow with ``n``.  At ``w = 1`` row and column 0 of ``S``
vanish and a unit pivot stands in; with them zeroed in ``S^-1``, ``L(1)^-1`` above
is ``G``, the inverse of the integer Laplacian grounded at offset 0, bordered by
zeros.

The oracle stays independent of the closed forms: it reads only the lift's arcs,
never a base resistance such as ``r_xy`` nor any formula of ``flower.py``, and it
sums the frequencies numerically.  What does not depend on ``n`` (``J``, ``M^-1``, the
step columns and the index terms in ``M^-1``) is memoised on ``k`` and the bytes of
the lift's arcs, its pattern, for the last 64 patterns; each call does only the
frequencies.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .graphs import Lift


class _Pattern(NamedTuple):
    """What ``_reduced`` and ``numeric_indices`` read of a lift's arcs whatever ``n``
    is, every array read-only."""

    steps: np.ndarray  # the distinct steps d, ascending
    junction: np.ndarray  # J and I, as offsets
    interior: np.ndarray
    green: np.ndarray  # M^-1
    basis: np.ndarray  # P_J
    step_columns: np.ndarray  # A_d P_J, row (r, a) and column d
    grounded: np.ndarray  # L(1) P_J
    weights: np.ndarray  # 1 and the degrees, the two weightings w
    traces: np.ndarray  # tr(W_I M^-1) for each w
    forms: np.ndarray  # w_I^T M^-1 w_I for each w


@lru_cache(maxsize=64)
def _pattern(k: int, key: bytes) -> _Pattern:
    """The ``n``-free part of the reduction of the lift on ``k`` offsets whose 64-bit
    arcs have the bytes ``key``, for the last 64 such: ``J``, ``M^-1`` and the step
    columns cost O(|I|^3) once, and each ``n`` reuses them."""
    # Arc (r, r', d) stands for its orbit: from offset r to offset r' d blocks on,
    # with d centred in (-n/2, n/2].
    tails, heads, step = np.frombuffer(key, np.int64).reshape(-1, 3).T
    steps = np.array(sorted(set(step.tolist())))
    which = steps.searchsorted(step)
    arcs = np.bincount((which * k + tails) * k + heads, minlength=steps.size * k * k)
    arcs = arcs.reshape(-1, k, k).astype(float)
    # J: offset 0 and the tail of every nonzero-step arc that avoids it.
    outer = np.bincount(tails, (step != 0) & (heads != 0), k)
    outer[0] = 1.0
    junction, interior = outer.nonzero()[0], (outer == 0).nonzero()[0]
    degrees = np.bincount(tails, minlength=k)
    laplacian = -arcs.sum(0)  # L(1), integers
    laplacian.ravel()[:: k + 1] += degrees
    green = np.linalg.inv(laplacian[interior[:, None], interior])  # M^-1
    basis = (np.arange(k)[:, None] == junction).astype(float)  # P_J
    basis[:, 0] = 1.0
    step_columns = (arcs @ basis).transpose(1, 2, 0).reshape(-1, steps.size)
    weights = np.ones((2, k))
    weights[1] = degrees
    inside = weights[:, interior]
    pattern = _Pattern(steps, junction, interior, green, basis, step_columns,
                       laplacian @ basis, weights, inside @ green.diagonal(),
                       (inside @ green * inside).sum(1))
    for array in pattern:
        array.flags.writeable = False
    return pattern


def _reduced(lift: Lift) -> tuple[_Pattern, np.ndarray, np.ndarray]:
    """``(pattern, frame, inverse)`` with the frequency ``j`` last:
    ``E M^-1 E^T + frame[..., j] inverse[..., j] frame[..., j]^H`` is ``L(w_j)^-1``
    for ``j = 1 .. n // 2`` and ``G`` for ``j = 0``, ``E`` the columns
    ``pattern.interior`` of the identity, ``frame`` ``U`` and ``inverse`` ``S^-1``."""
    n = lift.n
    pattern = _pattern(lift.k, lift.arcs.tobytes())
    junction, interior, green = pattern.junction, pattern.interior, pattern.green
    size = junction.size
    freq = np.arange(n // 2 + 1)
    # e^{i phi} for phi = pi j d / n reduced exactly into [-pi, pi).
    half_turn = np.exp(1j * np.pi / n * ((freq[:, None] * pattern.steps + n) % (2 * n) - n))
    gap = -2j * half_turn * half_turn.imag  # 1 - w^d
    # L(w) P_J: its column 0 is L(w) 1, zero at w = 1.
    columns = (pattern.step_columns @ gap.T).reshape(lift.k, size, -1)
    columns += pattern.grounded[:, :, None]
    coupling = columns[interior]  # T_IJ
    solved = green @ coupling.reshape(interior.size, size * freq.size)
    solved = solved.reshape(coupling.shape)
    schur = columns[junction]
    schur[0] = columns.sum(0)  # row 0 of T_JJ is 1^T L(w) P_J
    schur -= np.einsum("iaj,ibj->abj", np.conjugate(coupling, out=coupling), solved)
    schur[0, 0, 0] = 1.0  # the unit pivot at w = 1, zeroed again in S^-1
    inverse = _invert(schur)
    inverse[0, :, 0], inverse[:, 0, 0] = 0.0, 0.0
    # U = P_J - E M^-1 T_IJ, in the place of the columns.
    columns[junction] = 0.0
    columns[interior] = solved
    frame = np.subtract(pattern.basis[:, :, None], columns, out=columns)
    return pattern, frame, inverse


def _invert(batch: np.ndarray) -> np.ndarray:
    """Invert the Hermitian positive definite matrices ``batch[:, :, j]`` in place by
    Gauss-Jordan elimination, a few whole-array operations per pivot for all ``j`` at
    once, where ``np.linalg.inv`` makes one LAPACK call per matrix.  Each pivot is a
    diagonal entry of a Schur complement of such a matrix, which is again Hermitian
    positive definite, so no pivot is zero and no rows are exchanged."""
    for p in range(len(batch)):
        pivot = 1.0 / batch[p, p]
        batch[p, p] = 1.0
        batch[p] *= pivot
        column = batch[:, p].copy()
        column[p] = 0.0
        batch[:, p] -= column
        batch -= column[:, None] * batch[p]
    return batch


def _resistance_blocks(lift: Lift) -> np.ndarray:
    """``R[d][r, r'] = R[(d, r), (0, r')] = H_rr + H_r'r' - (B[d] + B[-d]^T)[r, r']``
    from ``B[d] = H[(d, r), (0, r')]``, the blocks of ``H``: ``irfft`` of the
    ``U S^-1 U^H``, with ``M^-1``, the same at every ``w``, added to block 0 alone.
    Float addition commutes, so ``R`` is exactly symmetric with an exactly zero
    diagonal, and ``R[-d]`` is ``R[d]`` transposed, float for float."""
    pattern, frame, inverse = _reduced(lift)
    condensed = np.einsum("raj,abj,sbj->jrs", frame, inverse, frame.conj())
    blocks = np.fft.irfft(condensed, lift.n, axis=0)
    blocks[0, pattern.interior[:, None], pattern.interior] += pattern.green
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
    ``p`` is blocks ``p, p - 1, ..`` in a row, a slice of the blocks transposed and
    doubled.  O(N^2) time, one N x N array.
    """
    n = lift.n
    blocks = _resistance_blocks(lift).transpose(2, 0, 1)
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

    Reduced, ``sum_r w_r L(w)^-1_rr`` is ``tr(W_I M^-1)``, the same at every ``w`` and
    so counted ``n`` times, plus ``sum_r w_r (U S^-1 U^H)_rr``; at ``w = 1``,
    ``w^T G w = w_I^T M^-1 w_I + (U^T w)^T S^-1 (U^T w)``.  ``w_j`` and its conjugate
    count once each, and ``math.fsum`` rounds only the total of the terms:
    O(|I|^3) once per lift pattern, O(N k |J|) per call; O(|I|^2 + N |J|) memory.
    """
    pattern, frame, inverse = _reduced(lift)
    n, weights = lift.n, pattern.weights
    condensed = weights @ np.einsum("raj,abj,rbj->rj", frame, inverse, frame.conj()).real
    spread = weights @ frame[:, :, 0].real
    grounded = (spread @ inverse[:, :, 0].real * spread).sum(1) + pattern.forms
    constant = n * pattern.traces - grounded / weights.sum(1)
    # w_j and its conjugate count once each: j = 1 .. (n - 1) // 2 count twice.
    kirchhoff, kemeny = (
        math.fsum([*terms, *terms[1 : (n + 1) // 2], extra])
        for terms, extra in zip(condensed.tolist(), constant.tolist())
    )
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
