"""Numeric ground truth: resistances from the Fourier blocks of a block-circulant
Laplacian, Kron-reduced onto offset 0.

Every entry point takes a ``graphs.Lift``: ``k`` offsets, ``n`` blocks and the arcs
that leave block 0 of a simple connected graph, and never the ``N = k n``-vertex
graph.  With labels ``v = p k + r`` the lift's Laplacian is block circulant,
``L[(p, r), (p', r')] = C_{p'-p}[r, r']``, and a DFT over the blocks splits it
into ``n`` Hermitian ``k x k`` symbols ``L(w) = sum_d w^d C_d``,
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
electrical networks*, IEEE TCAS-I 60, 2013) keeps offset 0 alone.  A flower's
petals meet only at its junction vertex, offset 0, so every nonzero-step arc touches
offset 0 (a one-block lift has none; any other lift is refused), and ``T``'s interior
block ``M = L(w)_II``, ``I = 1 .. k - 1``, is ``L(1)`` grounded at offset 0 at every
``w``, inverted once.  Each ``w`` leaves the scalar Schur complement
``S = 1^T L(w) 1 - b_I^H M^-1 b_I``, ``b = L(w) 1``, and ``L(w)^-1 = E M^-1 E^T +
U U^H / S`` with ``U = 1 - E M^-1 b_I``, ``E`` the columns ``I`` of the identity.
The first term of ``S`` sums the ``1 - w^d`` above, the second is a form in them,
and both are of order ``|1 - w|^2`` with constants set by the arcs, so how much of
the first the second cancels does not grow with ``n``.  At ``w = 1``, ``b = 0`` and
``S`` vanishes; a unit pivot stands in, and with ``1 / S`` zeroed, ``L(1)^-1`` above
is ``G``, ``M^-1`` bordered by zeros.

The oracle stays independent of the closed forms: it reads only the lift's arcs,
never a base resistance such as ``r_xy`` nor any formula of ``flower.py``, and it
sums the frequencies numerically.  What does not depend on ``n`` (``M^-1``, the step
columns and the index terms in ``M^-1``) is memoised on ``k`` and the lift's arcs,
its pattern, for the last 64 patterns; each call does only the frequencies, and
those are memoised on the last lift, so its matrix and its indices share them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .graphs import Arc, Lift, integer


class _Pattern(NamedTuple):
    """What ``_reduced`` and ``numeric_indices`` read of a lift's arcs whatever ``n``
    is, every array read-only."""

    steps: np.ndarray  # the distinct steps d, ascending
    green: np.ndarray  # M^-1
    step_columns: np.ndarray  # A_d 1, row r and column d
    weights: np.ndarray  # 1 and the degrees, the two weightings w
    traces: np.ndarray  # tr(W_I M^-1) for each w
    forms: np.ndarray  # w_I^T M^-1 w_I for each w


@lru_cache(maxsize=64)
def _pattern(k: int, arcs: tuple[Arc, ...]) -> _Pattern:
    """The ``n``-free part of the reduction of the lift on ``k`` offsets with the
    ``arcs`` that leave block 0, for the last 64 such: ``M^-1`` and the step columns
    cost O(k^3) once, and each ``n`` reuses them.  ``ValueError`` names the first
    nonzero-step arc that avoids offset 0, with which ``M`` would depend on ``w``."""
    # Arc (r, r', d) stands for its orbit: from offset r to offset r' d blocks on,
    # with d centred in (-n/2, n/2].
    rows = np.array(arcs, np.int64).reshape(-1, 3)
    tails, heads, step = rows.T
    avoiding = rows[(step != 0) & (tails != 0) & (heads != 0)].tolist()
    if avoiding:
        raise ValueError(f"arc {tuple(avoiding[0])} has a nonzero step and avoids offset 0, "
                         "which the oracle reduces onto")
    steps = np.array(sorted(set(step.tolist())))
    which = steps.searchsorted(step)
    arcs = np.bincount((which * k + tails) * k + heads, minlength=steps.size * k * k)
    arcs = arcs.reshape(-1, k, k).astype(float)
    degrees = np.bincount(tails, minlength=k)
    laplacian = -arcs.sum(0)  # L(1), integers
    laplacian.ravel()[:: k + 1] += degrees
    green = np.linalg.inv(laplacian[1:, 1:])  # M^-1
    weights = np.stack((np.ones(k), degrees))
    inside = np.asfortranarray(weights[:, 1:])  # BLAS's summation order follows the layout
    pattern = _Pattern(steps, green, arcs.sum(2).T, weights, inside @ green.diagonal(),
                       (inside @ green * inside).sum(1))
    for array in pattern:
        array.flags.writeable = False
    return pattern


@lru_cache(maxsize=1)
def _reduced(lift: Lift) -> tuple[_Pattern, np.ndarray, np.ndarray]:
    """``(pattern, frame, inverse)`` for ``lift``, with the frequency ``j`` last:
    ``E M^-1 E^T + inverse[j] frame[:, j] frame[:, j]^H`` is ``L(w_j)^-1`` for
    ``j = 1 .. n // 2`` and ``G`` for ``j = 0``, ``E`` the columns ``1 .. k - 1`` of
    the identity, ``frame`` ``U`` and ``inverse`` ``1 / S``, both read-only, as they
    are memoised, about ``8 N`` bytes, on the last lift object (``Lift`` has eq=False)."""
    pattern = _pattern(lift.k, lift.arcs)
    n = lift.n
    freq = np.arange(n // 2 + 1)
    # e^{i phi} for phi = pi j d / n reduced exactly into [-pi, pi).
    half_turn = np.exp(1j * np.pi / n * ((freq[:, None] * pattern.steps + n) % (2 * n) - n))
    gap = -2j * half_turn * half_turn.imag  # 1 - w^d
    column = pattern.step_columns @ gap.T  # b = L(w) 1, zero at w = 1
    coupling = column[1:]  # b_I
    solved = pattern.green @ coupling
    schur = column.sum(0) - np.einsum("ij,ij->j", coupling.conj(), solved)
    schur[0] = 1.0  # the unit pivot at w = 1, zeroed again in 1 / S
    inverse = 1.0 / schur
    inverse[0] = 0.0
    # U = 1 - E M^-1 b_I, in the place of b.
    column[0], column[1:] = 0.0, solved
    np.subtract(1.0, column, out=column)
    column.flags.writeable = inverse.flags.writeable = False
    return pattern, column, inverse


def _resistance_blocks(lift: Lift) -> np.ndarray:
    """``R[d][r, r'] = R[(d, r), (0, r')] = H_rr + H_r'r' - (B[d] + B[-d]^T)[r, r']``
    from ``B[d] = H[(d, r), (0, r')]``, the blocks of ``H``: ``irfft`` of the
    ``U U^H / S``, with ``M^-1``, the same at every ``w``, added to block 0 alone.
    Float addition commutes, so ``R`` is exactly symmetric with an exactly zero
    diagonal, and ``R[-d]`` is ``R[d]`` transposed, float for float.  ``R`` is
    summed from views of ``B[-d]^T`` into one fresh C-contiguous array, which
    ``irfft``'s output is not: at most two real ``n k^2`` arrays at once."""
    pattern, frame, inverse = _reduced(lift)
    blocks = np.fft.irfft(np.einsum("rj,j,sj->jrs", frame, inverse, frame.conj()), lift.n, axis=0)
    blocks[0, 1:, 1:] += pattern.green
    diag = blocks[0].diagonal()
    summed = np.empty(blocks.shape)
    np.add(blocks[0], blocks[0].T, out=summed[0])
    np.add(blocks[1:], blocks[:0:-1].transpose(0, 2, 1), out=summed[1:])  # B[d] + B[n - d]^T
    return np.subtract(diag[:, None] + diag, summed, out=summed)


def resistance(lift: Lift, i: int, j: int) -> float:
    """Effective resistance between ``i = p k + r`` and ``j = p' k + r'``: the entry
    ``[r, r']`` of block ``p - p' mod n``."""
    i, j, count = integer("i", i), integer("j", j), lift.vertex_count
    if not (0 <= i < count and 0 <= j < count):
        raise IndexError(f"vertex pair ({i}, {j}) out of range for {count} vertices")
    (pi, ri), (pj, rj) = divmod(i, lift.k), divmod(j, lift.k)
    return float(_resistance_blocks(lift)[(pi - pj) % lift.n, ri, rj])


def resistance_rows(lift: Lift) -> Iterator[np.ndarray]:
    """Row blocks ``p = 0 .. n - 1`` of the resistance matrix, ``k x N`` each, in O(N k)
    memory: ``R[(p, r), (p', r')]`` is entry ``[r, r']`` of block ``p - p' mod n``, so
    row block ``p`` is blocks ``p, p - 1, ..`` in a row, a read-only view of the blocks
    transposed, as ``R[-d]`` is ``R[d]^T``, and laid out twice: column block ``j`` is
    transposed block ``j - p``, at ``n + j - p`` in the doubled copy."""
    blocks = _resistance_blocks(lift).transpose(2, 0, 1)
    twice = np.concatenate((blocks, blocks), axis=1)
    twice.flags.writeable = False
    return (twice[:, lift.n - p : 2 * lift.n - p].reshape(lift.k, -1) for p in range(lift.n))


def resistance_matrix(lift: Lift) -> np.ndarray:
    """The N x N resistance matrix, symmetric with a zero diagonal, from ``resistance_rows``."""
    rows = resistance_rows(lift)
    matrix = np.empty((lift.vertex_count, lift.vertex_count))
    for target, row_block in zip(matrix.reshape(lift.n, lift.k, -1), rows):
        target[...] = row_block
    return matrix


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
    so counted ``n`` times, plus ``sum_r w_r |U_r|^2 / S``, which is zero at ``w = 1``,
    where ``1 / S`` is; there ``G`` is ``M^-1`` bordered by zeros, so
    ``w^T G w = w_I^T M^-1 w_I``.  ``w_j`` and its conjugate count once each, and
    ``math.fsum`` rounds only the total of the terms: O(k^3) once per lift pattern,
    O(N k) per call; O(k^2 + N) memory.
    """
    pattern, frame, inverse = _reduced(lift)
    n, weights = lift.n, pattern.weights
    condensed = weights @ np.einsum("rj,j,rj->rj", frame, inverse, frame.conj()).real
    constant = n * pattern.traces - pattern.forms / weights.sum(1)
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
