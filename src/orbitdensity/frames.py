"""Frame analysis of vector systems given as arrays.

A system enters as matrices built by its instance: the Gram matrix
G[i, j] = <v_i, v_j> (inner products linear in the first argument), the
probe matrix A[i, j] = <q_j, v_i> against a probe family, and the
compressed synthesis matrix B[p, i] = <v_i, q_p>, whose product B B* is
the frame operator compressed to the probes. Finite systems are the
columns of an n x m matrix V, whose frame operator is V V*
(:func:`frame_operator`) and B = V against the standard basis. Their
Gram matrix V^T conj(V) has the nonzero spectrum of V V*, so every Gram
rank and extreme of a finite system is read from the n x n frame
operator. Every spectrum, the probe quotient's included, is computed
once by linalg's one eigensolver entry, :func:`linalg.hermitian_eigen`, as
eigenvalue and eigenvector arrays, and every rank, bound and identity check
reads from those. :func:`gram` adds only the Gram-only positive-diagonal
check; the nested truncations it serves are leading blocks of one buffer,
validated, symmetrized in place once and eigensolved as views. A Gram
that a symmetry of the system splits into blocks (see
``bergman.symmetry_halves``) is passed one block at a time.

The matrix functions also take stacks (..., rows, cols) of equally sized
systems and then return one value per system; every Hermitian, diagonal,
PSD and rank check still applies to each matrix on its own. The identity
checks return their deviations, slacks and pass masks as plain numbers or
arrays, and leave the verdict and its message to the caller.

The frame-bound sandwich here and the density verdicts of
``bergman.FrameReport``, the ``frame_report`` record of
``bergman-density``, compare to one tolerance, ``DENSITY_TOL``.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionError, NotRieszError, OracleInconsistencyError, UsageError

# Relative tolerance of the density comparisons: a verdict's product against
# 1 / |stab|, and each side of the frame-bound sandwich against its largest term.
DENSITY_TOL = 1e-9


def frame_operator(V) -> np.ndarray:
    """Frame operator sum_i v_i v_i* of the columns of an orbit matrix."""
    return V @ linalg.adjoint(V)


def gram(G, sizes=None) -> list[np.ndarray]:
    """Validate the leading blocks G[:k, :k] of an assembled Gram matrix (of
    each matrix of a stack) and return their ascending eigenvalues, one
    array per k of ``sizes``, the whole matrix by default.

    Each block must have a strictly positive diagonal and pass
    :func:`linalg.hermitian_eigen`: finite, Hermitian to
    ``linalg.HERMITIAN_RTOL`` relative and PSD. Violations of the diagonal,
    Hermitian and PSD conditions signal inconsistent inner products.

    A complex128 ``G`` is the working buffer: its leading max(sizes) rows
    and columns are overwritten with the Hermitian part (G + G*) / 2, and
    each block is eigensolved as a view of it. Pass a copy to keep ``G``
    intact. A real ``G`` is left intact and solved in real arithmetic.
    """
    G = np.asarray(G, dtype=complex if np.iscomplexobj(G) else float)
    sizes = G.shape[-1:] if sizes is None else sizes
    # hermitian_eigen raises DimensionError for fewer than two axes
    if G.ndim >= 2:
        diagonal = np.diagonal(G, axis1=-2, axis2=-1)[..., : max(sizes, default=0)]
        if not np.all(diagonal.real > 0.0):
            raise OracleInconsistencyError("Gram diagonal must be strictly positive")
    return [w for w, _ in linalg.hermitian_eigen(G, sizes, compute_vectors=False, name="Gram matrix")]


def frame_bounds_probe(A, whitener) -> tuple[float, float, dict]:
    """Frame-bound estimates on the span of a probe family.

    ``A[i, j] = <q_j, v_i>`` is the m x p probe matrix and ``whitener`` the
    whitening of the probe Gram ``D[i, j] = <q_j, q_i>`` (see
    :func:`linalg.whitener`). Returns extremes of
    sum_i |<f, v_i>|^2 / ||f||^2 over f in the probe span. The max is a
    certified lower bound for the true upper frame bound of the full
    system; the min carries opposing biases (subspace restriction raises
    it, index truncation lowers it) and is an estimate only.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(whitener, dtype=complex)
    _, p = A.shape
    if p == 0:
        raise UsageError("need at least one probe")
    if B.ndim != 2 or B.shape[0] != p:
        raise DimensionError(f"shape mismatch: probe matrix is {A.shape}, whitener is {B.shape}")
    # sum_i |<f, v_i>|^2 at f = Q B x is ||A B x||^2, and ||f|| = ||x||
    C = A @ B
    w, _ = linalg.hermitian_eigen(linalg.adjoint(C) @ C, compute_vectors=False, name="whitened probe matrix")
    # the quotient is a sum of squares, and the eigensolve of the k x k
    # C* C resolves it to k eps times its largest value: a smaller minimum,
    # of either sign, is a zero
    lo = float(w[0]) if w[0] > C.shape[1] * np.finfo(float).eps * w[-1] else 0.0
    return lo, float(w[-1]), {"probe_count": p, "probe_rank": B.shape[1]}


def s_relation_residual(B_full, B_reduced, stab_order: int) -> float:
    """Relative deviation of S_full from stab_order * S_reduced on the probes.

    ``B[p, i] = <v_i, q_p>`` are the compressed synthesis matrices of two
    independently built systems. Precondition: the full index set is
    exactly tiled by the reduced one times a stabiliser of the given order
    (column counts must match accordingly).
    """
    if stab_order < 1:
        raise UsageError(f"stabiliser order must be at least 1, got {stab_order}")
    m_full, m_red = B_full.shape[-1], B_reduced.shape[-1]
    if m_full != stab_order * m_red:
        raise UsageError(
            f"tiling violated: {m_full} full vectors vs {stab_order} x {m_red} reduced"
        )
    return operator_relation_residual(frame_operator(B_full), frame_operator(B_reduced), stab_order)


def operator_relation_residual(S_full, S_reduced, stab_order):
    """Relative deviation ||S_full - stab_order S_reduced|| / ||S_full|| of two
    frame operators, of each pair of a stack (0 where S_full is zero);
    ``stab_order`` is one integer or an array of one per pair."""
    scale = linalg.frobenius(S_full)
    dev = linalg.frobenius(S_full - np.asarray(stab_order)[..., None, None] * S_reduced)
    return linalg.per_matrix(np.divide(dev, scale, out=np.zeros_like(dev), where=scale > 0.0))


def parseval_norm_check(
    V_full, V_reduced, R_full, R_reduced, lam_index, stab_order: int, *, generator
) -> tuple:
    """Check ||S_full^-1/2 v_k||^2 = ||S_red^-1/2 v_lambda(k)||^2 / stab_order.

    ``R_full`` and ``R_reduced`` are the pseudo inverse square roots of the
    frame operators of the orbit matrices ``V_full`` and ``V_reduced``;
    ``lam_index[..., k]`` is the reduced column of the k-th full vector,
    one (m,) index shared by a stack or one per system. Returns the maximal
    deviation and the generator's canonical-Parseval norm square
    ||S_full^-1/2 g||^2, for calibration against covolume * formal degree.
    """
    lam_index = np.asarray(lam_index, dtype=int)
    if lam_index.shape not in (V_full.shape[-1:], V_full.shape[:-2] + V_full.shape[-1:]):
        raise UsageError("factorization must assign every full vector")
    lhs = np.sum(np.abs(R_full @ V_full) ** 2, axis=-2)
    rhs = np.sum(np.abs(R_reduced @ V_reduced) ** 2, axis=-2)
    rhs = np.take_along_axis(rhs, np.broadcast_to(lam_index, lhs.shape), axis=-1)
    max_dev = linalg.per_matrix(np.max(np.abs(lhs - rhs / stab_order), axis=-1))
    gv = (R_full @ np.asarray(generator, dtype=complex)[..., None])[..., 0]
    return max_dev, linalg.per_matrix(np.sum(np.abs(gv) ** 2, axis=-1))


def biorthogonality_check(V, eigenvalues, R) -> float:
    """Max deviation of <v_i, S^-1 v_j> from the Kronecker delta.

    ``eigenvalues`` are those of the frame operator S = V V* of the orbit
    matrix ``V`` and ``R`` its pseudo inverse square root. Requires a
    numerically nonsingular Gram matrix (a Riesz system): its nonzero
    spectrum is that of S, so S must have rank equal to the column count.
    """
    m = V.shape[-1]
    rank = np.ravel(linalg.rank(eigenvalues))
    if np.any(rank < m):
        raise NotRieszError(f"Gram matrix is numerically singular: rank {np.min(rank)} of {m}")
    K = linalg.adjoint(V) @ (R @ R) @ V
    return linalg.per_matrix(np.max(np.abs(K - np.eye(V.shape[-1])), axis=(-2, -1)))


def density_sandwich_check(lower, upper, covolume, degree: float, gen_norm_sq) -> tuple:
    """Verify the frame-bound sandwich A vol <= ||g||^2 / d_pi <= B vol.

    Takes scalars or equally shaped arrays of bounds, covolumes and norms;
    returns the slacks ||g||^2 / d - A vol and B vol - ||g||^2 / d and
    whether both are at least -``DENSITY_TOL`` times the largest of the
    three terms. Every covolume must be positive.
    """
    if not (np.all(lower <= upper) and np.all(covolume > 0.0) and degree > 0.0):
        raise UsageError("need lower <= upper, covolume > 0 and degree > 0")
    mid = gen_norm_sq / degree
    scale = np.maximum(
        np.maximum(np.abs(lower) * covolume, np.abs(upper) * covolume),
        np.maximum(np.abs(mid), 1e-300),
    )
    lower_slack = mid - lower * covolume
    upper_slack = upper * covolume - mid
    tol = DENSITY_TOL * scale
    return lower_slack, upper_slack, (lower_slack >= -tol) & (upper_slack >= -tol)
