"""Dense Hermitian linear algebra.

Everything downstream (Gram matrices, frame operators, probe quotients)
reduces to eigenproblems of PSD matrices, and all of them take one entry,
:func:`hermitian_eigen`, which returns plain arrays: eigenvalues, and
eigenvectors when asked. It takes a matrix or a stack of equally sized
ones, and optionally the sizes of leading blocks, for the nested
truncations of one Gram buffer. It checks the shape, then each distinct
block once, for finiteness and Hermitian deviation against one tolerance,
``HERMITIAN_RTOL``, by strips of ``ROW_BLOCK`` rows, all before the buffer
is touched; overwrites the buffer with its Hermitian part in place, once;
eigensolves every block as a view of it, so LAPACK's copy is the only
other full-size array; and refuses a clearly negative eigenvalue. Real
input is solved in real arithmetic. :func:`rank`, :func:`inverse_sqrt`
and :func:`whitener` read those arrays through one kept-eigenvalue rule.
All routines are deterministic for identical input, and every rank
decision, the PSD floor's allowance included, reads one relative
threshold, ``DEFAULT_REL_TOL``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateProbeError,
    DimensionError,
    NumericalFailure,
    OracleInconsistencyError,
    UsageError,
)

# Relative eigenvalue threshold for every rank / kernel decision.
DEFAULT_REL_TOL = 1e-9

# Largest relative Hermitian deviation ||M - M*|| / ||M|| accepted. The
# matrices eigensolved here are sums of inner products, Hermitian up to a
# few ulps: measured at most 2.7e-16 for the scan's frame operators and
# 1.1e-14 for the kernel and probe Grams.
HERMITIAN_RTOL = 1e-12

# rows per strip of the row-blocked passes over a large matrix, whose
# temporaries are then ROW_BLOCK x n instead of n x n
ROW_BLOCK = 64


def adjoint(A) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def frobenius(A) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (0-d for one matrix).

    Summed over the real and imaginary views, without a temporary copy.
    """
    return np.sqrt(_sum_sq(np.asarray(A)))


def _sum_sq(A) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    sq = np.einsum("...ij,...ij->...", A.real, A.real)
    if np.iscomplexobj(A):
        sq = sq + np.einsum("...ij,...ij->...", A.imag, A.imag)
    return sq


def per_matrix(values):
    """Per-matrix values of a stack as an array; a Python scalar for one matrix."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def _hermitian_deviation(A) -> tuple:
    """||A - A*|| / ||A|| (0 for a zero matrix) of a square matrix or of
    each matrix of a stack, and whether every entry is finite.

    Measured by strips of ROW_BLOCK rows, so no temporary is larger than
    ROW_BLOCK x n. The squares of entries beyond about 1e154 overflow and
    those below about 1e-154 underflow, which would make a quotient nan or
    lose it: a matrix whose squared norm leaves [2^-900, 2^1000] is
    measured again times 2^-600 or 2^600, which brings its squares into the
    double range and, a power of two, changes no quotient. After that the
    squared norm is finite exactly when every entry is.
    """
    n = A.shape[-1]
    for rescaled in (False, True):
        norm_sq, diff_sq = np.zeros(A.shape[:-2]), np.zeros(A.shape[:-2])
        for r0 in range(0, n, ROW_BLOCK):
            rows, diff = A[..., r0 : r0 + ROW_BLOCK, :], _adjoint_rows(A[..., r0 : r0 + ROW_BLOCK])
            if rescaled:
                rows = rows * factor
                diff *= factor
            norm_sq += _sum_sq(rows)
            # inf - inf is nan: a non-finite matrix is rejected as such, not warned about
            with np.errstate(invalid="ignore"):
                diff -= rows
                diff_sq += _sum_sq(diff)
        low, high = norm_sq <= 2.0**-900, norm_sq >= 2.0**1000
        if rescaled or not np.any(low | high):
            break
        factor = np.where(high, 2.0**-600, np.where(low, 2.0**600, 1.0))[..., None, None]
    scale = np.sqrt(norm_sq)
    # inf / inf is left only in a non-finite matrix, which is rejected as such
    with np.errstate(invalid="ignore"):
        dev = np.divide(np.sqrt(diff_sq), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return dev, bool(np.isfinite(norm_sq).all())


def _hermitian_part_in_place(A, n: int) -> None:
    """Overwrite A[..., :n, :n] with its Hermitian part A / 2 + A* / 2, by
    strips of ROW_BLOCK rows: halved before the sum, no finite entry
    overflows, and where the halves are normal it is bitwise (A + A*) / 2.
    It is exactly Hermitian, so eigensolvers that read one triangle see the
    same numbers.
    """
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        strip = _adjoint_rows(A[..., r0:n, r0:r1])
        strip *= 0.5
        rows = A[..., r0:r1, r0:n]
        rows *= 0.5
        rows += strip
        A[..., r1:n, r0:r1] = adjoint(rows[..., r1 - r0 :])


def _adjoint_rows(columns) -> np.ndarray:
    """The adjoint of a column strip, as a fresh row-ordered array: copied,
    then conjugated in place (on real input ndarray.conj() would return
    the strip itself)."""
    rows = columns.swapaxes(-1, -2).copy()
    np.conjugate(rows, out=rows)
    return rows


def _kept(w) -> np.ndarray:
    """Mask of the eigenvalues above ``DEFAULT_REL_TOL * max(lambda_max, 0)`` of their matrix."""
    return w > DEFAULT_REL_TOL * np.maximum(w[..., -1:], 0.0)


def rank(w):
    """Number of kept eigenvalues ``w`` of each matrix; 0 for the zero matrix."""
    return per_matrix(np.count_nonzero(_kept(w), axis=-1))


def inverse_sqrt(w, V) -> np.ndarray:
    """Pseudo inverse square root R of the matrix M (of each matrix of a
    stack) with eigenvalues ``w`` and eigenvectors ``V``.

    R @ M @ R is the orthogonal projector onto the span of the kept
    eigenvectors; kernel directions are mapped to zero.
    """
    keep = _kept(w)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return (V * inv[..., None, :]) @ adjoint(V)


def whitener(w, V) -> np.ndarray:
    """Columns v_k / sqrt(w_k) over the kept eigendirections of one matrix M,
    so that B* M B is the identity on the numerically nondegenerate subspace."""
    keep = _kept(w)
    if not np.any(keep):
        raise DegenerateProbeError("probe Gram matrix is numerically singular in every direction")
    return V[:, keep] / np.sqrt(w[keep])


def hermitian_eigen(M, sizes=None, *, compute_vectors: bool = True, name: str = "matrix"):
    """Eigenvalues, ascending along the last axis, and eigenvectors (``None``
    without ``compute_vectors``) of a PSD matrix or of each matrix of a
    stack, as a pair ``(w, V)``; with ``sizes``, a list of the pairs of the
    leading blocks M[..., :k, :k], one per k.

    A non-square input raises ``DimensionError``. Each block must be finite
    and Hermitian to ``HERMITIAN_RTOL`` relative to its own norm. Each
    distinct block is checked once, in ``sizes`` order, all on the buffer
    as given, before any is symmetrised; the first that fails raises:
    ``UsageError`` for a non-finite entry, ``OracleInconsistencyError`` for
    the deviation. Then the leading max(sizes) rows and columns are
    overwritten with the Hermitian part (M + M*) / 2, and every block is
    eigensolved as a view of it. Every matrix served is a Gram matrix or a
    frame operator, so an eigenvalue below -(DEFAULT_REL_TOL * lambda_max +
    64 eps ||M_k||_F) of its own matrix is an error in the numbers and raises
    ``OracleInconsistencyError``. ``name`` names the matrix in these errors.

    A complex128 ndarray ``M`` is that buffer; pass a copy to keep it
    intact. Any other input is first converted into a fresh array, of
    float64 if it is real and of complex128 otherwise.
    """
    A = np.asarray(M, dtype=complex) if np.iscomplexobj(M) else np.array(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if sizes is None:
        blocks = A.shape[-1:]
    else:
        blocks = [int(k) for k in sizes]
        if not blocks or min(blocks) < 1:
            raise UsageError("system needs at least one vector")
        if max(blocks) > A.shape[-1]:
            raise UsageError(f"truncation size {max(blocks)} exceeds the {A.shape[-1]} vectors")
    # every block is measured on the raw buffer, before any is overwritten
    for k in dict.fromkeys(blocks):
        dev, finite = _hermitian_deviation(A[..., :k, :k])
        if not finite:
            raise UsageError(f"{name} contains non-finite entries")
        if np.any(dev > HERMITIAN_RTOL):
            raise OracleInconsistencyError(f"{name} is not Hermitian: relative deviation {np.max(dev):.3e}")
    _hermitian_part_in_place(A, max(blocks))
    spectra = []
    for k in blocks:
        try:
            if compute_vectors:
                w, V = np.linalg.eigh(A[..., :k, :k])
            else:
                w, V = np.linalg.eigvalsh(A[..., :k, :k]), None
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
        if k:
            lam_max = np.maximum(w[..., -1], 0.0)
            # ||M_k||_F = top * norm, by hypot over the largest modulus top: beyond 1e154
            # squares overflow. The absolute term keeps zero and roundoff negatives legal
            top = np.maximum(-w[..., 0], w[..., -1])
            norm = np.hypot.reduce(w / np.where(top > 0.0, top, 1.0)[..., None], axis=-1)
            bad = w[..., 0] < -(DEFAULT_REL_TOL * lam_max + 64.0 * np.finfo(float).eps * top * norm)
            if np.any(bad):
                j = np.argmax(bad)
                raise OracleInconsistencyError(
                    f"{name} is not PSD: min eigenvalue {w[..., 0].flat[j]:.6e} of max {lam_max.flat[j]:.6e}"
                )
        spectra.append((w, V))
    return spectra[0] if sizes is None else spectra
