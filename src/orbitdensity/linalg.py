"""Dense Hermitian linear algebra.

Everything downstream (Gram matrices, frame operators, probe quotients)
reduces to Hermitian eigenproblems, and all of them take one path:
:func:`hermitian_eigen`, and :func:`psd_eigen` for a PSD matrix with its
numerical rank. The path takes a matrix or a stack of equally sized ones,
and optionally the sizes of leading blocks, for the nested truncations of
one Gram buffer. It checks each block's shape, finiteness and Hermitian
deviation against one tolerance, ``HERMITIAN_RTOL``, by strips of
``ROW_BLOCK`` rows; overwrites the buffer with its Hermitian part in place,
once; and eigensolves every block as a view of it, so LAPACK's copy is the
only other full-size array. Real input is solved in real arithmetic. All
routines are deterministic for identical input, and every rank decision,
the PSD check's allowance included, reads one relative threshold,
``DEFAULT_REL_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _block_sums(X, row_index, bounds) -> np.ndarray:
    """Squared Frobenius norms of the parts of a strip X that lie inside
    each leading block [:k, :k], one per k of the ascending ``bounds``, of
    shape (len(bounds),) + the stack shape. Row i of X is row
    ``row_index[i]`` of the whole matrix; columns are the whole matrix's.

    Each row's sums over the column segments between the bounds are formed
    once and accumulated, so the cost is one pass over X however many
    blocks there are. Strips of the callers lie inside the largest block.
    """
    if len(bounds) == 1:
        return _sum_sq(X)[None]
    starts = (0, *bounds[:-1])
    segments = [_sum_sq_rows(X[..., s:e]) for s, e in zip(starts, bounds)]
    cumulative = np.cumsum(np.stack(segments, axis=-1), axis=-1)
    inside = np.asarray(row_index)[:, None] < np.asarray(bounds)
    # where, not a product: a non-finite entry of a row outside a block
    # must not turn that block's sum into nan
    return np.moveaxis(np.where(inside, cumulative, 0.0).sum(axis=-2), -1, 0)


def _sum_sq_rows(X) -> np.ndarray:
    """Squared Euclidean norm of each row of a matrix or stack."""
    sq = np.einsum("...ij,...ij->...i", X.real, X.real)
    if np.iscomplexobj(X):
        sq = sq + np.einsum("...ij,...ij->...i", X.imag, X.imag)
    return sq


def _leading_deviations(A, bounds) -> tuple:
    """||A_k - A_k*|| / ||A_k|| (0 for a zero block) of each leading block
    A_k = A[..., :k, :k], one per k of the ascending ``bounds``, of shape
    (len(bounds),) + the stack shape, and whether each block is finite in
    every matrix.

    Measured by strips of ROW_BLOCK rows, so no temporary is larger than
    ROW_BLOCK x max(bounds). The squares of entries beyond about 1e154
    overflow and those below about 1e-154 underflow, which would make a
    quotient nan or lose it: a block whose squared norm leaves
    [2^-900, 2^1000] is measured again on its own, times 2^-600 or 2^600,
    which brings its squares into the double range and, a power of two,
    changes no quotient.
    """
    norm_sq, diff_sq, finite = _leading_sums(A, bounds)
    for i, k in enumerate(bounds):
        low, high = norm_sq[i] <= 2.0**-900, norm_sq[i] >= 2.0**1000
        if np.any(low | high):
            factor = np.where(high, 2.0**-600, np.where(low, 2.0**600, 1.0))
            block_norm_sq, block_diff_sq, _ = _leading_sums(A, [k], factor)
            norm_sq[i], diff_sq[i] = block_norm_sq[0], block_diff_sq[0]
    scale = np.sqrt(norm_sq)
    # inf / inf is left only in a non-finite block, which is rejected as such
    with np.errstate(invalid="ignore"):
        dev = np.divide(np.sqrt(diff_sq), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return dev, finite


def _leading_sums(A, bounds, factor=None) -> tuple:
    """Squared Frobenius norms of A_k and of A_k - A_k* for the leading
    blocks of :func:`_leading_deviations`, of each matrix times its
    ``factor`` (an array over the stack) when one is given, and whether
    each block is finite."""
    n = bounds[-1]
    norm_sq = np.zeros((len(bounds),) + A.shape[:-2])
    diff_sq = np.zeros_like(norm_sq)
    finite = np.ones(len(bounds), dtype=bool)
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        rows = A[..., r0:r1, :n]
        if factor is not None:
            rows = rows * factor[..., None, None]
        index = np.arange(r0, r1)
        norm_sq += _block_sums(rows, index, bounds)
        # inf - inf is nan: a non-finite block is rejected as such, not warned about
        with np.errstate(invalid="ignore"):
            diff = _adjoint_rows(A[..., :n, r0:r1])
            if factor is not None:
                diff *= factor[..., None, None]
            diff -= rows
            diff_sq += _block_sums(diff, index, bounds)
            del diff
        if not np.isfinite(rows).all():
            for i, k in enumerate(bounds):
                finite[i] &= np.isfinite(rows[..., : max(k - r0, 0), :k]).all()
    return norm_sq, diff_sq, finite


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


@dataclass(frozen=True, eq=False)
class PSDSpectrum:
    """Real spectrum of a Hermitian matrix, or of each matrix of a stack,
    eigenvalues ascending along the last axis.

    ``eigenvectors`` holds an orthonormal column system aligned with
    ``eigenvalues``, or ``None`` when only eigenvalues were requested.
    ``keep`` marks the eigenvalues above ``DEFAULT_REL_TOL * lambda_max`` of
    their own matrix; the others count as kernel directions. Every rank,
    extreme, pseudo inverse square root and whitening of the matrix is read
    from this one decomposition. For a stack, ``rank`` and ``extremes`` are
    arrays over the stack and indexing selects matrices.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    @cached_property
    def keep(self) -> np.ndarray:
        """Mask of the eigenvalues above ``DEFAULT_REL_TOL * max(lambda_max, 0)``."""
        lam_max = np.maximum(self.eigenvalues[..., -1:], 0.0)
        return self.eigenvalues > DEFAULT_REL_TOL * lam_max

    def __getitem__(self, index) -> "PSDSpectrum":
        vectors = None if self.eigenvectors is None else self.eigenvectors[index]
        return PSDSpectrum(self.eigenvalues[index], vectors)

    @property
    def rank(self):
        """Number of eigenvalues above the threshold; 0 for the zero matrix."""
        return per_matrix(np.count_nonzero(self.keep, axis=-1))

    @property
    def extremes(self):
        """Smallest and largest eigenvalue."""
        return per_matrix(self.eigenvalues[..., 0]), per_matrix(self.eigenvalues[..., -1])

    def _vectors(self) -> np.ndarray:
        if self.eigenvectors is None:
            raise UsageError("spectrum was computed without eigenvectors")
        return self.eigenvectors

    def inverse_sqrt(self) -> np.ndarray:
        """Pseudo inverse square root R of the matrix M (of each matrix of a stack).

        R @ M @ R is the orthogonal projector onto the span of the kept
        eigenvectors; kernel directions are mapped to zero.
        """
        V = self._vectors()
        inv = np.zeros_like(self.eigenvalues)
        inv[self.keep] = 1.0 / np.sqrt(self.eigenvalues[self.keep])
        return (V * inv[..., None, :]) @ adjoint(V)

    def whitener(self) -> np.ndarray:
        """Columns v_k / sqrt(w_k) over the kept eigendirections of one
        matrix, so that B* M B is the identity on the numerically
        nondegenerate subspace."""
        V = self._vectors()
        if not np.any(self.keep):
            raise DegenerateProbeError("probe Gram matrix is numerically singular in every direction")
        return V[:, self.keep] / np.sqrt(self.eigenvalues[self.keep])


def hermitian_eigen(
    M, sizes=None, *, compute_vectors: bool = True, name: str = "matrix"
) -> PSDSpectrum | list[PSDSpectrum]:
    """Spectrum of a Hermitian matrix or of each matrix of a stack; with
    ``sizes``, a list of the spectra of the leading blocks M[..., :k, :k],
    one per k.

    A non-square input raises ``DimensionError``. Each block must be finite
    and Hermitian to ``HERMITIAN_RTOL`` relative. The first block, in
    ``sizes`` order, that is not raises before anything is eigensolved:
    ``UsageError`` for a non-finite entry, ``OracleInconsistencyError`` for
    the deviation. Then the leading max(sizes) rows and columns are
    overwritten with the Hermitian part (M + M*) / 2, and every block is
    eigensolved as a view of it. ``name`` names the matrix in these errors.

    A complex128 ndarray ``M`` is that buffer; pass a copy to keep it
    intact. Any other input is first converted into a fresh array, of
    float64 if it is real and of complex128 otherwise.
    """
    A = np.asarray(M)
    if np.iscomplexobj(A):
        A = np.asarray(A, dtype=complex)
    else:
        A = np.array(A, dtype=float)
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
    bounds = sorted(set(blocks))
    dev, finite = _leading_deviations(A, bounds)
    for k in blocks:
        i = bounds.index(k)
        if not finite[i]:
            raise UsageError(f"{name} contains non-finite entries")
        if np.any(dev[i] > HERMITIAN_RTOL):
            raise OracleInconsistencyError(
                f"{name} is not Hermitian: relative deviation {np.max(dev[i]):.3e}"
            )
    _hermitian_part_in_place(A, bounds[-1])
    spectra = []
    for k in blocks:
        try:
            if compute_vectors:
                w, V = np.linalg.eigh(A[..., :k, :k])
            else:
                w, V = np.linalg.eigvalsh(A[..., :k, :k]), None
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
        spectra.append(PSDSpectrum(w, V))
    return spectra[0] if sizes is None else spectra


def psd_eigen(
    M, sizes=None, *, compute_vectors: bool = True, name: str = "matrix"
) -> PSDSpectrum | list[PSDSpectrum]:
    """:func:`hermitian_eigen` of a PSD matrix, stack or set of leading
    blocks.

    An eigenvalue below -(DEFAULT_REL_TOL * lambda_max + 64 eps ||M_k||_F)
    of its own matrix raises ``OracleInconsistencyError``: the matrices are
    built from inner products, so a clearly negative eigenvalue is an error
    in the numbers, not in the input.
    """
    spectra = hermitian_eigen(M, sizes, compute_vectors=compute_vectors, name=name)
    for spec in [spectra] if sizes is None else spectra:
        w = spec.eigenvalues
        if w.shape[-1]:
            lam_max = np.maximum(w[..., -1], 0.0)
            # ||M_k||_F by hypot, as the eigenvalues' squares overflow beyond 1e154;
            # the absolute term keeps exact-zero matrices and roundoff negatives legal
            norm = np.hypot.reduce(w, axis=-1)
            bad = w[..., 0] < -(DEFAULT_REL_TOL * lam_max + 64.0 * np.finfo(float).eps * norm)
            if np.any(bad):
                j = np.argmax(bad)
                raise OracleInconsistencyError(
                    f"{name} is not PSD: min eigenvalue {w[..., 0].flat[j]:.6e} "
                    f"of max {lam_max.flat[j]:.6e}"
                )
    return spectra
