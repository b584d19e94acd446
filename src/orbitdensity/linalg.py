"""Dense complex Hermitian linear algebra.

Everything downstream (Gram matrices, frame operators, Rayleigh quotients)
reduces to Hermitian eigenproblems solved here.  All routines are
deterministic for identical input and use a single relative threshold
``DEFAULT_REL_TOL`` wherever a rank decision has to be made.

Matrices and small stacks are symmetrized into a copy. A large matrix
whose leading blocks are all needed (a Gram buffer and its truncations)
is measured and symmetrized in place by strips of ``ROW_BLOCK`` rows
(:func:`leading_hermitian_deviations`, :func:`hermitian_part_in_place`),
and each block is eigensolved as a view (:func:`hermitian_eigenvalues`),
so LAPACK's copy is the only other full-size array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateProbeError,
    DimensionError,
    NotPSDError,
    NumericalFailure,
    UsageError,
)

# Relative eigenvalue threshold for every rank / kernel decision.
DEFAULT_REL_TOL = 1e-9

_HERMITICITY_RTOL = 1e-8

# rows per strip of the row-blocked passes over a large matrix, whose
# temporaries are then ROW_BLOCK x n instead of n x n
ROW_BLOCK = 64


def _as_square_complex(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise UsageError("matrix contains non-finite entries")
    return A


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


def hermitian_deviation(A) -> np.ndarray:
    """||A - A*|| / ||A|| of a matrix or each matrix of a stack (0 for a zero matrix).

    The difference is formed in a single temporary, so a large stack costs
    one extra copy at a time.
    """
    D = adjoint(A)
    D -= A
    scale = frobenius(A)
    return np.divide(frobenius(D), scale, out=np.zeros_like(scale), where=scale > 0.0)


def leading_hermitian_deviations(A, sizes) -> tuple[np.ndarray, np.ndarray]:
    """||A_k - A_k*|| / ||A_k|| (0 for a zero block) of each leading block
    A_k = A[..., :k, :k], one per k of ``sizes``, and whether that block is
    finite; both of shape (len(sizes),) + the stack shape.

    Measured by strips of ROW_BLOCK rows, so no temporary is larger than
    ROW_BLOCK x max(sizes).
    """
    n = max(sizes)
    norm_sq = np.zeros((len(sizes),) + A.shape[:-2])
    diff_sq = np.zeros_like(norm_sq)
    finite = np.ones(norm_sq.shape, dtype=bool)
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        rows = A[..., r0:r1, :n]
        diff = adjoint(A[..., :n, r0:r1])
        diff -= rows
        for i, k in enumerate(sizes):
            if k > r0:
                block = rows[..., : k - r0, :k]
                norm_sq[i] += _sum_sq(block)
                diff_sq[i] += _sum_sq(diff[..., : k - r0, :k])
                finite[i] &= np.all(np.isfinite(block), axis=(-2, -1))
    scale = np.sqrt(norm_sq)
    dev = np.divide(np.sqrt(diff_sq), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return dev, finite


def hermitian_part_in_place(A, n: int) -> None:
    """Overwrite A[..., :n, :n] with its Hermitian part (A + A*) / 2, by
    strips of ROW_BLOCK rows.

    Entry for entry this is the matrix :func:`_hermitian_part` returns, and
    exactly Hermitian, so eigensolvers that read one triangle see the same
    numbers.
    """
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        strip = adjoint(A[..., r0:n, r0:r1])
        strip += A[..., r0:r1, r0:n]
        strip *= 0.5
        A[..., r0:r1, r0:n] = strip
        np.conjugate(strip, out=strip)
        A[..., r0:n, r0:r1] = strip.swapaxes(-1, -2)


def _symmetrized(M) -> np.ndarray:
    """Validate near-Hermitianness of each matrix and return (M + M*)/2."""
    A = _as_square_complex(M)
    dev = hermitian_deviation(A)
    if np.any(dev > _HERMITICITY_RTOL):
        raise UsageError(
            f"matrix is not Hermitian: ||M - M*|| / ||M|| = {np.max(dev):.3e} "
            f"> {_HERMITICITY_RTOL:.0e}"
        )
    return _hermitian_part(A)


def _hermitian_part(A) -> np.ndarray:
    """(A + A*) / 2 of a matrix or of each matrix of a stack."""
    H = adjoint(A)
    H += A
    H *= 0.5
    return H


@dataclass(frozen=True)
class HermitianSpectrum:
    """Real spectrum of a Hermitian matrix, or of each matrix of a stack,
    eigenvalues ascending along the last axis.

    ``eigenvectors`` holds an orthonormal column system aligned with
    ``eigenvalues``, or ``None`` when only eigenvalues were requested.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def hermitian_eigen(M, *, compute_vectors: bool = True) -> HermitianSpectrum:
    """Full spectral decomposition of a (near-)Hermitian matrix or stack of them.

    The input is symmetrized internally; each matrix must already be
    Hermitian to relative tolerance 1e-8.
    """
    return _eigen(_symmetrized(M), compute_vectors)


def hermitian_eigenvalues(H) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix or stack, which
    may be a strided view: for callers that validated and symmetrized it
    themselves. Only the lower triangle is read."""
    return _eigen(H, False).eigenvalues


def _eigen(H, compute_vectors: bool) -> HermitianSpectrum:
    try:
        if compute_vectors:
            w, V = np.linalg.eigh(H)
        else:
            w = np.linalg.eigvalsh(H)
            V = None
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return HermitianSpectrum(eigenvalues=w, eigenvectors=V)


@dataclass(frozen=True)
class PSDSpectrum(HermitianSpectrum):
    """Spectrum of a Hermitian PSD matrix, or of each matrix of a stack, with
    its numerical-rank mask.

    ``keep`` marks the eigenvalues above ``rel_tol * lambda_max`` of their
    own matrix; the others count as kernel directions. Every rank, extreme,
    pseudo inverse square root and whitening of the matrix is read from
    this one decomposition. For a stack, ``rank`` and ``extremes`` are
    arrays over the stack and indexing selects matrices.
    """

    keep: np.ndarray

    @classmethod
    def filtered(cls, eigenvalues, eigenvectors, rel_tol: float) -> "PSDSpectrum":
        """Attach the mask of eigenvalues above ``rel_tol * lambda_max``."""
        lam_max = np.maximum(eigenvalues[..., -1:], 0.0)
        return cls(eigenvalues, eigenvectors, eigenvalues > rel_tol * lam_max)

    def __getitem__(self, index) -> "PSDSpectrum":
        vectors = None if self.eigenvectors is None else self.eigenvectors[index]
        return PSDSpectrum(self.eigenvalues[index], vectors, self.keep[index])

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


def psd_eigen(M, rel_tol: float = DEFAULT_REL_TOL) -> PSDSpectrum:
    """Eigendecompose a PSD matrix or a stack of them, keeping eigenvalues
    above ``rel_tol * lambda_max`` of each matrix.

    A clearly negative eigenvalue of any matrix raises ``NotPSDError``.
    """
    if not (0.0 < rel_tol < 1.0):
        raise UsageError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    spec = hermitian_eigen(M)
    w = spec.eigenvalues
    if w.shape[-1]:
        lam_max = np.maximum(w[..., -1], 0.0)
        # absolute guard keeps exact-zero matrices and pure roundoff negatives legal
        neg_floor = rel_tol * lam_max + 64.0 * np.finfo(float).eps * frobenius(M)
        bad = w[..., 0] < -neg_floor
        if np.any(bad):
            k = np.argmax(bad)
            raise NotPSDError(
                f"matrix is not PSD: min eigenvalue {w[..., 0].flat[k]:.6e} "
                f"< -{neg_floor.flat[k]:.6e}"
            )
    return PSDSpectrum.filtered(w, spec.eigenvectors, rel_tol)


def generalized_rayleigh_extremes(N, whitener) -> tuple[float, float]:
    """Extremes of x*Nx / x*Dx over the numerically nondegenerate subspace of D.

    ``whitener`` is ``psd_eigen(D).whitener()``, computed once per D; the
    extreme eigenvalues of the whitened N are returned as (min, max).
    """
    A_N = _symmetrized(N)
    B = np.asarray(whitener, dtype=complex)
    if B.ndim != 2 or B.shape[0] != A_N.shape[0]:
        raise DimensionError(f"shape mismatch: N is {A_N.shape}, whitener is {B.shape}")
    vals = hermitian_eigen(B.conj().T @ A_N @ B, compute_vectors=False).eigenvalues
    return float(vals[0]), float(vals[-1])
