import math
import warnings

import numpy as np
import pytest
from oracles import hermitian_part, psd_eigen_by_copy

from orbitdensity import bergman, finite_gabor, frames, linalg
from orbitdensity.errors import (
    DegenerateProbeError,
    DimensionError,
    OracleInconsistencyError,
    UsageError,
)
from orbitdensity.hyperbolic import UpperHalfPoint


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


class TestHermitianEigen:
    def test_identity(self):
        spec = linalg.hermitian_eigen(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_two_by_two_hand_characteristic_polynomial(self):
        # det([[2-t,1],[1,2-t]]) = t^2 - 4t + 3 = (t-1)(t-3)
        spec = linalg.hermitian_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_diagonal_sorted(self):
        spec = linalg.hermitian_eigen(np.diag([5.0, -1.0, 0.0]))
        assert np.allclose(spec.eigenvalues, [-1.0, 0.0, 5.0], atol=1e-14)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(1)
        M = random_hermitian(rng, 12)
        spec = linalg.hermitian_eigen(M)
        scale = np.linalg.norm(M)
        for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            assert np.linalg.norm(M @ v - lam * v) <= 1e-10 * scale
        G = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(G - np.eye(12))) <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.hermitian_eigen(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(OracleInconsistencyError):
            linalg.hermitian_eigen([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_deviation_holds_where_squares_leave_the_double_range(self, scale):
        # the entries' squares overflow at 1e200 and underflow at 1e-200; the
        # relative deviation is that of [[1, 0.3], [0.1, 1]], about 0.195
        with pytest.raises(OracleInconsistencyError, match="relative deviation 1.952e-01"):
            linalg.hermitian_eigen(scale * np.array([[1.0, 0.3], [0.1, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = linalg.hermitian_eigen(scale * np.array([[1.0, 0.2], [0.2, 1.0]])).eigenvalues
        np.testing.assert_allclose(w / scale, [0.8, 1.2], rtol=1e-14)

    def test_hermitian_part_of_entries_near_the_double_maximum(self):
        # A + A* overflows; A / 2 + A* / 2 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = linalg.hermitian_eigen([[1.7e308, 0.0], [0.0, 1.7e308]]).eigenvalues
        assert w.tolist() == [1.7e308, 1.7e308]

    @pytest.mark.parametrize(
        "leading, corner, deviation",
        [([[1.0, 0.3], [0.1, 1.0]], 0.0, "1.952e-01"), ([[1.0, 0.2], [0.2, 1.0]], 0.5, "6.325e-01")],
    )
    def test_each_leading_block_is_measured_at_its_own_scale(self, leading, corner, deviation):
        # a 2 x 2 leading block of entries about 1e-200, whose squares
        # underflow, in a 3 x 3 matrix with a unit diagonal: the deviation
        # is read in the leading block, or in the whole matrix, whose
        # corner entry is not mirrored
        A = np.eye(3)
        A[:2, :2] = 1e-200 * np.array(leading)
        A[0, 2] = corner
        with pytest.raises(OracleInconsistencyError, match=f"relative deviation {deviation}"):
            linalg.hermitian_eigen(A, (2, 3))

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 9):
            M = random_hermitian(rng, n)
            w = linalg.hermitian_eigen(M).eigenvalues
            scale = np.linalg.norm(M)
            assert abs(w.sum() - np.trace(M).real) <= 1e-10 * scale
            assert abs((w**2).sum() - scale**2) <= 1e-10 * scale**2

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        M = random_hermitian(rng, 8)
        s1 = linalg.hermitian_eigen(M)
        s2 = linalg.hermitian_eigen(M.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestInverseSqrtPsd:
    def test_identity(self):
        R = linalg.psd_eigen(np.eye(4)).inverse_sqrt()
        assert np.allclose(R, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        R = linalg.psd_eigen(np.diag([4.0, 9.0])).inverse_sqrt()
        assert np.allclose(R, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_rank_deficient_projects(self):
        # Gram of {e1, e1}: eigenvalues 0 and 2, eigenvector (1,1)/sqrt(2)
        M = np.ones((2, 2))
        R = linalg.psd_eigen(M).inverse_sqrt()
        P = R @ M @ R
        proj = 0.5 * np.ones((2, 2))
        assert np.allclose(P, proj, atol=1e-12)

    def test_negative_rejected(self):
        # at 1e200 the squares of the eigenvalues overflow
        for scale in (1.0, 1e200):
            with pytest.raises(OracleInconsistencyError, match="not PSD"):
                linalg.psd_eigen(scale * np.diag([1.0, -1.0]))

    def test_pseudo_inverse_action(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        M = X @ X.conj().T  # PSD of rank 4
        R = linalg.psd_eigen(M).inverse_sqrt()
        P = R @ R @ M  # pseudo-inverse times M = projector onto the range
        assert np.linalg.norm(P @ M - M) <= 1e-8 * np.linalg.norm(M)
        assert np.linalg.norm(P @ P - P) <= 1e-8


class TestNumericalRank:
    def test_identity(self):
        assert linalg.psd_eigen(np.eye(5)).rank == 5

    def test_all_ones(self):
        assert linalg.psd_eigen(np.ones((2, 2))).rank == 1

    def test_zero_matrix(self):
        assert linalg.psd_eigen(np.zeros((3, 3))).rank == 0

    def test_gram_of_dependent_triple(self):
        # Gram of {e1, e2, e1+e2}: hand eigencheck gives eigenvalues 0, 1, 3
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        vecs = [e1, e2, e1 + e2]
        G = np.array([[np.vdot(w, v) for w in vecs] for v in vecs])
        w = linalg.hermitian_eigen(G).eigenvalues
        assert np.allclose(sorted(w), [0.0, 1.0, 3.0], atol=1e-12)
        assert linalg.psd_eigen(G).rank == 2

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        M = random_hermitian(rng, 7)
        M = M @ M.conj().T  # PSD
        U = linalg.hermitian_eigen(random_hermitian(rng, 7)).eigenvectors
        assert linalg.psd_eigen(U @ M @ U.conj().T).rank == linalg.psd_eigen(M).rank


def rayleigh(N, D):
    """Extremes of x*Nx / x*Dx over the nondegenerate subspace of D, by
    frame_bounds_probe on the probe matrix A = N^(1/2), so that A*A = N."""
    w, U = np.linalg.eigh(np.asarray(N, dtype=complex))
    A = (U * np.sqrt(np.maximum(w, 0.0))) @ U.conj().T
    return frames.frame_bounds_probe(A, linalg.psd_eigen(D).whitener())[:2]


class TestGeneralizedRayleigh:
    def test_identity_pair(self):
        lo, hi = rayleigh(np.eye(3), np.eye(3))
        assert np.allclose([lo, hi], [1.0, 1.0], atol=1e-12)

    def test_diagonal_numerator(self):
        lo, hi = rayleigh(np.diag([2.0, 8.0]), np.eye(2))
        assert np.allclose([lo, hi], [2.0, 8.0], atol=1e-12)

    def test_axis_ratios(self):
        lo, hi = rayleigh(np.diag([1.0, 4.0]), np.diag([1.0, 2.0]))
        assert np.allclose([lo, hi], [1.0, 2.0], atol=1e-12)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateProbeError):
            rayleigh(np.eye(2), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            rayleigh(np.eye(2), np.eye(3))


class TestStacks:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(61)
        mats = []
        for rank in (4, 2, 0):
            B = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            mats.append(B @ B.conj().T)
        stack = linalg.psd_eigen(np.array(mats))
        R = stack.inverse_sqrt()
        assert list(stack.rank) == [4, 2, 0]
        for k, M in enumerate(mats):
            single = linalg.psd_eigen(M)
            assert stack[k].rank == single.rank
            assert np.allclose(stack[k].extremes, single.extremes, rtol=0.0, atol=1e-12)
            assert np.allclose(R[k], single.inverse_sqrt(), rtol=0.0, atol=1e-10)

    def test_single_matrix_gives_python_scalars(self):
        spec = linalg.psd_eigen(np.diag([1.0, 3.0]))
        assert type(spec.rank) is int
        assert all(type(x) is float for x in spec.extremes)

    def test_every_matrix_is_checked(self):
        with pytest.raises(OracleInconsistencyError):
            linalg.psd_eigen(np.array([np.eye(2), np.diag([1.0, -1.0])]))
        with pytest.raises(OracleInconsistencyError):
            linalg.hermitian_eigen(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


def frame_operator_stack(n: int, which: int, windows: int = 6) -> np.ndarray:
    """Frame operators of the scan's windows over one subgroup of Z_n x Z_n:
    the first (order 1, rank 1), a middle one or the last (the whole group)."""
    subgroups = finite_gabor.subgroup_enumerate(n)
    index = (0, len(subgroups) // 2, len(subgroups) - 1)[which]
    _, g = finite_gabor.scan_windows(n, index, windows, 1)
    return frames.frame_operator(finite_gabor.orbit_system(g, subgroups[index].elements))


def probe_gram(z: UpperHalfPoint, alpha: float) -> np.ndarray:
    """The probe Gram of ``bergman-density``, as it is assembled there."""
    probes = bergman.probe_kernels(z.as_complex, 40)
    weight = (probes.imag.min() / probes.imag) ** (alpha / 2.0)
    D = bergman.kernel_gram(probes, probes, alpha).T
    D *= weight[:, None] * weight
    return D


SPECTRUM_CASES = {
    **{
        f"frames_n{n}_{which}": (lambda n=n, which=which: frame_operator_stack(n, which))
        for n in (3, 7, 12, 16)
        for which in range(3)
    },
    "probe_i": lambda: probe_gram(UpperHalfPoint(0.0, 1.0), 2.0),
    "probe_rho": lambda: probe_gram(UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0), 3.0),
    "probe_generic": lambda: probe_gram(UpperHalfPoint(0.3, 1.5), 2.0),
}


class TestOneSpectrumPath:
    @pytest.mark.parametrize("case", sorted(SPECTRUM_CASES))
    def test_in_place_path_is_bitwise_the_copy_path(self, case):
        M = SPECTRUM_CASES[case]()
        oracle = psd_eigen_by_copy(M)
        # a copy in M's memory order: the probe Gram is a transposed view
        spec = linalg.psd_eigen(M.copy(order="K"))
        assert np.array_equal(spec.eigenvalues, oracle.eigenvalues)
        assert np.array_equal(spec.eigenvectors, oracle.eigenvectors)
        assert np.array_equal(spec.keep, oracle.keep)
        assert np.array_equal(spec.inverse_sqrt(), oracle.inverse_sqrt())
        if case.endswith("_0"):
            # the trivial subgroup's orbits are single vectors
            assert np.all(spec.rank == 1)

    def test_complex_buffer_becomes_its_hermitian_part(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        M = X @ linalg.adjoint(X)
        M += 1e-15 * rng.standard_normal(M.shape)
        buffer = M.copy()
        linalg.psd_eigen(buffer)
        assert not np.array_equal(M, hermitian_part(M))
        assert np.array_equal(buffer, hermitian_part(M))

    def test_list_and_real_input_left_unchanged(self):
        as_list = [[2.0, 1.0 + 1e-14], [1.0, 2.0]]
        real = np.array(as_list)
        linalg.hermitian_eigen(as_list)
        linalg.hermitian_eigen(real)
        assert as_list == [[2.0, 1.0 + 1e-14], [1.0, 2.0]]
        assert np.array_equal(real, np.array(as_list))

    def test_leading_blocks_match_separate_calls(self):
        M = frame_operator_stack(12, 2)
        blocks = linalg.psd_eigen(M.copy(), (5, 12, 1))
        for k, spec in zip((5, 12, 1), blocks):
            alone = linalg.psd_eigen(M[..., :k, :k].copy())
            assert np.array_equal(spec.eigenvalues, alone.eigenvalues)
            assert np.array_equal(spec.eigenvectors, alone.eigenvectors)

    def test_one_error_type_per_cause(self):
        with pytest.raises(DimensionError):
            linalg.psd_eigen(np.ones(3))
        with pytest.raises(UsageError, match="non-finite"):
            linalg.psd_eigen(np.diag([1.0, np.inf]))
        # 1e-11 relative off Hermitian, above the 1e-12 tolerance
        with pytest.raises(OracleInconsistencyError, match="not Hermitian"):
            linalg.hermitian_eigen([[1.0, 1e-11], [0.0, 1.0]])
        with pytest.raises(OracleInconsistencyError, match="not PSD"):
            linalg.psd_eigen(np.diag([1.0, -1e-6]))


class TestRealInput:
    def test_real_input_is_solved_in_real_arithmetic(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = linalg.psd_eigen(M)
        assert spec.eigenvalues.dtype == np.float64 and spec.eigenvectors.dtype == np.float64
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], rtol=0.0, atol=1e-15)

    def test_errors_name_the_matrix(self):
        with pytest.raises(OracleInconsistencyError, match="^frame operator is not Hermitian: "):
            linalg.hermitian_eigen([[1.0, 1e-11], [0.0, 1.0]], name="frame operator")
        with pytest.raises(OracleInconsistencyError, match="^probe Gram matrix is not PSD: "):
            linalg.psd_eigen(np.diag([1.0, -1e-6]), name="probe Gram matrix")
        with pytest.raises(UsageError, match="^whitened probe matrix contains non-finite"):
            linalg.hermitian_eigen(np.diag([1.0, np.nan]), name="whitened probe matrix")
