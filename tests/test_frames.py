import math

import numpy as np
import pytest
from oracles import (
    covolume_psl2z_by_meshgrid,
    gram_per_call,
    hermitian_deviation,
    point_array,
    vector_gram,
    whitened_probe_extremes,
)
from test_parity import PROBE_MAX_RTOL, PROBE_MIN_RTOL, PROBE_MIN_TOL

from orbitdensity import bergman, frames, fuchsian, linalg
from orbitdensity.errors import (
    DimensionError,
    NotRieszError,
    OracleInconsistencyError,
    UsageError,
)
from orbitdensity.hyperbolic import UpperHalfPoint, act

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
POINT_I = UpperHalfPoint(0.0, 1.0)
POINT_2I = UpperHalfPoint(0.0, 2.0)
POINT_RHO = UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0)
POINT_GENERIC = UpperHalfPoint(0.3, 1.5)


def orbit_of(*vectors) -> np.ndarray:
    """Orbit matrix with the given vectors as columns."""
    return np.column_stack([np.asarray(v, dtype=complex) for v in vectors])


def gram_of(*vectors) -> linalg.PSDSpectrum:
    (spectrum,) = frames.gram(vector_gram(orbit_of(*vectors)))
    return spectrum


def frame_spectrum(*vectors) -> linalg.PSDSpectrum:
    return linalg.psd_eigen(frames.frame_operator(orbit_of(*vectors)))


def probe_bounds(vectors, probes):
    """frame_bounds_probe on explicit vectors: A[i, j] = <q_j, v_i>, D[i, j] = <q_j, q_i>."""
    V, Q = orbit_of(*vectors), orbit_of(*probes)
    A = V.conj().T @ Q
    D = Q.conj().T @ Q
    return frames.frame_bounds_probe(A, linalg.psd_eigen(D).whitener())


def parseval(full_vectors, reduced_vectors, lam_index, stab_order, generator):
    V_full, V_red = orbit_of(*full_vectors), orbit_of(*reduced_vectors)
    R_full = linalg.psd_eigen(frames.frame_operator(V_full)).inverse_sqrt()
    R_red = linalg.psd_eigen(frames.frame_operator(V_red)).inverse_sqrt()
    return frames.parseval_norm_check(
        V_full, V_red, R_full, R_red, lam_index, stab_order, generator=generator
    )


def biorthogonality(*vectors) -> float:
    S = frame_spectrum(*vectors)
    return frames.biorthogonality_check(orbit_of(*vectors), S, S.inverse_sqrt())


class TestStackedSystems:
    def test_gram_checks_every_matrix(self):
        good = np.eye(2)
        assert list(frames.gram(np.array([good, 2.0 * good]))[0].rank) == [2, 2]
        with pytest.raises(OracleInconsistencyError):
            frames.gram(np.array([good, [[1.0, 2.0], [2.0, 1.0]]]))

    def test_identity_checks_match_each_system(self):
        rng = np.random.default_rng(62)
        V = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        V_red = V[..., :2]
        S, S_red = (linalg.psd_eigen(frames.frame_operator(X)) for X in (V, V_red))
        lam_index = [0, 1, 0, 1]
        s_res = frames.s_relation_residual(V, V_red, 2)
        max_dev, gen_psq = frames.parseval_norm_check(
            V, V_red, S.inverse_sqrt(), S_red.inverse_sqrt(), lam_index, 2, generator=V[..., 0]
        )
        biorth = frames.biorthogonality_check(V_red, S_red, S_red.inverse_sqrt())
        for k in range(3):
            S_k, S_red_k = S[k].inverse_sqrt(), S_red[k].inverse_sqrt()
            one_dev, one_psq = frames.parseval_norm_check(
                V[k], V_red[k], S_k, S_red_k, lam_index, 2, generator=V[k, :, 0]
            )
            assert abs(s_res[k] - frames.s_relation_residual(V[k], V_red[k], 2)) <= 1e-12
            assert abs(max_dev[k] - one_dev) <= 1e-12
            assert abs(gen_psq[k] - one_psq) <= 1e-12
            one_biorth = frames.biorthogonality_check(V_red[k], S_red[k], S_red_k)
            assert abs(biorth[k] - one_biorth) <= 1e-12

    def test_parseval_takes_one_lam_index_per_system(self):
        rng = np.random.default_rng(63)
        V = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        cols = np.array([[0, 1], [2, 3], [1, 2]])
        lam_index = np.array([[0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 1]])
        V_red = np.take_along_axis(V, cols[:, None, :], axis=-1)
        R, R_red = (linalg.psd_eigen(frames.frame_operator(X)).inverse_sqrt() for X in (V, V_red))
        max_dev, gen_psq = frames.parseval_norm_check(
            V, V_red, R, R_red, lam_index, 2, generator=V[..., 0]
        )
        for k in range(3):
            one_dev, one_psq = frames.parseval_norm_check(
                V[k], V_red[k], R[k], R_red[k], lam_index[k], 2, generator=V[k, :, 0]
            )
            assert max_dev[k] == one_dev and gen_psq[k] == one_psq
        with pytest.raises(UsageError):
            frames.parseval_norm_check(V, V_red, R, R_red, lam_index[:2], 2, generator=V[..., 0])


class TestGram:
    def test_orthonormal_triple(self):
        spec = gram_of(*np.eye(3, dtype=complex))
        assert np.allclose(spec.eigenvalues, np.ones(3), atol=1e-15)
        assert spec.rank == 3

    def test_repeated_vector(self):
        # Gram of {e1, e1} is all ones: spectrum 0, 2
        spec = gram_of(E1, E1)
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-15)
        assert spec.rank == 1

    def test_bergman_pair_closed_form(self):
        pair = point_array([POINT_I, POINT_2I])
        G = bergman.kernel_gram(pair, pair, 2.0)
        assert abs(G[0, 0] - 1.0) <= 1e-15
        assert abs(G[1, 1] - 1.0) <= 1e-15
        # k_i(2i) = (1/pi) (-1) (2i + i)^-2 = 1 / (9 pi), over the norms
        # 1 / (2 sqrt(pi)) and 1 / (4 sqrt(pi)) of k_i and k_2i
        assert abs(G[0, 1] - 8.0 / 9.0) <= 1e-15
        assert frames.gram(G)[0].rank == 2

    def test_inconsistent_oracle_rejected(self):
        with pytest.raises(OracleInconsistencyError):
            frames.gram(np.array([[2.0, 1.0], [0.5, 2.0]]))
        with pytest.raises(OracleInconsistencyError):
            frames.gram(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
        with pytest.raises(OracleInconsistencyError):
            frames.gram(np.array([[0.0, 0.0], [0.0, 1.0]]))


def transversal_gram(z: UpperHalfPoint, alpha: float) -> np.ndarray:
    """Gram of the coset representatives' kernels in the psl2z ball of norm
    9, assembled as ``bergman-density`` assembles it."""
    ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 9.0)
    orbit = act(ball.elements, z.as_complex)
    members, _ = bergman.projective_stabilizer_kernel(ball, z, alpha, orbit)
    lam = orbit[fuchsian.coset_representatives(ball, members).rep_index]
    return bergman.kernel_gram(lam, lam, alpha)


def random_gram(m: int = 150, dim: int = 40) -> np.ndarray:
    """Gram of m random vectors in C^dim (rank dim, so numerically singular
    like the generic kernel Grams), off Hermitian by roundoff-sized noise."""
    rng = np.random.default_rng(3)
    V = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
    G = vector_gram(V)
    return G + 1e-14 * np.abs(G).max() * rng.standard_normal(G.shape)


NESTED_GRAMS = {
    "i": lambda: transversal_gram(POINT_I, 2.0),
    "rho": lambda: transversal_gram(POINT_RHO, 3.0),
    "generic": lambda: transversal_gram(POINT_GENERIC, 2.0),
    "random": random_gram,
}


class TestNestedGram:
    @pytest.mark.parametrize("case", sorted(NESTED_GRAMS))
    def test_blocks_match_per_call_oracle(self, case):
        G = NESTED_GRAMS[case]()
        m = len(G)
        # strip edges of linalg.ROW_BLOCK = 64 rows, in increasing and mixed order
        sizes = sorted(k for k in {1, 37, 63, 64, 65, 128, 129, m - 1, m} if 1 <= k <= m)
        for order in (sizes, sizes[::-1] + sizes[:2]):
            spectra = frames.gram(G.copy(), order)
            assert len(spectra) == len(order)
            for k, spectrum in zip(order, spectra):
                oracle = gram_per_call(G[:k, :k])
                assert spectrum.extremes == oracle.extremes
                assert np.array_equal(spectrum.eigenvalues, oracle.eigenvalues)
                assert np.array_equal(spectrum.keep, oracle.keep)

    def test_buffer_becomes_the_hermitian_part(self):
        G = random_gram()
        buffer = G.copy()
        frames.gram(buffer, (50, 100))
        H = linalg.adjoint(G)
        H += G
        H *= 0.5
        assert np.array_equal(buffer[:100, :100], H[:100, :100])
        assert np.array_equal(buffer[100:], G[100:]) and np.array_equal(buffer[:, 100:], G[:, 100:])

    @pytest.mark.parametrize(
        "defect, error",
        [
            ("non_hermitian", OracleInconsistencyError),
            ("zero_diagonal", OracleInconsistencyError),
            ("not_psd", OracleInconsistencyError),
            ("non_finite", UsageError),
        ],
    )
    def test_defect_in_a_later_block_raises_as_per_call(self, defect, error):
        G = NESTED_GRAMS["generic"]()
        sizes = (64, 150, len(G))
        j = 149  # inside the second block only
        if defect == "non_hermitian":
            G[j, 3] += 1e-8 * G[0, 0]
        elif defect == "zero_diagonal":
            G[j, j] = 0.0
        elif defect == "not_psd":
            # an indefinite 2 x 2 principal block: det = ab - 4ab < 0
            G[j, j - 1] = 2.0 * np.sqrt(G[j, j].real * G[j - 1, j - 1].real)
            G[j - 1, j] = G[j, j - 1]
        else:
            G[j, 3] = G[3, j] = np.nan
        with pytest.raises(error) as per_call:
            for k in sizes:
                gram_per_call(G[:k, :k])
        with pytest.raises(error) as nested:
            frames.gram(G.copy(), sizes)
        assert str(nested.value) == str(per_call.value)
        assert str(nested.value).startswith("Gram ")
        assert frames.gram(G.copy(), sizes[:1])[0].rank == gram_per_call(G[:64, :64]).rank

    def test_sizes_validated(self):
        with pytest.raises(UsageError, match="at least one vector"):
            frames.gram(np.eye(3), (2, 0))
        with pytest.raises(UsageError, match="exceeds"):
            frames.gram(np.eye(3), (4,))
        with pytest.raises(DimensionError):
            frames.gram(np.ones((2, 3)))


class TestRieszExtremes:
    def test_identity(self):
        assert gram_of(*np.eye(3, dtype=complex)).extremes == (
            pytest.approx(1.0),
            pytest.approx(1.0),
        )

    def test_dependent_triple(self):
        # Gram of {e1, e1, e2} has blocks [[1,1],[1,1]] and [1]: spectrum 0, 1, 2
        lo, hi = gram_of(E1, E1, E2).extremes
        assert abs(lo) <= 1e-12
        assert abs(hi - 2.0) <= 1e-12

    def test_nested_monotonicity(self):
        # leading principal submatrices of one Gram: Cauchy interlacing
        rng = np.random.default_rng(41)
        vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(6)]
        G = vector_gram(orbit_of(*vecs))
        prev_lo, prev_hi = None, None
        for spectrum in frames.gram(G, (2, 4, 6)):
            lo, hi = spectrum.extremes
            if prev_lo is not None:
                assert lo <= prev_lo + 1e-12
                assert hi >= prev_hi - 1e-12
            prev_lo, prev_hi = lo, hi


class TestFrameExtremes:
    def test_orthonormal_basis(self):
        lo, hi = frame_spectrum(E1, E2).extremes
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_redundant_system(self):
        # S = diag(2, 1)
        lo, hi = frame_spectrum(E1, E1, E2).extremes
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_non_spanning(self):
        lo, hi = frame_spectrum(E1).extremes
        assert abs(lo) <= 1e-15
        assert abs(hi - 1.0) <= 1e-15

    def test_gram_and_frame_operator_share_nonzero_spectrum(self):
        rng = np.random.default_rng(42)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        gram_eigs = gram_of(*vecs).eigenvalues
        frame_eigs = frame_spectrum(*vecs).eigenvalues
        gram_nonzero = sorted(v for v in gram_eigs if v > 1e-9 * gram_eigs[-1])
        frame_nonzero = sorted(v for v in frame_eigs if v > 1e-9 * frame_eigs[-1])
        assert len(gram_nonzero) == len(frame_nonzero)
        for a, b in zip(gram_nonzero, frame_nonzero):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestFrameBoundsProbe:
    def test_matches_finite_extremes_with_spanning_probes(self):
        rng = np.random.default_rng(43)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        lo_p, hi_p, diag = probe_bounds(vecs, list(np.eye(3, dtype=complex)))
        lo_f, hi_f = frame_spectrum(*vecs).extremes
        assert abs(lo_p - lo_f) <= 1e-8 * max(1.0, hi_f)
        assert abs(hi_p - hi_f) <= 1e-8 * max(1.0, hi_f)
        assert diag["probe_rank"] == 3
        assert diag["index_count"] == 5 and diag["probe_count"] == 3

    def test_single_probe_identity_index(self):
        lo, hi, _ = probe_bounds([2.0 * E1], [2.0 * E1])
        assert abs(lo - 4.0) <= 1e-12
        assert abs(hi - 4.0) <= 1e-12

    def test_enlarging_index_set_never_decreases(self):
        # row prefixes of one probe matrix, as in a refinement schedule
        rng = np.random.default_rng(44)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(6)]
        probes = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        Q = orbit_of(*probes)
        A = orbit_of(*vecs).conj().T @ Q
        whitener = linalg.psd_eigen(Q.conj().T @ Q).whitener()
        prev = None
        for count in (2, 4, 6):
            lo, hi, _ = frames.frame_bounds_probe(A[:count], whitener)
            assert (lo, hi) == probe_bounds(vecs[:count], probes)[:2]
            if prev is not None:
                assert lo >= prev[0] - 1e-10
                assert hi >= prev[1] - 1e-10
            prev = (lo, hi)

    @pytest.mark.parametrize(
        "z, alpha",
        [(POINT_I, 2.0), (POINT_RHO, 3.0), (POINT_GENERIC, 2.0)],
        ids=["i", "rho", "generic"],
    )
    def test_whitened_probe_matrix_matches_the_whitened_product(self, z, alpha):
        # the probe data of bergman-density at ball 10, over a refinement schedule
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 10.0)
        probes = bergman.probe_kernels(z.as_complex, 40)
        # the unit probes weighted to the plain kernels up to one factor
        weight = (probes.imag.min() / probes.imag) ** (alpha / 2.0)
        A = bergman.kernel_gram(probes, act(ball.elements, z.as_complex), alpha).T * weight
        D = bergman.kernel_gram(probes, probes, alpha).T * (weight[:, None] * weight)
        whitener = linalg.psd_eigen(D).whitener()
        C = A @ whitener
        # Hermitian to a few ulps, where B* (A* A) B is off by up to 1e-9
        assert hermitian_deviation(linalg.adjoint(C) @ C) <= 1e-15
        for count in (len(A) // 4, len(A) // 2, len(A)):
            lo, hi, _ = frames.frame_bounds_probe(A[:count], whitener)
            lo_product, hi_product = whitened_probe_extremes(A[:count], whitener)
            assert abs(hi - hi_product) <= PROBE_MAX_RTOL * hi_product
            lo_tol = min(PROBE_MIN_TOL * hi_product, PROBE_MIN_RTOL * lo_product)
            assert abs(lo - lo_product) <= lo_tol


class TestSpanEquality:
    # spans agree exactly when the numerical ranks of the two Gram matrices do
    def test_same_system(self):
        assert gram_of(E1, E2).rank == gram_of(E1, E2).rank

    def test_duplicated_vs_reduced(self):
        assert gram_of(E1, E1, E2, E2).rank == gram_of(E1, E2).rank

    def test_detects_genuine_difference(self):
        assert gram_of(E1, E2).rank != gram_of(E1).rank


class TestSRelation:
    # against the standard basis the compressed synthesis matrix is the orbit matrix
    def test_trivial_stabilizer_zero_residual(self):
        V = orbit_of(E1, E2)
        assert frames.s_relation_residual(V, V, 1) == 0.0

    def test_phase_duplicates(self):
        # duplicating each vector with a unimodular phase doubles the operator
        rng = np.random.default_rng(45)
        vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        phased = []
        for v in vecs:
            phased.extend([v, np.exp(1j * rng.uniform(0, 2 * np.pi)) * v])
        assert frames.s_relation_residual(orbit_of(*phased), orbit_of(*vecs), 2) <= 1e-12

    def test_phase_invariance_of_residual(self):
        rng = np.random.default_rng(46)
        vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
        phased = []
        for v in vecs:
            phased.extend([v, 1j * v])
        r1 = frames.s_relation_residual(orbit_of(*phased), orbit_of(*vecs), 2)
        rotated = [np.exp(0.7j) * v for v in phased]
        rotated_red = [np.exp(0.7j) * v for v in vecs]
        r2 = frames.s_relation_residual(orbit_of(*rotated), orbit_of(*rotated_red), 2)
        assert abs(r1 - r2) <= 1e-12

    def test_tiling_precondition(self):
        with pytest.raises(UsageError):
            frames.s_relation_residual(orbit_of(E1, E2), orbit_of(E1, E2), 2)


class TestParsevalNormCheck:
    def test_orthonormal_orbit(self):
        max_dev, gen_psq = parseval([E1, E2], [E1, E2], [0, 1], 1, E1)
        assert max_dev <= 1e-14
        assert abs(gen_psq - 1.0) <= 1e-12

    def test_duplicated_orbit(self):
        # {e1, e1} with stabiliser of order 2 against its transversal {e1}:
        # S_full = 2 e1 e1*, so ||S_full^-1/2 e1||^2 = 1/2
        max_dev, gen_psq = parseval([E1, E1], [E1], [0, 0], 2, E1)
        assert max_dev <= 1e-12
        assert abs(gen_psq - 0.5) <= 1e-12


class TestBiorthogonality:
    def test_orthonormal(self):
        assert biorthogonality(E1, E2) <= 1e-14

    def test_oblique_pair_hand_inverse(self):
        # {e1, e1+e2}: Gram [[1,1],[1,2]] is invertible; duality is exact
        assert biorthogonality(E1, E1 + E2) <= 1e-12

    def test_singular_rejected(self):
        with pytest.raises(NotRieszError):
            biorthogonality(E1, E1)


class TestSandwich:
    def test_parseval_case_equality(self):
        lower_slack, upper_slack, passed = frames.density_sandwich_check(1.0, 1.0, 0.5, 2.0, 1.0)
        assert passed
        assert abs(lower_slack) <= 1e-12
        assert abs(upper_slack) <= 1e-12

    def test_tight_finite_gabor_case(self):
        # full group of Z_n x Z_n: tight frame bound n ||g||^2, vol 1, d 1/n
        n, gsq = 4, 2.3
        bound = n * gsq
        lower_slack, _, passed = frames.density_sandwich_check(bound, bound, 1.0, 1.0 / n, gsq)
        assert passed
        assert abs(lower_slack) <= 1e-12 * bound

    def test_negative_control(self):
        # ||g||^2 / d = 1 lies below A vol = 3: only the lower side fails
        lower_slack, upper_slack, passed = frames.density_sandwich_check(3.0, 4.0, 1.0, 1.0, 1.0)
        assert lower_slack == -2.0 and upper_slack == 3.0
        assert not passed

    def test_arrays_checked_per_entry(self):
        lower_slack, upper_slack, passed = frames.density_sandwich_check(
            np.array([1.0, 3.0]), np.array([1.0, 4.0]), 1.0, 1.0, np.array([1.0, 1.0])
        )
        assert list(lower_slack) == [0.0, -2.0] and list(upper_slack) == [0.0, 3.0]
        assert list(passed) == [True, False]

    def test_covolumes_checked_per_entry(self):
        lower, upper, gsq = np.array([1.0, 3.0]), np.array([1.0, 4.0]), np.array([0.5, 1.0])
        covolume = np.array([0.5, 1.0])
        lower_slack, upper_slack, passed = frames.density_sandwich_check(lower, upper, covolume, 1.0, gsq)
        for i in range(2):
            one = frames.density_sandwich_check(lower[i], upper[i], covolume[i], 1.0, gsq[i])
            assert (lower_slack[i], upper_slack[i], passed[i]) == one
        assert list(passed) == [True, False]

    def test_precondition(self):
        with pytest.raises(UsageError):
            frames.density_sandwich_check(2.0, 1.0, 1.0, 1.0, 1.0)
        for covolume in ([1.0, 0.0], [-1.0, 1.0], [np.nan, 1.0]):
            with pytest.raises(UsageError):
                frames.density_sandwich_check(np.ones(2), np.ones(2), np.array(covolume), 1.0, np.ones(2))


def frame_report(**inputs) -> bergman.FrameReport:
    """A frame report of neutral inputs, but for the given ones."""
    defaults = dict(
        lattice="test", ball_norm=5.0, stab_order=1, covolume=1.0, formal_degree=0.1,
        gen_norm_sq=1.0, a_est=0.5, b_est=1.0, riesz_min=0.5, riesz_max=1.0,
        frame_decision=False, riesz_decision=False,
    )
    return bergman.FrameReport(**{**defaults, **inputs})


class TestDensityVerdict:
    def test_exact_mode_pass_at_equality(self):
        report = frame_report(
            ball_norm=float("inf"), stab_order=2, covolume=1.0, formal_degree=0.5,
            frame_decision=True, riesz_decision=True,
        )
        assert report.verdict_i_pass and report.verdict_ii_pass and report.consistent

    def test_numerical_mode_flags_only(self):
        report = frame_report(
            ball_norm=4.0, stab_order=2, covolume=1.0, formal_degree=1.0, frame_decision=True
        )
        assert not report.verdict_i_pass
        assert not report.consistent

    def test_haar_rescaling_invariance(self):
        vol, degree = covolume_psl2z_by_meshgrid(), 0.0795
        base = frame_report(
            lattice="psl2z", ball_norm=6.0, stab_order=2, covolume=vol, formal_degree=degree,
            frame_decision=True,
        )
        for c in (1.0 / 3.0, 7.0):
            scaled = frame_report(
                lattice="psl2z", ball_norm=6.0, stab_order=2, covolume=c * vol,
                formal_degree=degree / c, frame_decision=True,
            )
            assert abs(scaled.density_product - base.density_product) <= 1e-12 * base.density_product
            assert scaled.verdict_i_pass == base.verdict_i_pass
            assert scaled.consistent == base.consistent

    def test_flat_record_roundtrip(self):
        report = frame_report(diagnostics={"probe_trace_min": [0.1, 0.2], "probe_count": 7})
        record = report.to_flat_dict()
        assert record["schema_version"] == bergman.SCHEMA_VERSION
        assert record["diag_probe_count"] == 7
        assert record["diag_probe_trace_min"] == "0.1;0.2"

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ({"stab_order": 0}, "stabiliser order"),
            ({"a_est": 2.0, "b_est": 1.0}, "out of order"),
            ({"covolume": 0.0}, "product must be positive"),
            ({"formal_degree": -0.1}, "product must be positive"),
        ],
    )
    def test_inputs_refused(self, inputs, message):
        with pytest.raises(UsageError, match=message):
            frame_report(**inputs)
