import math

import numpy as np
import pytest
from oracles import Moebius, distance, formal_degree_by_meshgrid, formal_degree_rectangle, kernel_value
from oracles import meshgrid_integrate, meshgrid_rectangle_log_y, point_array, point_stabilizer, traced_peak
from oracles import unit_gram_extended
from scipy.integrate import quad

from orbitdensity import bergman, fuchsian, linalg
from orbitdensity.bergman import Weight, formal_degree_closed_form, kernel_gram, kernel_norm_sq
from orbitdensity.errors import OracleInconsistencyError, ResourceLimitError, UsageError
from orbitdensity.hyperbolic import UpperHalfPoint, act, rounding_bound

POINT_I = UpperHalfPoint(0.0, 1.0)
POINT_2I = UpperHalfPoint(0.0, 2.0)
S = Moebius(0.0, -1.0, 1.0, 0.0)
T = Moebius(1.0, 1.0, 0.0, 1.0)


def random_map(rng) -> Moebius:
    x = float(rng.uniform(-3.0, 3.0))
    s = float(rng.uniform(-1.5, 1.5))
    th = float(rng.uniform(0.0, math.pi))
    n = Moebius(1.0, x, 0.0, 1.0)
    a = Moebius(math.exp(s / 2.0), 0.0, 0.0, math.exp(-s / 2.0))
    k = Moebius(math.cos(th), math.sin(th), -math.sin(th), math.cos(th))
    return n.compose(a).compose(k)


def random_point(rng) -> UpperHalfPoint:
    return UpperHalfPoint(float(rng.uniform(-5.0, 5.0)), float(math.exp(rng.uniform(-2.3, 2.3))))


def inner(z: UpperHalfPoint, u: UpperHalfPoint, w: Weight) -> complex:
    """<u_z, u_u> from the array assembly."""
    return complex(kernel_gram(point_array([z]), point_array([u]), w.alpha)[0, 0])


def moved(m: Moebius, z: UpperHalfPoint) -> UpperHalfPoint:
    """Point of pi(m) k_z from the array action."""
    w = complex(act([m], z.as_complex)[0])
    return UpperHalfPoint(w.real, w.imag)


def norm_sq(z: UpperHalfPoint, w: Weight) -> float:
    return kernel_norm_sq(z.as_complex, w.alpha)


class TestKernel:
    def test_weight_validation(self):
        with pytest.raises(UsageError):
            Weight(1.0)

    def test_value_at_center_alpha_two(self):
        # k_i(i) = 1 / (4 pi), and the unit kernel's is 1
        assert abs(norm_sq(POINT_I, Weight(2.0)) - 1.0 / (4.0 * math.pi)) <= 1e-15
        assert inner(POINT_I, POINT_I, Weight(2.0)) == 1.0

    def test_diagonal_closed_form_and_positivity(self):
        rng = np.random.default_rng(21)
        for alpha in (1.5, 2.0, 3.0, 4.5, 7.0, 12.0):
            points = [random_point(rng) for _ in range(20)]
            orbit = point_array(points)
            diag = np.diag(kernel_gram(orbit, orbit, alpha))
            assert np.all(diag.real > 0.0)
            assert np.all(np.abs(diag.imag) <= 1e-12 * diag.real)
            assert np.all(np.abs(diag.real - 1.0) <= 2.0 * alpha * rounding_bound(orbit))

    def test_reproducing_property_on_kernel_combinations(self):
        # <f, k_target> for f = sum c_j k_{z_j} equals f(target) evaluated
        # pointwise by the scalar kernel formula; k_z = ||k_z|| u_z
        rng = np.random.default_rng(22)
        w = Weight(3.0)
        centers = [random_point(rng) for _ in range(4)]
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        target = random_point(rng)
        f_at_target = sum(
            c * kernel_value(z.as_complex, target.as_complex, w.alpha)
            for c, z in zip(coeffs, centers)
        )
        norms = np.sqrt([norm_sq(z, w) for z in (*centers, target)])
        unit_inners = kernel_gram(point_array(centers), point_array([target]), w.alpha)[:, 0]
        inner_with_kernel = np.sum(coeffs * norms[:-1] * unit_inners) * norms[-1]
        assert abs(inner_with_kernel - f_at_target) <= 1e-13 * abs(f_at_target)

    def test_pair_ratio_hand_value(self):
        # |<u_i, u_2i>|^2 = (8/9)^alpha since |i - conj(2i)| = 3 while the
        # diagonal distances give 2 and 4
        for alpha in (2.0, 3.0, 4.5):
            ratio = abs(inner(POINT_I, POINT_2I, Weight(alpha))) ** 2
            assert abs(ratio - (8.0 / 9.0) ** alpha) <= 1e-12

    def test_norms_hand_values(self):
        w = Weight(2.0)
        assert abs(norm_sq(POINT_I, w) - 1.0 / (4.0 * math.pi)) <= 1e-15
        assert abs(norm_sq(POINT_2I, w) - 1.0 / (16.0 * math.pi)) <= 1e-16

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(23)
        w = Weight(3.5)
        left = point_array([random_point(rng) for _ in range(200)])
        right = point_array([random_point(rng) for _ in range(200)])
        lhs = kernel_gram(left, right, w.alpha)
        rhs = kernel_gram(right, left, w.alpha).conj().T
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(lhs), 1e-300))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(bergman, "GRAM_SIZE_CAP", 2)
        orbit = point_array([POINT_I, POINT_2I, UpperHalfPoint(1.0, 1.0)])
        assert kernel_gram(orbit, point_array([POINT_I]), 2.0).shape == (3, 1)
        with pytest.raises(ResourceLimitError):
            kernel_gram(orbit, orbit, 2.0)

    def test_leading_block_is_bitwise_the_gram_of_the_leading_vectors(self):
        # the 506 x 506 Gram at rho is past the size (256 KiB) where numpy
        # computes a temporary's product in place, its small blocks are not;
        # the operand order of every product must not depend on that
        z = complex(0.5, math.sqrt(3.0) / 2.0)
        orbit = act(fuchsian.ball_enumerate(fuchsian.psl2z(), 13.0).elements, z)
        probes = bergman.probe_kernels(z, 40)
        G = kernel_gram(orbit, orbit, 3.0)
        B = kernel_gram(orbit, probes, 3.0)
        assert G.shape == (506, 506)
        for k in (1, 63, 64, 65, 100, 300):
            lead = orbit[:k]
            assert np.array_equal(G[:k, :k], kernel_gram(lead, lead, 3.0))
            assert np.array_equal(B[:k], kernel_gram(lead, probes, 3.0))

    def test_assembly_holds_one_buffer(self):
        orbit = act(fuchsian.ball_enumerate(fuchsian.psl2z(), 13.0).elements, 0.3 + 1.5j)
        G, peak = traced_peak(kernel_gram, orbit, orbit, 2.0)
        # the Gram, its row and column factors and numpy's ufunc buffers
        # (2 x 8192 entries), which are less than two strips of 64 rows here
        assert peak <= G.nbytes * (1.0 + 2.0 * linalg.ROW_BLOCK / len(orbit))

    def test_entries_stay_in_range_at_extreme_weights(self):
        # points down to Im w = 1e-6 and weights up to 1000: every entry has
        # modulus cosh(d/2)^-alpha <= 1, to alpha times the rounding bounds
        rng = np.random.default_rng(31)
        z = rng.uniform(-5.0, 5.0, 60) + 1j * np.geomspace(1e-6, 1e3, 60)
        r = rounding_bound(z)
        for alpha in (2.0, 30.0, 300.0, 1000.0):
            G = kernel_gram(z, z, alpha)
            assert np.all(np.isfinite(G))
            assert np.all(np.abs(G) <= 1.0 + alpha * (r[:, None] + r[None, :]))
            assert np.all(np.abs(np.diag(G) - 1.0) <= 2.0 * alpha * r)

    @pytest.mark.parametrize("alpha", [3.0, 13.0, 60.0, 150.0])
    @pytest.mark.parametrize("z", [POINT_I, UpperHalfPoint(0.3, 1.5)], ids=["i", "generic"])
    def test_matches_an_extended_precision_reassembly(self, z, alpha):
        # each entry is within alpha (r_i + r_j) of its value at the same
        # points, so the spectral norm of the error is within 2 alpha k max r
        for norm in (6.0, 10.0, 14.0):
            ball = fuchsian.ball_enumerate(fuchsian.psl2z(), norm)
            orbit = act(ball.elements, z.as_complex)
            error = (kernel_gram(orbit, orbit, alpha) - unit_gram_extended(orbit, orbit, alpha)).astype(complex)
            assert np.linalg.norm(error, 2) <= 2.0 * alpha * len(orbit) * np.max(rounding_bound(orbit))

    def test_norm_by_weighted_quadrature_slow_cross_check(self):
        # independent of the closed form: ||k_z||^2 equals the
        # integral of |k_z(w)|^2 against y^(alpha-2) dx dy
        cases = [
            (2.0, UpperHalfPoint(0.0, 1.0), 1e-3),
            (3.5, UpperHalfPoint(0.7, 1.3), 1e-5),
            (6.0, UpperHalfPoint(-2.0, 0.5), 1e-9),
        ]
        for alpha, z, tol in cases:
            nodes = meshgrid_rectangle_log_y(*formal_degree_rectangle(alpha, z, nx=1600, nt=900))
            const = 2.0 ** (alpha - 2.0) / math.pi * (alpha - 1.0)
            zbar = complex(z.x, -z.y)

            def integrand(x, y):
                values = const * np.exp(1j * math.pi * alpha / 2.0) * ((x + 1j * y) - zbar) ** (-alpha)
                return np.abs(values) ** 2 * y**alpha

            quadrature = meshgrid_integrate(nodes, integrand)
            diagonal = kernel_norm_sq(z.as_complex, alpha)
            assert abs(quadrature - diagonal) <= tol * diagonal

    def test_correlation_identity(self):
        rng = np.random.default_rng(24)
        for alpha in (2.0, 3.0, 4.5):
            w = Weight(alpha)
            for _ in range(1000):
                z, u = random_point(rng), random_point(rng)
                lhs = abs(inner(z, u, w)) ** 2
                rhs = math.cosh(distance(z, u) / 2.0) ** (-2.0 * alpha)
                assert abs(lhs - rhs) <= 1e-10


class TestAction:
    def test_identity(self):
        assert moved(Moebius.identity(), POINT_I) == POINT_I

    def test_translation(self):
        point = moved(T, POINT_I)
        assert abs(point.as_complex - (1.0 + 1.0j)) <= 1e-15

    def test_inversion_at_2i(self):
        w = Weight(2.0)
        point = moved(S, POINT_2I)
        assert abs(point.as_complex - 0.5j) <= 1e-15
        # pi(S) k_2i = c k_0.5i with |c| = ||k_2i|| / ||k_0.5i|| = |j(S, 2i)|^alpha = 1/4
        ratio = norm_sq(POINT_2I, w) / norm_sq(point, w)
        assert abs(math.sqrt(ratio) - 0.25) <= 1e-15

    def test_unitarity(self):
        # pi(m) is unitary, so the moved unit kernels keep their overlaps up
        # to a unimodular factor, and are unit vectors
        rng = np.random.default_rng(25)
        for alpha in (2.0, 3.7, 6.0):
            for _ in range(200):
                m = random_map(rng)
                k, k2 = point_array([random_point(rng)]), point_array([random_point(rng)])
                t, t2 = act([m], k), act([m], k2)
                assert abs(kernel_gram(t, t, alpha)[0, 0] - 1.0) <= 1e-12
                assert abs(abs(kernel_gram(t, t2, alpha)[0, 0]) - abs(kernel_gram(k, k2, alpha)[0, 0])) <= 1e-10


class TestOrbitInner:
    def test_self_inner_positive(self):
        t = act([Moebius(1.0, 0.5, 0.0, 1.0)], point_array([POINT_I]))
        value = complex(kernel_gram(t, t, 2.0)[0, 0])
        assert value.real > 0.0
        assert abs(value.imag) <= 1e-15 * value.real
        assert abs(value.real - 1.0) <= 1e-15

    def test_reduces_to_kernel_inner(self):
        # the unit kernels' inner product is the kernel value k_i(2i) over the norms
        w = Weight(2.0)
        value = inner(POINT_I, POINT_2I, w)
        oracle = kernel_value(POINT_I.as_complex, POINT_2I.as_complex, w.alpha) / math.sqrt(
            norm_sq(POINT_I, w) * norm_sq(POINT_2I, w)
        )
        assert abs(value - oracle) <= 1e-15 * abs(oracle)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(30)
        w = Weight(3.1)
        for _ in range(100):
            t1 = act([random_map(rng)], point_array([random_point(rng)]))
            t2 = act([random_map(rng)], point_array([random_point(rng)]))
            lhs = complex(kernel_gram(t1, t2, w.alpha)[0, 0])
            rhs = complex(kernel_gram(t2, t1, w.alpha)[0, 0]).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-300)


def beta_integral_oracle(alpha: float) -> float:
    """Independent 1-d reduction of the squared-coefficient integral.

    The horizontal integral of (x^2 + A^2)^-alpha is A^(1-2 alpha) times
    the half-integer beta value; the remaining vertical integral is done
    by adaptive quadrature. Formal degree = 1 / (2^(2 alpha) * I).
    """
    x_profile = quad(lambda s: (1.0 + s * s) ** (-alpha), -np.inf, np.inf)[0]
    vertical = quad(
        lambda y: y ** (alpha - 2.0) * (1.0 + y) ** (1.0 - 2.0 * alpha) * x_profile,
        0.0,
        np.inf,
    )[0]
    return 1.0 / (2.0 ** (2.0 * alpha) * vertical)


class TestFormalDegree:
    # the closed form against the meshgrid quadrature of the square-integrability integral
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
    def test_against_beta_oracle(self, alpha):
        oracle = beta_integral_oracle(alpha)
        # the oracle itself reproduces the closed form (alpha-1)/(4 pi)
        assert abs(oracle - formal_degree_closed_form(Weight(alpha))) <= 1e-8 * oracle
        value = formal_degree_by_meshgrid(alpha)["formal_degree"]
        # the x-range truncation of the default grid: 6.9e-5 relative at alpha = 2
        assert abs(value - oracle) <= 1e-4 * oracle

    def test_refinement_reduces_error(self):
        oracle = beta_integral_oracle(2.0)
        errors = []
        for nx, nt in ((96, 48), (192, 96), (384, 192)):
            value = formal_degree_by_meshgrid(2.0, nx=nx, nt=nt)["formal_degree"]
            errors.append(abs(value - oracle))
        assert errors[2] < errors[1] < errors[0]

    def test_haar_scale_division_exact(self):
        w = Weight(3.0)
        assert formal_degree_closed_form(w, 4.0) == formal_degree_closed_form(w) / 4.0
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(UsageError, match=f"haar_scale must be positive and finite, got {scale}"):
                formal_degree_closed_form(w, scale)

    def test_base_point_independence(self):
        d_i = formal_degree_by_meshgrid(2.0)["formal_degree"]
        d_moved = formal_degree_by_meshgrid(2.0, UpperHalfPoint(1.0, 2.0))["formal_degree"]
        assert abs(d_moved - d_i) <= 1e-6 * d_i

    def test_diagnostics(self):
        diag = formal_degree_by_meshgrid(2.0)
        assert diag["node_count"] == 1536 * 768
        assert diag["est_rel_error"] >= 0.0
        assert diag["formal_degree"] == 1.0 / diag["integral"] > 0.0


@pytest.fixture(scope="module")
def ball():
    return fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)


class TestKernelStabilizer:
    def test_orders_and_phases(self, ball):
        w = Weight(2.0)
        cases = [
            (POINT_I, 2),
            (UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0), 3),
            (POINT_2I, 1),
        ]
        for z, expected_order in cases:
            orbit = act(ball.elements, z.as_complex)
            members, phases = bergman.projective_stabilizer_kernel(ball, z, w.alpha, orbit)
            assert len(members) == expected_order
            for u in phases:
                assert abs(abs(u) - 1.0) <= 1e-10
            identity = ball.index_of(Moebius.identity())
            assert abs(phases[list(members).index(identity)] - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 60.0])
    @pytest.mark.parametrize(
        "g, w, order",
        [((3.0, 2.0, 1.0, 1.0), complex(0.5, math.sqrt(3.0) / 2.0), 3), ((2.0, 1.0, 1.0, 1.0), 1j, 2)],
        ids=["(3,2;1,1)rho", "(2,1;1,1)i"],
    )
    def test_rotations_of_large_norm_fix_their_point_to_rounding(self, g, w, order, alpha):
        # The rotations about (3,2;1,1) rho ~ 2.5+0.2887i in the ball of norm
        # 22 have norm ~22 and move z by at most 1.9e-15 in Moebius
        # evaluation, inside the rounding bound 1.2e-13 of z.
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 22.0)
        z = complex(act(g, w))
        z = UpperHalfPoint(z.real, z.imag)
        point_members = point_stabilizer(ball, z)
        members, phases = bergman.projective_stabilizer_kernel(ball, z, alpha, act(ball.elements, z.as_complex))
        assert len(point_members) == order
        assert np.array_equal(members, point_members)
        assert np.all(np.abs(np.abs(phases) - 1.0) <= 1e-12)

    def test_a_perturbed_overlap_is_an_inconsistency(self, ball, monkeypatch):
        # one overlap scaled by 1 + 1e-9: it no longer matches
        # cosh(d/2)^-alpha of its point's distance
        def perturbed(left, right, alpha):
            G = kernel_gram(left, right, alpha)
            G[len(G) // 2] *= 1.0 + 1e-9
            return G

        monkeypatch.setattr(bergman, "kernel_gram", perturbed)
        z = UpperHalfPoint(0.3, 1.5)
        with pytest.raises(OracleInconsistencyError, match="overlaps disagree"):
            bergman.projective_stabilizer_kernel(ball, z, 2.0, act(ball.elements, z.as_complex))


class TestProbeKernels:
    def test_count_and_weights(self):
        center = UpperHalfPoint(0.3, 0.8)
        probes = bergman.probe_kernels(center.as_complex, 17)
        assert probes.shape == (17,) and probes.dtype == complex
        # the spiral's radii sqrt((p + 1/2) / 17) PROBE_RADIUS, all below PROBE_RADIUS
        radii = [distance(UpperHalfPoint(z.real, z.imag), center) for z in probes]
        np.testing.assert_allclose(radii, bergman.PROBE_RADIUS * np.sqrt((np.arange(17) + 0.5) / 17), rtol=1e-9)
        assert max(radii) <= bergman.PROBE_RADIUS

    def test_deterministic(self):
        a = bergman.probe_kernels(1j, 8)
        b = bergman.probe_kernels(1j, 8)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "make",
    [
        lambda: linalg.PSDSpectrum(np.array([1.0]), None),
        lambda: fuchsian.CosetSystem(np.array([0]), np.array([[0]])),
    ],
    ids=["PSDSpectrum", "CosetSystem"],
)
def test_array_records_compare_and_hash_by_identity(make):
    # field-wise equality would take the truth value of an array, and an array has no hash
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
