import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    Moebius,
    distance,
    geodesic_annulus,
    meshgrid_above_graph,
    meshgrid_integrate,
    meshgrid_rectangle_log_y,
    scalar_canonical,
    scalar_compose,
    scalar_inverse,
    row_keys,
    scalar_key,
)
from orbitdensity.errors import UsageError
from orbitdensity.hyperbolic import (
    canonical,
    UpperHalfPoint,
    compose,
    inverse,
)

S = Moebius(0.0, -1.0, 1.0, 0.0)
T = Moebius(1.0, 1.0, 0.0, 1.0)
I2 = Moebius.identity()
POINT_I = UpperHalfPoint(0.0, 1.0)


def random_map(rng) -> Moebius:
    # Iwasawa-style sample: translation * dilation * rotation
    x = float(rng.uniform(-3.0, 3.0))
    s = float(rng.uniform(-1.5, 1.5))
    th = float(rng.uniform(0.0, math.pi))
    n = Moebius(1.0, x, 0.0, 1.0)
    a = Moebius(math.exp(s / 2.0), 0.0, 0.0, math.exp(-s / 2.0))
    k = Moebius(math.cos(th), math.sin(th), -math.sin(th), math.cos(th))
    return n.compose(a).compose(k)


def random_point(rng) -> UpperHalfPoint:
    return UpperHalfPoint(float(rng.uniform(-4.0, 4.0)), float(math.exp(rng.uniform(-1.5, 1.5))))


class TestMoebiusMap:
    def test_canonical_sign_and_det(self):
        m = Moebius(-2.0, 0.0, 0.0, -0.5)
        assert m.a > 0.0
        assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12

    def test_determinant_rescaled(self):
        m = Moebius(2.0, 0.0, 0.0, 2.0)
        assert m == I2

    def test_nonpositive_det_rejected(self):
        with pytest.raises(UsageError):
            Moebius(1.0, 0.0, 0.0, -1.0)

    def test_s_squared_is_identity(self):
        assert row_keys(compose(S, S)) == [I2.key()]

    def test_translation_addition(self):
        assert row_keys(compose(T, T)) == [Moebius(1.0, 2.0, 0.0, 1.0).key()]

    def test_inverse_law(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_map(rng)
            a, b, c, d = compose(m, inverse(m))
            assert max(abs(a - 1), abs(b), abs(c), abs(d - 1)) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m1, m2, m3 = (random_map(rng) for _ in range(3))
            lhs = compose(compose(m1, m2), m3)
            rhs = compose(m1, compose(m2, m3))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestRowArithmetic:
    EDGE_ROWS = [
        (-0.0, -1.0, 1.0, 0.0),
        (1e-15, -1.0, 1.0, -0.0),
        (-1e-15, 1.0, -1.0, 3.0),
        (-2.0, 0.0, 0.0, -0.5),
        (3.0, 1.0, 2.0, 1.0),
        (0.1, 0.7, -0.3, 1.9),
    ]

    def rows(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((300, 4)) * rng.choice([1e-15, 1e-3, 1.0, 1e3], size=(300, 4))
        raw = raw[raw[:, 0] * raw[:, 3] - raw[:, 1] * raw[:, 2] > 0.0]
        return np.vstack([self.EDGE_ROWS, raw])

    def test_rows_match_scalar_oracle_bit_for_bit(self):
        rows = self.rows(18)
        want = np.array([scalar_canonical(*r) for r in rows.tolist()])
        assert canonical(rows).tobytes() == want.tobytes()
        # products of wildly scaled rows lose their determinant to cancellation
        rng = np.random.default_rng(19)
        m = np.vstack([want[: len(self.EDGE_ROWS)], [random_map(rng) for _ in range(30)]])
        pairs = np.array([[scalar_compose(x, y) for y in m.tolist()] for x in m.tolist()])
        assert compose(m[:, None, :], m[None, :, :]).tobytes() == pairs.tobytes()
        assert inverse(m).tobytes() == np.array([scalar_inverse(x) for x in m.tolist()]).tobytes()
        assert row_keys(rows) == [scalar_key(r) for r in rows.tolist()]

    def test_nonpositive_det_rejected_with_its_value(self):
        with pytest.raises(UsageError, match=r"got -1\.0$"):
            canonical([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]])


class TestAction:
    def test_rotation_fixed_point(self):
        assert abs(S.act(POINT_I).as_complex - 1j) <= 1e-15

    def test_translation(self):
        assert abs(T.act(POINT_I).as_complex - (1 + 1j)) <= 1e-15

    def test_hand_value(self):
        m = Moebius(1.0, 1.0, 1.0, 2.0)
        # (i+1)/(i+2) = (3+i)/5
        assert abs(m.act(POINT_I).as_complex - (0.6 + 0.2j)) <= 1e-15

    def test_action_property(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m1, m2 = random_map(rng), random_map(rng)
            z = random_point(rng)
            lhs = m1.compose(m2).act(z).as_complex
            rhs = m1.act(m2.act(z)).as_complex
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestJFactor:
    def test_identity_is_one(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            assert I2.j_factor(random_point(rng)) == 1.0

    def test_translation_is_one(self):
        assert T.j_factor(POINT_I) == 1.0

    def test_rotation_at_i(self):
        # canonical representative of the inversion is (0, 1; -1, 0)
        assert abs(S.j_factor(POINT_I) - 1j) <= 1e-15

    def test_modulus_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = random_map(rng)
            z = random_point(rng)
            lhs = abs(m.j_factor(z)) ** 2
            rhs = m.act(z).y / z.y
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_cocycle_modulus(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            m1, m2 = random_map(rng), random_map(rng)
            z = random_point(rng)
            lhs = abs(m1.compose(m2).j_factor(z))
            rhs = abs(m1.j_factor(m2.act(z))) * abs(m2.j_factor(z))
            assert abs(lhs - rhs) <= 1e-12 * rhs


class TestDistance:
    def test_zero(self):
        z = UpperHalfPoint(0.3, 0.7)
        assert distance(z, z) == 0.0

    def test_log_two(self):
        # cosh d = 1 + 1/4 = 5/4, acosh(5/4) = ln 2
        d = distance(POINT_I, UpperHalfPoint(0.0, 2.0))
        assert abs(d - math.log(2.0)) <= 1e-14

    def test_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_map(rng)
            z, w = random_point(rng), random_point(rng)
            d1 = distance(z, w)
            d2 = distance(m.act(z), m.act(w))
            assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)

    def test_point_validation(self):
        with pytest.raises(UsageError):
            UpperHalfPoint(0.0, 0.0)
        with pytest.raises(UsageError):
            UpperHalfPoint(0.0, -1.0)


class TestQuadrature:
    def test_zero_integrand(self):
        nodes = meshgrid_rectangle_log_y(-1.0, 1.0, -1.0, 1.0, 16, 16)
        assert meshgrid_integrate(nodes, lambda x, y: np.zeros_like(x)) == 0.0

    def test_modular_domain_area(self):
        # area of {|x| <= 1/2, |z| >= 1} under y^-2 dx dy reduces to
        # the 1-d integral of (1 - x^2)^(-1/2); adaptive quadrature oracle
        oracle, oracle_err = quad(lambda x: 1.0 / math.sqrt(1.0 - x * x), -0.5, 0.5)
        assert abs(oracle - math.pi / 3.0) <= 1e-10
        nodes = meshgrid_above_graph(-0.5, 0.5, lambda x: np.sqrt(1.0 - x * x), 400, 600, 16.0)
        value = meshgrid_integrate(nodes, lambda x, y: np.ones_like(x))
        assert abs(value - oracle) <= 1e-4 * oracle

    def test_weighted_strip_against_1d_oracle(self):
        # f = y^a (1+y)^(1-2a) on a strip [0,1] x [ya, yb] against y^-2 dx dy
        a = 2.5
        oracle, _ = quad(lambda y: y ** (a - 2.0) * (1.0 + y) ** (1.0 - 2.0 * a), 0.1, 10.0)
        nodes = meshgrid_rectangle_log_y(0.0, 1.0, math.log(0.1), math.log(10.0), 200, 400)
        value = meshgrid_integrate(nodes, lambda x, y: y**a * (1.0 + y) ** (1.0 - 2.0 * a))
        assert abs(value - oracle) <= 1e-6 * abs(oracle)

    def test_weights_positive_nodes_inside(self):
        xs, ys, weights = meshgrid_above_graph(-0.5, 0.5, lambda x: np.sqrt(1.0 - x * x), 32, 32, 10.0)
        assert np.all(weights > 0.0)
        assert np.all(ys >= np.sqrt(1.0 - xs**2) - 1e-12)

    def test_measure_invariance_refinement(self):
        m = Moebius(2.0, 1.0, 1.0, 1.0)
        minv = m.inverse()

        def bump(x, y):
            d2 = np.log(y / 2.0) ** 2 + (x / y) ** 2
            return np.exp(-3.0 * d2)

        def bump_pulled(x, y):
            z = (minv.a * (x + 1j * y) + minv.b) / (minv.c * (x + 1j * y) + minv.d)
            d2 = np.log(z.imag / 2.0) ** 2 + (z.real / z.imag) ** 2
            return np.exp(-3.0 * d2)

        disagreements = []
        for n in (300, 600):
            nodes = meshgrid_rectangle_log_y(-48.0, 48.0, -6.0, 6.0, 8 * n, n)
            v1 = meshgrid_integrate(nodes, bump)
            v2 = meshgrid_integrate(nodes, bump_pulled)
            disagreements.append(abs(v1 - v2) / abs(v1))
        assert disagreements[1] < disagreements[0]

    def test_annulus_matches_radial_oracle(self):
        # the integrand depends only on the distance to i, so geodesic polar
        # coordinates reduce it to a 1-d profile integral
        def radial(x, y):
            return (4.0 * y / (x**2 + (y + 1.0) ** 2)) ** 2

        oracle, _ = quad(lambda r: 2.0 * math.sinh(r) * math.cosh(r / 2.0) ** (-4.0), 0.0, 14.0)
        oracle *= math.pi
        annulus = geodesic_annulus(POINT_I, 0.0, 14.0, 1200, 64)
        v_ann = meshgrid_integrate(annulus, radial)
        assert abs(v_ann - oracle) <= 1e-5 * oracle
        rect = meshgrid_rectangle_log_y(-60.0, 60.0, math.log(1e-4), math.log(1e4), 1024, 512)
        v_rect = meshgrid_integrate(rect, radial)
        assert abs(v_rect - v_ann) <= 2e-3 * v_ann
