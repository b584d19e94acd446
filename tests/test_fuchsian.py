import math

import numpy as np
import pytest
from oracles import (
    Moebius,
    covolume_psl2z_by_meshgrid,
    integer_ball_by_meshgrid,
    point_stabilizer,
    restricted,
    row_keys,
    traced_peak,
)

from orbitdensity import fuchsian
from orbitdensity.errors import ResourceLimitError, UsageError
from orbitdensity.hyperbolic import (
    UpperHalfPoint,
    compose,
    frobenius_sq,
    inverse,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
POINT_I = UpperHalfPoint(0.0, 1.0)
POINT_RHO = UpperHalfPoint(0.5, SQRT3 / 2.0)  # primitive sixth root of unity
POINT_2I = UpperHalfPoint(0.0, 2.0)


def keyset(elements):
    return set(row_keys(elements))


@pytest.fixture(scope="module")
def ball6():
    return fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)


@pytest.fixture(scope="module")
def ball3():
    return fuchsian.ball_enumerate(fuchsian.psl2z(), 3.0)


class TestIntegerBallOracle:
    def test_smallest_ball(self):
        rows = fuchsian.brute_force_integer_ball(SQRT2)
        expected = keyset([Moebius.identity(), Moebius(0.0, -1.0, 1.0, 0.0)])
        assert keyset(rows) == expected

    def test_sqrt3_ball_exact_set(self):
        # exhaustive hand enumeration of unit-determinant integer matrices
        # with squared norm <= 3, up to overall sign
        hand = [
            (1, 0, 0, 1),
            (0, -1, 1, 0),
            (1, 1, 0, 1),
            (1, -1, 0, 1),
            (1, 0, 1, 1),
            (1, 0, -1, 1),
            (0, -1, 1, 1),
            (0, -1, 1, -1),
            (1, -1, 1, 0),
            (1, 1, -1, 0),
        ]
        expected = keyset([Moebius(*map(float, t)) for t in hand])
        rows = fuchsian.brute_force_integer_ball(SQRT3)
        assert keyset(rows) == expected
        assert len(rows) == 10

    def test_norm_below_identity_rejected(self):
        with pytest.raises(UsageError):
            fuchsian.brute_force_integer_ball(0.0)
        with pytest.raises(UsageError):
            fuchsian.brute_force_integer_ball(SQRT2 - 1e-6)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_norm_rejected(self, bound):
        # NaN compares false with everything, so a lower bound alone passes it
        message = f"norm_bound must be finite and at least sqrt\\(2\\), got {bound}"
        with pytest.raises(UsageError, match=message):
            fuchsian.brute_force_integer_ball(bound)
        with pytest.raises(UsageError, match=message):
            fuchsian.ball_enumerate(fuchsian.psl2z(), bound)

    def test_bound_cap(self):
        with pytest.raises(ResourceLimitError):
            fuchsian.brute_force_integer_ball(31.0)

    @pytest.mark.parametrize("bound", [SQRT2, SQRT3, 2.0, 3.0, 4.5, 7.0, 10.0, 13.0, 17.0, 22.5, 30.0])
    def test_slabs_match_whole_cube(self, bound):
        rows = fuchsian.brute_force_integer_ball(bound)
        oracle = integer_ball_by_meshgrid(bound)
        assert rows.dtype == oracle.dtype
        assert np.array_equal(rows, oracle)
        # distinct rows in norm order that hold the identity: a valid ball
        fuchsian.GroupBall(bound, rows, closure_certified=True)

    def test_memory_is_far_below_the_whole_cube(self):
        # (2m + 1)^2 entries per slab against (2m + 1)^3 for the cube, m = 30
        ball, peak = traced_peak(fuchsian.brute_force_integer_ball, 30.0)
        _, cube_peak = traced_peak(integer_ball_by_meshgrid, 30.0)
        assert peak < cube_peak / 8


class TestBallEnumerate:
    def test_matches_oracle_small(self):
        spec = fuchsian.psl2z()
        ball = fuchsian.ball_enumerate(spec, SQRT2)
        oracle = fuchsian.brute_force_integer_ball(SQRT2)
        assert keyset(ball.elements) == keyset(oracle)
        assert ball.closure_certified

    @pytest.mark.parametrize("bound", [2.0, 5.0, 10.0])
    def test_matches_oracle(self, bound):
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), bound)
        oracle = fuchsian.brute_force_integer_ball(bound)
        assert keyset(ball.elements) == keyset(oracle)
        assert ball.closure_certified

    def test_closed_under_inverse(self):
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)
        keys = keyset(ball.elements)
        for key in row_keys(inverse(ball.elements)):
            assert key in keys

    def test_norm_below_identity_rejected(self):
        with pytest.raises(UsageError):
            fuchsian.ball_enumerate(fuchsian.psl2z(), SQRT2 - 1e-6)

    def test_element_cap(self, monkeypatch):
        monkeypatch.setattr(fuchsian, "MAX_BALL_ELEMENTS", 20)
        with pytest.raises(ResourceLimitError, match="exceeded 20 elements"):
            fuchsian.ball_enumerate(fuchsian.psl2z(), 10.0)

    def test_oracle_disagreement_warns_and_leaves_the_ball_uncertified(self, monkeypatch):
        oracle = fuchsian.brute_force_integer_ball
        monkeypatch.setattr(fuchsian, "brute_force_integer_ball", lambda bound: oracle(bound)[:-1])
        with pytest.warns(UserWarning, match="disagrees with the integer oracle at bound 5.0"):
            ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 5.0)
        assert ball.closure_certified is False
        # the enumeration itself is whole: only the oracle missed an element
        assert np.array_equal(ball.elements, oracle(5.0))

    def test_duplicate_or_missing_identity_rejected(self):
        rotation = Moebius(0.0, -1.0, 1.0, 0.0)
        with pytest.raises(UsageError, match="duplicate"):
            fuchsian.GroupBall(2.0, (rotation, rotation, Moebius.identity()), closure_certified=False)
        with pytest.raises(UsageError, match="identity"):
            fuchsian.GroupBall(2.0, (rotation,), closure_certified=False)
        with pytest.raises(UsageError, match="identity"):
            fuchsian.GroupBall(2.0, np.empty((0, 4)), closure_certified=False)

    def test_out_of_order_elements_rejected(self):
        elliptic = Moebius(1.0, -1.0, 1.0, 0.0)
        with pytest.raises(UsageError, match="sorted"):
            fuchsian.GroupBall(2.0, (elliptic, Moebius.identity()), closure_certified=False)

    def test_restricted_is_prefix_closed(self):
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)
        sub = restricted(ball, 3.0)
        oracle = fuchsian.brute_force_integer_ball(3.0)
        assert keyset(sub.elements) == keyset(oracle)


class TestStabilizer:
    def test_order_two_at_i(self, ball6):
        members = point_stabilizer(ball6, POINT_I)
        assert len(members) == 2
        assert keyset(ball6.elements[members]) == keyset(
            [Moebius.identity(), Moebius(0.0, -1.0, 1.0, 0.0)]
        )

    def test_trivial_at_2i(self, ball6):
        members = point_stabilizer(ball6, POINT_2I)
        assert len(members) == 1

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_rounding_level_tolerances_resolve(self, ball6, tol):
        # S moves 1.000000001i by 2e-9, a distance that an arccosh form
        # rounds to 0
        members = point_stabilizer(ball6, UpperHalfPoint(0.0, 1.000000001), tol=tol)
        assert keyset(ball6.elements[members]) == keyset([Moebius.identity()])

    def test_order_three_at_rho(self, ball6):
        members = point_stabilizer(ball6, POINT_RHO)
        assert len(members) == 3
        assert Moebius(1.0, -1.0, 1.0, 0.0).key() in keyset(ball6.elements[members])

    @pytest.mark.parametrize("bound", range(2, 11))
    def test_orders_stable_as_ball_grows(self, bound):
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), float(bound))
        orders = [
            len(point_stabilizer(ball, z))
            for z in (POINT_I, POINT_RHO, POINT_2I)
        ]
        assert orders == [2, 3, 1]

    def test_group_closure(self, ball6):
        members = ball6.elements[point_stabilizer(ball6, POINT_RHO)]
        keys = keyset(members)
        for g1 in members:
            assert row_keys(inverse(g1))[0] in keys
            for g2 in members:
                assert row_keys(compose(g1, g2))[0] in keys

    def test_tol_validation(self, ball6):
        with pytest.raises(UsageError):
            point_stabilizer(ball6, POINT_I, tol=1e-3)

    def test_warns_when_ball_truncates_the_group(self):
        # hand-built ball that contains the order-3 elliptic element but
        # not its square, so closure within the ball must fail
        elliptic = Moebius(1.0, -1.0, 1.0, 0.0)
        crippled = fuchsian.GroupBall(
            norm_bound=2.0,
            elements=(Moebius.identity(), elliptic),
            closure_certified=False,
        )
        with pytest.warns(UserWarning, match="not closed"):
            members = point_stabilizer(crippled, POINT_RHO)
        assert len(members) == 2


def representatives(ball, cs):
    return ball.elements[cs.rep_index]


class TestCosetSystem:
    def test_trivial_stabilizer(self, ball3):
        cs = fuchsian.coset_representatives(ball3, ball3.index_of([Moebius.identity()]))
        assert keyset(representatives(ball3, cs)) == keyset(ball3.elements)
        assert np.all(cs.tile >= 0)

    def test_stabilizer_equals_ball(self):
        # degenerate case: the two-element ball is itself a subgroup
        ball = fuchsian.ball_enumerate(fuchsian.psl2z(), SQRT2)
        cs = fuchsian.coset_representatives(ball, np.arange(len(ball.elements)))
        assert row_keys(representatives(ball, cs)) == [Moebius.identity().key()]

    def test_halving_at_i(self, ball3):
        stab = point_stabilizer(ball3, POINT_I)
        cs = fuchsian.coset_representatives(ball3, stab)
        assert len(cs.rep_index) == len(ball3.elements) // 2
        assert Moebius.identity().key() in keyset(representatives(ball3, cs))

    def test_tiling_factorisation_exact(self, ball3):
        bound_sq = ball3.norm_bound**2 + 1e-9
        for z in (POINT_I, POINT_RHO):
            stab = point_stabilizer(ball3, z)
            cs = fuchsian.coset_representatives(ball3, stab)
            assert cs.tile.shape == (len(cs.rep_index), len(stab))
            for rep, row in zip(representatives(ball3, cs), cs.tile):
                for h, j in zip(ball3.elements[stab], row):
                    product = compose(rep, h)
                    if j >= 0:
                        assert row_keys(ball3.elements[j]) == row_keys(product)
                    else:
                        assert frobenius_sq(product) > bound_sq
        # elliptic elements of order 3 are not isometries of the norm, so
        # some cosets at rho leave the ball
        assert np.any(cs.tile < 0)

    def test_factorisation_unique(self, ball3):
        # every ball index appears in the tiling exactly once
        for z in (POINT_I, POINT_RHO):
            cs = fuchsian.coset_representatives(ball3, point_stabilizer(ball3, z))
            assert sorted(cs.tile[cs.tile >= 0]) == list(range(len(ball3.elements)))

    @pytest.mark.parametrize("z", [POINT_I, POINT_RHO, POINT_2I])
    def test_rep_index_increasing(self, ball6, z):
        cs = fuchsian.coset_representatives(ball6, point_stabilizer(ball6, z))
        assert np.all(np.diff(cs.rep_index) > 0)

    def test_representatives_stable_under_growth(self):
        big = fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)
        small = restricted(big, 4.0)
        stab = point_stabilizer(big, POINT_I)
        cs_big = fuchsian.coset_representatives(big, stab)
        cs_small = fuchsian.coset_representatives(small, small.index_of(big.elements[stab]))
        reps_big = representatives(big, cs_big)
        reps_big_restricted = keyset(reps_big[frobenius_sq(reps_big) <= 16.0 + 1e-9])
        assert reps_big_restricted == keyset(representatives(small, cs_small))

    def test_non_subgroup_rejected(self, ball3):
        with pytest.raises(UsageError):
            fuchsian.coset_representatives(ball3, ball3.index_of([Moebius(1.0, 1.0, 0.0, 1.0)]))


class TestCovolume:
    # the Gauss-Bonnet covolume against the midpoint quadrature over the
    # modular fundamental domain, its independent second path
    def test_against_oracle(self):
        value = fuchsian.lattice_covolume(fuchsian.psl2z())
        assert value == math.pi / 3.0
        assert abs(covolume_psl2z_by_meshgrid() - value) <= 1e-4 * value

    def test_refinement_reduces_error(self):
        coarse = covolume_psl2z_by_meshgrid(60, 90, 16.0)
        fine = covolume_psl2z_by_meshgrid(120, 180, 16.0)
        target = fuchsian.lattice_covolume(fuchsian.psl2z())
        assert abs(fine - target) < abs(coarse - target)

    def test_haar_scale_linearity(self):
        base = fuchsian.lattice_covolume(fuchsian.psl2z())
        scaled = fuchsian.lattice_covolume(fuchsian.psl2z(), haar_scale=3.0)
        assert scaled == 3.0 * base
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(UsageError, match=f"haar_scale must be positive and finite, got {scale}"):
                fuchsian.lattice_covolume(fuchsian.psl2z(), haar_scale=scale)

    def test_configured_covolume(self):
        spec = fuchsian.LatticeSpec(
            name="level2",
            generators=((1.0, 2.0, 0.0, 1.0),),
            covolume=2.0 * math.pi,
        )
        assert fuchsian.lattice_covolume(spec, haar_scale=0.5) == math.pi

    def test_generators_are_stored_as_canonical_rows(self):
        spec = fuchsian.LatticeSpec(name="scaled", generators=([-2.0, 0.0, 0.0, -0.5], (0, -2, 2, 0)))
        assert spec.generators == ((2.0, 0.0, 0.0, 0.5), (0.0, 1.0, -1.0, 0.0))
        assert all(type(v) is float for row in spec.generators for v in row)

    @pytest.mark.parametrize("row", [(1.0, 0.0, 0.0, -1.0), (1.0, 1.0, 1.0, 1.0)], ids=["det-1", "det0"])
    def test_nonpositive_determinant_generator_rejected(self, row):
        det = row[0] * row[3] - row[1] * row[2]
        with pytest.raises(UsageError, match=f"matrix determinant must be positive, got {det}"):
            fuchsian.LatticeSpec(name="bad", generators=((0.0, -1.0, 1.0, 0.0), row))

    def test_missing_covolume_rejected(self):
        spec = fuchsian.LatticeSpec(
            name="mystery", generators=((1.0, 2.0, 0.0, 1.0),)
        )
        with pytest.raises(UsageError):
            fuchsian.lattice_covolume(spec)
