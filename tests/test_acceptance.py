"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output). Criteria 1 and 2 share a single exhaustive scan run.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest
from oracles import Moebius, covolume_psl2z_by_meshgrid, distance, formal_degree_by_meshgrid, pi_shift_matrix
from oracles import column_rows, point_stabilizer, row_keys, vector_gram
from scipy.integrate import quad

from orbitdensity import bergman, cli, finite_gabor, frames, fuchsian, linalg
from orbitdensity.hyperbolic import act

SCAN_SEED = 20240810
POINT_I = 1j
POINT_RHO = complex(0.5, math.sqrt(3.0) / 2.0)
POINT_2I = 2j


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def scan_result():
    start = time.perf_counter()
    columns, violations = finite_gabor.exhaustive_scan(6, windows_per_case=50, seed=SCAN_SEED)
    elapsed = time.perf_counter() - start
    return column_rows(columns), violations, elapsed


def test_criterion_1_exhaustive_theorem_verification(scan_result):
    rows, violations, elapsed = scan_result
    with criterion(1, "exhaustive density-theorem scan, n <= 6, zero violations"):
        assert len(rows) > 0
        assert len(violations) == 0
        for row in rows:
            if row["is_frame"]:
                assert row["n"] * row["stab_order"] <= row["subgroup_order"]
                assert row["verdict_i"] == "pass"
            if row["is_riesz"]:
                assert row["n"] * row["stab_order"] >= row["subgroup_order"]
                assert row["verdict_ii"] == "pass"
        assert elapsed <= 300.0


def test_criterion_2_proof_identity_suite(scan_result):
    rows, _, _ = scan_result
    with criterion(2, "proof identities exact on every scan case"):
        riesz_cases = 0
        for row in rows:
            assert row["s_relation_residual"] <= 1e-10
            assert row["parseval_deviation"] <= 1e-10
            if row["is_riesz"]:
                riesz_cases += 1
                assert row["biorth_deviation"] is not None
                assert row["biorth_deviation"] <= 1e-10
            assert row["sandwich_lower_slack"] >= -1e-9
            assert row["sandwich_upper_slack"] >= -1e-9
        assert riesz_cases > 0


def test_frame_verdicts_match_adjoint_riesz_duality(scan_result):
    """A second path to every frame verdict of the scan (Ron-Shen, or
    Wexler-Raz, duality): the orbit over L is a frame exactly when the full
    orbit over the adjoint subgroup L° = {mu : mu_a l_b - l_a mu_b = 0 mod n}
    is a Riesz sequence, and |L| |L°| = n^2."""
    rows = iter(scan_result[0])
    for n in range(2, 7):
        shifts = {(a, b): pi_shift_matrix(a, b, n) for a in range(n) for b in range(n)}
        for si, sub in enumerate(finite_gabor.subgroup_enumerate(n)):
            adjoint = [
                mu for mu in shifts
                if all((mu[0] * lam[1] - lam[0] * mu[1]) % n == 0 for lam in sub.elements)
            ]
            assert sub.order * len(adjoint) == n * n
            P = np.array([shifts[mu] for mu in adjoint])
            window_ids, windows = finite_gabor.scan_windows(n, si, 50, SCAN_SEED)
            V = np.einsum("kij,wj->wik", P, windows)  # columns pi(mu) g
            w = np.linalg.eigvalsh(np.conj(np.swapaxes(V, 1, 2)) @ V)
            adjoint_riesz = w[:, 0] > 1e-9 * w[:, -1]
            for window_id, riesz in zip(window_ids, adjoint_riesz):
                row = next(rows)
                assert (row["n"], row["subgroup_gens"], row["window_id"]) == (
                    n, sub.gens_text(), window_id
                )
                assert row["is_frame"] == bool(riesz)
    assert next(rows, None) is None


def test_gram_verdicts_match_frame_operator_spectra(scan_result):
    """The Gram matrices as oracle for what the scan reads from the n x n
    frame operators: a frame is a |Gamma| x |Gamma| Gram of rank n, a Riesz
    transversal a nonsingular |Lambda| x |Lambda| Gram, and the two Grams
    have equal rank."""
    rows = iter(scan_result[0])
    rel_tol = linalg.DEFAULT_REL_TOL
    seen = set()
    for n in range(2, 7):
        for si, sub in enumerate(finite_gabor.subgroup_enumerate(n)):
            window_ids, windows = finite_gabor.scan_windows(n, si, 50, SCAN_SEED)
            V = finite_gabor.orbit_system(windows, sub.elements)
            (G_full,) = frames.gram(vector_gram(V))
            is_frame = linalg.rank(G_full) == n
            is_riesz = np.zeros(len(windows), dtype=bool)
            owner = np.zeros(len(windows), dtype=int)
            for _, mask, members in finite_gabor.stabilizer_classes([sub], owner, windows, V):
                _, cols, _ = finite_gabor.lex_coset_representatives(sub, mask)
                (w,) = frames.gram(vector_gram(V[members][..., cols]))
                is_riesz[members] = w[:, 0] > rel_tol * np.maximum(w[:, -1], 0.0)
                assert np.array_equal(linalg.rank(G_full)[members], linalg.rank(w))
            for k, window_id in enumerate(window_ids):
                row = next(rows)
                assert (row["n"], row["subgroup_gens"], row["window_id"]) == (
                    n, sub.gens_text(), window_id
                )
                assert (row["is_frame"], row["is_riesz"]) == (is_frame[k], is_riesz[k])
                seen.add((row["is_frame"], row["is_riesz"]))
    assert next(rows, None) is None
    assert {(True, False), (False, True), (True, True)} <= seen


def test_criterion_3_discrete_orthogonality_relations():
    with criterion(3, "discrete orthogonality relations, 100 random pairs per n <= 8"):
        for n in range(2, 9):
            rng = np.random.default_rng(np.random.SeedSequence(SCAN_SEED, spawn_key=(n,)))
            shifts = [
                pi_shift_matrix(a, b, n)
                for a in range(n)
                for b in range(n)
            ]
            for _ in range(100):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                total = sum(abs(np.vdot(M @ g, f)) ** 2 for M in shifts)
                target = n * float(np.vdot(f, f).real) * float(np.vdot(g, g).real)
                assert abs(total - target) <= 1e-10 * target


def test_criterion_4_bergman_kernel_oracle():
    with criterion(4, "kernel correlation identity, diagonal positivity, unitarity"):
        rng = np.random.default_rng(SCAN_SEED + 4)

        def rand_point():
            return complex(
                float(rng.uniform(-5.0, 5.0)), float(math.exp(rng.uniform(-2.3, 2.3)))
            )

        def rand_map():
            x = float(rng.uniform(-3.0, 3.0))
            s = float(rng.uniform(-1.5, 1.5))
            th = float(rng.uniform(0.0, math.pi))
            return (
                Moebius(1.0, x, 0.0, 1.0)
                .compose(Moebius(math.exp(s / 2.0), 0.0, 0.0, math.exp(-s / 2.0)))
                .compose(Moebius(math.cos(th), math.sin(th), -math.sin(th), math.cos(th)))
            )

        for alpha in (2.0, 3.0, 4.5):
            for _ in range(1000):
                z, u = rand_point(), rand_point()
                kz, ku = np.array([z]), np.array([u])
                n1 = bergman.kernel_gram(kz, kz, alpha)[0, 0]
                assert abs(n1 - 1.0) <= 1e-12
                lhs = abs(bergman.kernel_gram(kz, ku, alpha)[0, 0]) ** 2
                rhs = math.cosh(distance(z, u) / 2.0) ** (-2.0 * alpha)
                assert abs(lhs - rhs) <= 1e-10
            for _ in range(300):
                # pi(m) is unitary: it keeps the overlap of two kernels up to a phase
                m = rand_map()
                k, k2 = np.array([rand_point()]), np.array([rand_point()])
                t, t2 = act([m], k), act([m], k2)
                lhs = abs(bergman.kernel_gram(t, t2, alpha)[0, 0])
                assert abs(lhs - abs(bergman.kernel_gram(k, k2, alpha)[0, 0])) <= 1e-10


def test_criterion_5_formal_degree():
    with criterion(5, "formal degree within 1e-4 with mesh-halving refinement study"):
        for alpha in (2.0, 3.0, 4.0, 6.0):
            oracle = quad(
                lambda y: y ** (alpha - 2.0)
                * (1.0 + y) ** (1.0 - 2.0 * alpha)
                * quad(lambda s: (1.0 + s * s) ** (-alpha), -np.inf, np.inf)[0],
                0.0,
                np.inf,
            )[0]
            oracle = 1.0 / (2.0 ** (2.0 * alpha) * oracle)
            assert abs(oracle - bergman.formal_degree_closed_form(alpha)) <= 1e-8 * oracle
            start = time.perf_counter()
            value = formal_degree_by_meshgrid(alpha)["formal_degree"]
            assert abs(value - oracle) <= 1e-4 * oracle
            errors = []
            for nx, nt in ((96, 48), (192, 96), (384, 192)):
                coarse = formal_degree_by_meshgrid(alpha, nx=nx, nt=nt)["formal_degree"]
                errors.append(abs(coarse - oracle))
            assert errors[2] < errors[1] < errors[0]
            assert time.perf_counter() - start <= 60.0


def test_criterion_6_covolume_and_haar_invariance():
    with criterion(6, "modular covolume within 1e-4 and Haar-scale invariance"):
        oracle, _ = quad(lambda x: 1.0 / math.sqrt(1.0 - x * x), -0.5, 0.5)
        assert abs(oracle - math.pi / 3.0) <= 1e-10
        vol = fuchsian.lattice_covolume(fuchsian.psl2z())
        assert abs(vol - oracle) <= 1e-4 * oracle
        assert abs(covolume_psl2z_by_meshgrid() - oracle) <= 1e-4 * oracle
        products = []
        for c in (1.0 / 3.0, 1.0, 7.0):
            vol_c = fuchsian.lattice_covolume(fuchsian.psl2z(), haar_scale=c)
            deg_c = bergman.formal_degree_closed_form(2.0, c)
            products.append(vol_c * deg_c)
        for p in products[1:]:
            assert abs(p - products[0]) <= 1e-12 * products[0]


def test_criterion_7_stabilizer_orders_both_paths():
    with criterion(7, "stabiliser orders (2, 3, 1) via point and kernel paths, bounds 2..10"):
        expected = [(POINT_I, 2), (POINT_RHO, 3), (POINT_2I, 1)]
        for bound in range(2, 11):
            ball = fuchsian.ball_enumerate(fuchsian.psl2z(), float(bound))
            for z, order in expected:
                point_members = point_stabilizer(ball, z)
                kernel_members, phases = bergman.projective_stabilizer_kernel(
                    ball, z, 2.0, act(ball.elements, z)
                )
                assert len(point_members) == order
                assert len(kernel_members) == order
                assert set(point_members.tolist()) == set(kernel_members.tolist())
                for u in phases:
                    assert abs(abs(u) - 1.0) <= 1e-10


def _parse_trace(text: str):
    return [float(part) for part in text.split(";")]


def test_criterion_8_bergman_density_report(capsys):
    with criterion(8, "density report: product 1/12, consistency, S-relation, monotone traces"):
        code = cli.main(
            [
                "bergman-density",
                "--lattice",
                "psl2z",
                "--alpha",
                "2",
                "--z",
                "i",
                "--ball",
                "6",
                "--probes",
                "40",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        reports = [r for r in records if r["type"] == "frame_report"]
        summary = records[-1]
        assert len(reports) == 3
        assert summary["stab_order"] == 2
        assert abs(summary["density_product"] - 1.0 / 12.0) <= 0.02 * (1.0 / 12.0)
        assert summary["density_product"] <= summary["density_bound"]
        assert summary["verdict_i_pass"] is True
        assert summary["verdict_consistency"] == "pass"
        final = reports[-1]
        assert final["diag_s_relation_residual"] <= 1e-8
        assert final["diag_probe_count"] == 40
        riesz_min = _parse_trace(final["diag_riesz_trace_min"])
        riesz_max = _parse_trace(final["diag_riesz_trace_max"])
        probe_min = _parse_trace(final["diag_probe_trace_min"])
        probe_max = _parse_trace(final["diag_probe_trace_max"])
        assert len(riesz_min) == 3
        for a, b in zip(riesz_min, riesz_min[1:]):
            assert b <= a * (1.0 + 1e-9)
        for a, b in zip(riesz_max, riesz_max[1:]):
            assert b >= a * (1.0 - 1e-9)
        for a, b in zip(probe_min, probe_min[1:]):
            assert b >= a - 1e-9 * max(probe_max)
        for a, b in zip(probe_max, probe_max[1:]):
            assert b >= a * (1.0 - 1e-9)


def test_criterion_9_ball_enumeration_matches_oracle():
    with criterion(9, "breadth-first balls equal the integer oracle at sqrt(2), 2, 5, 10"):
        spec = fuchsian.psl2z()
        for bound in (math.sqrt(2.0), 2.0, 5.0, 10.0):
            bfs = fuchsian.ball_enumerate(spec, bound)
            oracle = fuchsian.brute_force_integer_ball(bound)
            assert set(row_keys(bfs.elements)) == set(row_keys(oracle))
            assert bfs.closure_certified
