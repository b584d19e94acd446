"""Reference oracles and helpers that only the tests use.

The scalar kernel formula, the per-pair inner products, the one-vector
time-frequency shift and the pair-closure subgroup enumeration are the
slow reference paths that the closed-form, batched and Hermite-normal-form
code in ``orbitdensity`` is compared against; the grid, ball and
shift-matrix helpers build inputs for property tests.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from orbitdensity.errors import DimensionError, OracleInconsistencyError, UsageError
from orbitdensity.finite_gabor import SubgroupDescr
from orbitdensity.fuchsian import GroupBall
from orbitdensity.hyperbolic import QuadratureGrid, UpperHalfPoint


def kernel_value(z: complex, w: complex, alpha: float) -> complex:
    """k_z(w) = 2^(alpha-2) pi^-1 (alpha-1) i^alpha (w - conj z)^-alpha, one
    scalar at a time with principal-branch powers."""
    const = 2.0 ** (alpha - 2.0) / math.pi * (alpha - 1.0)
    i_pow = cmath.exp(1j * math.pi * alpha / 2.0)
    return const * i_pow * (w - z.conjugate()) ** (-alpha)


def kernel_cross_oracle(left, right) -> np.ndarray:
    """<left_i, right_j> for two kernel orbits, one Python call per pair."""
    assert left.alpha == right.alpha
    out = np.empty((len(left), len(right)), dtype=complex)
    for i, (zi, ci) in enumerate(zip(left.z.tolist(), left.c.tolist())):
        for j, (zj, cj) in enumerate(zip(right.z.tolist(), right.c.tolist())):
            out[i, j] = ci * cj.conjugate() * kernel_value(zi, zj, left.alpha)
    return out


def vector_gram_oracle(V) -> np.ndarray:
    """G[i, j] = <v_i, v_j> = vdot(v_j, v_i) over the columns of V, per pair."""
    cols = [V[:, k] for k in range(V.shape[1])]
    return np.array([[complex(np.vdot(w, v)) for w in cols] for v in cols])


def pi_shift(a: int, b: int, v) -> np.ndarray:
    """Time-frequency shift of one vector: (pi(a,b) v)_j = omega^(j b) v_(j-a mod n).

    Modulation is applied after translation; omega = exp(2 pi i / n).
    """
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionError(f"window must be a nonempty 1-d vector, got shape {vec.shape}")
    n = vec.size
    phases = np.exp(2j * np.pi * ((np.arange(n) * b) % n) / n)
    return phases * np.roll(vec, a % n)


def pi_shift_matrix(a: int, b: int, n: int) -> np.ndarray:
    """Matrix of the time-frequency shift pi(a, b) on C^n."""
    cols = [pi_shift(a, b, np.eye(n, dtype=complex)[:, j]) for j in range(n)]
    return np.column_stack(cols)


def sigma_finite(x, y, n: int) -> complex:
    """Cocycle of the shift representation: sigma((a,b),(c,d)) = omega^(-a d)."""
    a, _ = x
    _, d = y
    return complex(np.exp(-2j * np.pi * ((a * d) % n) / n))


def formal_degree_finite(n: int, *, pairs: int = 8, seed: int = 20240801) -> Fraction:
    """Formal degree 1/n, certified by the exact summation
    sum_{x in G} |<f, pi(x) g>|^2 = n ||f||^2 ||g||^2 on random pairs."""
    if n < 2:
        raise UsageError(f"modulus must be at least 2, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
    for _ in range(pairs):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        total = 0.0
        for a in range(n):
            for b in range(n):
                total += abs(np.vdot(pi_shift(a, b, g), f)) ** 2
        target = n * float(np.vdot(f, f).real) * float(np.vdot(g, g).real)
        if not total > 0.0 or abs(total - target) > 1e-10 * target:
            raise OracleInconsistencyError(
                f"orthogonality relation failed at n={n}: sum {total!r} vs {target!r}"
            )
    return Fraction(1, n)


def additive_closure(gens, n: int) -> tuple:
    """Sorted elements of the subgroup of Z_n x Z_n generated by ``gens``, by search."""
    elements = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = ((x[0] + g[0]) % n, (x[1] + g[1]) % n)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(elements))


def subgroup_enumerate_pairs(n: int) -> list[SubgroupDescr]:
    """All subgroups of Z_n x Z_n as closures of one- and two-element
    generating sets, each recorded with the first set that reaches it."""
    all_pairs = sorted(itertools.product(range(n), repeat=2))
    seen: dict[tuple, SubgroupDescr] = {}

    def record(gens):
        elements = additive_closure(gens, n)
        if elements not in seen:
            kept = tuple(g for g in gens if g != (0, 0)) or ((0, 0),)
            seen[elements] = SubgroupDescr(
                n=n, generators=kept, elements=elements, order=len(elements)
            )

    record(((0, 0),))
    for g in all_pairs:
        record((g,))
    for g1, g2 in itertools.combinations(all_pairs, 2):
        record((g1, g2))
    return sorted(seen.values(), key=lambda s: (s.order, s.elements))


def restricted(ball: GroupBall, norm_bound: float) -> GroupBall:
    """Sub-ball of elements with Frobenius norm at most ``norm_bound``."""
    assert norm_bound <= ball.norm_bound + 1e-9
    kept = tuple(m for m in ball.elements if m.frobenius_sq <= norm_bound * norm_bound + 1e-9)
    return GroupBall(norm_bound, kept, ball.closure_certified)


def geodesic_annulus(
    center: UpperHalfPoint, rho_min: float, rho_max: float, n_rho: int, n_theta: int
) -> QuadratureGrid:
    """Midpoint grid in geodesic polar coordinates around ``center``.

    Nodes are k_theta . (i e^rho) moved to the centre, theta in [0, pi)
    (the rotation subgroup doubles angles at the fixed point), with the
    exact area element 2 sinh(rho) drho dtheta.
    """
    assert 0.0 <= rho_min < rho_max
    hr = (rho_max - rho_min) / n_rho
    hth = math.pi / n_theta
    rhos = rho_min + hr * (np.arange(n_rho) + 0.5)
    thetas = hth * (np.arange(n_theta) + 0.5)
    R, TH = np.meshgrid(rhos, thetas, indexing="ij")
    base = 1j * np.exp(R)
    cos_t, sin_t = np.cos(TH), np.sin(TH)
    w = (cos_t * base + sin_t) / (-sin_t * base + cos_t)
    z = center.y * w + center.x
    weights = 2.0 * np.sinh(R) * hr * hth
    return QuadratureGrid(
        xs=z.real.ravel(),
        ys=z.imag.ravel(),
        weights=weights.ravel(),
        descriptor={"kind": "geodesic_annulus"},
    )
