"""Reference oracles and helpers that only the tests use.

The scalar kernel formula and the per-pair inner products are the slow
reference paths that the closed-form array assembly in ``orbitdensity``
is compared against; the grid, ball and shift-matrix helpers build inputs
for property tests.
"""

import cmath
import math

import numpy as np

from orbitdensity import finite_gabor
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


def pi_shift_matrix(a: int, b: int, n: int) -> np.ndarray:
    """Matrix of the time-frequency shift pi(a, b) on C^n."""
    cols = [finite_gabor.pi_shift(a, b, np.eye(n, dtype=complex)[:, j]) for j in range(n)]
    return np.column_stack(cols)


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
