"""Reference oracles and helpers that only the tests use.

The scalar kernel formula, the per-pair inner products, the one-vector
time-frequency shift, the pair-closure subgroup enumeration and subgroup
test, the stacked Gram matrix of orbit matrices, the
one-matrix-at-a-time group ball, stabiliser, coset and orbit paths and the
materialised-meshgrid quadrature are the slow reference paths that the
closed-form, batched, array and tensor-grid code in ``orbitdensity`` is
compared against; the grid, ball and shift-matrix helpers build inputs for
property tests.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from orbitdensity.errors import DimensionError, OracleInconsistencyError, UsageError
from orbitdensity.finite_gabor import SubgroupDescr
from orbitdensity.fuchsian import GroupBall
from orbitdensity.hyperbolic import (
    SIGN_TOL,
    MoebiusMap,
    QuadratureGrid,
    UpperHalfPoint,
    frobenius_sq,
    image,
)


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


def vector_gram(V) -> np.ndarray:
    """Gram matrix G[i, j] = <v_i, v_j> of the columns of an orbit matrix or
    of each orbit matrix of a stack."""
    return V.swapaxes(-1, -2) @ V.conj()


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


def is_subgroup_pairs(elements, n: int) -> bool:
    """Nonempty, duplicate-free, inside Z_n x Z_n and closed under addition,
    checked one pair of elements at a time."""
    members = set(elements)
    return (
        0 < len(members) == len(elements)
        and all(0 <= a < n and 0 <= b < n for a, b in members)
        and all(
            ((x[0] + y[0]) % n, (x[1] + y[1]) % n) in members for x in members for y in members
        )
    )


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
    kept = frobenius_sq(ball.elements) <= norm_bound * norm_bound + 1e-9
    return GroupBall(norm_bound, ball.elements[kept], ball.closure_certified)


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


# One matrix at a time: the group-ball, stabiliser, coset and orbit paths
# that the array code replaced, on tuples (a, b, c, d) of Python floats.

IDENTITY = (1.0, 0.0, 0.0, 1.0)


def scalar_canonical(a, b, c, d) -> tuple:
    """Unit-determinant, sign-canonical entries of one matrix."""
    det = a * d - b * c
    if not math.isfinite(det) or det <= 0.0:
        raise UsageError(f"matrix determinant must be positive, got {det}")
    s = math.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s
    for entry in (a, b, c, d):
        if abs(entry) > SIGN_TOL:
            if entry < 0.0:
                a, b, c, d = -a, -b, -c, -d
            break
    return a + 0.0, b + 0.0, c + 0.0, d + 0.0


def scalar_product(x, y) -> tuple:
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return xa * ya + xb * yc, xa * yb + xb * yd, xc * ya + xd * yc, xc * yb + xd * yd


def scalar_compose(x, y) -> tuple:
    return scalar_canonical(*scalar_product(x, y))


def scalar_inverse(x) -> tuple:
    a, b, c, d = x
    return scalar_canonical(d, -b, -c, a)


def scalar_key(x) -> tuple:
    return tuple(round(v, 9) + 0.0 for v in x)


def scalar_norm_order(x) -> tuple:
    a, b, c, d = x
    return (round(a * a + b * b + c * c + d * d, 9), scalar_key(x))


def integer_ball_by_loops(norm_bound: float) -> list[tuple]:
    """PSL(2, Z) in the Frobenius ball by nested loops over (a, b, c), in norm order."""
    m = int(math.floor(norm_bound + 1e-12))
    bound_sq = norm_bound * norm_bound + 1e-9
    found = {}

    def consider(a, b, c, d):
        if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= bound_sq:
            elt = scalar_canonical(float(a), float(b), float(c), float(d))
            found.setdefault(scalar_key(elt), elt)

    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            for c in range(-m, m + 1):
                if a != 0:
                    if (1 + b * c) % a == 0 and -m <= (1 + b * c) // a <= m:
                        consider(a, b, c, (1 + b * c) // a)
                elif b * c == -1:
                    for d in range(-m, m + 1):
                        consider(a, b, c, d)
    return sorted(found.values(), key=scalar_norm_order)


def ball_by_scalar_bfs(spec, norm_bound: float) -> tuple[list[tuple], bool]:
    """Breadth-first ball one product at a time, in norm order, and whether
    it is certified by the integer ball."""
    bound_sq = norm_bound * norm_bound + 1e-9
    steps, seen_steps = [], set()
    for g in np.array(spec.generators).tolist():
        for h in (g, scalar_inverse(g)):
            if scalar_key(h) not in seen_steps:
                seen_steps.add(scalar_key(h))
                steps.append(h)
    elements = {scalar_key(IDENTITY): IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        next_frontier = []
        for elt in frontier:
            for step in steps:
                prod = scalar_compose(elt, step)
                a, b, c, d = prod
                if a * a + b * b + c * c + d * d <= bound_sq and scalar_key(prod) not in elements:
                    elements[scalar_key(prod)] = prod
                    next_frontier.append(prod)
        frontier = next_frontier
    certified = (
        spec.is_integral
        and norm_bound <= 30.0
        and {scalar_key(g) for g in integer_ball_by_loops(norm_bound)} == set(elements)
    )
    return sorted(elements.values(), key=scalar_norm_order), certified


def distance(z: UpperHalfPoint, w: UpperHalfPoint) -> float:
    """Hyperbolic distance acosh(1 + |z-w|^2 / (2 Im z Im w))."""
    dx = z.x - w.x
    dy = z.y - w.y
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * z.y * w.y)
    return math.acosh(max(arg, 1.0))


def scalar_image(m, z: complex) -> complex:
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def scalar_j(m, z: complex) -> complex:
    return 1.0 / (m[2] * z + m[3])


class Moebius(MoebiusMap):
    """A group element with the scalar group law, action and automorphy
    factor that the property tests use; every product is canonicalised."""

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(*IDENTITY)

    def compose(self, other: "Moebius") -> "Moebius":
        return Moebius(*scalar_product((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)))

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def act(self, z: UpperHalfPoint) -> UpperHalfPoint:
        w = image(self.a, self.b, self.c, self.d, z.as_complex)
        return UpperHalfPoint(w.real, w.imag)

    def j_factor(self, z: UpperHalfPoint) -> complex:
        """Automorphy factor 1/(cz + d); |j|^2 equals Im(m.z)/Im(z)."""
        return scalar_j((self.a, self.b, self.c, self.d), z.as_complex)

    def key(self) -> tuple:
        return scalar_key((self.a, self.b, self.c, self.d))

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def stabilizer_by_scalars(rows, z: UpperHalfPoint, tol: float) -> list[int]:
    """Indices of the rows moving z by hyperbolic distance at most tol."""
    members = []
    for i, g in enumerate(rows):
        w = scalar_image(g, z.as_complex)
        if distance(UpperHalfPoint(w.real, w.imag), z) <= tol:
            members.append(i)
    return members


def cosets_by_loop(rows, stab) -> tuple[list[int], list[list[int]]]:
    """Coset transversal of the rows stab (indices) by one pass over the
    rows in order: ``(rep_index, tile)`` as in ``fuchsian.CosetSystem``."""
    index = {scalar_key(g): i for i, g in enumerate(rows)}
    stab_rows = [rows[j] for j in stab]
    stab_keys = {scalar_key(h) for h in stab_rows}
    covered = [False] * len(rows)
    rep_index, tile = [], []
    for i, g in enumerate(rows):
        if covered[i]:
            continue
        rep = IDENTITY if scalar_key(g) in stab_keys else g
        row = [index.get(scalar_key(scalar_compose(rep, h)), -1) for h in stab_rows]
        for j in row:
            if j >= 0:
                assert not covered[j], "cosets overlap"
                covered[j] = True
        rep_index.append(index[scalar_key(rep)])
        tile.append(row)
    return rep_index, tile


def sigma_by_scalars(x, y, alpha: float) -> complex:
    """The branch-tracked cocycle of one pair of matrices at the point i."""
    x_inv, y_inv = scalar_inverse(x), scalar_inverse(y)
    xy_inv = scalar_inverse(scalar_compose(x, y))
    p1 = scalar_image(x_inv, 1j)
    num = (scalar_j(x_inv, 1j) ** alpha) * (scalar_j(y_inv, p1) ** alpha)
    return num / (scalar_j(xy_inv, 1j) ** alpha)


def orbit_by_scalars(rows, z: complex, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and coefficients of pi(m) k_z, one row at a time."""
    points = [scalar_image(m, z) for m in rows]
    coeffs = [
        sigma_by_scalars(m, scalar_inverse(m), alpha) * (scalar_j(m, z) ** alpha).conjugate()
        for m in rows
    ]
    return np.array(points, dtype=complex), np.array(coeffs, dtype=complex)


# The materialised-meshgrid quadrature that the tensor grid replaced; over
# the modular fundamental domain it is the independent path to the
# Gauss-Bonnet covolume pi/3.


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


def meshgrid_rectangle_log_y(x_min, x_max, t_min, t_max, nx, nt) -> tuple:
    """Flat nodes (xs, ys) and weights of the midpoint grid in (x, ln y)."""
    xs1, hx = _midpoints(x_min, x_max, nx)
    ts1, ht = _midpoints(t_min, t_max, nt)
    X, T = np.meshgrid(xs1, ts1, indexing="ij")
    w = hx * ht * np.exp(-T)
    return X.ravel(), np.exp(T).ravel(), w.ravel()


def meshgrid_above_graph(x_min, x_max, floor, nx, ns, s_max) -> tuple:
    """Flat nodes (xs, ys) and weights of the midpoint grid on the region
    {x in [x_min, x_max], y >= floor(x)}.

    Per x-node the vertical ray is y = floor(x) e^s with s in (0, s_max],
    under which y^-2 dy = e^-s / floor(x) ds; the ray mass beyond s_max is
    exp(-s_max) relative.
    """
    xs1, hx = _midpoints(x_min, x_max, nx)
    ss1, hs = _midpoints(0.0, s_max, ns)
    fv = np.asarray(floor(xs1), dtype=float)
    Y = fv[:, None] * np.exp(ss1)[None, :]
    W = (hx * hs) * np.exp(-ss1)[None, :] / fv[:, None]
    X = np.broadcast_to(xs1[:, None], Y.shape)
    return X.ravel().copy(), Y.ravel(), W.ravel()


def meshgrid_integrate(nodes, f) -> float:
    xs, ys, weights = nodes
    vals = np.asarray(f(xs, ys), dtype=float)
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape)
    return float(np.einsum("i,i->", weights, vals))


def formal_degree_by_meshgrid(alpha: float, descriptor: dict, base: UpperHalfPoint) -> dict:
    """The diagnostics of ``bergman.formal_degree`` on the rectangle that
    ``descriptor`` names, from materialised meshgrids."""
    x0, y0 = base.x, base.y

    def integrand(x, y):
        return (4.0 * y0 * y / ((x - x0) ** 2 + (y + y0) ** 2)) ** alpha

    d = descriptor
    ranges = (d["x_min"], d["x_max"], d["t_min"], d["t_max"])
    value = meshgrid_integrate(meshgrid_rectangle_log_y(*ranges, d["nx"], d["nt"]), integrand)
    coarse_size = (max(1, round(d["nx"] * 0.5)), max(1, round(d["nt"] * 0.5)))
    coarse = meshgrid_integrate(meshgrid_rectangle_log_y(*ranges, *coarse_size), integrand)
    return {
        "integral": value,
        "integral_coarse": coarse,
        "est_rel_error": abs(value - coarse) / (3.0 * value),
        "node_count": d["nx"] * d["nt"],
    }


def covolume_psl2z_by_meshgrid(nx=400, ns=600, s_max=16.0, haar_scale=1.0) -> float:
    """Invariant area of the modular domain {|x| <= 1/2, |z| >= 1} by the
    midpoint rule; on the default grid it is 3.0e-5 relative below pi/3."""
    nodes = meshgrid_above_graph(-0.5, 0.5, lambda x: np.sqrt(1.0 - x * x), nx, ns, s_max)
    return haar_scale * meshgrid_integrate(nodes, lambda x, y: np.ones_like(x))
