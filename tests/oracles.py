"""Reference oracles and helpers that only the tests use.

The scalar kernel formula, the per-pair inner products, the
extended-precision unit-kernel Gram, the one-vector time-frequency shift,
the pair-closure subgroup enumeration, the membership-table and
pair-closure subgroup tests, the listed cosets' minima, the exact checks
of one subgroup's windows as a batch of their own, the stacked Gram
matrix of orbit matrices and the one-matrix-at-a-time group ball, stabiliser,
coset and orbit paths are the slow reference paths that the closed-form,
batched and array code in ``orbitdensity`` is compared against. So are the
whole-cube integer ball, the one-block, copy-based Gram validation and
spectrum and the copy-based Hermitian eigensolve, which the slab and
in-place row-block code replaced, the unsplit Gram spectrum, which the
rotation split replaced, and the whitened probe product that the whitened
probe matrix replaced. Midpoint quadrature against the invariant measure
on materialised meshgrids is the independent path to the closed-form
covolume and formal degree. The grid, ball and shift-matrix helpers build
inputs for property tests, :func:`scan_rows` is the per-row view of a scan
report's columns, :func:`point_array` is the array of some points,
:func:`point_stabilizer` is the stabiliser read from the ball's distances,
and :func:`traced_peak` measures the numpy and Python memory a call holds
at its peak. :class:`MoebiusMap` is one group element as an object, which only
the tests make.
"""

import cmath
import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from orbitdensity import bergman, finite_gabor, fuchsian, hyperbolic, linalg
from orbitdensity.errors import DimensionError, OracleInconsistencyError, UsageError
from orbitdensity.finite_gabor import SubgroupDescr
from orbitdensity.fuchsian import _NORM_EPS, MIN_NORM_BOUND, GroupBall
from orbitdensity.hyperbolic import SIGN_TOL, UpperHalfPoint, canonical, frobenius_sq, round9


def kernel_value(z: complex, w: complex, alpha: float) -> complex:
    """k_z(w) = 2^(alpha-2) pi^-1 (alpha-1) i^alpha (w - conj z)^-alpha, one
    scalar at a time with principal-branch powers."""
    const = 2.0 ** (alpha - 2.0) / math.pi * (alpha - 1.0)
    i_pow = cmath.exp(1j * math.pi * alpha / 2.0)
    return const * i_pow * (w - z.conjugate()) ** (-alpha)


def point_array(pts) -> np.ndarray:
    """The 1-d complex array of some ``UpperHalfPoint``s."""
    return np.array([p.as_complex for p in pts], dtype=complex)


def kernel_cross_oracle(z, w, alpha) -> np.ndarray:
    """<u_i, u_j> = k_{z_i}(w_j) / sqrt(k_{z_i}(z_i) k_{w_j}(w_j)) for the unit
    kernels of weight alpha at two point arrays, one Python call per pair."""
    out = np.empty((len(z), len(w)), dtype=complex)
    for i, zi in enumerate(z.tolist()):
        for j, wj in enumerate(w.tolist()):
            norms_sq = kernel_value(zi, zi, alpha) * kernel_value(wj, wj, alpha)
            out[i, j] = kernel_value(zi, wj, alpha) / cmath.sqrt(norms_sq)
    return out


def unit_gram_extended(z, w, alpha) -> np.ndarray:
    """The unit-kernel Gram ((w_j - conj z_i) / (2i sqrt(Im z_i Im w_j)))^-alpha
    of two point arrays, in ``np.clongdouble`` arithmetic."""
    z = z.astype(np.clongdouble)[:, None]
    w = w.astype(np.clongdouble)[None, :]
    return ((w - z.conj()) / (2j * np.sqrt(z.imag * w.imag))) ** -np.longdouble(alpha)


def unsplit_gram_spectra(lam, alpha, sizes) -> list[np.ndarray]:
    """Eigenvalues of the leading k x k blocks of the whole Gram of the unit
    kernels of weight alpha at the points ``lam``, one ``np.linalg.eigvalsh``
    per k of ``sizes``: the Gram assembled in one piece and eigensolved
    unsplit."""
    G = bergman.kernel_gram(lam, lam, alpha)
    return [np.linalg.eigvalsh(G[:k, :k]) for k in sizes]


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


def is_subgroup_table(elements, n: int) -> bool:
    """Nonempty, duplicate-free, inside Z_n x Z_n and closed under addition,
    which for a finite group makes it a subgroup. Closure is one lookup of
    all pairwise sums in a membership table of Z_n x Z_n."""
    pairs = np.asarray(elements, dtype=int).reshape(-1, 2)
    if not (len(pairs) and np.all((pairs >= 0) & (pairs < n))):
        return False
    member = np.zeros((n, n), dtype=bool)
    member[pairs[:, 0], pairs[:, 1]] = True
    sums = (pairs[:, None, :] + pairs[None, :, :]) % n
    return np.count_nonzero(member) == len(pairs) and bool(member[sums[..., 0], sums[..., 1]].all())


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


def coset_minima(elements, stabilizer, n: int) -> list:
    """Per element gamma, the lexicographic minimum of its coset
    gamma + stabilizer, by listing the coset."""
    return [min(((a + c) % n, (b + d) % n) for c, d in stabilizer) for a, b in elements]


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
            seen[elements] = SubgroupDescr(n=n, generators=kept, elements=elements)

    record(((0, 0),))
    for g in all_pairs:
        record((g,))
    for g1, g2 in itertools.combinations(all_pairs, 2):
        record((g1, g2))
    return sorted(seen.values(), key=lambda s: (s.order, s.elements))


def column_rows(columns: dict) -> list[dict]:
    """One dict per row of a table of equally long columns keyed by field name."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def scan_rows(report: finite_gabor.ScanReport) -> list[dict]:
    """The per-row view of a scan report: one dict per passing window, in
    scan order, with every field of the report's columns."""
    return column_rows(report.columns)


def verify_windows(subgroup: SubgroupDescr, windows) -> list:
    """The scan's checks of every window of a (W, n) stack over one subgroup,
    as a batch of its own: per window and in order, its scan row (the
    ``SCAN_CSV_COLUMNS`` but ``window_id``, plus the component residuals)
    or the :class:`TheoremViolationError` of its first failed check."""
    g = np.asarray(windows, dtype=complex)
    if g.ndim != 2 or g.shape[1] != subgroup.n:
        raise DimensionError(f"windows must form a (W, {subgroup.n}) stack, got shape {g.shape}")
    columns, errors = finite_gabor._verify_pass([[(subgroup, g)]])
    rows = column_rows({name: column.tolist() for name, column in columns.items()})
    return [errors.get(w, row) for w, row in enumerate(rows)]


def restricted(ball: GroupBall, norm_bound: float) -> GroupBall:
    """Sub-ball of elements with Frobenius norm at most ``norm_bound``."""
    assert norm_bound <= ball.norm_bound + 1e-9
    kept = frobenius_sq(ball.elements) <= norm_bound * norm_bound + 1e-9
    return GroupBall(norm_bound, ball.elements[kept], ball.closure_certified)


def geodesic_annulus(
    center: UpperHalfPoint, rho_min: float, rho_max: float, n_rho: int, n_theta: int
) -> tuple:
    """Flat nodes (xs, ys) and weights of the midpoint grid in geodesic polar
    coordinates around ``center``.

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
    return z.real.ravel(), z.imag.ravel(), weights.ravel()


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


def row_keys(x) -> list[tuple[float, float, float, float]]:
    """Entries of matrix rows rounded to 9 digits by ``hyperbolic.round9``,
    as hashable keys."""
    flat = round9(x).tolist()
    return list(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))


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


def integer_ball_by_meshgrid(norm_bound: float) -> np.ndarray:
    """``fuchsian.brute_force_integer_ball`` on the whole (a, b, c) cube at
    once, O(m^3) memory, with both signs enumerated and one kept."""
    assert MIN_NORM_BOUND - 1e-12 <= norm_bound <= 30.0
    m = int(math.floor(norm_bound + 1e-12))
    r = np.arange(-m, m + 1)
    a, b, c = (v.ravel() for v in np.meshgrid(r, r, r, indexing="ij"))
    num = 1 + b * c
    divisor = np.where(a == 0, 1, a)
    d = num // divisor
    found = (a != 0) & (num % divisor == 0) & (np.abs(d) <= m)
    free_d = [(0, s, -s, t) for s in (1, -1) for t in r.tolist()]
    quads = np.concatenate([np.stack([a, b, c, d], axis=1)[found], free_d])
    lead = quads[np.arange(len(quads)), np.argmax(quads != 0, axis=1)]
    norms = np.sum(quads * quads, axis=1)
    kept = (lead > 0) & (norms <= norm_bound * norm_bound + _NORM_EPS)
    quads, norms = quads[kept], norms[kept]
    order = np.lexsort((quads[:, 3], quads[:, 2], quads[:, 1], quads[:, 0], norms))
    return quads[order].astype(float)


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


@dataclass(eq=False)
class MoebiusMap:
    """One element of PSL(2, R) as a canonicalised matrix (a b; c d),
    ad - bc = 1; array-like as its row (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        self.a, self.b, self.c, self.d = canonical([self.a, self.b, self.c, self.d]).tolist()

    def __array__(self, dtype=None, copy=None):
        return np.array([self.a, self.b, self.c, self.d], dtype=dtype)


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
        w = scalar_image((self.a, self.b, self.c, self.d), z.as_complex)
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


def point_stabilizer(ball: GroupBall, z: UpperHalfPoint, tol: float | None = None) -> np.ndarray:
    """``fuchsian.stabilizer_of_point`` at the distances d(g z, z) over the
    whole ball, as the commands compute them."""
    w = z.as_complex
    return fuchsian.stabilizer_of_point(ball, z, hyperbolic.distance(hyperbolic.act(ball.elements, w), w), tol)


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


def orbit_by_scalars(rows, z: complex) -> np.ndarray:
    """Points m.z of the orbit pi(m) k_z, one row at a time."""
    return np.array([scalar_image(m, z) for m in rows], dtype=complex)


# Midpoint quadrature against the invariant measure y^-2 dx dy on
# materialised meshgrids: over the modular fundamental domain it is the
# independent path to the Gauss-Bonnet covolume pi/3, and over a rectangle
# in (x, ln y) to the formal degree (alpha - 1) / (4 pi).


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


def formal_degree_rectangle(alpha: float, base: UpperHalfPoint, nx: int = 1536, nt: int = 768) -> tuple:
    """Ranges (x_min, x_max, t_min, t_max) and node counts (nx, nt) of the
    rectangle in (x, t = ln y) for the formal-degree quadrature at ``base``.

    The squared matrix coefficient decays like y^(alpha-2) (1+y)^(1-2 alpha)
    after the horizontal integral, so the vertical cut-offs are chosen from
    its small-y and large-y tail exponents. The x-range is fixed at
    +/- 120 y_0, and the mass it cuts off at large y dominates the error for
    small alpha (6.9e-5 relative at alpha = 2, 1e-6 at alpha = 3). Ranges
    are translated and dilated to the base point, which leaves accuracy
    invariant.
    """
    y_lo = min(1e-4, 1e-8 ** (1.0 / (alpha - 1.0)))
    y_hi = max(1e3, 1e8 ** (1.0 / alpha))
    half_width = 120.0
    return (
        base.x - half_width * base.y,
        base.x + half_width * base.y,
        math.log(y_lo * base.y),
        math.log(y_hi * base.y),
        nx,
        nt,
    )


def formal_degree_by_meshgrid(alpha: float, base: UpperHalfPoint = UpperHalfPoint(0.0, 1.0), **grid) -> dict:
    """Formal degree from the square-integrability integral of the kernel
    at ``base``, on the rectangle of :func:`formal_degree_rectangle` with
    the node counts in ``grid``.

    The rotation factor of the Haar measure integrates exactly to 1 (the
    matrix-coefficient modulus is constant along it), leaving the
    half-plane integral of [4 y_0 y / ((x - x_0)^2 + (y + y_0)^2)]^alpha
    against the invariant measure, normalised by ||k||^4; the degree is its
    inverse. ``est_rel_error`` is the Richardson estimate from halving the
    mesh. It sees only the discretisation error, not the mass cut off by
    the rectangle's x-range.
    """
    x0, y0 = base.x, base.y

    def integrand(x, y):
        return (4.0 * y0 * y / ((x - x0) ** 2 + (y + y0) ** 2)) ** alpha

    *ranges, nx, nt = formal_degree_rectangle(alpha, base, **grid)
    value = meshgrid_integrate(meshgrid_rectangle_log_y(*ranges, nx, nt), integrand)
    coarse_nodes = meshgrid_rectangle_log_y(*ranges, max(1, round(nx * 0.5)), max(1, round(nt * 0.5)))
    coarse = meshgrid_integrate(coarse_nodes, integrand)
    return {
        "formal_degree": 1.0 / value,
        "integral": value,
        "integral_coarse": coarse,
        # the midpoint rule is O(h^2): the fine value is ~3x closer than the coarse one
        "est_rel_error": abs(value - coarse) / (3.0 * value),
        "node_count": nx * nt,
    }


def covolume_psl2z_by_meshgrid(nx=400, ns=600, s_max=16.0, haar_scale=1.0) -> float:
    """Invariant area of the modular domain {|x| <= 1/2, |z| >= 1} by the
    midpoint rule; on the default grid it is 3.0e-5 relative below pi/3."""
    nodes = meshgrid_above_graph(-0.5, 0.5, lambda x: np.sqrt(1.0 - x * x), nx, ns, s_max)
    return haar_scale * meshgrid_integrate(nodes, lambda x, y: np.ones_like(x))


def hermitian_deviation(A) -> np.ndarray:
    """||A - A*|| / ||A|| of a matrix or each matrix of a stack (0 for a zero
    matrix), from a whole-matrix difference."""
    D = linalg.adjoint(A)
    D -= A
    scale = linalg.frobenius(A)
    return np.divide(linalg.frobenius(D), scale, out=np.zeros_like(scale), where=scale > 0.0)


def hermitian_part(A) -> np.ndarray:
    """(A + A*) / 2 of a matrix or of each matrix of a stack, in a fresh array."""
    H = linalg.adjoint(A)
    H += A
    H *= 0.5
    return H


def psd_eigen_by_copy(M) -> linalg.PSDSpectrum:
    """Eigenvalues, eigenvectors and rank mask of a fresh (M + M*) / 2, the
    copy-based path that the in-place ``linalg.psd_eigen`` replaced; ``M``
    is left as it is."""
    w, V = np.linalg.eigh(hermitian_part(np.asarray(M, dtype=complex)))
    return linalg.PSDSpectrum(w, V)


def whitened_probe_extremes(A, whitener) -> tuple[float, float]:
    """Extremes of the whitened product B* (A* A) B, the probe quotient that
    ``frames.frame_bounds_probe`` now reads from (A B)* (A B); the minimum
    clamped at 0 as there."""
    A, B = np.asarray(A, dtype=complex), np.asarray(whitener, dtype=complex)
    w = np.linalg.eigvalsh(hermitian_part(B.conj().T @ hermitian_part(A.conj().T @ A) @ B))
    return max(float(w[0]), 0.0), float(w[-1])


def gram_per_call(G) -> linalg.PSDSpectrum:
    """Spectrum of one Gram matrix (or stack) with the checks of
    ``frames.gram``, on whole-matrix copies: the Hermitian deviation from
    a full A* - A, then the eigenvalues of a fresh (A + A*) / 2. ``G`` is
    left as it is."""
    G = np.asarray(G, dtype=complex)
    if G.shape[-1] == 0:
        raise UsageError("system needs at least one vector")
    herm_dev = hermitian_deviation(G)
    if np.any(herm_dev > 1e-12):
        raise OracleInconsistencyError(
            f"Gram matrix is not Hermitian: relative deviation {np.max(herm_dev):.3e}"
        )
    if not np.all(np.diagonal(G, axis1=-2, axis2=-1).real > 0.0):
        raise OracleInconsistencyError("Gram diagonal must be strictly positive")
    if not np.all(np.isfinite(G)):
        raise UsageError("Gram matrix contains non-finite entries")
    w = np.linalg.eigvalsh(hermitian_part(G))
    lam_max = np.maximum(w[..., -1], 0.0)
    bad = w[..., 0] < -linalg.DEFAULT_REL_TOL * lam_max
    if np.any(bad):
        k = np.argmax(bad)
        raise OracleInconsistencyError(
            f"Gram matrix is not PSD: min eigenvalue {w[..., 0].flat[k]:.6e} "
            f"of max {lam_max.flat[k]:.6e}"
        )
    return linalg.PSDSpectrum(w, None)


def traced_peak(fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` and the most memory it held at once beyond
    what was allocated before the call, in bytes, as ``tracemalloc`` sees
    it: Python objects and numpy array data, not LAPACK's work buffers."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
