"""Weighted Bergman spaces on the upper half-plane: reproducing kernels,
kernel orbits as 1-d complex arrays of their points with closed-form Gram
matrices, and the formal degree in closed form. The weight alpha is passed
only where kernels are formed. Every vector of an orbit is a unit kernel
u_w = k_w / ||k_w||: pi(g) k_z is ||k_z|| times a unimodular scalar times
u_{gz}, and every quantity read from the orbit (Gram spectra, frame sums,
the stabiliser) is unchanged by unimodular scalars, so the cocycle and the
coefficients |cz + d|^-alpha are never formed and ||k_z||^2 is applied to
the reported bounds once. Where the lattice holds the rotation
S: w -> -1/w, the unitary involution pi(S) / sqrt(omega) pairs the vectors
of a coset transversal's orbit up to closed-form phases
(:func:`transversal_symmetry`), and its two eigenspaces split their Gram
matrix into two blocks of about half the size (:func:`symmetry_halves`).
Where the kernel's point lies on a mirror through i, the antiunitary
involution f(w) -> conj f(-conj w) pairs them too, and each block is the
real Gram of a basis that it fixes. Both are rows of one table,
:data:`fuchsian.CENTRE_SYMMETRIES`, checked in one loop, and the ball's
images of z and their distances to z are computed once per run.
:func:`density_analysis` is the ``bergman-density`` pipeline: the frame
reports of a lattice orbit of one kernel over refining truncations, each
a :class:`FrameReport`, whose fields, declared once in record order, are
the schema of the ``frame_report`` record, and which evaluates both
density verdicts on construction.

Conventions fixed here and verified by the test suite:

* kernel at z:  k_z(w) = 2^(alpha-2) pi^-1 (alpha-1) i^alpha (w - conj z)^-alpha,
  which is anti-holomorphic in z and positive on the diagonal, with
  ||k_z||^2 = k_z(z) = (alpha - 1) / (4 pi) (Im z)^-alpha;
* all complex powers use the principal branch, and i^alpha = exp(i pi alpha / 2);
* the Haar measure is y^-2 dx dy times a unit-mass rotation factor, with
  an explicit scale knob so that covolume * formal degree is scale-free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import frames, fuchsian, linalg
from .errors import NumericalFailure, OracleInconsistencyError, ResourceLimitError, UsageError
from .hyperbolic import act, canonical, check_point, compose, distance, rounding_bound

# an assembled inner-product matrix holds at most GRAM_SIZE_CAP^2 entries
GRAM_SIZE_CAP = 4096

# geodesic radius around z of the probe kernels' points
PROBE_RADIUS = 2.0

# a frame or Riesz decision holds while its lower bound exceeds this times its upper one
DECISION_FLOOR = 1e-6

# the schema version of the frame_report record, which FrameReport's fields declare
SCHEMA_VERSION = "2"


def check_weight(alpha: float) -> float:
    """``alpha`` itself if it is the weight exponent of a Bergman space,
    finite and above 1; otherwise ``UsageError``."""
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise UsageError(f"weight must satisfy alpha > 1, got {alpha}")
    return alpha


def kernel_gram(z: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """Inner products G[i, j] = <u_{z_i}, u_{w_j}> of the unit kernels of
    weight alpha at the points of 1-d complex arrays, linear in the left
    entry. The points are not checked: they come from :func:`hyperbolic.act`,
    which raises ``NumericalFailure`` for an image outside the open upper
    half-plane, or from :func:`hyperbolic.check_point`.

    By the reproducing property <k_z, k_w> = k_z(w), so with the norms
    ||k_z||^2 = k_z(z), G[i, j] = ((w_j - conj z_i) / (2i sqrt(Im z_i Im w_j)))^-alpha.
    The base has a positive real part and modulus cosh(d(z_i, w_j) / 2) >= 1,
    so every entry has modulus at most 1 at every alpha: nothing overflows,
    and an underflow to 0 is a true zero.

    The matrix is assembled in its own buffer by in-place ufuncs whose other
    operands are a row or a column, so no second full-size array is made and
    every entry is computed by the same operations at every size: a leading
    block of a Gram is bitwise the Gram of the leading vectors.
    """
    if len(z) * len(w) > GRAM_SIZE_CAP * GRAM_SIZE_CAP:
        raise ResourceLimitError(
            f"{len(z)} x {len(w)} inner products exceed the Gram cap {GRAM_SIZE_CAP}^2"
        )
    G = np.subtract(w[None, :], z.conj()[:, None])
    G *= (-0.5j / np.sqrt(z.imag))[:, None]
    G *= (1.0 / np.sqrt(w.imag))[None, :]
    np.power(G, -alpha, out=G)
    return G


def kernel_norm_sq(z: complex, alpha: float) -> float:
    """||k_z||^2 = (alpha - 1) / (4 pi) (Im z)^-alpha at the point z: the
    squared norm of every vector pi(g) k_z. A value beyond the double range
    raises ``NumericalFailure``."""
    try:
        norm_sq = (alpha - 1.0) / (4.0 * math.pi) * z.imag**-alpha
    except OverflowError:
        norm_sq = math.inf
    if norm_sq == math.inf:
        raise NumericalFailure(
            f"||k_z||^2 = (alpha - 1) / (4 pi) (Im z)^-alpha overflows at alpha = {alpha}, "
            f"Im z = {z.imag}"
        )
    return norm_sq


def symmetry_phases(w: np.ndarray, alpha: float, p, unitary: bool) -> np.ndarray:
    """Phases t with U u_k = t_k u_p(k) for the unit kernels u_k of weight
    alpha at the points w_k and the pairing p of those points, in closed
    form: by the rotation S: w -> -1/w if ``unitary``, else by the
    reflection w -> -conj(w).

    pi(S) k_w = c conj(w^-alpha) k_{-1/w} for a unimodular constant c, and
    applied twice this gives pi(S)^2 = omega with omega = c^2 exp(i pi alpha),
    since arg(w) + arg(-1/w) = pi. So W = pi(S) / sqrt(omega), with the root
    c exp(i pi alpha / 2), is a unitary involution, and
    W k_w = conj(w^-alpha) exp(-i pi alpha / 2) k_{-1/w}. The antiunitary
    involution R f(w) = conj f(-conj w) maps k_w to k_{-conj w}, as
    conj((-conj u)^-alpha) = exp(i pi alpha) u^-alpha for u in the upper
    half-plane; it commutes with W. With ||k_w|| proportional to
    (Im w)^(-alpha/2), where the image of w_k is w_p(k),
    t_k = (Im w_k / Im w_p(k))^(alpha/2) conj(w_k^-alpha) exp(-i pi alpha / 2),
    computed as the one power conj((w_k (Im w_p(k) / Im w_k)^(1/2))^-alpha)
    of a base of modulus about 1, and for R
    s_k = (Im w_k / Im w_q(k))^(alpha/2), which is 1 up to rounding.
    """
    ratio = w.imag / w[p].imag
    if not unitary:
        return ratio ** (0.5 * alpha) + 0j
    return np.power(w / np.sqrt(ratio), -alpha).conj() * cmath.exp(-0.5j * math.pi * alpha)


def transversal_symmetry(
    ball: fuchsian.GroupBall, cosets: fuchsian.CosetSystem, z: complex, orbit: np.ndarray, alpha: float, sizes
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray] | None]:
    """Pairings and phases (p, t) of W and (q, s) of R (see
    :func:`symmetry_phases`) on the transversal's vectors u_k at the points
    ``orbit[cosets.rep_index]``: W u_k = t_k u_p(k), R u_k = s_k u_q(k), with p
    and q commuting involutions that close every truncation of ``sizes``.

    The cosets are of the stabiliser of the kernel's point z, which fixes z
    to rounding (:func:`projective_stabilizer_kernel`). So where the ball
    holds S, S rep_k z = rep_p(k) h z = z_p(k) for the h in the stabiliser
    that :func:`fuchsian.coset_pairing` implies; where it does not, p is the
    identity and t = 1, the trivial involution, whose split is one block.
    Where z lies on a mirror through i, which the point alone decides,
    -conj(z) = g0 z (:func:`fuchsian.mirror_of`), and -conj(z_k) =
    sigma rep_k sigma g0 z = z_q(k) likewise; elsewhere, or where the ball
    is not symmetric, there is no q and the second pair is None.

    For either map, a point mismatch, the distance from the image of z_k to
    z_p(k), above the rounding bound 64 eps |z_k| / Im z_k, or, as the
    phases compare independently rounded points, a phase with
    | |t_k| - 1 |, an involution defect |t_k t_p(k) - 1| (for R,
    |conj(t_k) t_q(k) - 1|) or, for a fixed vector, whose point is i or on
    the mirror, |t_k - 1| above alpha times that, raises
    ``OracleInconsistencyError``, and so do q p != p q and a defect
    |conj(t_k) s_p(k) - s_k t_q(k)| of RW = WR above alpha times the bound.
    The phases t of vectors that W fixes are then set to exactly 1.
    """
    lam = orbit[cosets.rep_index]
    index = np.arange(len(lam))
    scale = rounding_bound(lam)
    pairs = []
    pairings = fuchsian.coset_pairing(ball, cosets, sizes, z)
    for (name, _, _, image, unitary), p in zip(fuchsian.CENTRE_SYMMETRIES, pairings):
        if p is None:
            pairs.append(None)
            continue
        t = symmetry_phases(lam, alpha, p, unitary)
        for what, deviation in (
            ("point", distance(image(lam), lam[p])),
            ("phase modulus", np.abs(np.abs(t) - 1.0) / alpha),
            ("phase product", np.abs((t if unitary else t.conj()) * t[p] - 1.0) / alpha),
            ("fixed phase", np.where(p == index, np.abs(t - 1.0), 0.0) / alpha),
        ):
            if np.any(deviation > scale):
                raise OracleInconsistencyError(
                    f"the {name} does not map the transversal onto itself: {what} "
                    f"mismatch {np.max(deviation / scale):.3e} times its rounding bound"
                )
        pairs.append((p, t))
    rotation, reflection = pairs
    p, t = rotation or (index, np.ones(len(lam), dtype=complex))
    t[p == index] = 1.0
    if reflection is not None:
        q, s = reflection
        deviation = np.abs(t.conj() * s[p] - s * t[q]) / alpha
        if not np.array_equal(q[p], p[q]) or np.any(deviation > scale):
            raise OracleInconsistencyError(
                "the reflection w -> -conj(w) does not commute with the rotation S: mismatch "
                f"{np.max(deviation / scale):.3e} times its rounding bound"
            )
    return (p, t), reflection


def _real_form(M, pairing, phases, bound) -> np.ndarray:
    """The Gram of a real orthonormal basis of the span whose Gram is M, for
    an antiunitary involution R with R u_a = s_a u_q(a) on its vectors u_a:
    M is overwritten with T^T M conj(T), whose real part is returned as a
    view of M.

    The basis is (u_a + s_a u_b) / sqrt 2 at a and i (u_a - s_a u_b) / sqrt 2
    at b = q(a) > a, and sqrt(s_f) u_f at each f = q(f). Each is fixed by R,
    so their inner products are real, and the basis spans the same leading
    blocks as the u_a where q closes them. T^T acts on rows and conj(T) on
    columns, by strips of ``linalg.ROW_BLOCK`` pairs, in two strip buffers:
    u_a - s_a u_b, then u_a + s_a u_b as twice u_a less that. An imaginary part
    above ``bound[a] + bound[b]`` at [a, b] raises
    ``OracleInconsistencyError``: it compares entries built from different,
    independently rounded points.
    """
    index = np.arange(len(M))
    lead = np.flatnonzero(pairing > index)
    fixed = np.flatnonzero(pairing == index)
    root = np.sqrt(phases[fixed])
    for X, s, unit, r in ((M, phases, 1j, root), (M.T, phases.conj(), -1j, root.conj())):
        for j0 in range(0, len(lead), linalg.ROW_BLOCK):
            a = lead[j0 : j0 + linalg.ROW_BLOCK]
            b = pairing[a]
            x, y = X[a], X[b]
            y *= s[a, None]
            np.subtract(x, y, out=y)
            x *= 2.0
            x -= y
            x *= math.sqrt(0.5)
            y *= unit * math.sqrt(0.5)
            X[a], X[b] = x, y
            del x, y
        X[fixed] *= r[:, None]
    worst = 0.0
    for r0 in range(0, len(M), linalg.ROW_BLOCK):
        strip = slice(r0, r0 + linalg.ROW_BLOCK)
        worst = max(worst, np.max(np.abs(M[strip].imag) / (bound[strip, None] + bound[None, :])))
    if worst > 1.0:
        raise OracleInconsistencyError(
            f"a real form of the Gram is not real: imaginary part {worst:.3e} times its rounding bound"
        )
    return M.real


def symmetry_halves(points, alpha, rotation, reflection=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Grams of the two eigenspaces of the involution W u_k = t_k u_p(k)
    (see :func:`transversal_symmetry`) on the unit kernels of weight alpha
    at ``points``: for -1, then +1, the Gram M of an orthonormal basis of
    the span's part in it, and the increasing indices k that M's rows stand
    for. A half without rows is left out. With the reflection
    R u_k = s_k u_q(k), each M is the float64 Gram of a real basis of its
    half (:func:`_real_form`).

    The basis is (u_a +- t_a u_p(a)) / sqrt 2 over the pair leaders
    a < p(a), plus each fixed vector u_f (t_f = 1) in the +1 half. W is
    unitary and self-adjoint, so M[a, b] = w_a w_b (G[a, b] +- conj(t_b)
    G[a, p(b)]), with weight 1 for a leader and 1/sqrt 2 for a fixed vector,
    whose two terms are equal. Over the rows R of leaders and fixed vectors
    that is A = G[R, R], plus +-C = +-G[R, p(L)] diag(conj t) in the leaders'
    columns L, times sqrt 2 in a leader's fixed columns and 1/sqrt 2 in a
    fixed row's leader columns. For every m that p closes, the spectrum of
    the Gram of u_k, k < m, is the union of those of the halves' leading
    blocks over their rows below m. Only A and C are assembled, about half
    of G's entries; by row strips, the +1 half is formed in A's buffer and
    the -1 half, A - C on the leaders' rows, in C's leading rows. With p
    the identity and t = 1, A = G is the one half. M[a, b] and conj M[b, a]
    are built from different, independently rounded points, so the
    Hermitian check of a half sees assembly errors that the check of G
    could not.

    R commutes with W, so it maps each half onto itself: the basis vector
    of a goes to s_a times that of c = q(a) where c leads its pair or is
    fixed, and to +-s_a conj(t_h) times that of h = p(c) where h < c. Each
    entry of a real form is a sum of at most eight entries of G, each of
    modulus at most 1 and within alpha (r_a + r_b) of its exact value, for
    the rounding bounds r of the rows' points (:func:`transversal_symmetry`;
    r is the same at w, -1/w and -conj w). So 8 alpha r is each row's bound.
    """
    p, t = rotation
    rows = np.flatnonzero(p >= np.arange(len(points)))
    leaders = rows[p[rows] > rows]
    A = kernel_gram(points[rows], points[rows], alpha)
    C = kernel_gram(points[rows], points[p[leaders]], alpha)
    C *= t[leaders].conj()[None, :]
    # runs lo:hi of leaders between the fixed positions of R, k fixed before
    # them: C's columns, and the -1 half's rows, lo - k:hi - k
    fixed = np.flatnonzero(p[rows] == rows).tolist()
    edges = [-1, *fixed, len(rows)]
    runs = [(lo + 1, hi, k) for k, (lo, hi) in enumerate(zip(edges, edges[1:])) if hi > lo + 1]
    for f in fixed:
        for lo, hi, k in runs:
            A[f, lo:hi] += C[f, lo - k : hi - k]
            A[f, lo:hi] *= math.sqrt(0.5)
            A[lo:hi, f] *= math.sqrt(2.0)
    for lo, hi, k in runs:
        for r0 in range(lo, hi, linalg.ROW_BLOCK):
            r1 = min(r0 + linalg.ROW_BLOCK, hi)
            minus = np.empty((r1 - r0, len(leaders)), dtype=C.dtype)
            for c0, c1, j in runs:
                a, c = A[r0:r1, c0:c1], C[r0:r1, c0 - j : c1 - j]
                np.subtract(a, c, out=minus[:, c0 - j : c1 - j])
                a += c
            C[r0 - k : r1 - k] = minus
    halves = []
    for sign, M, members in ((-1.0, C[: len(leaders)], leaders), (1.0, A, rows)):
        if not len(members):
            continue
        if reflection is not None:
            q, s = reflection
            image = q[members]
            head = np.minimum(image, p[image])
            phases = s[members] * np.where(image == head, 1.0, sign * t[head].conj())
            bound = 8.0 * alpha * rounding_bound(points[members])
            M = _real_form(M, np.searchsorted(members, head), phases, bound)
        halves.append((M, members))
    return halves


def transversal_riesz_bounds(
    ball: fuchsian.GroupBall, cosets: fuchsian.CosetSystem, z: complex, orbit: np.ndarray, alpha: float, sizes
) -> list[tuple[float, float]]:
    """Smallest and largest eigenvalue of the Gram of the first k coset
    representatives' unit kernels (at the points ``orbit[cosets.rep_index]``),
    one pair per k of ``sizes``, each a truncation by norm.

    The vectors are split by :func:`transversal_symmetry` and
    :func:`symmetry_halves`; each half's truncations are its leading blocks,
    validated and eigensolved by one :func:`frames.gram` call, in real
    arithmetic at a mirror point, and each extreme is taken over both halves.
    """
    rotation, reflection = transversal_symmetry(ball, cosets, z, orbit, alpha, sizes)
    bounds = [(math.inf, -math.inf)] * len(sizes)
    for M, members in symmetry_halves(orbit[cosets.rep_index], alpha, rotation, reflection):
        half_sizes = np.searchsorted(members, sizes).tolist()
        steps = [j for j, size in enumerate(half_sizes) if size]
        for j, w in zip(steps, frames.gram(M, [half_sizes[j] for j in steps])):
            bounds[j] = (min(bounds[j][0], float(w[0])), max(bounds[j][1], float(w[-1])))
    return bounds


def formal_degree_closed_form(alpha: float, haar_scale: float = 1.0) -> float:
    """Formal degree (alpha - 1) / (4 pi) of the weighted Bergman
    representation, divided by ``haar_scale``.

    This is the coupling constant of Atiyah-Schmid and Goodman-de la
    Harpe-Jones. The weight is checked (:func:`check_weight`) before the
    scale. A degree that overflows raises ``NumericalFailure``, one that
    underflows to 0 ``UsageError``.
    """
    check_weight(alpha)
    if not 0.0 < haar_scale < math.inf:
        raise UsageError(f"haar_scale must be positive and finite, got {haar_scale}")
    degree = (alpha - 1.0) / (4.0 * math.pi) / haar_scale
    if degree == math.inf:
        raise NumericalFailure(f"formal degree overflows at alpha = {alpha}, haar_scale = {haar_scale}")
    if degree == 0.0:
        raise UsageError(f"formal degree underflows to 0 at alpha = {alpha}, haar_scale = {haar_scale}")
    return degree


def projective_stabilizer_kernel(
    ball: fuchsian.GroupBall, z: complex, alpha: float, orbit: np.ndarray, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Ball indices, increasing, of the elements g that move the point z by
    at most tol (:func:`fuchsian.stabilizer_of_point`), and the overlaps
    u(g) = <u_{gz}, u_z> of the unit kernels of weight alpha. pi(g) k_z is a
    unimodular multiple of ||k_z|| u_{gz}, so it lies in the circle times
    k_z iff gz = z, and then |u(g)| = 1.

    ``orbit`` is ``act(ball.elements, z)``. The distances d(w, z)
    of its points w, in asinh form, decide the stabiliser and check the
    overlaps, the independent path: each |u(g)| against cosh(d/2)^-alpha at
    the computed point w of gz. Both are exact functions of w and z,
    computed to a few eps times alpha (1 + d), below alpha times the
    rounding bounds of z and w (64 eps each at least). So a deviation above
    that, relative to cosh(d/2)^-alpha, and above the smallest normal
    double, where both underflow, raises ``OracleInconsistencyError``.
    """
    if len(orbit) != len(ball.elements):
        raise UsageError(f"orbit has {len(orbit)} vectors for {len(ball.elements)} ball elements")
    distances = distance(orbit, z)
    members = fuchsian.stabilizer_of_point(ball, z, distances, tol)
    overlaps = kernel_gram(orbit, np.array([z]), alpha)[:, 0]
    expected = np.cosh(distances / 2.0) ** -alpha
    deviation = np.abs(np.abs(overlaps) - expected)
    scale = alpha * (rounding_bound(z) + rounding_bound(orbit)) * expected + np.finfo(float).tiny
    if np.any(deviation > scale):
        raise OracleInconsistencyError(
            "kernel overlaps disagree with the distances of their points: mismatch "
            f"{np.max(deviation / scale):.3e} times its rounding bound"
        )
    return members, overlaps[members]


def probe_kernels(center: complex, count: int) -> np.ndarray:
    """Deterministic probe set: the points of kernels on a golden-angle spiral
    of geodesic polar coordinates within ``PROBE_RADIUS`` of ``center``."""
    if count < 1:
        raise UsageError(f"need at least one probe, got {count}")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    root_y = math.sqrt(center.imag)
    mover = canonical([root_y, center.real / root_y, 0.0, 1.0 / root_y])
    thetas = [(p / golden) % 1.0 * math.pi for p in range(count)]
    rotations = canonical([(math.cos(t), math.sin(t), -math.sin(t), math.cos(t)) for t in thetas])
    radii = [PROBE_RADIUS * math.sqrt((p + 0.5) / count) for p in range(count)]
    return act(compose(mover, rotations), np.array([complex(0.0, math.exp(r)) for r in radii]))


@dataclass(frozen=True)
class FrameReport:
    """One density analysis step, its fields declared in ``frame_report``
    record order, and both density verdicts, evaluated on construction.

    Verdict (i): a frame forces covolume * degree <= 1 / stabiliser order.
    Verdict (ii): a Riesz transversal orbit forces the reverse inequality.
    Each compares to ``frames.DENSITY_TOL`` relative, and a failed
    applicable verdict is flagged as an inconsistency.
    """

    lattice: str
    ball_norm: float
    stab_order: int
    covolume: float
    formal_degree: float
    density_product: float = field(init=False)
    density_bound: float = field(init=False)
    gen_norm_sq: float
    a_est: float
    b_est: float
    riesz_min: float
    riesz_max: float
    frame_decision: bool
    riesz_decision: bool
    verdict_i_applicable: bool = field(init=False)
    verdict_i_pass: bool = field(init=False)
    verdict_ii_applicable: bool = field(init=False)
    verdict_ii_pass: bool = field(init=False)
    consistent: bool = field(init=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stab_order < 1:
            raise UsageError(f"stabiliser order must be at least 1, got {self.stab_order}")
        if self.a_est > self.b_est:
            raise UsageError(f"frame estimates out of order: {self.a_est} > {self.b_est}")
        product = self.covolume * self.formal_degree
        bound = 1.0 / self.stab_order
        if not product > 0.0:
            raise UsageError("density product must be positive")
        if product == math.inf:
            raise NumericalFailure(f"density product {self.covolume} * {self.formal_degree} overflows")
        scale = max(product, bound)
        pass_i = product <= bound + frames.DENSITY_TOL * scale
        pass_ii = product >= bound - frames.DENSITY_TOL * scale
        derived = {
            "density_product": product,
            "density_bound": bound,
            "verdict_i_applicable": self.frame_decision,
            "verdict_i_pass": pass_i,
            "verdict_ii_applicable": self.riesz_decision,
            "verdict_ii_pass": pass_ii,
            "consistent": (not self.frame_decision or pass_i) and (not self.riesz_decision or pass_ii),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def to_flat_dict(self) -> dict:
        """The ``frame_report`` record: the schema version, every field but
        the diagnostics in declaration order, then each diagnostic, sorted by
        key, as ``diag_<key>``."""
        record = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            if f.name != "diagnostics":
                record[f.name] = getattr(self, f.name)
        for key, value in sorted(self.diagnostics.items()):
            if isinstance(value, (list, tuple)):
                value = ";".join(repr(float(v)) for v in value)
            record[f"diag_{key}"] = value
        return record


def density_analysis(
    spec: fuchsian.LatticeSpec,
    z: complex,
    alpha: float,
    ball_norm: float,
    *,
    probes: int = 40,
    refine_steps: int = 3,
    refine_delta: float = 1.0,
    haar_scale: float = 1.0,
) -> list[FrameReport]:
    """Frame reports of the orbit of the kernel at ``z`` under ``spec``, one
    per truncation: ``refine_steps`` radii ``refine_delta`` apart up to
    ``ball_norm``, none below sqrt 2.

    The Riesz bounds are the Gram spectrum of the coset representatives in
    the truncation, the frame bounds are estimated on the span of ``probes``
    kernels within ``PROBE_RADIUS`` of z. Both are read from the unit
    kernels of the orbit and reported times ||k_z||^2 = ``gen_norm_sq``,
    the squared norm of every orbit vector. A decision holds when its lower
    bound stays above ``DECISION_FLOOR`` times the upper one over the last
    three truncations: a trend, not a proof. The point z, a complex number,
    is checked first, then the weight alpha, then the options.
    """
    check_point(z)
    check_weight(alpha)
    # ball_enumerate refuses a small ball norm before any work on the ball;
    # the probe count is checked here, before the ball enumeration it would spare
    if probes < 1:
        raise UsageError(f"probes must be at least 1, got {probes}")
    if refine_steps < 1:
        raise UsageError(f"refine_steps must be at least 1, got {refine_steps}")
    if not 0.0 < refine_delta < math.inf:
        raise UsageError(f"refine_delta must be positive and finite, got {refine_delta}")

    covolume = fuchsian.lattice_covolume(spec, haar_scale=haar_scale)  # refuses haar_scale <= 0
    degree = formal_degree_closed_form(alpha, haar_scale)
    # both factors are positive and finite; their product is checked before the ball
    product = covolume * degree
    if product == 0.0:
        raise UsageError(f"density product {covolume} * {degree} underflows to {product}")
    if product == math.inf:
        raise NumericalFailure(f"density product {covolume} * {degree} overflows to {product}")
    gen_norm_sq = kernel_norm_sq(z, alpha)

    ball = fuchsian.ball_enumerate(spec, ball_norm)
    # the one orbit of the analysis; every other orbit is a gather from it
    orbit = act(ball.elements, z)
    stab_members, _phases = projective_stabilizer_kernel(ball, z, alpha, orbit)
    stab_order = len(stab_members)
    cosets = fuchsian.coset_representatives(ball, stab_members)
    probe_points = probe_kernels(z, probes)

    # Ball elements are sorted by norm and the representatives' ball indices
    # increase, so every truncation is a leading prefix of both: assemble
    # once at the full radius and slice per step. The two halves of the Gram
    # of the representatives are the large arrays: every truncation is
    # validated and eigensolved as views of them, before the probe matrices
    # are made.
    norms = [max(math.sqrt(2.0), ball_norm - refine_delta * j) for j in range(refine_steps)][::-1]
    gamma_counts = [ball.truncation_count(norm) for norm in norms]
    lam_counts = [int(np.searchsorted(cosets.rep_index, count)) for count in gamma_counts]
    riesz_bounds = transversal_riesz_bounds(ball, cosets, z, orbit, alpha, lam_counts)
    # Weighted by ||k_w|| over the largest probe norm, (min Im w / Im w)^(alpha/2)
    # <= 1, the unit probes are the plain kernels k_w up to one common
    # factor, so the probe family and its whitening cutoff are theirs, and no
    # probe entry leaves the double range at any alpha.
    probe_y = probe_points.imag
    probe_weight = (probe_y.min() / probe_y) ** (0.5 * alpha)
    probe_matrix = kernel_gram(probe_points, orbit, alpha).T
    probe_matrix *= probe_weight
    probe_gram = kernel_gram(probe_points, probe_points, alpha).T
    probe_gram *= probe_weight[:, None] * probe_weight
    whitener = linalg.whitener(*linalg.hermitian_eigen(probe_gram, name="probe Gram matrix"))
    # The S-relation compares the synthesis of the fully tiled
    # representatives with that of every rep * h, whose columns come from
    # the other ball elements of each coset: both are gathers of the
    # synthesis of the whole ball, which is then freed.
    fully_tiled = np.all(cosets.tile >= 0, axis=1)
    synthesis = kernel_gram(orbit, probe_points, alpha).T
    synthesis *= probe_weight[:, None]
    synth_red = synthesis[:, cosets.rep_index[fully_tiled]]
    synth_full = synthesis[:, cosets.tile[fully_tiled].ravel()]
    del synthesis

    def scaled(values):
        return [gen_norm_sq * v for v in values]

    probe_trace_min, probe_trace_max, riesz_trace_min, riesz_trace_max = [], [], [], []
    reports = []
    for norm, gamma_count, lam_count, (riesz_lo, riesz_hi) in zip(
        norms, gamma_counts, lam_counts, riesz_bounds
    ):
        probe_lo, probe_hi, probe_diag = frames.frame_bounds_probe(
            probe_matrix[:gamma_count], whitener
        )
        probe_trace_min.append(probe_lo)
        probe_trace_max.append(probe_hi)
        riesz_trace_min.append(riesz_lo)
        riesz_trace_max.append(riesz_hi)
        frame_decision = all(lo >= DECISION_FLOOR * probe_hi for lo in probe_trace_min[-3:])
        riesz_decision = all(
            lo >= DECISION_FLOOR * max(hi, 0.0)
            for lo, hi in zip(riesz_trace_min[-3:], riesz_trace_max[-3:])
        )
        tiled_count = np.count_nonzero(fully_tiled[:lam_count])
        diagnostics = {
            "truncation_radius": norm,
            "probe_count": probe_diag["probe_count"],
            "probe_rank": probe_diag["probe_rank"],
            "gamma_count": gamma_count,
            "lambda_count": lam_count,
            "ball_certified": ball.closure_certified,
            "s_relation_residual": frames.s_relation_residual(
                synth_full[:, : tiled_count * stab_order], synth_red[:, :tiled_count], stab_order
            ),
            "probe_trace_min": scaled(probe_trace_min),
            "probe_trace_max": scaled(probe_trace_max),
            "riesz_trace_min": scaled(riesz_trace_min),
            "riesz_trace_max": scaled(riesz_trace_max),
        }
        reports.append(
            FrameReport(
                lattice=spec.name, ball_norm=norm, stab_order=stab_order, covolume=covolume,
                formal_degree=degree, gen_norm_sq=gen_norm_sq,
                a_est=gen_norm_sq * probe_lo, b_est=gen_norm_sq * probe_hi,
                riesz_min=gen_norm_sq * riesz_lo, riesz_max=gen_norm_sq * riesz_hi,
                frame_decision=frame_decision, riesz_decision=riesz_decision,
                diagnostics=diagnostics,
            )
        )
    return reports
