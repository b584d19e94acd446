"""Weighted Bergman spaces on the upper half-plane: reproducing kernels,
the projective weighted slash action on kernels, its cocycle, kernel
orbits as arrays with closed-form Gram matrices, and the formal degree:
in closed form, and by quadrature of the square-integrability integral as
its independent cross-check. At a point on a mirror of the modular group,
:func:`mirror_rephased` gives the orbit the phases under which its Gram
matrix has a real form of the same spectra (see ``linalg``).
:func:`density_analysis` is the ``bergman-density`` pipeline: the frame
reports of a lattice orbit of one kernel over refining truncations.

Conventions fixed here and verified by the test suite:

* kernel at z:  k_z(w) = 2^(alpha-2) pi^-1 (alpha-1) i^alpha (w - conj z)^-alpha,
  which is anti-holomorphic in z and positive on the diagonal;
* all complex powers use the principal branch, and i^alpha = exp(i pi alpha / 2);
* the cocycle is defined operationally by branch tracking at a reference
  point (the value is point-independent because no automorphy factor
  crosses the branch cut while the point stays in the half-plane);
* the Haar measure is y^-2 dx dy times a unit-mass rotation factor, with
  an explicit scale knob so that covolume * formal degree is scale-free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import frames, fuchsian, linalg
from .errors import AccuracyError, OracleInconsistencyError, ResourceLimitError, UsageError
from .hyperbolic import QuadratureGrid, UpperHalfPoint, canonical, compose, image, inverse
from .hyperbolic import frobenius_sq, integrate_invariant

_BASE_POINT = UpperHalfPoint(0.0, 1.0)

# an assembled inner-product matrix holds at most GRAM_SIZE_CAP^2 entries
GRAM_SIZE_CAP = 4096


@dataclass(frozen=True)
class Weight:
    """Weight exponent of the Bergman space; must exceed 1."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 1.0):
            raise UsageError(f"weight must satisfy alpha > 1, got {self.alpha}")


@dataclass(frozen=True)
class KernelVector:
    """Reproducing kernel of the weighted space at a half-plane point."""

    z: UpperHalfPoint
    weight: Weight


@dataclass(frozen=True, eq=False)
class KernelOrbit:
    """Vectors c_k k_{z_k} of one weight: points ``z`` and coefficients ``c``
    as complex arrays of equal length."""

    z: np.ndarray
    c: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.z.shape != self.c.shape or self.z.ndim != 1:
            raise UsageError("points and coefficients must be 1-d arrays of equal length")
        if not np.all(self.z.imag > 0.0):
            raise UsageError("kernel points must lie in the open upper half-plane")
        if not np.all(self.c != 0):
            raise UsageError("kernel coefficients must be nonzero")

    @classmethod
    def plain(cls, points, weight: Weight) -> "KernelOrbit":
        """Kernels at the given points with coefficient 1."""
        z = np.array([p.as_complex for p in points], dtype=complex)
        return cls(z=z, c=np.ones_like(z), alpha=weight.alpha)

    def __len__(self):
        return len(self.z)

    def take(self, index) -> "KernelOrbit":
        """The vectors at the given positions, in that order."""
        return KernelOrbit(z=self.z[index], c=self.c[index], alpha=self.alpha)


def kernel_gram(left: KernelOrbit, right: KernelOrbit) -> np.ndarray:
    """Inner products G[i, j] = <left_i, right_j>, linear in the left entry.

    By the reproducing property <c k_z, c' k_w> = c conj(c') k_z(w), so
    G[i, j] = c_i conj(c'_j) C i^alpha (w_j - conj z_i)^(-alpha) with
    C = 2^(alpha-2) (alpha-1) / pi. The argument of w - conj(z) lies in
    (0, pi), so no branch cut is crossed.

    The matrix is assembled in its own buffer by in-place ufuncs, the
    coefficient products by strips of ``linalg.ROW_BLOCK`` rows, so no
    second full-size array is made. Every entry is computed as
    ((w_j - conj z_i)^-alpha C i^alpha) times (c_i conj(c'_j)), in that
    operand order at every size, so a leading block of a Gram is bitwise
    the Gram of the leading vectors.
    """
    if left.alpha != right.alpha:
        raise UsageError(f"weight mismatch: {left.alpha} vs {right.alpha}")
    if len(left) * len(right) > GRAM_SIZE_CAP * GRAM_SIZE_CAP:
        raise ResourceLimitError(
            f"{len(left)} x {len(right)} inner products exceed the Gram cap {GRAM_SIZE_CAP}^2"
        )
    alpha = left.alpha
    const = 2.0 ** (alpha - 2.0) / math.pi * (alpha - 1.0) * cmath.exp(1j * math.pi * alpha / 2.0)
    G = np.subtract(right.z[None, :], left.z.conj()[:, None])
    np.power(G, -alpha, out=G)
    np.multiply(G, const, out=G)
    right_c = right.c.conj()
    for r0 in range(0, len(left), linalg.ROW_BLOCK):
        rows = G[r0 : r0 + linalg.ROW_BLOCK]
        np.multiply(left.c[r0 : r0 + linalg.ROW_BLOCK, None] * right_c[None, :], rows, out=rows)
    return G


def kernel_norm_sq(k: KernelVector) -> float:
    """||k_z||^2 from the diagonal kernel value, which is real and positive."""
    single = KernelOrbit.plain([k.z], k.weight)
    return float(kernel_gram(single, single)[0, 0].real)


def sigma_cocycle(x, y, weight: Weight) -> np.ndarray:
    """Unimodular cocycle of the weighted slash action, by branch tracking,
    for matrix rows x and y broadcast against each other.

    Computed as j(x^-1, p)^a j(y^-1, x^-1 p)^a / j((xy)^-1, p)^a at the
    reference point p = i; the value is independent of p. The complex
    arithmetic is scalar, one row at a time.
    """
    alpha = weight.alpha
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    p = _BASE_POINT.as_complex
    values = []
    for (a, b, c, d), (_, _, yc, yd), (_, _, xyc, xyd) in zip(
        *(m.reshape(-1, 4).tolist() for m in (inverse(x), inverse(y), inverse(compose(x, y))))
    ):
        p1 = image(a, b, c, d, p)
        num = ((1.0 / (c * p + d)) ** alpha) * ((1.0 / (yc * p1 + yd)) ** alpha)
        values.append(num / ((1.0 / (xyc * p + xyd)) ** alpha))
    return np.array(values, dtype=complex).reshape(x.shape[:-1])


def orbit_system(maps, kernel: KernelVector) -> KernelOrbit:
    """Orbit pi(m) k of a kernel under group elements given as matrix rows.

    Each pi(m) k is a unimodular-times-positive scalar times the kernel at
    the moved point: c = sigma(m, m^-1) conj(j(m, z)^alpha) at m.z.
    """
    alpha = kernel.weight.alpha
    z = kernel.z.as_complex
    maps = np.asarray(maps, dtype=float).reshape(-1, 4)
    sigma = sigma_cocycle(maps, inverse(maps), kernel.weight).tolist()
    points, coeffs = [], []
    for (a, b, c, d), s in zip(maps.tolist(), sigma):
        points.append(image(a, b, c, d, z))
        coeffs.append(s * ((1.0 / (c * z + d)) ** alpha).conjugate())
    return KernelOrbit(z=np.array(points, dtype=complex), c=np.array(coeffs, dtype=complex), alpha=alpha)


def mirror_rephased(orbit: KernelOrbit, mirror: str) -> KernelOrbit:
    """The vectors u_k c_k k_{z_k} with unimodular u_k in closed form, whose
    Gram matrix G satisfies G[p][:, p] = conj(G) whenever the mirror
    (``fuchsian.MIRRORS``) maps the points onto themselves as
    z_p(k) = m(z_k) and the vectors have equal norms.

    Rephasing is a diagonal unitary similarity of the Gram matrix, so no
    spectrum moves. With K(z, w) = <k_z, k_w>, the Gram of the new vectors
    c'_k k_{z_k} is mirror-conjugate when c'_p(k) f(z_k) = conj(c'_k) for
    the factor f of K(m z, m w) = conj K(z, w) f(z) conj(f(w)):

    * imaginary axis: K(-conj z, -conj w) = conj K(z, w) exactly, f = 1,
      and |c_p(k)| = |c_k| since the vectors have equal norms, so
      c'_k = |c_k|;
    * unit circle: f(z) = z^alpha with principal powers, one factor per
      point; the norms give |c_p(k)| |z_k|^alpha = |c_k|, and
      arg(1/conj z) = arg z, so c'_k = |c_k| exp(-i alpha arg(z_k) / 2).
    """
    if mirror not in fuchsian.MIRRORS:
        raise UsageError(f"unknown mirror {mirror!r}")
    c = np.abs(orbit.c).astype(complex)
    if mirror == "unit_circle":
        c *= np.exp(-0.5j * orbit.alpha * np.angle(orbit.z))
    return KernelOrbit(z=orbit.z, c=c, alpha=orbit.alpha)


def default_formal_degree_grid(
    weight: Weight,
    base: UpperHalfPoint = _BASE_POINT,
    nx: int = 1536,
    nt: int = 768,
) -> QuadratureGrid:
    """Rectangle grid for the formal-degree quadrature.

    The squared matrix coefficient decays like y^(alpha-2) (1+y)^(1-2 alpha)
    after the horizontal integral, so the vertical cut-offs are chosen from
    its small-y and large-y tail exponents. The x-range is fixed at
    +/- 120 y_0, and the mass it cuts off at large y dominates the error for
    small alpha (6.9e-5 relative at alpha = 2, 1e-6 at alpha = 3). Ranges
    are translated and dilated to the base point, which leaves accuracy
    invariant.
    """
    alpha = weight.alpha
    y_lo = min(1e-4, 1e-8 ** (1.0 / (alpha - 1.0)))
    y_hi = max(1e3, 1e8 ** (1.0 / alpha))
    half_width = 120.0
    return QuadratureGrid.rectangle_log_y(
        base.x - half_width * base.y,
        base.x + half_width * base.y,
        math.log(y_lo * base.y),
        math.log(y_hi * base.y),
        nx,
        nt,
    )


def formal_degree_closed_form(weight: Weight, haar_scale: float = 1.0) -> float:
    """Formal degree (alpha - 1) / (4 pi) of the weighted Bergman
    representation, divided by ``haar_scale``.

    This is the coupling constant of Atiyah-Schmid and Goodman-de la
    Harpe-Jones; :func:`formal_degree` approximates it by quadrature.
    """
    if not haar_scale > 0.0:
        raise UsageError(f"haar_scale must be positive, got {haar_scale}")
    return (weight.alpha - 1.0) / (4.0 * math.pi) / haar_scale


def formal_degree(
    weight: Weight,
    grid: QuadratureGrid | None = None,
    *,
    base: UpperHalfPoint = _BASE_POINT,
    haar_scale: float = 1.0,
    rel_tol: float | None = 0.01,
    full_output: bool = False,
):
    """Formal degree from the square-integrability integral of a kernel.

    The rotation factor integrates exactly to 1 (the matrix-coefficient
    modulus is constant along it), leaving the half-plane integral of
    [4 y_0 y / ((x - x_0)^2 + (y + y_0)^2)]^alpha against the invariant
    measure, normalised by ||k||^4. The returned degree scales inversely
    with ``haar_scale``. With ``full_output`` a diagnostics dict with a
    Richardson error estimate is returned alongside. That estimate, which
    ``rel_tol`` bounds, sees only the discretisation error of halving the
    mesh, not the mass cut off by the grid's x-range.
    """
    if not haar_scale > 0.0:
        raise UsageError(f"haar_scale must be positive, got {haar_scale}")
    if grid is None:
        grid = default_formal_degree_grid(weight, base)
    alpha = weight.alpha
    x0, y0 = base.x, base.y

    def integrand(x, y):
        return (4.0 * y0 * y / ((x - x0) ** 2 + (y + y0) ** 2)) ** alpha

    value = integrate_invariant(grid, integrand)
    if not value > 0.0:
        raise AccuracyError("formal degree integral vanished; grid does not cover the mass")
    coarse = integrate_invariant(grid.scaled_resolution(0.5), integrand)
    # midpoint rule is O(h^2): the fine value is ~3x closer than the coarse one
    est_rel_error = abs(value - coarse) / (3.0 * value)
    if rel_tol is not None and est_rel_error > rel_tol:
        raise AccuracyError(
            f"estimated quadrature error {est_rel_error:.3e} exceeds rel_tol {rel_tol:.3e}"
        )
    degree = (1.0 / value) / haar_scale
    if not full_output:
        return degree
    diagnostics = {
        "integral": value,
        "integral_coarse": coarse,
        "est_rel_error": est_rel_error,
        "node_count": grid.node_count,
    }
    return degree, diagnostics


def kernel_tol_for_point_tol(point_tol: float, alpha: float) -> float:
    """Overlap threshold matching a point-distance threshold.

    |<pi(g) k, k>| / ||k||^2 equals cosh(d(gz, z)/2)^-alpha, so distance
    tolerance tau corresponds exactly to overlap deficit
    1 - cosh(tau/2)^-alpha.
    """
    return 1.0 - math.cosh(point_tol / 2.0) ** (-alpha)


def point_tol_for_kernel_tol(tol: float, alpha: float) -> float:
    """Inverse of :func:`kernel_tol_for_point_tol`."""
    return 2.0 * math.acosh((1.0 - tol) ** (-1.0 / alpha))


def projective_stabilizer_kernel(
    ball: fuchsian.GroupBall, k: KernelVector, orbit: KernelOrbit, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Ball indices, increasing, of the elements whose action fixes the
    kernel up to a scalar, and those scalars u(g) with pi(g) k = u(g) k.

    ``orbit`` is ``orbit_system(ball.elements, k)``. Selection is by overlap
    |<pi(g) k, k>| >= (1 - tol) ||k||^2 and must agree exactly with the
    point stabiliser of the kernel's centre at the matching distance
    tolerance.
    """
    if not (0.0 < tol < 1.0):
        raise UsageError(f"tol must lie in (0, 1), got {tol}")
    if len(orbit) != len(ball.elements):
        raise UsageError(f"orbit has {len(orbit)} vectors for {len(ball.elements)} ball elements")
    reference = KernelOrbit.plain([k.z], k.weight)
    overlaps = kernel_gram(orbit, reference)[:, 0] / kernel_norm_sq(k)
    members = np.flatnonzero(np.abs(overlaps) >= 1.0 - tol)
    point_tol = min(point_tol_for_kernel_tol(tol, k.weight.alpha), 1e-4)
    point_members = fuchsian.stabilizer_of_point(ball, k.z, tol=point_tol)
    if not np.array_equal(members, point_members):
        raise OracleInconsistencyError(
            "kernel stabiliser disagrees with the point stabiliser "
            f"({len(members)} vs {len(point_members)} elements)"
        )
    return members, overlaps[members]


def probe_kernels(kernel: KernelVector, count: int, max_radius: float = 2.0) -> KernelOrbit:
    """Deterministic probe set: kernels on a golden-angle spiral of geodesic
    polar coordinates around the generator's centre."""
    if count < 1:
        raise UsageError(f"need at least one probe, got {count}")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    center = kernel.z
    root_y = math.sqrt(center.y)
    mover = canonical([root_y, center.x / root_y, 0.0, 1.0 / root_y])
    thetas = [(p / golden) % 1.0 * math.pi for p in range(count)]
    rotations = canonical([(math.cos(t), math.sin(t), -math.sin(t), math.cos(t)) for t in thetas])
    points = []
    for p, (a, b, c, d) in enumerate(compose(mover, rotations).tolist()):
        rho = max_radius * math.sqrt((p + 0.5) / count)
        points.append(image(a, b, c, d, complex(0.0, math.exp(rho))))
    z = np.array(points, dtype=complex)
    return KernelOrbit(z=z, c=np.ones_like(z), alpha=kernel.weight.alpha)


def density_analysis(
    spec: fuchsian.LatticeSpec,
    z: UpperHalfPoint,
    alpha: float,
    ball_norm: float,
    *,
    probes: int = 40,
    probe_radius: float = 2.0,
    refine_steps: int = 3,
    refine_delta: float = 1.0,
    frame_floor: float = 1e-6,
    riesz_floor: float = 1e-6,
    haar_scale: float = 1.0,
) -> list[frames.FrameReport]:
    """Frame reports of the orbit of the kernel at ``z`` under ``spec``, one
    per truncation: ``refine_steps`` radii ``refine_delta`` apart up to
    ``ball_norm``, none below sqrt 2.

    The Riesz bounds are the Gram spectrum of the coset representatives in
    the truncation, the frame bounds are estimated on the span of ``probes``
    kernels within ``probe_radius`` of z. A decision holds when its lower
    bound stays above the floor times the upper one over the last three
    truncations: a trend, not a proof.
    """
    if not alpha > 1.0:
        raise UsageError(f"alpha must exceed 1, got {alpha}")
    if ball_norm < math.sqrt(2.0):
        raise UsageError(f"ball norm must be at least sqrt(2), got {ball_norm}")
    if probes < 1:
        raise UsageError(f"probes must be at least 1, got {probes}")
    if refine_steps < 1:
        raise UsageError(f"refine_steps must be at least 1, got {refine_steps}")
    for name, value in (
        ("probe_radius", probe_radius), ("refine_delta", refine_delta),
        ("frame_floor", frame_floor), ("riesz_floor", riesz_floor),
    ):
        if not value > 0.0:
            raise UsageError(f"{name} must be positive, got {value}")

    weight = Weight(alpha)
    kernel = KernelVector(z, weight)
    covolume = fuchsian.lattice_covolume(spec, haar_scale=haar_scale)  # refuses haar_scale <= 0
    degree = formal_degree_closed_form(weight, haar_scale)

    ball = fuchsian.ball_enumerate(spec, ball_norm)
    # the one orbit of the analysis; every other orbit is a gather from it
    orbit = orbit_system(ball.elements, kernel)
    stab_members, _phases = projective_stabilizer_kernel(ball, kernel, orbit)
    stab_order = len(stab_members)
    cosets = fuchsian.coset_representatives(ball, stab_members)
    probe_orbit = probe_kernels(kernel, probes, probe_radius)
    gen_norm_sq = kernel_norm_sq(kernel)

    # Ball elements are sorted by norm and the representatives' ball indices
    # increase, so every truncation is a leading prefix of both: assemble
    # once at the full radius and slice per step. The Gram of the
    # representatives is the one large array: every truncation is validated
    # and eigensolved as a view of it, before the probe matrices are made.
    norms = [max(math.sqrt(2.0), ball_norm - refine_delta * j) for j in range(refine_steps)][::-1]
    ball_norms_sq = frobenius_sq(ball.elements)
    gamma_counts = []
    for norm in norms:
        inside = ball_norms_sq <= norm * norm + 1e-9
        gamma_counts.append(int(np.count_nonzero(inside)))
        if not inside[: gamma_counts[-1]].all():
            raise OracleInconsistencyError("truncation is not a leading prefix of the norm-sorted elements")
    lam_counts = [int(np.searchsorted(cosets.rep_index, count)) for count in gamma_counts]
    lam_orbit = orbit.take(cosets.rep_index)
    # At a point on a mirror through i, the mirror pairs the representatives
    # within every truncation; rephased, the Gram is eigensolved in real form.
    mirror = fuchsian.point_mirror(spec, z)
    pairing = None
    if mirror is not None:
        pairing = fuchsian.mirror_pairing(ball, cosets, mirror, lam_counts)
        lam_orbit = mirror_rephased(lam_orbit, mirror)
    riesz_spectra = frames.gram(kernel_gram(lam_orbit, lam_orbit), lam_counts, mirror=pairing)
    probe_matrix = kernel_gram(probe_orbit, orbit).T
    probe_gram = kernel_gram(probe_orbit, probe_orbit).T
    whitener = linalg.psd_eigen(probe_gram, name="probe Gram matrix").whitener()
    # The S-relation compares the synthesis of the fully tiled
    # representatives with that of every rep * h, whose columns come from
    # the other ball elements of each coset.
    fully_tiled = np.all(cosets.tile >= 0, axis=1)
    synth_red = kernel_gram(orbit.take(cosets.rep_index[fully_tiled]), probe_orbit).T
    synth_full = kernel_gram(orbit.take(cosets.tile[fully_tiled].ravel()), probe_orbit).T

    probe_trace_min, probe_trace_max, riesz_trace_min, riesz_trace_max = [], [], [], []
    reports = []
    for norm, gamma_count, lam_count, riesz_spectrum in zip(
        norms, gamma_counts, lam_counts, riesz_spectra
    ):
        riesz_lo, riesz_hi = riesz_spectrum.extremes
        probe_lo, probe_hi, probe_diag = frames.frame_bounds_probe(
            probe_matrix[:gamma_count], whitener
        )
        probe_trace_min.append(probe_lo)
        probe_trace_max.append(probe_hi)
        riesz_trace_min.append(riesz_lo)
        riesz_trace_max.append(riesz_hi)
        frame_decision = all(lo >= frame_floor * probe_hi for lo in probe_trace_min[-3:])
        riesz_decision = all(
            lo >= riesz_floor * max(hi, 0.0)
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
            "probe_trace_min": list(probe_trace_min),
            "probe_trace_max": list(probe_trace_max),
            "riesz_trace_min": list(riesz_trace_min),
            "riesz_trace_max": list(riesz_trace_max),
        }
        reports.append(
            frames.density_verdict(
                lattice=spec.name, ball_norm=norm, covolume=covolume, formal_degree=degree,
                stab_order=stab_order, gen_norm_sq=gen_norm_sq,
                frame_decision=frame_decision, riesz_decision=riesz_decision,
                a_est=probe_lo, b_est=probe_hi, riesz_min=riesz_lo, riesz_max=riesz_hi,
                diagnostics=diagnostics,
            )
        )
    return reports
