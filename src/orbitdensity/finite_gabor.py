"""Exact finite Weyl-Heisenberg systems over Z_n x Z_n.

Time-frequency shifts of a window give a projective irreducible
representation of the finite abelian group G = Z_n x Z_n with counting
measure; every subgroup is a lattice of covolume n^2 / |subgroup| and the
formal degree is 1/n. In this instance every density statement and proof
identity is checkable exhaustively in exact arithmetic (up to float
roundoff), which is what :func:`verify_density_theorem` and
:func:`exhaustive_scan` do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import frames, linalg
from .errors import (
    DimensionError,
    OracleInconsistencyError,
    ResourceLimitError,
    TheoremViolationError,
    UsageError,
)

_IDENTITY_RESIDUAL_TOL = 1e-10
_SANDWICH_TOL = 1e-9


def pi_shift(a: int, b: int, v) -> np.ndarray:
    """Time-frequency shift: (pi(a,b) v)_j = omega^(j b) v_(j-a mod n).

    Modulation is applied after translation; omega = exp(2 pi i / n).
    """
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionError(f"window must be a nonempty 1-d vector, got shape {vec.shape}")
    n = vec.size
    phases = np.exp(2j * np.pi * ((np.arange(n) * b) % n) / n)
    return phases * np.roll(vec, a % n)


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


@dataclass(frozen=True)
class SubgroupDescr:
    """Subgroup of Z_n x Z_n with a small generating set."""

    n: int
    generators: tuple
    elements: tuple
    order: int

    def __post_init__(self):
        if self.order != len(self.elements):
            raise UsageError("subgroup order must match its element count")
        if (self.n * self.n) % self.order != 0:
            raise UsageError("subgroup order must divide n^2")

    def gens_text(self) -> str:
        return "+".join(f"({a},{b})" for a, b in self.generators) or "()"


def _additive_closure(gens, n: int) -> tuple:
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


def subgroup_enumerate(n: int) -> list[SubgroupDescr]:
    """All subgroups of Z_n x Z_n, from one- and two-element generating sets."""
    if not (1 <= n <= 12):
        raise ResourceLimitError(f"subgroup enumeration supports n <= 12, got {n}")
    all_pairs = sorted(itertools.product(range(n), repeat=2))
    seen: dict[tuple, SubgroupDescr] = {}

    def record(gens):
        elements = _additive_closure(gens, n)
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


def _find_small_generators(elements, n: int):
    elems = tuple(sorted(elements))
    if elems == ((0, 0),):
        return ((0, 0),)
    for g in elems:
        if g != (0, 0) and _additive_closure((g,), n) == elems:
            return (g,)
    for g1, g2 in itertools.combinations(elems, 2):
        if _additive_closure((g1, g2), n) == elems:
            return (g1, g2)
    raise OracleInconsistencyError("subgroup of Z_n x Z_n needed more than two generators")


@dataclass(eq=False)
class FiniteGaborSystem:
    """Window plus subgroup of time-frequency shifts of Z_n x Z_n."""

    n: int
    window: np.ndarray
    subgroup: SubgroupDescr

    def __post_init__(self):
        if self.n < 2:
            raise UsageError(f"modulus must be at least 2, got {self.n}")
        self.window = np.asarray(self.window, dtype=complex)
        if self.window.ndim != 1 or self.window.size != self.n:
            raise DimensionError("window length must equal the modulus")
        if not float(np.vdot(self.window, self.window).real) > 0.0:
            raise UsageError("window must be nonzero")
        if self.subgroup.n != self.n:
            raise UsageError("subgroup modulus does not match the system")
        closure = _additive_closure(self.subgroup.elements, self.n)
        if closure != tuple(sorted(self.subgroup.elements)):
            raise UsageError("subgroup element list is not closed under addition")


def projective_stabilizer_finite(
    sys: FiniteGaborSystem, tol: float = 1e-9
) -> tuple[SubgroupDescr, dict]:
    """Shifts in the subgroup mapping the window to a scalar multiple.

    Returns the stabiliser subgroup and the phase u(gamma) with
    pi(gamma) g = u(gamma) g. Membership uses the overlap criterion
    |<pi(gamma) g, g>| >= (1 - tol) ||g||^2, and the result is asserted to
    be a subgroup whose order divides the lattice order.
    """
    g = sys.window
    nsq = float(np.vdot(g, g).real)
    members = []
    phases = {}
    for gamma in sys.subgroup.elements:
        overlap = complex(np.vdot(g, pi_shift(gamma[0], gamma[1], g)))
        if abs(overlap) >= (1.0 - tol) * nsq:
            members.append(gamma)
            phases[gamma] = overlap / nsq
    member_set = set(members)
    for x in members:
        if ((-x[0]) % sys.n, (-x[1]) % sys.n) not in member_set:
            raise OracleInconsistencyError(f"stabiliser not closed under negation at {x}")
        for y in members:
            if ((x[0] + y[0]) % sys.n, (x[1] + y[1]) % sys.n) not in member_set:
                raise OracleInconsistencyError(
                    f"stabiliser not closed under addition at {x} + {y}"
                )
    if len(sys.subgroup.elements) % len(members) != 0:
        raise OracleInconsistencyError("stabiliser order does not divide the lattice order")
    descr = SubgroupDescr(
        n=sys.n,
        generators=_find_small_generators(members, sys.n),
        elements=tuple(sorted(members)),
        order=len(members),
    )
    return descr, phases


def lex_coset_representatives(subgroup: SubgroupDescr, stabilizer: SubgroupDescr):
    """Lexicographically smallest representative per coset gamma + stabiliser.

    Returns (lambdas, factorization) where factorization maps each
    subgroup element index to (lambda index, stabiliser element index)
    with gamma = lambda + gamma'.
    """
    n = subgroup.n
    stab_index = {e: i for i, e in enumerate(stabilizer.elements)}
    coset_of = {}
    lambdas = []
    for gamma in subgroup.elements:
        coset = tuple(sorted(((gamma[0] + s[0]) % n, (gamma[1] + s[1]) % n) for s in stabilizer.elements))
        if coset not in coset_of:
            coset_of[coset] = len(lambdas)
            lambdas.append(min(coset))
    factorization = []
    for gamma in subgroup.elements:
        coset = tuple(sorted(((gamma[0] + s[0]) % n, (gamma[1] + s[1]) % n) for s in stabilizer.elements))
        lam_idx = coset_of[coset]
        lam = lambdas[lam_idx]
        diff = ((gamma[0] - lam[0]) % n, (gamma[1] - lam[1]) % n)
        factorization.append((lam_idx, stab_index[diff]))
    return lambdas, factorization


def orbit_system(sys: FiniteGaborSystem, elements) -> np.ndarray:
    """Orbit matrix: the n x m matrix whose columns are pi(a, b) g."""
    return np.column_stack([pi_shift(a, b, sys.window) for a, b in elements])


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one exact verification case."""

    n: int
    subgroup: SubgroupDescr
    stab_order: int
    lambda_size: int
    is_frame: bool
    is_riesz: bool
    vol_times_d: float
    bound: float
    verdict_i: str
    verdict_ii: str
    frame_lower: float
    frame_upper: float
    s_relation_residual: float
    parseval_deviation: float
    biorth_deviation: float | None
    sandwich_lower_slack: float
    sandwich_upper_slack: float
    calibration_deviation: float | None

    @property
    def max_identity_residual(self) -> float:
        worst = max(self.s_relation_residual, self.parseval_deviation)
        if self.biorth_deviation is not None:
            worst = max(worst, self.biorth_deviation)
        if self.calibration_deviation is not None:
            worst = max(worst, self.calibration_deviation)
        worst = max(worst, -min(self.sandwich_lower_slack, 0.0))
        worst = max(worst, -min(self.sandwich_upper_slack, 0.0))
        return worst


def verify_density_theorem(
    sys: FiniteGaborSystem, rel_tol: float = linalg.DEFAULT_REL_TOL
) -> TheoremVerdict:
    """Exhaustively check the density statements and proof identities.

    With counting measure, vol = n^2 / |subgroup| and the formal degree is
    1/n, so a frame forces n * |stabiliser| <= |subgroup| and a Riesz
    transversal orbit forces the reverse. The frame-operator relation, the
    canonical-Parseval norm identity, biorthogonality of Riesz duals and
    the frame-bound sandwich are all asserted; any failure is an
    implementation bug, reported with a reproducer.
    """
    n = sys.n
    gamma_order = sys.subgroup.order
    stab, _phases = projective_stabilizer_finite(sys)
    lambdas, factorization = lex_coset_representatives(sys.subgroup, stab)

    V_full = orbit_system(sys, sys.subgroup.elements)
    V_red = orbit_system(sys, lambdas)

    def fail(message):
        raise TheoremViolationError(
            f"{message} [n={n}, gens={sys.subgroup.gens_text()}, window={sys.window.tolist()!r}]"
        )

    # the four spectra that every check below reads from
    G_full = frames.gram(frames.vector_gram(V_full), rel_tol)
    G_red = frames.gram(frames.vector_gram(V_red), rel_tol)
    S_full = linalg.psd_eigen(frames.frame_operator(V_full), rel_tol)
    S_red = linalg.psd_eigen(frames.frame_operator(V_red), rel_tol)

    is_frame = G_full.rank == n
    lam_lo, lam_hi = G_red.extremes
    is_riesz = lam_lo > rel_tol * max(lam_hi, 0.0)

    # integer-exact density verdicts
    verdict_i = "na"
    if is_frame:
        if n * stab.order > gamma_order:
            fail(f"frame with n*|stab| = {n * stab.order} > |Gamma| = {gamma_order}")
        verdict_i = "pass"
    verdict_ii = "na"
    if is_riesz:
        if n * stab.order < gamma_order:
            fail(f"Riesz transversal with n*|stab| = {n * stab.order} < |Gamma| = {gamma_order}")
        verdict_ii = "pass"

    if not frames.check_span_equality(G_full, G_red):
        fail("span of the full orbit differs from span of the transversal orbit")

    # against the standard basis the compressed synthesis matrix is V itself
    s_residual = frames.s_relation_residual(V_full, V_red, stab.order)
    if s_residual > _IDENTITY_RESIDUAL_TOL:
        fail(f"frame operator relation residual {s_residual:.3e}")

    vol = (n * n) / gamma_order
    degree = 1.0 / n
    vol_times_d = vol * degree
    gen_norm_sq = float(np.vdot(sys.window, sys.window).real)

    R_full = S_full.inverse_sqrt()
    R_red = S_red.inverse_sqrt()
    parseval = frames.parseval_norm_check(
        V_full,
        V_red,
        R_full,
        R_red,
        [lam_idx for lam_idx, _ in factorization],
        stab.order,
        generator=sys.window,
    )
    if parseval.max_deviation > _IDENTITY_RESIDUAL_TOL * max(gen_norm_sq, 1.0):
        fail(f"canonical Parseval norm identity deviation {parseval.max_deviation:.3e}")

    calibration = None
    if is_frame:
        calibration = abs(parseval.generator_parseval_norm_sq - vol_times_d)
        if calibration > _IDENTITY_RESIDUAL_TOL * max(vol_times_d, 1.0):
            fail(f"Parseval calibration ||S^-1/2 g||^2 off by {calibration:.3e}")

    biorth = None
    if is_riesz:
        biorth = frames.biorthogonality_check(V_red, G_red, R_red)
        if biorth > _IDENTITY_RESIDUAL_TOL:
            fail(f"biorthogonality deviation {biorth:.3e}")

    frame_lo, frame_hi = S_full.extremes
    sandwich = frames.density_sandwich_check(
        frame_lo, frame_hi, vol, degree, gen_norm_sq, tol=_SANDWICH_TOL
    )
    if not sandwich.passed:
        fail(
            f"frame-bound sandwich violated: slacks {sandwich.lower_slack:.3e}, "
            f"{sandwich.upper_slack:.3e}"
        )

    frames.density_verdict(
        lattice=f"Z{n}xZ{n}:{sys.subgroup.gens_text()}",
        ball_norm=float("inf"),
        covolume=vol,
        formal_degree=degree,
        stab_order=stab.order,
        gen_norm_sq=gen_norm_sq,
        frame_decision=is_frame,
        riesz_decision=is_riesz,
        exact_mode=True,
        a_est=frame_lo,
        b_est=frame_hi,
        riesz_min=lam_lo,
        riesz_max=lam_hi,
    )

    return TheoremVerdict(
        n=n,
        subgroup=sys.subgroup,
        stab_order=stab.order,
        lambda_size=len(lambdas),
        is_frame=is_frame,
        is_riesz=is_riesz,
        vol_times_d=vol_times_d,
        bound=1.0 / stab.order,
        verdict_i=verdict_i,
        verdict_ii=verdict_ii,
        frame_lower=frame_lo,
        frame_upper=frame_hi,
        s_relation_residual=s_residual,
        parseval_deviation=parseval.max_deviation,
        biorth_deviation=biorth,
        sandwich_lower_slack=sandwich.lower_slack,
        sandwich_upper_slack=sandwich.upper_slack,
        calibration_deviation=calibration,
    )


def structured_windows(n: int):
    """Deterministic window family: basis vectors, the constant vector, and
    indicators of the nontrivial proper subgroups of Z_n."""
    eye = np.eye(n, dtype=complex)
    windows = [(f"basis{j}", eye[:, j].copy()) for j in range(n)]
    windows.append(("const", np.ones(n, dtype=complex) / np.sqrt(n)))
    for d in range(2, n):
        if n % d == 0:
            ind = np.zeros(n, dtype=complex)
            ind[::d] = 1.0
            windows.append((f"ind{d}", ind))
    return windows


SCAN_CSV_COLUMNS = (
    "n",
    "subgroup_order",
    "subgroup_gens",
    "window_id",
    "stab_order",
    "lambda_size",
    "is_frame",
    "is_riesz",
    "vol_times_d",
    "bound",
    "verdict_i",
    "verdict_ii",
    "max_identity_residual",
)


@dataclass(frozen=True)
class ScanReport:
    """Aggregated exhaustive-scan outcome."""

    n_max: int
    windows_per_case: int
    seed: int
    rows: tuple
    violations: tuple

    @property
    def total_cases(self) -> int:
        return len(self.rows)

    def summary(self) -> dict:
        return {
            "n_max": self.n_max,
            "windows_per_case": self.windows_per_case,
            "seed": self.seed,
            "total_cases": self.total_cases,
            "violations": len(self.violations),
        }


def exhaustive_scan(n_max: int, windows_per_case: int = 50, seed: int = 0) -> ScanReport:
    """Run the exact verification over every subgroup and window family.

    For each modulus n <= n_max, each subgroup of Z_n x Z_n, and each of
    ``windows_per_case`` seeded random windows plus the structured windows,
    the density theorem and proof identities are verified. Violations are
    collected with a reproducer rather than aborting the scan. The report
    is byte-deterministic for a fixed seed.
    """
    if not (2 <= n_max <= 8):
        raise UsageError(f"n_max must lie in [2, 8], got {n_max}")
    if windows_per_case < 0:
        raise UsageError("windows_per_case must be nonnegative")
    rows = []
    violations = []
    for n in range(2, n_max + 1):
        subgroups = subgroup_enumerate(n)
        for si, sub in enumerate(subgroups):
            windows = list(structured_windows(n))
            for w in range(windows_per_case):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, si, w)))
                window = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                windows.append((f"rand{w:03d}", window))
            for window_id, window in windows:
                sys = FiniteGaborSystem(n=n, window=window, subgroup=sub)
                try:
                    verdict = verify_density_theorem(sys)
                except TheoremViolationError as exc:
                    violations.append(
                        {
                            "n": n,
                            "subgroup_gens": sub.gens_text(),
                            "window_id": window_id,
                            "seed": seed,
                            "message": str(exc),
                        }
                    )
                    continue
                rows.append(
                    {
                        "n": n,
                        "subgroup_order": sub.order,
                        "subgroup_gens": sub.gens_text(),
                        "window_id": window_id,
                        "stab_order": verdict.stab_order,
                        "lambda_size": verdict.lambda_size,
                        "is_frame": verdict.is_frame,
                        "is_riesz": verdict.is_riesz,
                        "vol_times_d": verdict.vol_times_d,
                        "bound": verdict.bound,
                        "verdict_i": verdict.verdict_i,
                        "verdict_ii": verdict.verdict_ii,
                        "max_identity_residual": verdict.max_identity_residual,
                        # component residuals, not part of the CSV schema
                        "s_relation_residual": verdict.s_relation_residual,
                        "parseval_deviation": verdict.parseval_deviation,
                        "biorth_deviation": verdict.biorth_deviation,
                        "sandwich_lower_slack": verdict.sandwich_lower_slack,
                        "sandwich_upper_slack": verdict.sandwich_upper_slack,
                        "calibration_deviation": verdict.calibration_deviation,
                    }
                )
    return ScanReport(
        n_max=n_max,
        windows_per_case=windows_per_case,
        seed=seed,
        rows=tuple(rows),
        violations=tuple(violations),
    )
