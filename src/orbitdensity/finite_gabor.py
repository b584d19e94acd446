"""Exact finite Weyl-Heisenberg systems over Z_n x Z_n.

Time-frequency shifts of a window give a projective irreducible
representation of the finite abelian group G = Z_n x Z_n with counting
measure; every subgroup is a lattice of covolume n^2 / |subgroup| and the
formal degree is 1/n. In this instance every density statement and proof
identity is checkable exhaustively in exact arithmetic (up to float
roundoff), which is what :func:`exhaustive_scan` does. It checks the
windows of one n in passes over runs of consecutive subgroup orders, as
many as fit :data:`PASS_STACK_BYTES`. The orbit-shaped work runs per
order, whose orbit matrices share a shape: a stabiliser class is the
windows of one subgroup with one stabiliser mask over its elements, and
the mask's cosets are orbit column indices (see
:func:`lex_coset_representatives`). The S-relation, Parseval and
biorthogonality checks run per stabiliser order. The full orbits'
frame-operator spectra are one eigensolve per pass, and the nontrivial
coset transversals' another, since a trivial stabiliser's transversal is
the full orbit up to column order. Every eigensolve is of an n x n
frame operator V V*: an orbit's Gram matrix has the same nonzero
spectrum, so the frame, Riesz and span checks read its rank and extremes
from V V*. Each verdict and check is
one boolean or float array over the windows of a pass. The results
travel as columns, one array per field over the windows of a pass, then
one list per field over the scan in :class:`ScanReport`; a window that
fails a check leaves them, by one mask, as the violation of its first
failed check. The scan's random windows come from the standard library's
generator, one stream per subgroup (see :func:`scan_windows`), and a
scan whose largest orbit stack of one order would exceed
:data:`ORBIT_STACK_BYTE_CAP` is refused before any window is drawn.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import OracleInconsistencyError, ResourceLimitError, TheoremViolationError, UsageError

_IDENTITY_RESIDUAL_TOL = 1e-10
_STABILIZER_TOL = 1e-9

# the scan refuses, before drawing a window, a run whose largest orbit stack
# (see :func:`orbit_stack_bytes`) would exceed this many bytes
ORBIT_STACK_BYTE_CAP = 1 << 30

# a pass of the scan (see :func:`_verify_pass`) takes consecutive subgroup
# orders of one n while the complex n x n matrices of their windows, one per
# window, fit in this many bytes; an order over it is a pass of its own. At
# 6 random windows every n <= 7 is one pass (the largest, n = 6, 259 kB).
PASS_STACK_BYTES = 1 << 20

_TWO_PI = 2.0 * math.pi


def _span(generators, n: int) -> set:
    """The subgroup of Z_n x Z_n spanned by ``generators``, in O(its order):
    each generator g adds the cosets K + j g of the span K so far, for
    j = 1, 2, ... until j g falls in K."""
    span = {(0, 0)}
    for a, b in generators:
        base, shift = tuple(span), (a % n, b % n)
        while shift not in span:
            span.update(((x + shift[0]) % n, (y + shift[1]) % n) for x, y in base)
            shift = ((shift[0] + a) % n, (shift[1] + b) % n)
    return span


@dataclass(frozen=True)
class SubgroupDescr:
    """Subgroup of Z_n x Z_n with a small generating set, validated once, here."""

    n: int
    generators: tuple
    elements: tuple

    def __post_init__(self):
        # a duplicate-free list equal to a span is a subgroup, inside Z_n x Z_n
        members = set(self.elements)
        if len(members) != len(self.elements) or members != _span(self.generators, self.n):
            raise UsageError("elements not closed under addition or not the generators' span")

    @property
    def order(self) -> int:
        return len(self.elements)

    def gens_text(self) -> str:
        return "+".join(f"({a},{b})" for a, b in self.generators) or "()"


def _hermite_normal_forms(n: int):
    """(a, b, d) for each lattice nZ^2 <= L <= Z^2: the rows (a, b), (0, d)
    of its Hermite normal form, with a | n, d | n, 0 <= b < d and
    d | (n / a) b. The subgroup L / nZ^2 has order (n / a) (n / d)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for a, d in itertools.product(divisors, repeat=2):
        for b in range(d):
            if (n // a) * b % d == 0:
                yield a, b, d


def subgroup_enumerate(n: int) -> list[SubgroupDescr]:
    """All subgroups of Z_n x Z_n, ordered by (order, sorted elements).

    Each is L / nZ^2 for exactly one lattice nZ^2 <= L <= Z^2 (see
    :func:`_hermite_normal_forms`); its elements are i (a, b) + j (0, d)
    for i < n / a, j < n / d. Supports n <= 16: n = 16 has 83 subgroups,
    enumerated in about 30 ms.
    """
    if not (1 <= n <= 16):
        raise ResourceLimitError(f"subgroup enumeration supports n <= 16, got {n}")
    subgroups = []
    for a, b, d in _hermite_normal_forms(n):
        elements = tuple(
            sorted(
                ((i * a) % n, (i * b + j * d) % n)
                for i in range(n // a)
                for j in range(n // d)
            )
        )
        subgroups.append(SubgroupDescr(n=n, generators=_find_small_generators(elements, n), elements=elements))
    return sorted(subgroups, key=lambda s: (s.order, s.elements))


def _find_small_generators(elements, n: int):
    """The lexicographically first generator, else pair of generators, of
    the subgroup with these sorted elements.

    Inside a subgroup H, the elements span H exactly when they span a
    group of order |H|; one element g spans n / gcd(n, g) elements.
    """
    order = len(elements)
    for g in elements:
        if n // math.gcd(n, *g) == order:
            return (g,)
    for pair in itertools.combinations(elements, 2):
        if len(_span(pair, n)) == order:
            return pair
    raise OracleInconsistencyError("subgroup of Z_n x Z_n needed more than two generators")


def orbit_system(windows, elements) -> np.ndarray:
    """Orbit matrices of a window or a (W, n) stack of windows: shape
    (..., n, m) with column k equal to pi(a_k, b_k) g.

    (pi(a, b) g)_j = omega^(j b) g_(j-a mod n) with omega = exp(2 pi i / n):
    modulation is applied after translation. One gather table, the index
    (j - a_k) mod n and the phase omega^(j b_k), serves every window.
    """
    g = np.asarray(windows, dtype=complex)
    n = g.shape[-1]
    a, b = np.asarray(elements, dtype=int).reshape(-1, 2).T
    j = np.arange(n)[:, None]
    phases = np.exp(2j * np.pi * ((j * b) % n) / n)
    return phases * g[..., (j - a) % n]


def stabilizer_classes(subgroups, owner, windows, V) -> list:
    """The windows of a (W, n) stack grouped by subgroup and projective
    stabiliser, in one pass over the whole stack.

    ``owner[w]`` is the index in ``subgroups`` of window w's subgroup, all
    of one order, and ``V`` is the windows' orbit stack over their own
    subgroups (see :func:`orbit_system`); gamma stabilises g when
    |<pi(gamma) g, g>| >= (1 - 1e-9) ||g||^2. Returns one triple (subgroup
    index, stabiliser mask, increasing window indices) per distinct pair of
    subgroup and stabiliser, sorted by subgroup index; the mask is a list of
    booleans over the subgroup's elements, checked by
    :func:`lex_coset_representatives`.
    """
    nsq = np.einsum("...j,...j->...", windows.conj(), windows).real[..., None]
    overlaps = np.einsum("...j,...jk->...k", windows.conj(), V)
    masks = np.abs(overlaps) >= (1.0 - _STABILIZER_TOL) * nsq
    owners, classes, class_of = _unique_rows(np.asarray(owner), masks)
    return [
        (si, mask, np.flatnonzero(class_of == c))
        for c, (si, mask) in enumerate(zip(owners.tolist(), classes.tolist()))
    ]


def _unique_rows(labels, masks):
    """The distinct rows (labels[w], *masks[w]) of a nonnegative integer
    array and a 2-d boolean array, in the order of ``np.unique(...,
    axis=0)``: their labels, their masks and a flat inverse. Each row is
    packed into one opaque value whose bytes sort as the row does: the label
    as 4 big-endian bytes, then the mask, packed big-endian and padded alike
    in every row."""
    keys = np.concatenate(
        [labels.astype(">u4").view(np.uint8).reshape(-1, 4), np.packbits(masks, axis=-1)], axis=-1
    )
    keys = keys.view(np.dtype((np.void, keys.shape[-1]))).ravel()
    _, first, class_of = np.unique(keys, return_index=True, return_inverse=True)
    return labels[first], masks[first], class_of.ravel()


def lex_coset_representatives(subgroup: SubgroupDescr, mask):
    """The cosets of the stabiliser whose membership over the subgroup's
    elements is ``mask``, which is checked to be a subgroup: it holds
    (0, 0), is closed under addition and its order divides |subgroup|.

    Returns (stabiliser order, cols, coset): cols are the columns, indices
    in ``subgroup.elements``, of the lexicographically smallest element of
    each coset, in the order of those elements (increasing for the sorted
    elements of :func:`subgroup_enumerate`), and coset[k] is the index in
    cols of the k-th element's coset.
    """
    n, elements = subgroup.n, subgroup.elements
    members = {gamma for gamma, kept in zip(elements, mask) if kept}
    sums = {((a + c) % n, (b + d) % n) for a, b in members for c, d in members}
    if (0, 0) not in members or not sums <= members or len(elements) % len(members):
        raise OracleInconsistencyError(
            f"stabiliser {tuple(sorted(members))} is not closed under addition, lacks (0, 0) "
            f"or has an order not dividing {len(elements)}"
        )
    # in ascending order, the first element met of each coset is its minimum
    coset_of, cols = {}, []
    for k in sorted(range(len(elements)), key=elements.__getitem__):
        if elements[k] not in coset_of:
            x, y = elements[k]
            coset_of.update((((x + a) % n, (y + b) % n), len(cols)) for a, b in members)
            cols.append(k)
    return len(members), cols, [coset_of[gamma] for gamma in elements]


def _order_classes(cases, g, offset: int) -> list:
    """The stabiliser classes of one order's (subgroup, (W, n) window stack)
    pairs, whose windows are ``g[offset:]``: per stabiliser order, in order
    of appearance, the stabiliser order, the windows' indices in ``g``,
    their full orbits, the columns of each transversal orbit, the coset of
    each full column and the subgroup's generators."""
    subgroups = [sub for sub, _ in cases]
    owner = np.repeat(np.arange(len(cases)), [len(windows) for _, windows in cases])
    V_full = np.concatenate([orbit_system(windows, sub.elements) for sub, windows in cases])
    by_stab = {}
    for si, mask, rows in stabilizer_classes(subgroups, owner, g[offset : offset + len(V_full)], V_full):
        stab_order, cols, coset = lex_coset_representatives(subgroups[si], mask)
        by_stab.setdefault(stab_order, []).append((rows, cols, coset, subgroups[si].gens_text()))
    classes = []
    for stab_order, members in by_stab.items():
        rows, *per_subgroup = zip(*members)
        counts = [len(r) for r in rows]
        rows = np.concatenate(rows)
        per_row = (np.repeat(x, counts, axis=0) for x in per_subgroup)
        classes.append((stab_order, offset + rows, V_full[rows], *per_row))
    return classes


def _transversal(V_full, cols) -> np.ndarray:
    """Row w's transversal orbit: the columns ``cols[w]`` of its full orbit."""
    return np.take_along_axis(V_full, cols[:, None, :], axis=-1)


def _verify_pass(batches) -> tuple[dict, dict]:
    """Exhaustively check the density statements and proof identities for
    the windows of consecutive subgroup orders of one n: ``batches`` holds,
    per order, the (subgroup, (W, n) window stack) pairs of its subgroups,
    whose orbit matrices share a shape.

    With counting measure, vol = n^2 / |subgroup| and the formal degree is
    1/n, so a frame forces n * |stabiliser| <= |subgroup| and a Riesz
    transversal orbit forces the reverse. Span equality, the
    frame-operator relation, the canonical-Parseval norm identity and its
    calibration, biorthogonality of Riesz duals and the frame-bound
    sandwich are all asserted, in this order; any failure is an
    implementation bug. The orbit-shaped work runs per order (orbit
    matrices, stabiliser classes, cosets) and per stabiliser order within
    it (the S-relation, Parseval and biorthogonality checks). The full
    orbits' n x n frame operators are one eigensolve over the pass, the
    nontrivial transversals' another, and every verdict and check is one
    array over the pass's windows.

    Returns the scan row columns (the :data:`SCAN_CSV_COLUMNS` but
    ``window_id``, plus the component residuals) as arrays over all
    windows, in order, and the :class:`TheoremViolationError` with a
    reproducer for the first failed check of each failing window, keyed by
    its index in that order; the other windows are unaffected.
    """
    g = np.concatenate([windows for cases in batches for _, windows in cases])
    gen_norm_sq = np.einsum("wj,wj->w", g.conj(), g).real
    if not np.all(gen_norm_sq > 0.0):
        raise UsageError("window must be nonzero")
    classes, offset = [], 0
    for cases in batches:
        classes += _order_classes(cases, g, offset)
        offset += sum(len(windows) for _, windows in cases)
    # the pass works in class order, where each class's windows are a slice
    stab_sizes, class_rows, V_fulls, cols, lam_indices, gens = zip(*classes)
    gens = np.concatenate(gens)
    class_order = np.concatenate(class_rows)
    sizes = [len(rows) for rows in class_rows]
    g, gen_norm_sq = g[class_order], gen_norm_sq[class_order]
    count, n = g.shape
    stab_order = np.repeat(stab_sizes, sizes)
    gamma_order = np.repeat([V.shape[-1] for V in V_fulls], sizes)

    full_eigenvalues, R_full = _spectra(frames.frame_operator(V) for V in V_fulls)
    # a trivial stabiliser's transversal is its full orbit with its columns
    # permuted, which leaves V V*, and so its spectrum, as it is
    red_eigenvalues, R_red = full_eigenvalues.copy(), None
    if any(size > 1 for size in stab_sizes):
        red_eigenvalues[stab_order > 1], R_red = _spectra(
            frames.frame_operator(_transversal(V, c)) for s, V, c in zip(stab_sizes, V_fulls, cols) if s > 1
        )
    full = linalg.PSDSpectrum(full_eigenvalues, None)
    red = linalg.PSDSpectrum(red_eigenvalues, None)
    is_frame = full.rank == n
    lam_size = gamma_order // stab_order
    # the Gram matrix's smallest eigenvalue: the lam_size-th largest of the
    # transversal's spectrum, or 0 for more vectors than dimensions
    kth = np.take_along_axis(red_eigenvalues, np.maximum(n - lam_size, 0)[:, None], axis=-1)[:, 0]
    gram_min = np.where(lam_size <= n, kth, 0.0)
    is_riesz = gram_min > linalg.DEFAULT_REL_TOL * np.maximum(red_eigenvalues[:, -1], 0.0)

    s_residual, parseval_dev, gen_parseval_sq = np.empty(count), np.empty(count), np.empty(count)
    # NaN marks a check that does not apply to a window: it fails no
    # comparison, and np.fmax skips it in max_identity_residual
    biorth = np.full(count, np.nan)
    start = red_start = 0
    for stab_size, V_full, class_cols, lam_index in zip(stab_sizes, V_fulls, cols, lam_indices):
        rows = slice(start, start + len(V_full))
        start = rows.stop
        V_red = _transversal(V_full, class_cols)
        R_full_rows = R_red_rows = R_full[rows]
        if stab_size > 1:
            R_red_rows = R_red[red_start : red_start + len(V_full)]
            red_start += len(V_full)
        # against the standard basis the compressed synthesis matrix is V itself
        s_residual[rows] = frames.s_relation_residual(V_full, V_red, stab_size)
        parseval_dev[rows], gen_parseval_sq[rows] = frames.parseval_norm_check(
            V_full, V_red, R_full_rows, R_red_rows, lam_index, stab_size, generator=g[rows]
        )
        riesz = np.flatnonzero(is_riesz[rows])
        if riesz.size:
            biorth[rows][riesz] = frames.biorthogonality_check(
                V_red[riesz], red[rows][riesz], R_red_rows[riesz]
            )
    vol = (n * n) / gamma_order
    vol_times_d = vol * (1.0 / n)
    calibration = np.where(is_frame, np.abs(gen_parseval_sq - vol_times_d), np.nan)
    lower_slack, upper_slack, sandwich_ok = frames.density_sandwich_check(
        full.eigenvalues[:, 0], full.eigenvalues[:, -1], vol, 1.0 / n, gen_norm_sq
    )

    tol = _IDENTITY_RESIDUAL_TOL
    # (failure mask, message template, per-window values), in reporting order
    checks = (
        (
            is_frame & (n * stab_order > gamma_order),
            "frame with n*|stab| = {} > |Gamma| = {}",
            (n * stab_order, gamma_order),
        ),
        (
            is_riesz & (n * stab_order < gamma_order),
            "Riesz transversal with n*|stab| = {} < |Gamma| = {}",
            (n * stab_order, gamma_order),
        ),
        (
            full.rank != red.rank,
            "span of the full orbit differs from span of the transversal orbit",
            (),
        ),
        (s_residual > tol, "frame operator relation residual {:.3e}", (s_residual,)),
        (
            parseval_dev > tol * np.maximum(gen_norm_sq, 1.0),
            "canonical Parseval norm identity deviation {:.3e}",
            (parseval_dev,),
        ),
        (
            calibration > tol * np.maximum(vol_times_d, 1.0),
            "Parseval calibration ||S^-1/2 g||^2 off by {:.3e}",
            (calibration,),
        ),
        (biorth > tol, "biorthogonality deviation {:.3e}", (biorth,)),
        (
            ~sandwich_ok,
            "frame-bound sandwich violated: slacks {:.3e}, {:.3e}",
            (lower_slack, upper_slack),
        ),
    )
    failed = np.array([bad for bad, _, _ in checks])
    errors = {}
    for w in np.flatnonzero(failed.any(axis=0)).tolist():
        _, template, args = checks[np.argmax(failed[:, w])]
        errors[int(class_order[w])] = TheoremViolationError(
            f"{template.format(*(a[w] for a in args))} "
            f"[n={n}, gens={gens[w]}, window={g[w].tolist()!r}]"
        )
    columns = {
        "n": np.full(count, n),
        "subgroup_order": gamma_order,
        "subgroup_gens": gens,
        "stab_order": stab_order,
        "lambda_size": lam_size,
        "is_frame": is_frame,
        "is_riesz": is_riesz,
        "vol_times_d": vol_times_d,
        "bound": 1.0 / stab_order,
        "verdict_i": np.where(is_frame, "pass", "na"),
        "verdict_ii": np.where(is_riesz, "pass", "na"),
        "max_identity_residual": np.fmax.reduce(
            [
                s_residual,
                parseval_dev,
                biorth,
                calibration,
                np.where(lower_slack < 0.0, -lower_slack, 0.0),
                np.where(upper_slack < 0.0, -upper_slack, 0.0),
            ]
        ),
        # component residuals, not part of the CSV schema; None where a check does not apply
        "s_relation_residual": s_residual,
        "parseval_deviation": parseval_dev,
        "biorth_deviation": np.where(is_riesz, biorth, None),
        "sandwich_lower_slack": lower_slack,
        "sandwich_upper_slack": upper_slack,
        "calibration_deviation": np.where(is_frame, calibration, None),
    }
    # back from class order to window order
    inverse = np.empty(count, dtype=int)
    inverse[class_order] = np.arange(count)
    return {name: column[inverse] for name, column in columns.items()}, errors


def _spectra(operators) -> tuple:
    """Eigenvalues and pseudo inverse square roots of the frame-operator
    stacks that ``operators`` yields, in one eigensolve of their join. Only
    the join outlives the joining, and only the eigenvectors the eigensolve."""
    spectrum = linalg.psd_eigen(np.concatenate(list(operators)), name="frame operator")
    return spectrum.eigenvalues, spectrum.inverse_sqrt()


@functools.cache
def structured_windows(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Ids and read-only (W, n) stack of the deterministic window family,
    built once per n for all subgroups: basis vectors, the constant
    vector, and indicators of the nontrivial proper subgroups of Z_n."""
    eye = np.eye(n, dtype=complex)
    ids = [f"basis{j}" for j in range(n)] + ["const"]
    windows = [*eye, np.ones(n, dtype=complex) / np.sqrt(n)]
    for d in range(2, n):
        if n % d == 0:
            ids.append(f"ind{d}")
            windows.append(np.where(np.arange(n) % d == 0, 1.0 + 0j, 0.0))
    stack = np.array(windows)
    stack.flags.writeable = False
    return tuple(ids), stack


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


class ScanReport:
    """Aggregated exhaustive-scan outcome. ``columns`` maps each field of a
    scan row, the :data:`SCAN_CSV_COLUMNS` and the component residuals, to
    its list of values over the passing windows in scan order: an int,
    float, str or bool, or None where a check does not apply.
    ``violations`` holds one dict per failing window, and ``total_cases``
    counts every checked window, passing or failing."""

    def __init__(self, n_max: int, windows_per_case: int, seed: int, columns: dict, violations: tuple):
        self.n_max = n_max
        self.windows_per_case = windows_per_case
        self.seed = seed
        self.columns = columns
        self.violations = violations

    @property
    def total_cases(self) -> int:
        return len(self.columns["n"]) + len(self.violations)

    def summary(self) -> dict:
        return {
            "n_max": self.n_max,
            "windows_per_case": self.windows_per_case,
            "seed": self.seed,
            "total_cases": self.total_cases,
            "violations": len(self.violations),
        }


def scan_windows(n: int, subgroup_index: int, windows_per_case: int, seed: int):
    """Window ids and the (W, n) window stack that the scan checks for the
    ``subgroup_index``-th subgroup of Z_n x Z_n: the structured windows,
    then ``windows_per_case`` random ones.

    The random windows come from one :class:`random.Random` seeded with the
    string ``"seed,n,subgroup_index"``: the key is injective in the three
    integers, and CPython documents string seeding as reproducible. Each
    window in turn draws its n real parts, then its n imaginary parts, as
    ``gauss(0.0, 1.0)`` would: each pair of uniforms u1, u2 gives
    0.0 + cos(2 pi u1) sqrt(-2 log(1 - u2)), then its sine twin, by the
    standard library's own formula, written out here to save a method call
    per number. The stream is gauss's bit for bit, the 0.0 + keeping its
    sign of zero, and window w does not depend on ``windows_per_case``.
    """
    structured_ids, structured = structured_windows(n)
    uniform = random.Random(f"{seed},{n},{subgroup_index}").random
    draws = []
    for _ in range(n * windows_per_case):
        x2pi = uniform() * _TWO_PI
        g2rad = math.sqrt(-2.0 * math.log(1.0 - uniform()))
        draws += (0.0 + math.cos(x2pi) * g2rad, 0.0 + math.sin(x2pi) * g2rad)
    draws = np.array(draws).reshape(windows_per_case, 2, n)
    window_ids = [*structured_ids, *(f"rand{w:03d}" for w in range(windows_per_case))]
    return window_ids, np.concatenate([structured, draws[:, 0] + 1j * draws[:, 1]])


def orbit_stack_bytes(n: int, windows_per_case: int) -> int:
    """Bytes of the largest orbit stack of one subgroup order that the scan
    builds at modulus n: the complex n x |subgroup| orbit matrices of every
    window, structured and random, of all subgroups of that order. A pass
    of several orders holds their orbit stacks together, but then their
    n x n stacks fit :data:`PASS_STACK_BYTES`, so those take at most n
    times as many bytes (|subgroup| <= n^2)."""
    counts = Counter((n // a) * (n // d) for a, _, d in _hermite_normal_forms(n))
    windows = windows_per_case + len(structured_windows(n)[0])
    return max(order * count for order, count in counts.items()) * windows * n * 16


def _scan_passes(n: int, windows_per_case: int, seed: int):
    """The scan's window ids and :func:`_verify_pass` batches at modulus n,
    one pair per pass: consecutive subgroup orders, as long as the complex
    n x n matrices of their windows fit :data:`PASS_STACK_BYTES`."""
    ids, batches, stack_bytes = [], [], 0
    for _, group in itertools.groupby(enumerate(subgroup_enumerate(n)), lambda item: item[1].order):
        cases = [(sub, *scan_windows(n, si, windows_per_case, seed)) for si, sub in group]
        order_bytes = sum(len(windows) for *_, windows in cases) * n * n * 16
        if batches and stack_bytes + order_bytes > PASS_STACK_BYTES:
            yield ids, batches
            ids, batches, stack_bytes = [], [], 0
        ids.extend(window_id for _, window_ids, _ in cases for window_id in window_ids)
        batches.append([(sub, windows) for sub, _, windows in cases])
        stack_bytes += order_bytes
    yield ids, batches


def exhaustive_scan(n_max: int, windows_per_case: int = 50, seed: int = 0) -> ScanReport:
    """Run the exact verification over every subgroup and window family.

    For each modulus n <= n_max, each subgroup of Z_n x Z_n, and each of
    its windows from :func:`scan_windows` (the structured windows and
    ``windows_per_case`` seeded random ones), the density theorem and proof
    identities are verified, in one pass (see :func:`_verify_pass`) per
    run of consecutive subgroup orders of one n whose n x n stacks fit
    :data:`PASS_STACK_BYTES`; an order over it is a pass of its own. The
    budget changes the number of passes only, not a bit of the report.
    Violations are collected with a reproducer rather than aborting the
    scan, and ``total_cases`` counts them with the passing windows. The
    report is byte-deterministic for a fixed seed.
    A scan whose largest orbit stack (see :func:`orbit_stack_bytes`) would
    exceed :data:`ORBIT_STACK_BYTE_CAP` raises :class:`ResourceLimitError`
    before any window is drawn. ``n_max`` goes up to 16: with 6
    random windows that is 9853 cases, which take about 0.76 s and 56 MB
    peak RSS end to end with one BLAS thread (shared 2-core Xeon), since
    every eigensolve is of an n x n frame operator.
    """
    if not (2 <= n_max <= 16):
        raise UsageError(f"n_max must lie in [2, 16], got {n_max}")
    if windows_per_case < 0:
        raise UsageError("windows_per_case must be nonnegative")
    for n in range(2, n_max + 1):
        stack_bytes = orbit_stack_bytes(n, windows_per_case)
        if stack_bytes > ORBIT_STACK_BYTE_CAP:
            raise ResourceLimitError(
                f"{windows_per_case} windows per case need a {stack_bytes}-byte orbit stack "
                f"at n = {n}, over the cap of {ORBIT_STACK_BYTE_CAP} bytes"
            )
    passes, window_ids, violations, failing = [], [], [], []
    for n in range(2, n_max + 1):
        for ids, batches in _scan_passes(n, windows_per_case, seed):
            columns, errors = _verify_pass(batches)
            offset = len(window_ids)
            window_ids.extend(ids)
            for w in sorted(errors):
                failing.append(offset + w)
                violations.append(
                    {
                        "n": n,
                        "subgroup_gens": str(columns["subgroup_gens"][w]),
                        "window_id": window_ids[offset + w],
                        "seed": seed,
                        "message": str(errors[w]),
                    }
                )
            passes.append(columns)
    passing = np.ones(len(window_ids), dtype=bool)
    passing[failing] = False
    columns = {name: np.concatenate([p[name] for p in passes])[passing].tolist() for name in passes[0]}
    columns["window_id"] = list(itertools.compress(window_ids, passing))
    return ScanReport(n_max, windows_per_case, seed, columns, tuple(violations))
