"""Discrete subgroups of PSL(2, R): Frobenius-norm ball enumeration, point
stabilisers, coset transversals, and covolumes (the modular group's from
Gauss-Bonnet, any other lattice's from its configuration).

A ball is an ``(N, 4)`` array of canonical matrix rows (a, b, c, d) in norm
order; stabilisers and coset transversals are index arrays into it.
Balls of the modular group are certified against an exhaustive integer
oracle; balls of other groups are sweep-to-fixpoint heuristics and are
flagged as such. Left multiplication by the order-2 rotation S about i,
and the reflection g -> sigma g sigma by sigma = diag(1, -1), keep the
Frobenius norm, so in a ball that they map onto itself they map every
truncation onto itself, and :func:`coset_pairing` pairs each coset with its
image under each row of :data:`CENTRE_SYMMETRIES`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleInconsistencyError, ResourceLimitError, UsageError
from .hyperbolic import act, canonical, compose, distance, frobenius_sq, inverse, round9, rounding_bound

# identity has Frobenius norm sqrt(2); smaller balls would be empty
MIN_NORM_BOUND = math.sqrt(2.0)

# ball_enumerate refuses a ball of more elements
MAX_BALL_ELEMENTS = 200_000

_NORM_EPS = 1e-9
IDENTITY = (1.0, 0.0, 0.0, 1.0)

# The rotation S: w -> -1/w of order 2 about the ball centre i, canonical.
# Its matrix is orthogonal, so S g has the norm of g for every g.
ROTATION = (0.0, 1.0, -1.0, 0.0)


def reflected(rows) -> np.ndarray:
    """sigma g sigma = (a, -b, -c, d) of matrix rows, canonical, for
    sigma = diag(1, -1): the element that moves -conj(w) to -conj(g w)."""
    return canonical(np.asarray(rows, dtype=float) * [1.0, -1.0, -1.0, 1.0])


def mirror_of(z: complex) -> tuple | None:
    """The g0 with -conj(z) = g0 z, for a point on a mirror of the
    reflection w -> -conj(w) or w -> 1/conj(w) through the ball centre i:
    the identity where Re z = 0, else S where |z| = 1, else None. Decided,
    like a stabiliser, by hyperbolic distance against the rounding bound
    of z."""
    for g0 in (IDENTITY, ROTATION):
        if distance(-z.conjugate(), act(g0, z)) <= rounding_bound(z):
            return g0
    return None


# The involutions of the ball centre i that can pair the cosets of the
# stabiliser of z: name, map of matrix rows given g0 = mirror_of(z), that
# map's precondition on the ball, map of points, and whether it keeps the
# orientation and so acts on kernels by a unitary (else an antiunitary).
CENTRE_SYMMETRIES = (
    ("rotation S", lambda g, g0: compose(ROTATION, g), lambda ball, g0: ball.index_of(ROTATION) >= 0,
     lambda w: -1.0 / w, True),
    ("reflection w -> -conj(w)", lambda g, g0: compose(reflected(g), g0),
     lambda ball, g0: g0 is not None and np.all(ball.index_of(np.vstack([g0, reflected(ball.elements)])) >= 0),
     lambda w: -w.conj(), False),
)


@dataclass(frozen=True)
class LatticeSpec:
    """Named generating set for a discrete subgroup, with optional covolume.

    ``generators`` are matrix rows, stored canonical (a determinant <= 0
    raises ``UsageError``). ``covolume`` is understood at Haar scale 1;
    ``is_integral`` compares the ball with PSL(2, Z)'s whole integer ball, so
    it certifies only a generating set of the whole modular group: a proper
    integral subgroup warns and stays uncertified.
    """

    name: str
    generators: tuple[tuple[float, float, float, float], ...]
    covolume: float | None = None
    is_integral: bool = False

    def __post_init__(self):
        if not self.generators:
            raise UsageError("lattice spec needs at least one generator")
        rows = canonical(np.asarray(self.generators, dtype=float).reshape(-1, 4))
        object.__setattr__(self, "generators", tuple(map(tuple, rows.tolist())))
        if self.covolume is not None and not 0.0 < self.covolume < math.inf:
            raise UsageError(f"covolume must be positive and finite, got {self.covolume}")


def psl2z() -> LatticeSpec:
    """The modular group PSL(2, Z), generated by z -> -1/z and z -> z + 1."""
    return LatticeSpec(
        name="psl2z",
        generators=((0.0, -1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 1.0)),
        covolume=None,
        is_integral=True,
    )


def _norm_keys(elements: np.ndarray) -> np.ndarray:
    """Columns of norm order: the norm rounded to 9 digits, then the rounded entries."""
    return np.column_stack([round9(frobenius_sq(elements)), round9(elements).reshape(-1, 4)])


def _within(norms_sq, norm_bound: float) -> np.ndarray:
    """Mask of the squared Frobenius norms inside the ball of ``norm_bound``."""
    return norms_sq <= norm_bound * norm_bound + _NORM_EPS


def _keys(rows) -> np.ndarray:
    """The rounded entries of each matrix row as one 32-byte key."""
    return round9(rows).view("V32")


@dataclass(frozen=True, eq=False)
class GroupBall:
    """Deduplicated group elements with Frobenius norm at most ``norm_bound``,
    as an ``(N, 4)`` array of rows strictly increasing in norm order.

    Every other list of group elements (stabilisers, coset transversals,
    truncations) is a selection from this order, so a truncation to a
    smaller norm is a leading prefix. Lookups search the sorted row keys.
    """

    norm_bound: float
    elements: np.ndarray
    closure_certified: bool
    _sorted_keys: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        elements = np.asarray(self.elements, dtype=float).reshape(-1, 4)
        keys = _keys(elements)
        order = np.argsort(keys)
        for name, value in (("elements", elements), ("_sorted_keys", keys[order]), ("_order", order)):
            object.__setattr__(self, name, value)
        if np.any(self._sorted_keys[1:] == self._sorted_keys[:-1]):
            raise UsageError("ball contains duplicate canonical representatives")
        if not len(elements) or self.index_of(IDENTITY) < 0:
            raise UsageError("ball does not contain the identity")
        # each row after the first is larger in the first norm-order column that differs
        step = np.sign(np.diff(_norm_keys(elements), axis=0))
        if not np.all(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] > 0):
            raise UsageError("ball elements must be sorted by norm, ties by entries")

    def index_of(self, rows) -> np.ndarray:
        """Ball index of each canonical matrix row (..., 4) by its rounded
        entries, or -1 where the ball does not hold it."""
        keys = _keys(rows)
        at = np.searchsorted(self._sorted_keys, keys).clip(max=len(self._sorted_keys) - 1)
        return np.where(self._sorted_keys[at] == keys, self._order[at], -1).reshape(np.shape(rows)[:-1])

    def truncation_count(self, norm: float) -> int:
        """Number of elements of norm at most ``norm``, checked to be a leading prefix."""
        inside = _within(frobenius_sq(self.elements), norm)
        count = int(np.count_nonzero(inside))
        if not inside[:count].all():
            raise OracleInconsistencyError("truncation is not a leading prefix of the norm-sorted elements")
        return count


def brute_force_integer_ball(norm_bound: float) -> np.ndarray:
    """All of PSL(2, Z) with Frobenius norm <= norm_bound, by exhaustion, as
    canonical rows in norm order.

    Entry ranges make this an exact oracle; it is intentionally independent
    of the breadth-first enumeration it certifies.
    """
    if not MIN_NORM_BOUND - 1e-12 <= norm_bound < math.inf:
        raise UsageError(f"norm_bound must be finite and at least sqrt(2), got {norm_bound}")
    if norm_bound > 30.0:
        raise ResourceLimitError(f"integer oracle capped at norm_bound 30, got {norm_bound}")
    m = int(math.floor(norm_bound + 1e-12))
    r = np.arange(-m, m + 1)
    b, c = (v.ravel() for v in np.meshgrid(r, r, indexing="ij"))
    num = 1 + b * c
    # a == 0 forces b c = -1; the sign representative has b = 1, c = -1 and any d
    slabs = [np.stack([np.zeros_like(r), np.ones_like(r), -np.ones_like(r), r], axis=1)]
    # a > 0 fixes the sign and d = (1 + b c) / a, which must be an integer in
    # range: one (b, c) slab per a, so memory is O(m^2)
    for a in range(1, m + 1):
        d = num // a
        found = (num % a == 0) & (np.abs(d) <= m)
        slabs.append(np.stack([np.full(np.count_nonzero(found), a), b[found], c[found], d[found]], axis=1))
    quads = np.concatenate(slabs)
    norms = np.sum(quads * quads, axis=1)
    kept = _within(norms, norm_bound)
    quads, norms = quads[kept], norms[kept]
    order = np.lexsort((quads[:, 3], quads[:, 2], quads[:, 1], quads[:, 0], norms))
    return quads[order].astype(float)


def ball_enumerate(spec: LatticeSpec, norm_bound: float) -> GroupBall:
    """Breadth-first closure of the generators inside the Frobenius ball.

    Each sweep composes the whole frontier with every step (generators and
    their inverses) and keeps, in frontier-times-step order, the first
    product of each new element inside the ball, until a sweep adds
    nothing. For integral groups the result is certified by exact
    comparison of its rounded rows with the integer oracle's (bounds up to 30).
    """
    if not MIN_NORM_BOUND - 1e-12 <= norm_bound < math.inf:
        raise UsageError(f"norm_bound must be finite and at least sqrt(2), got {norm_bound}")
    generators = np.array(spec.generators, dtype=float)
    steps = np.stack([generators, inverse(generators)], axis=1).reshape(-1, 4)
    # g1, g1^-1, g2, ... without repeats
    _, first = np.unique(round9(steps).reshape(-1, 4), axis=0, return_index=True)
    steps = steps[np.sort(first)]

    seen = set(_keys(IDENTITY).tolist())
    found = [np.array([IDENTITY])]
    while len(found[-1]):
        products = compose(found[-1][:, None, :], steps[None, :, :]).reshape(-1, 4)
        products = products[_within(frobenius_sq(products), norm_bound)]
        fresh = []
        for i, key in enumerate(_keys(products).tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if len(seen) > MAX_BALL_ELEMENTS:
            raise ResourceLimitError(f"ball enumeration exceeded {MAX_BALL_ELEMENTS} elements")
        found.append(products[fresh])
    elements = np.concatenate(found)
    elements = elements[np.lexsort(_norm_keys(elements).T[::-1])]

    certified = False
    if spec.is_integral and norm_bound <= 30.0:
        certified = np.array_equal(round9(elements).reshape(-1, 4), brute_force_integer_ball(norm_bound))
        if not certified:
            warnings.warn(
                f"ball enumeration disagrees with the integer oracle at bound {norm_bound}",
                stacklevel=2,
            )
    return GroupBall(norm_bound, elements, certified)


def stabilizer_of_point(ball: GroupBall, z: complex, distances, tol: float | None = None) -> np.ndarray:
    """Ball indices, increasing, of the elements g whose ``distances``
    d(g z, z) are at most tol, by default the rounding bound of z: the
    stabiliser of z itself, exact to rounding. An explicit tol, a query
    for the elements that nearly fix z, must lie in (0, 1e-4].

    The result is checked to be closed under composition and inversion
    within the ball; a failed check warns that the ball is too small.
    """
    if tol is None:
        tol = rounding_bound(z)
    elif not (0.0 < tol <= 1e-4):
        raise UsageError(f"tol must lie in (0, 1e-4], got {tol}")
    members = np.flatnonzero(distances <= tol)
    h = ball.elements[members]
    products = compose(h[:, None, :], h[None, :, :]).reshape(-1, 4)
    inside = _within(frobenius_sq(products), ball.norm_bound)
    reached = np.concatenate([ball.index_of(inverse(h)), ball.index_of(products[inside])])
    if not np.isin(reached, members).all():
        warnings.warn("stabilizer is not closed within the ball; enlarge the norm bound", stacklevel=2)
    return members


@dataclass(frozen=True, eq=False)
class CosetSystem:
    """Transversal of a finite stabiliser subgroup H inside a group ball, as
    indices into the ball's elements.

    ``rep_index[i]`` is the ball index of the i-th representative and is
    increasing; ``tile[i, j]`` is the ball index of ``rep_i h_j`` for the
    j-th stabiliser element h_j as given, or -1 where that element lies
    outside the ball. Every ball index appears in ``tile`` exactly once.
    """

    rep_index: np.ndarray
    tile: np.ndarray


def coset_representatives(ball: GroupBall, stabilizer) -> CosetSystem:
    """Pick one representative per coset g*H of the stabiliser H, given as
    ball indices, in the ball.

    The representative is the coset's first member in ball order, except
    that the identity represents its own coset H; cosets are listed in the
    order of their first members.
    """
    stab = np.asarray(stabilizer, dtype=int)
    n = len(ball.elements)
    if stab.ndim != 1 or not np.all((stab >= 0) & (stab < n)):
        raise UsageError("stabilizer must be contained in the ball")
    identity = int(ball.index_of(IDENTITY))
    if identity not in stab:
        raise UsageError("stabilizer must contain the identity")
    h = ball.elements[stab]
    if not np.isin(ball.index_of(compose(h[:, None, :], h[None, :, :])), stab).all():
        raise UsageError("stabilizer is not closed under composition")

    # table[g, j]: ball index of g h_j; a coset's first member is its minimum
    table = ball.index_of(compose(ball.elements[:, None, :], h[None, :, :]))
    first = np.where(table >= 0, table, n).min(axis=1)
    rep_index = np.flatnonzero(first == np.arange(n))
    # Only rotations about i precede the identity in ball order, and they
    # lie in H whenever H holds one, so rep_index still increases.
    rep_index[np.isin(rep_index, stab)] = identity
    tile = table[rep_index]
    if not np.array_equal(np.bincount(tile[tile >= 0], minlength=n), np.ones(n, dtype=int)):
        raise UsageError("cosets overlap; inconsistent input")
    return CosetSystem(rep_index=rep_index, tile=tile)


def lattice_covolume(spec: LatticeSpec, *, haar_scale: float = 1.0) -> float:
    """Covolume of a lattice spec at the given Haar scale.

    The modular group's covolume is the Gauss-Bonnet area
    2 pi (2g - 2 + sum_i (1 - 1/m_i) + cusps) of its signature: genus 0,
    elliptic periods 2 and 3, one cusp, which gives pi/3. Any other lattice
    must carry a configured covolume (understood at scale 1).
    """
    if not 0.0 < haar_scale < math.inf:
        raise UsageError(f"haar_scale must be positive and finite, got {haar_scale}")
    if spec.name == "psl2z" and spec.covolume is None:
        return haar_scale * (math.pi / 3.0)
    if spec.covolume is None:
        raise UsageError(f"lattice {spec.name!r} has no configured covolume")
    return haar_scale * spec.covolume


def coset_pairing(ball: GroupBall, cosets: CosetSystem, sizes, z: complex) -> list[np.ndarray | None]:
    """Per row of :data:`CENTRE_SYMMETRIES`, the permutation p of the coset
    representatives of the stabiliser H of z with S rep_i H = rep_p(i) H
    for S, and sigma rep_i sigma g0 H = rep_p(i) H for the reflection, with
    g0 of :func:`mirror_of`; None where the ball lacks S, or z is on no
    mirror, or the ball lacks g0 or is not closed under g -> sigma g sigma.

    S and sigma are orthogonal, so either map moves the coset rep_i H onto
    its image element by element and norm for norm: the reflection maps H
    onto g0^-1 sigma H sigma g0 = H, because g0 z = -conj(z). So p is an
    involution, and it maps the first k representatives onto themselves for
    every k of ``sizes`` that is a truncation by norm; a failure of either,
    or an image outside the ball, raises ``OracleInconsistencyError``.
    """
    g0 = mirror_of(z)
    reps = ball.elements[cosets.rep_index]
    coset_of = np.full(len(ball.elements), -1)
    placed = cosets.tile >= 0
    coset_of[cosets.tile[placed]] = np.nonzero(placed)[0]
    pairings = []
    for name, image, holds, _, _ in CENTRE_SYMMETRIES:
        p = None
        if holds(ball, g0):
            images = ball.index_of(image(reps, g0))
            p = np.where(images >= 0, coset_of[images], -1)
            closes = all(np.all(p[:k] < k) for k in sizes)
            if np.any(p < 0) or not np.array_equal(p[p], np.arange(len(p))) or not closes:
                raise OracleInconsistencyError(
                    f"the {name} does not pair the coset representatives within each truncation"
                )
        pairings.append(p)
    return pairings
