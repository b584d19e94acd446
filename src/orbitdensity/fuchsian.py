"""Discrete subgroups of PSL(2, R): Frobenius-norm ball enumeration, point
stabilisers, coset transversals, and the modular-group covolume.

Balls of the modular group are certified against an exhaustive integer
oracle; balls of other groups are sweep-to-fixpoint heuristics and are
flagged as such.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, UsageError
from .hyperbolic import MoebiusMap, QuadratureGrid, UpperHalfPoint, distance, integrate_invariant

# identity has Frobenius norm sqrt(2); smaller balls would be empty
MIN_NORM_BOUND = math.sqrt(2.0)

_NORM_EPS = 1e-9
DEFAULT_POINT_TOL = 1e-8


@dataclass(frozen=True)
class LatticeSpec:
    """Named generating set for a discrete subgroup, with optional covolume.

    ``covolume`` is understood at Haar scale 1; ``is_integral`` enables the
    exact integer cross-check for ball enumeration.
    """

    name: str
    generators: tuple[MoebiusMap, ...]
    covolume: float | None = None
    is_integral: bool = False

    def __post_init__(self):
        if not self.generators:
            raise UsageError("lattice spec needs at least one generator")
        if self.covolume is not None and not self.covolume > 0.0:
            raise UsageError(f"covolume must be positive, got {self.covolume}")


def psl2z() -> LatticeSpec:
    """The modular group PSL(2, Z), generated by z -> -1/z and z -> z + 1."""
    return LatticeSpec(
        name="psl2z",
        generators=(MoebiusMap(0.0, -1.0, 1.0, 0.0), MoebiusMap(1.0, 1.0, 0.0, 1.0)),
        covolume=None,
        is_integral=True,
    )


def norm_order(m: MoebiusMap) -> tuple:
    """Sort key of ball elements: Frobenius norm, ties broken on the entries."""
    return (round(m.frobenius_sq, 9), m.key())


@dataclass(frozen=True)
class GroupBall:
    """Deduplicated group elements with Frobenius norm at most ``norm_bound``,
    strictly increasing in :func:`norm_order`.

    Every other list of group elements (stabilisers, coset transversals,
    truncations) is a selection from this order, so a truncation to a
    smaller norm is a leading prefix.
    """

    norm_bound: float
    elements: tuple[MoebiusMap, ...]
    closure_certified: bool

    def __post_init__(self):
        keys = {m.key() for m in self.elements}
        if len(keys) != len(self.elements):
            raise UsageError("ball contains duplicate canonical representatives")
        if MoebiusMap.identity().key() not in keys:
            raise UsageError("ball does not contain the identity")
        order = [norm_order(m) for m in self.elements]
        if any(a >= b for a, b in zip(order, order[1:])):
            raise UsageError("ball elements must be sorted by norm, ties by entries")

    def key_set(self) -> set:
        return {m.key() for m in self.elements}


def brute_force_integer_ball(norm_bound: float) -> GroupBall:
    """All of PSL(2, Z) with Frobenius norm <= norm_bound, by exhaustion.

    Entry ranges make this an exact oracle; it is intentionally independent
    of the breadth-first enumeration it certifies.
    """
    if norm_bound < MIN_NORM_BOUND - 1e-12:
        raise UsageError(f"norm_bound must be at least sqrt(2), got {norm_bound}")
    if norm_bound > 30.0:
        raise ResourceLimitError(f"integer oracle capped at norm_bound 30, got {norm_bound}")
    m = int(math.floor(norm_bound + 1e-12))
    bound_sq = norm_bound * norm_bound + _NORM_EPS
    found: dict[tuple, MoebiusMap] = {}

    def consider(a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            return
        if a * a + b * b + c * c + d * d > bound_sq:
            return
        elt = MoebiusMap(float(a), float(b), float(c), float(d))
        found.setdefault(elt.key(), elt)

    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            for c in range(-m, m + 1):
                if a != 0:
                    num = 1 + b * c
                    if num % a == 0:
                        d = num // a
                        if -m <= d <= m:
                            consider(a, b, c, d)
                else:
                    if b * c == -1:
                        for d in range(-m, m + 1):
                            consider(a, b, c, d)
    return GroupBall(norm_bound, tuple(sorted(found.values(), key=norm_order)), closure_certified=True)


def ball_enumerate(
    spec: LatticeSpec, norm_bound: float, *, max_elements: int = 200_000
) -> GroupBall:
    """Breadth-first closure of the generators inside the Frobenius ball.

    Products are explored until a full sweep adds no new in-bound element.
    For integral groups the result is certified by exact comparison with
    the integer oracle (bounds up to 30).
    """
    if norm_bound < MIN_NORM_BOUND - 1e-12:
        raise UsageError(f"norm_bound must be at least sqrt(2), got {norm_bound}")
    bound_sq = norm_bound * norm_bound + _NORM_EPS
    steps = []
    seen_steps = set()
    for g in spec.generators:
        for h in (g, g.inverse()):
            if h.key() not in seen_steps:
                seen_steps.add(h.key())
                steps.append(h)

    identity = MoebiusMap.identity()
    elements: dict[tuple, MoebiusMap] = {identity.key(): identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for elt in frontier:
            for step in steps:
                prod = elt.compose(step)
                if prod.frobenius_sq > bound_sq:
                    continue
                k = prod.key()
                if k not in elements:
                    elements[k] = prod
                    next_frontier.append(prod)
                    if len(elements) > max_elements:
                        raise ResourceLimitError(
                            f"ball enumeration exceeded {max_elements} elements"
                        )
        frontier = next_frontier

    certified = False
    if spec.is_integral and norm_bound <= 30.0:
        oracle = brute_force_integer_ball(norm_bound)
        certified = oracle.key_set() == set(elements.keys())
        if not certified:
            warnings.warn(
                f"ball enumeration disagrees with the integer oracle at bound {norm_bound}",
                stacklevel=2,
            )
    return GroupBall(norm_bound, tuple(sorted(elements.values(), key=norm_order)), certified)


def stabilizer_of_point(
    ball: GroupBall, z: UpperHalfPoint, tol: float = DEFAULT_POINT_TOL
) -> list[MoebiusMap]:
    """Elements of the ball moving z by hyperbolic distance at most tol, in
    ball order.

    The result is checked to be closed under composition and inversion
    within the ball; a failed check warns that the ball is too small.
    """
    if not (0.0 < tol <= 1e-4):
        raise UsageError(f"tol must lie in (0, 1e-4], got {tol}")
    members = [g for g in ball.elements if distance(g.act(z), z) <= tol]
    member_keys = {g.key() for g in members}
    bound_sq = ball.norm_bound * ball.norm_bound + _NORM_EPS
    closed = all(g.inverse().key() in member_keys for g in members)
    if closed:
        for g1 in members:
            for g2 in members:
                prod = g1.compose(g2)
                if prod.frobenius_sq <= bound_sq and prod.key() not in member_keys:
                    closed = False
                    break
            if not closed:
                break
    if not closed:
        warnings.warn(
            "stabilizer is not closed within the ball; enlarge the norm bound",
            stacklevel=2,
        )
    return members


@dataclass(frozen=True)
class CosetSystem:
    """Transversal of a finite stabiliser subgroup H inside a group ball, as
    indices into the ball's elements.

    ``rep_index[i]`` is the ball index of the i-th representative and is
    increasing; ``tile[i, j]`` is the ball index of ``rep_i.compose(h_j)``
    for the j-th stabiliser element h_j as given, or -1 where that element
    lies outside the ball. Every ball index appears in ``tile`` exactly once.
    """

    rep_index: np.ndarray
    tile: np.ndarray


def coset_representatives(ball: GroupBall, stabilizer) -> CosetSystem:
    """Pick one representative per coset g*H of the stabiliser H in the ball.

    The representative is the coset's first member in ball order, except
    that the identity represents its own coset H; cosets are listed in the
    order of their first members.
    """
    stab = list(stabilizer)
    stab_keys = {g.key() for g in stab}
    identity = MoebiusMap.identity()
    if identity.key() not in stab_keys:
        raise UsageError("stabilizer must contain the identity")
    index = {g.key(): i for i, g in enumerate(ball.elements)}
    if not stab_keys.issubset(index):
        raise UsageError("stabilizer must be contained in the ball")
    for g1 in stab:
        for g2 in stab:
            if g1.compose(g2).key() not in stab_keys:
                raise UsageError("stabilizer is not closed under composition")

    covered = np.zeros(len(ball.elements), dtype=bool)
    rep_index, tile = [], []
    for i, g in enumerate(ball.elements):
        if covered[i]:
            continue
        # Only rotations about i precede the identity in ball order, and they
        # lie in H whenever H holds one, so rep_index still increases.
        rep = identity if g.key() in stab_keys else g
        row = [index.get(rep.compose(h).key(), -1) for h in stab]
        inside = [j for j in row if j >= 0]
        if covered[inside].any():
            raise UsageError("cosets overlap; inconsistent input")
        covered[inside] = True
        rep_index.append(index[rep.key()])
        tile.append(row)
    return CosetSystem(rep_index=np.array(rep_index, dtype=int), tile=np.array(tile, dtype=int))


def modular_fundamental_domain_grid(nx: int = 400, ns: int = 600, s_max: float = 16.0) -> QuadratureGrid:
    """Quadrature grid on the classical domain {|x| <= 1/2, |z| >= 1}."""
    return QuadratureGrid.above_graph(
        -0.5, 0.5, lambda x: np.sqrt(1.0 - x * x), nx, ns, s_max
    )


def covolume_psl2z(
    *, grid: QuadratureGrid | None = None, haar_scale: float = 1.0
) -> float:
    """Invariant area of the modular fundamental domain (pi/3 at scale 1)."""
    if not haar_scale > 0.0:
        raise UsageError(f"haar_scale must be positive, got {haar_scale}")
    if grid is None:
        grid = modular_fundamental_domain_grid()
    area = integrate_invariant(grid, lambda x, y: np.ones_like(x))
    return haar_scale * area


def lattice_covolume(
    spec: LatticeSpec, *, haar_scale: float = 1.0, grid: QuadratureGrid | None = None
) -> float:
    """Covolume of a lattice spec at the given Haar scale.

    The modular group is integrated over its fundamental domain; any other
    lattice must carry a configured covolume (understood at scale 1).
    """
    if spec.name == "psl2z" and spec.covolume is None:
        return covolume_psl2z(grid=grid, haar_scale=haar_scale)
    if spec.covolume is None:
        raise UsageError(f"lattice {spec.name!r} has no configured covolume")
    return haar_scale * spec.covolume
