"""Upper half-plane geometry: Moebius maps, the j-cocycle, hyperbolic
distance, and midpoint quadrature against the invariant measure
y^-2 dx dy.

Group elements are kept as sign-canonicalised unit-determinant 2x2
matrices, so each class of the +/- identification has a unique
representative: the first entry of (a, b, c, d) larger than 1e-14 in
modulus is made strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, UsageError

# entries below this are treated as zero by the sign canonicalisation
SIGN_TOL = 1e-14


@dataclass(eq=False)
class MoebiusMap:
    """Element of PSL(2, R) as a canonicalised matrix (a b; c d), ad - bc = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det) or det <= 0.0:
            raise UsageError(f"matrix determinant must be positive, got {det}")
        s = math.sqrt(det)
        a, b, c, d = self.a / s, self.b / s, self.c / s, self.d / s
        for entry in (a, b, c, d):
            if abs(entry) > SIGN_TOL:
                if entry < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        # +0.0 folds negative zeros into the canonical representative
        self.a, self.b, self.c, self.d = a + 0.0, b + 0.0, c + 0.0, d + 0.0

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def act(self, z: "UpperHalfPoint") -> "UpperHalfPoint":
        w = (self.a * z.as_complex + self.b) / (self.c * z.as_complex + self.d)
        if not w.imag > 0.0:
            raise NumericalFailure(f"Moebius image left the upper half-plane: {w}")
        return UpperHalfPoint(w.real, w.imag)

    def j_factor(self, z: "UpperHalfPoint") -> complex:
        """Automorphy factor 1/(cz + d); |j|^2 equals Im(m.z)/Im(z)."""
        return 1.0 / (self.c * z.as_complex + self.d)

    @property
    def frobenius_sq(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    @property
    def frobenius_norm(self) -> float:
        return math.sqrt(self.frobenius_sq)

    def key(self, ndigits: int = 9) -> tuple[float, float, float, float]:
        """Rounded entry tuple used for deduplication and hashing."""
        return (
            round(self.a, ndigits) + 0.0,
            round(self.b, ndigits) + 0.0,
            round(self.c, ndigits) + 0.0,
            round(self.d, ndigits) + 0.0,
        )

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MoebiusMap({self.a:.12g}, {self.b:.12g}, {self.c:.12g}, {self.d:.12g})"


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point x + iy with y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0.0):
            raise UsageError(f"point ({self.x}, {self.y}) is not in the open upper half-plane")

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)


def distance(z: UpperHalfPoint, w: UpperHalfPoint) -> float:
    """Hyperbolic distance acosh(1 + |z-w|^2 / (2 Im z Im w))."""
    dx = z.x - w.x
    dy = z.y - w.y
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * z.y * w.y)
    return math.acosh(max(arg, 1.0))


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    if not (n >= 1 and math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise UsageError(f"bad midpoint range ({lo}, {hi}) with {n} nodes")
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes (x, y) in the upper half-plane with weights that already
    include the invariant density, so that integrate_invariant is a plain
    weighted sum of integrand values."""

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    descriptor: dict = field(repr=False)

    @property
    def node_count(self) -> int:
        return int(self.xs.size)

    @classmethod
    def rectangle_log_y(
        cls, x_min: float, x_max: float, t_min: float, t_max: float, nx: int, nt: int
    ) -> "QuadratureGrid":
        """Tensor midpoint grid on a rectangle in (x, t), y = exp(t).

        In these coordinates the measure y^-2 dx dy becomes exp(-t) dx dt.
        """
        xs1, hx = _midpoints(x_min, x_max, nx)
        ts1, ht = _midpoints(t_min, t_max, nt)
        X, T = np.meshgrid(xs1, ts1, indexing="ij")
        w = hx * ht * np.exp(-T)
        return cls(
            xs=X.ravel(),
            ys=np.exp(T).ravel(),
            weights=w.ravel(),
            descriptor={
                "kind": "rectangle_log_y",
                "x_min": x_min,
                "x_max": x_max,
                "t_min": t_min,
                "t_max": t_max,
                "nx": nx,
                "nt": nt,
            },
        )

    @classmethod
    def above_graph(
        cls, x_min: float, x_max: float, floor, nx: int, ns: int, s_max: float
    ) -> "QuadratureGrid":
        """Midpoint grid on the region {x in [x_min, x_max], y >= floor(x)}.

        Per x-node the vertical ray is parameterised as y = floor(x) e^s
        with s in (0, s_max], under which y^-2 dy = e^-s / floor(x) ds; the
        ray mass beyond s_max is exp(-s_max) relative.
        """
        xs1, hx = _midpoints(x_min, x_max, nx)
        ss1, hs = _midpoints(0.0, s_max, ns)
        fv = np.asarray(floor(xs1), dtype=float)
        if fv.shape != xs1.shape or not np.all(fv > 0.0):
            raise UsageError("floor function must return positive values on the x-range")
        Y = fv[:, None] * np.exp(ss1)[None, :]
        W = (hx * hs) * np.exp(-ss1)[None, :] / fv[:, None]
        X = np.broadcast_to(xs1[:, None], Y.shape)
        return cls(
            xs=X.ravel().copy(),
            ys=Y.ravel(),
            weights=W.ravel(),
            descriptor={
                "kind": "above_graph",
                "x_min": x_min,
                "x_max": x_max,
                "floor": floor,
                "nx": nx,
                "ns": ns,
                "s_max": s_max,
            },
        )

    def scaled_resolution(self, factor: float) -> "QuadratureGrid":
        """Same region, node counts multiplied by ``factor`` (at least 1 each)."""
        d = self.descriptor
        kind = d["kind"]
        if kind == "rectangle_log_y":
            return QuadratureGrid.rectangle_log_y(
                d["x_min"], d["x_max"], d["t_min"], d["t_max"],
                max(1, round(d["nx"] * factor)), max(1, round(d["nt"] * factor)),
            )
        if kind == "above_graph":
            return QuadratureGrid.above_graph(
                d["x_min"], d["x_max"], d["floor"],
                max(1, round(d["nx"] * factor)), max(1, round(d["ns"] * factor)),
                d["s_max"],
            )
        raise UsageError(f"unknown grid kind {kind!r}")


def integrate_invariant(grid: QuadratureGrid, f) -> float:
    """Weighted sum of f over the grid; weights carry the invariant measure.

    ``f`` is called once with the node coordinate arrays (xs, ys) and must
    return finite values of the same shape.
    """
    vals = np.asarray(f(grid.xs, grid.ys), dtype=float)
    if vals.shape != grid.xs.shape:
        vals = np.broadcast_to(vals, grid.xs.shape)
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("integrand returned non-finite values on the grid")
    # einsum sums without BLAS, so the result does not depend on the BLAS thread count
    return float(np.einsum("i,i->", grid.weights, vals))
