"""Upper half-plane geometry: group elements, their action, and
midpoint quadrature against the invariant measure y^-2 dx dy on
rectangles in (x, ln y), which the formal-degree quadrature uses.

Group elements are sign-canonicalised unit-determinant 2x2 matrices: the
first entry of (a, b, c, d) larger than 1e-14 in modulus is positive, so
each class of the +/- identification has one representative. A list of
elements is an ``(N, 4)`` float array of rows (a, b, c, d), and
:func:`canonical`, :func:`compose` and :func:`inverse` act on whole arrays;
:class:`MoebiusMap` is one such row, for generators and probes.

A quadrature grid keeps its axes as arrays that broadcast against each
other; integrands are evaluated on them, not on a materialised mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, ResourceLimitError, UsageError

# entries below this are treated as zero by the sign canonicalisation
SIGN_TOL = 1e-14

# a quadrature grid holds at most this many nodes; a larger one is refused before allocation
QUADRATURE_NODE_CAP = 4096 * 4096


def _entries(x) -> tuple[np.ndarray, ...]:
    x = np.asarray(x, dtype=float)
    return x[..., 0], x[..., 1], x[..., 2], x[..., 3]


def canonical(m) -> np.ndarray:
    """Canonical representatives of matrix rows (..., 4): each row divided
    by the square root of its determinant, then negated if its first entry
    larger than SIGN_TOL in modulus is negative."""
    m = np.asarray(m, dtype=float)
    det = m[..., 0] * m[..., 3] - m[..., 1] * m[..., 2]
    bad = ~(np.isfinite(det) & (det > 0.0))
    if bad.any():
        raise UsageError(f"matrix determinant must be positive, got {float(det[bad].flat[0])}")
    m = m / np.sqrt(det)[..., None]
    big = np.abs(m) > SIGN_TOL
    first = np.argmax(big, axis=-1)[..., None]
    flip = np.take_along_axis(big & (m < 0.0), first, axis=-1)
    # +0.0 folds negative zeros into the canonical representative
    return np.where(flip, -m, m) + 0.0


def compose(x, y) -> np.ndarray:
    """Canonical products x y of matrix rows broadcast against each other."""
    xa, xb, xc, xd = _entries(x)
    ya, yb, yc, yd = _entries(y)
    return canonical(
        np.stack([xa * ya + xb * yc, xa * yb + xb * yd, xc * ya + xd * yc, xc * yb + xd * yd], axis=-1)
    )


def inverse(x) -> np.ndarray:
    """Canonical inverses (d, -b, -c, a) of matrix rows."""
    a, b, c, d = _entries(x)
    return canonical(np.stack([d, -b, -c, a], axis=-1))


def frobenius_sq(x) -> np.ndarray:
    """a^2 + b^2 + c^2 + d^2 of matrix rows, summed in that order."""
    a, b, c, d = _entries(x)
    return a * a + b * b + c * c + d * d


def round9(values) -> list[float]:
    """``round(v, 9) + 0.0`` of each value, flattened. An integer-valued
    float is its own rounding, so only the others pay for Python's round."""
    v = np.asarray(values, dtype=float).ravel()
    out = (v + 0.0).tolist()
    for i in np.flatnonzero(v != np.floor(v)).tolist():
        out[i] = round(out[i], 9) + 0.0
    return out


def row_keys(x) -> list[tuple[float, float, float, float]]:
    """Entries of matrix rows rounded to 9 digits, as hashable keys."""
    flat = round9(x)
    return list(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))


def image(a: float, b: float, c: float, d: float, z: complex) -> complex:
    """(a z + b) / (c z + d) in scalar complex arithmetic, in the upper half-plane."""
    w = (a * z + b) / (c * z + d)
    if not w.imag > 0.0:
        raise NumericalFailure(f"Moebius image left the upper half-plane: {w}")
    return w


@dataclass(eq=False)
class MoebiusMap:
    """One element of PSL(2, R), such as a generator, as a canonicalised
    matrix (a b; c d), ad - bc = 1; array-like as its row (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        self.a, self.b, self.c, self.d = canonical([self.a, self.b, self.c, self.d]).tolist()

    def __array__(self, dtype=None, copy=None):
        return np.array([self.a, self.b, self.c, self.d], dtype=dtype)


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


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    if not (n >= 1 and math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise UsageError(f"bad midpoint range ({lo}, {hi}) with {n} nodes")
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes (x, y) in the upper half-plane with weights that already
    include the invariant density, so that integrate_invariant is a plain
    weighted sum of integrand values.

    ``xs``, ``ys`` and ``weights`` broadcast against each other to the
    grid's shape: a tensor grid keeps its axes, e.g. x as an ``(nx, 1)``
    column and y and the weights as ``(1, nt)`` rows.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    descriptor: dict = field(repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(self.xs.shape, self.ys.shape, self.weights.shape)

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @classmethod
    def rectangle_log_y(
        cls, x_min: float, x_max: float, t_min: float, t_max: float, nx: int, nt: int
    ) -> "QuadratureGrid":
        """Tensor midpoint grid on a rectangle in (x, t), y = exp(t).

        In these coordinates the measure y^-2 dx dy becomes exp(-t) dx dt.
        """
        if nx * nt > QUADRATURE_NODE_CAP:
            raise ResourceLimitError(f"{nx} x {nt} quadrature nodes exceed the cap {QUADRATURE_NODE_CAP}")
        xs1, hx = _midpoints(x_min, x_max, nx)
        ts1, ht = _midpoints(t_min, t_max, nt)
        return cls(
            xs=xs1[:, None],
            ys=np.exp(ts1)[None, :],
            weights=(hx * ht * np.exp(-ts1))[None, :],
            descriptor=dict(
                kind="rectangle_log_y", x_min=x_min, x_max=x_max, t_min=t_min, t_max=t_max, nx=nx, nt=nt
            ),
        )

    def scaled_resolution(self, factor: float) -> "QuadratureGrid":
        """Same rectangle, node counts multiplied by ``factor`` (at least 1 each)."""
        args = dict(self.descriptor)
        kind = args.pop("kind")
        if kind != "rectangle_log_y":
            raise UsageError(f"unknown grid kind {kind!r}")
        for n in ("nx", "nt"):
            args[n] = max(1, round(args[n] * factor))
        return QuadratureGrid.rectangle_log_y(**args)


def integrate_invariant(grid: QuadratureGrid, f) -> float:
    """Weighted sum of f over the grid; weights carry the invariant measure.

    ``f`` is called once with the node coordinate arrays (xs, ys), which
    broadcast to the grid's shape, and must return finite values that
    broadcast to it too. Values and weights are each laid out as one
    contiguous array of that shape before the sum.
    """
    shape = grid.shape
    vals = np.broadcast_to(np.asarray(f(grid.xs, grid.ys), dtype=float), shape).ravel()
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("integrand returned non-finite values on the grid")
    weights = np.broadcast_to(grid.weights, shape).ravel()
    # einsum sums without BLAS, so the result does not depend on the BLAS thread count
    return float(np.einsum("i,i->", weights, vals))
