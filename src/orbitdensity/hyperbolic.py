"""Upper half-plane geometry: group elements and their action on points.

Group elements are sign-canonicalised unit-determinant 2x2 matrices: the
first entry of (a, b, c, d) larger than 1e-14 in modulus is positive, so
each class of the +/- identification has one representative. A list of
elements is an ``(N, 4)`` float array of rows (a, b, c, d), and
:func:`canonical`, :func:`compose`, :func:`inverse` and :func:`act` work on
whole arrays. A list of points, such as an orbit, is a 1-d complex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, UsageError

# entries below this are treated as zero by the sign canonicalisation
SIGN_TOL = 1e-14


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


def round9(values) -> np.ndarray:
    """``round(v, 9) + 0.0`` of each value, as a new flat array. An integer-valued
    float is its own rounding, so only the others pay for Python's round."""
    v = np.asarray(values, dtype=float).ravel() + 0.0
    inexact = np.flatnonzero(v != np.floor(v))
    v[inexact] = [round(x, 9) + 0.0 for x in v[inexact].tolist()]
    return v


def distance(u, w) -> np.ndarray:
    """Hyperbolic distance 2 asinh(|u - w| / (2 sqrt(Im u Im w))) of
    complex points, exact for close points where arccosh loses half the
    digits."""
    return 2.0 * np.arcsinh(np.abs(u - w) / (2.0 * np.sqrt(u.imag * w.imag)))


def rounding_bound(w) -> np.ndarray:
    """Rounding bound 64 eps |w| / Im w on the hyperbolic position of a
    computed point w, such as a Moebius image; the same for w and -1/w."""
    return 64.0 * np.finfo(float).eps * np.abs(w) / w.imag


def act(m, z) -> np.ndarray:
    """Images (a z + b) / (c z + d) of complex points z under matrix rows
    (..., 4), broadcast against each other, in array arithmetic. An image
    outside the open upper half-plane raises ``NumericalFailure``."""
    a, b, c, d = _entries(m)
    w = (a * z + b) / (c * z + d)
    bad = ~(w.imag > 0.0)
    if bad.any():
        raise NumericalFailure(f"Moebius image left the upper half-plane: {w[bad].flat[0]}")
    return w


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
