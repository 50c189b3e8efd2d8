"""Crack geometry, direction sets, incident plane waves, the scene parser."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SegmentCrack:
    """Linear crack of half-length `half_length` centered at `center`."""

    center: tuple
    half_length: float
    angle: float = 0.0

    def __post_init__(self):
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def is_small_for(self, k):
        """Warning predicate: half_length at most a tenth of the wavelength 2*pi/k."""
        return self.half_length <= 0.1 * (2.0 * np.pi / k)

    def point(self, t):
        """Crack points at parameters t in [-1, 1], shape (len(t), 2)."""
        d = np.array([np.cos(self.angle), np.sin(self.angle)])
        return np.asarray(self.center) + np.atleast_1d(t)[:, None] * self.half_length * d

    def deriv(self, t):
        d = np.array([np.cos(self.angle), np.sin(self.angle)])
        return np.broadcast_to(self.half_length * d, (np.atleast_1d(t).size, 2))

    def centers(self):
        """Point target of the asymptotic model: the center."""
        return np.array([self.center])


def _not_a_knot(x, y):
    """Piece coefficients, highest power first, of the cubic spline through the
    rows of y at increasing knots x, shape (4, len(x) - 1, y.shape[1]), and of its
    derivative, shape (3, ...). The spline solves scipy's CubicSpline equations:
    not-a-knot ends, the line through 2 points and the parabola through 3."""
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    if n == 2:
        s = np.vstack([slope, slope])
    else:
        # Tridiagonal system lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        # for the slopes s at the knots.
        lower = [0.0, *dx[1:], 0.0]
        diag = [0.0, *(2.0 * (dx[:-1] + dx[1:])), 0.0]
        upper = [0.0, *dx[:-1], 0.0]
        rhs = np.empty_like(y)
        rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
        if n == 3:
            # the parabola's end slopes average to the chord's slope
            diag[0] = upper[0] = diag[-1] = lower[-1] = 1.0
            rhs[0], rhs[-1] = 2.0 * slope[0], 2.0 * slope[-1]
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            diag[0], upper[0], diag[-1], lower[-1] = dx[1], d0, dx[-2], d1
            rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        # Elimination without pivoting, in O(n) and with no LAPACK call, so the
        # bytes do not depend on the BLAS library or its thread count; with
        # increasing knots every pivot is positive.
        for i in range(1, n):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        s = np.empty_like(y)
        s[-1] = rhs[-1] / diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    h = dx[:, None]
    t = (s[:-1] + s[1:] - 2.0 * slope) / h
    c = np.stack([t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1]])
    return c, c[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]


def _piecewise(x, c, t):
    """The pieces of coefficients c (highest power first) on the knots x at the
    parameters t, by Horner's rule; the end pieces extend beyond [x[0], x[-1]]."""
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    dt = (t - x[i])[:, None]
    out = c[0, i]
    for ci in c[1:]:
        out = out * dt + ci[i]
    return out


@dataclass(frozen=True)
class ParametricCrack:
    """Open arc traced by ordered sample points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("ParametricCrack needs >= 2 points in R^2")
        apart = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 0
        if not np.all(apart):
            i = int(np.argmin(apart))
            raise ValueError(f"arc points {i} and {i + 1} coincide at {pts[i].tolist()}")
        object.__setattr__(self, "points", pts)

    @cached_property
    def _spline(self):
        """Knots and piece coefficients of the curve and of its derivative: the
        not-a-knot spline through the points in chord-length parameter on [-1, 1],
        fitted on first use."""
        s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(self.points, axis=0), axis=1))])
        knots = 2.0 * s / s[-1] - 1.0
        return (knots, *_not_a_knot(knots, self.points))

    def point(self, t):
        """Crack points at parameters t in [-1, 1], shape (len(t), 2)."""
        knots, c, _ = self._spline
        return _piecewise(knots, c, np.atleast_1d(t))

    def deriv(self, t):
        knots, _, dc = self._spline
        return _piecewise(knots, dc, np.atleast_1d(t))

    def centers(self):
        """Point targets of the asymptotic model: every sample point."""
        return self.points


@dataclass(frozen=True)
class Scene:
    """Collection of cracks plus the true wavenumber of the experiment."""

    cracks: tuple
    wavenumber: float

    def __post_init__(self):
        if self.wavenumber <= 0:
            raise ValueError("wavenumber must be positive")
        if len(self.cracks) == 0:
            raise ValueError("scene needs at least one crack")
        object.__setattr__(self, "cracks", tuple(self.cracks))

    def centers(self):
        """The point targets of all cracks, stacked, shape (n_targets, 2)."""
        return np.vstack([c.centers() for c in self.cracks])


@dataclass(frozen=True)
class DirectionSet:
    """Strictly increasing angles on S^1: an MSR matrix's incident and observation directions."""

    angles: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        if np.any(np.diff(ang) <= 0):
            raise ValueError("angles must be strictly increasing")
        object.__setattr__(self, "angles", ang)

    @property
    def n(self):
        return self.angles.size

    def vectors(self):
        """Unit direction vectors, shape (N, 2)."""
        return np.column_stack([np.cos(self.angles), np.sin(self.angles)])


def make_directions(n):
    """The closed scheme: n equispaced angles with theta_1 = 0 and theta_N = 2*pi
    both present (duplicated direction, as in the angle scheme the direction-sum
    identity is stated with)."""
    if n < 2:
        raise ValueError("need at least 2 directions")
    return DirectionSet(angles=2.0 * np.pi * np.arange(n) / (n - 1))


SEPARATION_FACTOR = 5.0           # smallest k * distance between two point targets


def separation_ok(scene):
    """Check k*|z_m - z_m'| >= SEPARATION_FACTOR over all pairs of point targets.

    Returns (ok, report) where report lists the failing pairs as row indices
    of scene.centers(); a warning predicate, not an error.
    """
    z = scene.centers()
    i, j = np.triu_indices(len(z), 1)
    k_dist = scene.wavenumber * np.linalg.norm(z[i] - z[j], axis=1)
    failing = [{"pair": (int(a), int(b)), "k_dist": float(v)}
               for a, b, v in zip(i, j, k_dist) if v < SEPARATION_FACTOR]
    return not failing, failing


def incident_field(x, theta, k):
    """Plane wave(s) exp(i k theta . x); theta is one unit vector, or an
    (n_inc, 2) array of them for one column per direction."""
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(np.linalg.norm(theta, axis=-1) - 1.0) > 1e-12):
        raise ValueError("incident direction must be a unit vector")
    x = np.asarray(x, dtype=float)
    return np.exp(1j * k * (x @ theta.T))


# --- Scene documents: the run config's "scene", validated against
# runconfig.schema.json's $defs/scene before it gets here ---

_CRACK_TYPES = {"segment": SegmentCrack, "arc": ParametricCrack}


def scene_from_dict(d):
    cracks = (_CRACK_TYPES[c["type"]](**{key: v for key, v in c.items() if key != "type"})
              for c in d["cracks"])
    return Scene(cracks=tuple(cracks), wavenumber=float(d["wavenumber"]))

