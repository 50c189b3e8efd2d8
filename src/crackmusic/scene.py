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
        """Cubic spline through the points in chord-length parameter on [-1, 1],
        fitted on first use (scipy.interpolate is slow to import)."""
        from scipy.interpolate import CubicSpline

        s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(self.points, axis=0), axis=1))])
        spl = CubicSpline(2.0 * s / s[-1] - 1.0, self.points, axis=0)
        return spl, spl.derivative()

    def point(self, t):
        """Crack points at parameters t in [-1, 1], shape (len(t), 2)."""
        return self._spline[0](np.atleast_1d(t))

    def deriv(self, t):
        return self._spline[1](np.atleast_1d(t))

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
    """Equispaced angles on S^1.

    closed: theta_1 = 0 and theta_N = 2*pi both present (duplicated direction,
    as in the angle scheme the direction-sum identity is stated with).
    open: N distinct equispaced angles.
    """

    angles: np.ndarray
    mode: str = "closed"

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


def make_directions(n, mode="closed"):
    if n < 2:
        raise ValueError("need at least 2 directions")
    if mode == "closed":
        ang = 2.0 * np.pi * np.arange(n) / (n - 1)
    elif mode == "open":
        ang = 2.0 * np.pi * np.arange(n) / n
    else:
        raise ValueError(f"unknown direction mode {mode!r}")
    return DirectionSet(angles=ang, mode=mode)


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

