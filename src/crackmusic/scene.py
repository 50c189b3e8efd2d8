"""Crack geometry, direction sets, incident plane waves, scene (de)serialization."""

import json
from dataclasses import dataclass, field

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

    def is_small_for(self, k, factor=0.1):
        """Warning predicate: half_length small versus wavelength 2*pi/k."""
        return self.half_length <= factor * (2.0 * np.pi / k)


@dataclass(frozen=True)
class ParametricCrack:
    """Open arc traced by ordered sample points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("ParametricCrack needs >= 2 points in R^2")
        if not np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) > 0):
            raise ValueError("ParametricCrack points must not all coincide")
        object.__setattr__(self, "points", pts)

    @property
    def arclength(self):
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))

    @property
    def endpoints(self):
        return self.points[0].copy(), self.points[-1].copy()


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
        """Representative point centers: crack centers for segments, sample
        points for parametric arcs (each sample acts as a point target in the
        asymptotic model)."""
        out = []
        for c in self.cracks:
            if isinstance(c, SegmentCrack):
                out.append(np.asarray(c.center))
            else:
                out.extend(list(c.points))
        return np.array(out)


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


def separation_ok(scene, separation_factor=5.0):
    """Check k*|z_m - z_m'| >= separation_factor over all center pairs.

    Returns (ok, report) where report lists failing pairs; a warning
    predicate, not an error.
    """
    centers = [np.asarray(c.center) for c in scene.cracks if isinstance(c, SegmentCrack)]
    k = scene.wavenumber
    failing = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            v = k * np.linalg.norm(centers[i] - centers[j])
            if v < separation_factor:
                failing.append({"pair": (i, j), "k_dist": float(v)})
    return len(failing) == 0, failing


def incident_field(x, theta, k):
    """Plane wave(s) exp(i k theta . x); theta is one unit vector, or an
    (n_inc, 2) array of them for one column per direction."""
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(np.linalg.norm(theta, axis=-1) - 1.0) > 1e-12):
        raise ValueError("incident direction must be a unit vector")
    x = np.asarray(x, dtype=float)
    return np.exp(1j * k * (x @ theta.T))


# --- JSON scene format (documented in schemas/scene.schema.json) ---

def scene_to_dict(scene):
    cracks = []
    for c in scene.cracks:
        if isinstance(c, SegmentCrack):
            cracks.append({
                "type": "segment",
                "center": [c.center[0], c.center[1]],
                "half_length": c.half_length,
                "angle": c.angle,
            })
        else:
            cracks.append({"type": "arc", "points": c.points.tolist()})
    return {"wavenumber": scene.wavenumber, "cracks": cracks}


def scene_from_dict(d):
    cracks = []
    for c in d["cracks"]:
        if c["type"] == "segment":
            cracks.append(SegmentCrack(center=tuple(c["center"]),
                                       half_length=float(c["half_length"]),
                                       angle=float(c.get("angle", 0.0))))
        elif c["type"] == "arc":
            cracks.append(ParametricCrack(points=np.array(c["points"])))
        else:
            raise ValueError(f"unknown crack type {c['type']!r}")
    return Scene(cracks=tuple(cracks), wavenumber=float(d["wavenumber"]))


def save_scene(scene, path):
    with open(path, "w") as f:
        json.dump(scene_to_dict(scene), f, indent=2, sort_keys=True)


def load_scene(path):
    with open(path) as f:
        return scene_from_dict(json.load(f))
