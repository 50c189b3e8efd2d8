"""Closed-form prediction of the imaging map under a probe wavenumber eta.

For well-separated small cracks the imaging functional reduces to

    E(x; eta) ~ (1 - sum_m J0(|eta x - k z_m|)^2)^(-1/2),

the squared form the derivation's algebra yields.
"""

from dataclasses import dataclass

import numpy as np

from .music import ImageGrid, ImageMap
from .special import bessel_j0

_EPS = 1e-12
EXCLUSION_RADIUS = 0.5     # phase distance around each predicted peak left out of comparisons
_BLOCK_ELEMS = 1 << 16     # point-centre distances per J0 call


@dataclass(frozen=True)
class TheoryParams:
    wavenumber: float             # true k of the data
    eta: float                    # probe wavenumber
    centers: np.ndarray           # (M, 2) crack centers

    def __post_init__(self):
        if self.wavenumber <= 0 or self.eta <= 0:
            raise ValueError("wavenumber and eta must be positive")
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if c.size == 0:
            raise ValueError("need at least one crack center")
        object.__setattr__(self, "centers", c)


def _values(params, pts):
    """(1 - sum_m J0(|eta x - k z_m|)^2)^(-1/2) per point, the radicand clamped
    at _EPS, over blocks of about _BLOCK_ELEMS distances."""
    kz = params.wavenumber * params.centers
    rows = max(1, _BLOCK_ELEMS // kz.shape[0])
    rad = np.empty(pts.shape[0])
    for i in range(0, pts.shape[0], rows):
        p = params.eta * pts[i:i + rows]
        j = bessel_j0(np.hypot(p[:, :1] - kz[:, 0], p[:, 1:] - kz[:, 1]))
        j *= j
        rad[i:i + rows] = 1.0 - j.sum(axis=1)
    return 1.0 / np.sqrt(np.maximum(rad, _EPS, out=rad), out=rad)


def theory_value(params, x):
    """The closed form at one point of shape (2,), a float, or at each row of
    an (n, 2) array, an array of shape (n,)."""
    x = np.asarray(x, dtype=float)
    out = _values(params, np.atleast_2d(x))
    return float(out[0]) if x.ndim == 1 else out


def theory_map(params, grid):
    values = _values(params, grid.points()).reshape(grid.ys().size, grid.xs().size)
    return ImageMap(grid=grid, values=values, eta=params.eta)


def phase_distance(params, pts):
    """min_m |eta x - k z_m| for each point."""
    p = params.eta * np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.full(p.shape[0], np.inf)
    for zx, zy in params.wavenumber * params.centers:
        dx, dy = p[:, 0] - zx, p[:, 1] - zy
        np.minimum(d, np.sqrt(dx * dx + dy * dy), out=d)
    return d


def compare_maps(a, b, params):
    """Relative deviation of two maps away from the predicted peaks.

    Grid points with phase distance min_m |eta x - k z_m| <= EXCLUSION_RADIUS
    are excluded, as are points where either map is clamp-dominated (a value
    of 1e3 or more: three decades below the closed form's clamp ceiling 1e6;
    the imaging map's own ceiling is 1e12).  Returns a dict report.
    """
    if a.grid != b.grid:
        raise ValueError("maps must share a grid")
    pts = a.grid.points()
    keep = phase_distance(params, pts) > EXCLUSION_RADIUS
    near_clamp = 1.0 / np.sqrt(_EPS) * 1e-3
    keep &= (a.values.ravel() < near_clamp) & (b.values.ravel() < near_clamp)
    va = a.values.ravel()[keep]
    vb = b.values.ravel()[keep]
    rel = np.abs(va - vb) / np.abs(vb)
    return {
        "max_dev": float(np.max(rel)) if rel.size else 0.0,
        "mean_dev": float(np.mean(rel)) if rel.size else 0.0,
        "excluded_count": int(np.sum(~keep)),
        "compared_count": int(np.sum(keep)),
    }
