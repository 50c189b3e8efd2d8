"""Closed-form prediction of the imaging map under a probe wavenumber eta.

For well-separated small cracks the imaging functional reduces to

    E(x; eta) ~ (1 - sum_m J0(|eta x - k z_m|)^p)^(-1/2)

with p = 2 ("squared" variant, the form the derivation's algebra yields) or
p = 1 ("linear" variant, the form the result is usually printed in).  The
squared variant is the default; both are kept so their fit to the numeric
pipeline can be compared.
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
    variant: str = "squared"      # squared | linear

    def __post_init__(self):
        if self.wavenumber <= 0 or self.eta <= 0:
            raise ValueError("wavenumber and eta must be positive")
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if c.size == 0:
            raise ValueError("need at least one crack center")
        if self.variant not in ("squared", "linear"):
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "centers", c)


def _radicand(params, pts):
    """1 - sum_m J0(|eta x - k z_m|)^p per point, over blocks of about _BLOCK_ELEMS distances."""
    kz = params.wavenumber * params.centers
    rows = max(1, _BLOCK_ELEMS // kz.shape[0])
    out = np.empty(pts.shape[0])
    for i in range(0, pts.shape[0], rows):
        p = params.eta * pts[i:i + rows]
        j = bessel_j0(np.hypot(p[:, :1] - kz[:, 0], p[:, 1:] - kz[:, 1]))
        if params.variant == "squared":
            j *= j
        out[i:i + rows] = 1.0 - j.sum(axis=1)
    return out


def theory_value(params, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rad = np.maximum(_radicand(params, x), _EPS)
    out = 1.0 / np.sqrt(rad)
    return float(out[0]) if out.size == 1 else out


def theory_map(params, grid):
    pts = grid.points()
    if pts.size == 0:
        raise ValueError("empty grid")
    rad = np.maximum(_radicand(params, pts), _EPS)
    ny, nx = grid.ys().size, grid.xs().size
    return ImageMap(grid=grid, values=(1.0 / np.sqrt(rad)).reshape(ny, nx), eta=params.eta)


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
    are excluded, as are points where either map is clamp-dominated (value
    within three decades of the clamp ceiling).  Returns a dict report.
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
