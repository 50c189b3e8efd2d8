"""Closed-form prediction of the imaging map under a probe wavenumber eta.

For well-separated small cracks the imaging functional reduces to

    E(x; eta) ~ (1 - sum_m J0(|eta x - k z_m|)^2)^(-1/2),

the squared form the derivation's algebra yields.
"""

from dataclasses import dataclass

import numpy as np

from .music import ImageMap
from .special import bessel_j0

_EPS = 1e-12
EXCLUSION_RADIUS = 0.5     # phase distance around each predicted peak left out of comparisons


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


def _offsets(params, grid):
    """eta x - k z_m split by axis: an (nx, M) x part and an (ny, M) y part."""
    kz = params.wavenumber * params.centers
    return (params.eta * grid.xs()[:, None] - kz[:, 0],
            params.eta * grid.ys()[:, None] - kz[:, 1])


def theory_map(params, grid):
    """(1 - sum_m J0(|eta x - k z_m|)^2)^(-1/2) over the grid, the radicand
    clamped at _EPS, a block of grid rows at a time."""
    xs, ys = params.eta * grid.xs(), params.eta * grid.ys()
    kz = params.wavenumber * params.centers
    rad = np.empty((ys.size, xs.size))
    for rows in grid.row_blocks(8 * kz.shape[0]):
        j = bessel_j0(xs, ys, kz, rows)
        rad[rows] = 1.0 - np.einsum("rim,rim->ri", j, j)
    values = 1.0 / np.sqrt(np.maximum(rad, _EPS, out=rad), out=rad)
    return ImageMap(grid=grid, values=values)


def phase_distance(params, grid):
    """min_m |eta x - k z_m| over the grid, shape (ny, nx), as the root of the
    least squared distance (sqrt is monotone and correctly rounded)."""
    dx, dy = _offsets(params, grid)
    dx, dy = dx * dx, dy * dy
    d = np.empty((dy.shape[0], dx.shape[0]))
    for rows in grid.row_blocks(8 * dx.shape[1]):
        np.min(dx + dy[rows, None, :], axis=2, out=d[rows])
    return np.sqrt(d, out=d)


def compare_maps(a, b, params):
    """Relative deviation of two maps away from the predicted peaks.

    Grid points with phase distance min_m |eta x - k z_m| <= EXCLUSION_RADIUS
    are excluded, as are points where either map is clamp-dominated (a value
    of 1e3 or more: three decades below the closed form's clamp ceiling 1e6;
    the imaging map's own ceiling is 1e12).  Returns a dict report.
    """
    if a.grid != b.grid:
        raise ValueError("maps must share a grid")
    keep = phase_distance(params, a.grid) > EXCLUSION_RADIUS
    near_clamp = 1.0 / np.sqrt(_EPS) * 1e-3
    keep &= (a.values < near_clamp) & (b.values < near_clamp)
    va = a.values[keep]
    vb = b.values[keep]
    rel = np.abs(va - vb) / np.abs(vb)
    return {
        "max_dev": float(np.max(rel)) if rel.size else 0.0,
        "mean_dev": float(np.mean(rel)) if rel.size else 0.0,
        "excluded_count": int(np.sum(~keep)),
        "compared_count": int(np.sum(keep)),
    }
