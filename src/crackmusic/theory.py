"""Closed-form prediction of the imaging map under a probe wavenumber eta.

For well-separated small cracks the imaging functional reduces to

    E(x; eta) ~ (1 - sum_m J0(|eta x - k z_m|)^2)^(-1/2),

the squared form the derivation's algebra yields.
"""

from dataclasses import dataclass

import numpy as np

from .music import ImageMap
from .special import bessel_j0, j0_plane_waves

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


def theory_map(params, grid):
    """(1 - sum_m J0(|eta x - k z_m|)^2)^(-1/2) over the grid, the radicand
    clamped at _EPS, a block of grid rows at a time; the J0 factors are built once."""
    xs, ys = params.eta * grid.xs(), params.eta * grid.ys()
    waves = j0_plane_waves(xs, ys, params.wavenumber * params.centers)
    # a row builds its (nx, M) J0 product, (2R, M) stack and (R, M) angle-addition terms
    row_bytes = 8 * params.centers.shape[0] * (xs.size + 3 * waves[2].size)
    rad = np.empty((ys.size, xs.size))
    for rows in grid.row_blocks(row_bytes):
        j = bessel_j0(waves, rows)
        rad[rows] = 1.0 - np.einsum("rim,rim->ri", j, j)
        del j                       # freed before the next block's stacks
    values = 1.0 / np.sqrt(np.maximum(rad, _EPS, out=rad), out=rad)
    return ImageMap(grid=grid, values=values)


def _near_targets(params, grid):
    """Grid points with min_m |eta x - k z_m| <= EXCLUSION_RADIUS, shape (ny, nx).

    Only the box of columns with |eta x - k z_m,x| <= R and rows with
    |eta y - k z_m,y| <= R can lie within R = EXCLUSION_RADIUS of target m
    (fl(sqrt(fl(d^2))) = |d|, and adding the other square can only grow the
    root), so each target is checked over its box alone.
    """
    kz = params.wavenumber * params.centers
    dx = params.eta * grid.xs()[:, None] - kz[:, 0]     # (nx, M): eta x - k z_m by axis
    dy = params.eta * grid.ys()[:, None] - kz[:, 1]     # (ny, M)
    near = np.zeros((dy.shape[0], dx.shape[0]), dtype=bool)
    for m in range(dx.shape[1]):
        cols = np.flatnonzero(np.abs(dx[:, m]) <= EXCLUSION_RADIUS)
        rows = np.flatnonzero(np.abs(dy[:, m]) <= EXCLUSION_RADIUS)
        if cols.size and rows.size:   # the axes increase, so each set is a range
            box = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
            x, y = dx[box[1], m], dy[box[0], m]
            near[box] |= np.sqrt(x * x + (y * y)[:, None]) <= EXCLUSION_RADIUS
    return near


def compare_maps(a, b, params):
    """Relative deviation of two maps away from the predicted peaks.

    Grid points with phase distance min_m |eta x - k z_m| <= EXCLUSION_RADIUS
    are excluded, as are points where either map is clamp-dominated (a value
    of 1e3 or more: three decades below the closed form's clamp ceiling 1e6;
    the imaging map's own ceiling is 1e12).  Returns a dict report.
    """
    if a.grid != b.grid:
        raise ValueError("maps must share a grid")
    keep = ~_near_targets(params, a.grid)
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
