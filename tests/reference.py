"""Reference formulas that tests check the package's kernels against, and the
open direction set, a fixture the package itself never builds.

Each formula computes one value straight from the model, with no code shared
with the package, so a kernel and its reference cannot be wrong the same way.
"""

import cmath
import math

import numpy as np
from scipy.special import j0

from crackmusic import DirectionSet


def asym_farfield(obs, inc, scene, h):
    """u_inf(obs, inc) = -(2 pi / ln(h/2)) sum_m exp(i k (inc - obs) . z_m)
    for one observation and one incident direction, summed crack by crack."""
    k = scene.wavenumber
    dx, dy = inc[0] - obs[0], inc[1] - obs[1]
    total = sum(cmath.exp(1j * k * (dx * zx + dy * zy)) for zx, zy in scene.centers())
    return -2.0 * math.pi / math.log(h / 2.0) * total


def open_directions(n):
    """The open scheme: n distinct equispaced angles 2*pi*j/n, j = 0..n-1."""
    return DirectionSet(angles=2.0 * np.pi * np.arange(n) / n)


def direction_average(w, x, dirs):
    """Average of exp(i*w*theta_n . x) over a direction set.

    When the last angle repeats the first one turn later (the closed scheme,
    angles 0 and 2*pi) the duplicated endpoints get trapezoid weights 1/2,
    which makes the average the exact periodic rectangle rule over the
    distinct angles; a plain mean would carry an O(1/N) endpoint bias.
    Converges spectrally to J0(w|x|).
    """
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(w) and np.all(np.isfinite(x))):
        raise ValueError("direction_average requires finite inputs")
    ang = dirs.angles
    if ang.size == 0:
        raise ValueError("direction set is empty")
    phases = np.exp(1j * w * (np.cos(ang) * x[0] + np.sin(ang) * x[1]))
    if math.isclose(ang[-1] - ang[0], 2.0 * math.pi):
        wts = np.ones(ang.size)
        wts[0] = wts[-1] = 0.5
        return complex(np.sum(wts * phases) / (ang.size - 1))
    return complex(np.mean(phases))


def phase_distance(params, grid):
    """min_m |eta x - k z_m| over the grid, shape (ny, nx): every grid point
    against every target, the root of the least squared distance."""
    kz = params.wavenumber * params.centers
    dx = params.eta * grid.xs()[:, None] - kz[:, 0]
    dy = params.eta * grid.ys()[:, None] - kz[:, 1]
    return np.sqrt(np.min(dx * dx + (dy * dy)[:, None, :], axis=2))


def closed_form(x, k, eta, centers):
    """The closed form at one point x: the radicand 1 - sum_m J0(|eta x - k z_m|)^2
    with scipy's J0, and the value radicand^(-1/2), the radicand clamped at 1e-12."""
    z = np.asarray(centers, dtype=float)
    d = np.hypot(eta * x[0] - k * z[:, 0], eta * x[1] - k * z[:, 1])
    rad = 1.0 - float(np.sum(j0(d) ** 2))
    return rad, 1.0 / math.sqrt(max(rad, 1e-12))
