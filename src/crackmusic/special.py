"""Bessel function J0 and the finite plane-wave direction average.

The direction average (1/N) sum_n exp(i w theta_n . x) over equispaced
directions on the unit circle tends to J0(w|x|); this identity is what links
the imaging functional to Bessel asymptotics, so both sides are provided here.
"""

import numpy as np


def bessel_j0(x):
    """Bessel function of order zero of the first kind, scipy.special.j0.

    Elementwise over an array of any shape; rejects non-finite input.  Even
    in x because scipy's j0 (Cephes) takes |x| itself, so no copy is made.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite input")
    from scipy.special import j0   # here, not at the top: only J0 runs pay its import
    return j0(arr)


def direction_average(w, x, dirs):
    """Average of exp(i*w*theta_n . x) over a direction set.

    For the closed scheme (duplicated angle at 0 and 2*pi) the duplicated
    endpoints get trapezoid weights 1/2, which makes the average the exact
    periodic rectangle rule over the distinct angles; a plain mean would
    carry an O(1/N) endpoint bias.  Converges spectrally to J0(w|x|).
    """
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(w) and np.all(np.isfinite(x))):
        raise ValueError("direction_average requires finite inputs")
    ang = dirs.angles
    if ang.size == 0:
        raise ValueError("direction set is empty")
    phases = np.exp(1j * w * (np.cos(ang) * x[0] + np.sin(ang) * x[1]))
    if dirs.mode == "closed":
        wts = np.ones(ang.size)
        wts[0] = wts[-1] = 0.5
        return complex(np.sum(wts * phases) / (ang.size - 1))
    return complex(np.mean(phases))
