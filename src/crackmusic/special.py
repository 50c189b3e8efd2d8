"""Bessel function J0, the kernel of the closed-form MUSIC prediction.

The plane-wave direction average (1/N) sum_n exp(i w theta_n . x) tends to
J0(w|x|); that average is the test suite's reference for bessel_j0.
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
