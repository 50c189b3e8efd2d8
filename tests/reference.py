"""Reference formulas that tests check the package's kernels against.

Each is written from the model's formula one value at a time, with no code
shared with the package, so a kernel and its reference cannot be wrong the
same way.
"""

import cmath
import math


def asym_farfield(obs, inc, scene, h):
    """u_inf(obs, inc) = -(2 pi / ln(h/2)) sum_m exp(i k (inc - obs) . z_m)
    for one observation and one incident direction, summed crack by crack."""
    k = scene.wavenumber
    dx, dy = inc[0] - obs[0], inc[1] - obs[1]
    total = sum(cmath.exp(1j * k * (dx * zx + dy * zy)) for zx, zy in scene.centers())
    return -2.0 * math.pi / math.log(h / 2.0) * total
