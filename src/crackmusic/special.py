"""Bessel functions: J0, the kernel of the closed-form MUSIC prediction, and
H0 = J0 + iY0, the kernel of the full-wave (BIE) forward solver.

The two evaluators share no code, and each is shaped by its own traffic.
bessel_j0 serves the theory maps, about 13 M values of J0(|x - z|) for grid
points x and targets z per fig4 map: it takes them from the plane-wave
average (1/Q) sum_q exp(i (x - z) . theta_q), which separates into one real
matrix product per grid row.  hankel0 serves a BIE solve, about 0.1 M values
at scattered arguments: it is numpy with Cephes' j0.c rational
approximations, the ones behind scipy's j0 and y0.  Neither imports scipy.
"""

import math

import numpy as np

# Cephes j0.c.  For x <= 5: J0 = (z - DR1)(z - DR2) RP(z)/RQ(z) with z = x^2,
# DR1, DR2 the squares of J0's first two zeros, and
# Y0 = YP(z)/YQ(z) + (2/pi) ln(x) J0(x).  For x > 5, with q = 25/x^2:
# P = PP(q)/PQ(q), Q = QP(q)/QQ(q), xn = x - pi/4 and
#   J0 = sqrt(2/(pi x)) (P cos xn - (5/x) Q sin xn),
#   Y0 = sqrt(2/(pi x)) (P sin xn + (5/x) Q cos xn).
# Coefficients run from the highest power down; RQ, YQ and QQ omit their
# leading 1.
_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
       5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
       9.99999999999999997821e-1)
_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
       5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
       1.00000000000000000218e0)
_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
       -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
       -5.14105326766599330220e1, -6.05014350600728481186e0)
_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
       7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
       2.42005740240291393179e2)
_YP = (1.55924367855235737965e4, -1.46639295903971606143e7, 5.43526477051876500413e9,
       -9.82136065717911466409e11, 8.75906394395366999549e13, -3.46628303384729719441e15,
       4.42733268572569800351e16, -1.84950800436986690637e16)
_YQ = (1.04128353664259848412e3, 6.26107330137134956842e5, 2.68919633393814121987e8,
       8.64002487103935000337e10, 2.02979612750105546709e13, 3.17157752842975028269e15,
       2.50596256172653059228e17)
_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
       9.70862251047306323952e15)
_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
       1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
       3.18121955943204943306e16, 1.71086294081043136091e18)
_DR1, _DR2 = 5.78318596294678452118e0, 3.04712623436620863991e1
_SQ2OPI, _PIO4, _TWOOPI = 7.9788456080286535587989e-1, 7.85398163397448309616e-1, \
    6.36619772367581343075535e-1

_BLOCK = 8192   # values per pass: H0's dozen float64 temporaries stay at 64 KiB each


def _polevl(x, coef, monic=False):
    """Horner's rule, highest power first; monic prepends the leading 1."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def j0_plane_waves(xs, ys, centers):
    """The plane-wave factors of J0(|(xs[i], ys[j]) - centers[m]|) on the grid
    xs x ys, built once per grid and target set: a tuple of h, ys, sin theta_q,
    the (nx, 2R) [cos, sin](x cos theta_q), the weighted (2, R, M) target
    factors and cos, sin of z_y sin theta_q.  bessel_j0 takes it with a block
    of grid rows.  Rejects non-finite input.

    The plane-wave average over Q = 2h equispaced directions theta_q = pi q / h
    is J0(|v|) = (1/h) sum_{q<h} cos(v . theta_q) (the other half turn gives
    the same terms) up to 2 |J_Q(|v|)|.  theta_q and pi - theta_q = theta_{h-q}
    add to 2 cos(v_x c_q) cos(v_y s_q), so with R = floor(h/2) + 1
        J0(|v|) = (1/h) sum_{q<R} weight_q cos(v_x c_q) cos(v_y s_q),
    weight 1 for q = 0 and for q = h/2 (h even), 2 otherwise.  With v = (x - z_x,
    y - z_y), a grid row is the real product [cos, sin](x c) @ [weight
    cos((y - z_y) s) cos(z_x c); ... sin(z_x c)], an (nx, 2R) by (2R, M)
    product, and cos((y - z_y) s) is taken by angle addition so that a row
    costs R cosines and R sines.  h depends on the whole grid, not on rows
    (_half_directions), so a row's values do not depend on the block it is in.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if not all(np.all(np.isfinite(arr)) for arr in (xs, ys, centers)):
        raise ValueError("bessel_j0 requires finite input")
    h = _half_directions(xs, ys, centers)
    theta = (np.pi / h) * np.arange(h // 2 + 1)
    cos, sin = np.cos(theta), np.sin(theta)
    weight = np.full(theta.size, 2.0)
    weight[0] = 1.0
    if h % 2 == 0:
        weight[-1] = 1.0            # theta = pi/2 is its own partner
    ex = xs[:, None] * cos
    a = np.concatenate([np.cos(ex), np.sin(ex)], axis=1)                   # (nx, 2R)
    zx, zy = centers[:, 0] * cos[:, None], centers[:, 1] * sin[:, None]     # (R, M)
    bx = weight[:, None] * np.stack([np.cos(zx), np.sin(zx)])               # (2, R, M)
    return h, ys, sin, a, bx, np.cos(zy), np.sin(zy)


def bessel_j0(waves, rows):
    """J0(|(xs[i], ys[j]) - centers[m]|) for the grid rows ys[rows], every
    column xs and every target, from waves = j0_plane_waves(xs, ys, centers):
    shape (len(ys[rows]), len(xs), M)."""
    h, ys, sin, a, bx, cos_zy, sin_zy = waves
    ey = ys[rows, None] * sin                                               # (rows, R)
    g = np.cos(ey)[:, :, None] * cos_zy + np.sin(ey)[:, :, None] * sin_zy
    # C order, (rows, 2R, M): each row the same BLAS call
    w = (g[:, None] * bx).reshape(g.shape[0], 2 * sin.size, g.shape[2])
    out = np.matmul(a, w)
    out /= h
    return out


def _half_directions(xs, ys, centers):
    """h = Q/2 for the grid xs x ys and the targets: Q is the least even
    integer >= r + 15 max(r, 1)^(1/3) + 2, r the largest distance from a
    corner of the grid's bounding box to a target (a distance is convex, so
    no grid point lies farther).  |J_n(r)| < 1e-17 once n >= r + 15 r^(1/3)
    (checked against scipy's jv for r up to 800), which bounds the average's
    error term 2 |J_Q|."""
    r = max(float(np.max(np.hypot(x - centers[:, 0], y - centers[:, 1])))
            for x in (xs.min(), xs.max()) for y in (ys.min(), ys.max()))
    return math.ceil((r + 15.0 * max(r, 1.0) ** (1.0 / 3.0) + 2.0) / 2.0)


def hankel0(x):
    """Hankel function H0^(1)(x) = J0(x) + i Y0(x), elementwise for finite x > 0.

    Cephes' j0 and y0 in numpy, operation for operation; agrees with
    scipy.special.hankel1(0, x) to a few 1e-15.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError("hankel0 requires finite positive input")
    out = np.empty(x.shape, dtype=np.complex128)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, x.size, _BLOCK):
        xb, ob = flat_x[lo:lo + _BLOCK], flat_out[lo:lo + _BLOCK]
        for part, j0_y0 in ((xb <= 5.0, _j0_y0_near), (xb > 5.0, _j0_y0_far)):
            ob.real[part], ob.imag[part] = j0_y0(xb[part])
    return out


def _j0_y0_near(x):
    z = x * x
    j = (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _polevl(z, _RQ, monic=True)
    j = np.where(x < 1e-5, 1.0 - z / 4.0, j)
    return j, _polevl(z, _YP) / _polevl(z, _YQ, monic=True) + _TWOOPI * np.log(x) * j


def _j0_y0_far(x):
    q = 25.0 / (x * x)
    p = _polevl(q, _PP) / _polevl(q, _PQ)
    wq = 5.0 / x * (_polevl(q, _QP) / _polevl(q, _QQ, monic=True))
    xn = x - _PIO4
    c, s = np.cos(xn), np.sin(xn)
    amp = np.sqrt(x)
    return (p * c - wq * s) * _SQ2OPI / amp, (p * s + wq * c) * _SQ2OPI / amp
