"""Full-wave forward solver for sound-soft open arcs (Dirichlet cracks).

Single-layer representation with the endpoint square-root singularity of the
density absorbed into a Chebyshev weight: on the parameter interval [-1, 1]

    u_s(x) = int_{-1}^{1} Phi(x, y(t)) w(t) / sqrt(1 - t^2) dt,
    Phi(x, y) = (i/4) H0^1(k |x - y|),

with w expanded in Chebyshev polynomials.  The logarithmic part of the kernel
is integrated analytically via

    int_{-1}^{1} ln|t - s| T_j(t) / sqrt(1 - t^2) dt = -pi ln 2    (j = 0),
                                                     = -pi T_j(s)/j (j >= 1),

and the continuous remainder by Gauss-Chebyshev quadrature; collocation at the
quadrature nodes yields a dense system solved directly.  Far-field values use
the normalization that makes the small-crack asymptotic expansion hold: a
conjugate-plane-wave integral of the density with prefactor -1 (the sign and
scale are pinned by the asymptotic-matching test, since the expansion's
far-field convention differs from the plain Sommerfeld one by sqrt(8 pi k)
e^{-i pi/4} and a sign).
"""

from dataclasses import dataclass

import numpy as np
# scipy.special before scipy.interpolate: the reverse order costs start-up
# about 3,700 more page faults (about 25 ms, measured on import of the CLI)
from scipy.special import hankel1
from scipy.interpolate import CubicSpline

from .forward_asym import MsrMatrix
from .scene import ParametricCrack, SegmentCrack, incident_field

_EULER_GAMMA = 0.5772156649015329
_N_START, _N_MAX, _TOL = 64, 4096, 1e-6   # auto node-count refinement


class _Parametrization:
    """Smooth map t in [-1, 1] -> crack point, with derivative."""

    def __init__(self, crack):
        if isinstance(crack, SegmentCrack):
            d = np.array([np.cos(crack.angle), np.sin(crack.angle)])
            c = np.asarray(crack.center)
            self.point = lambda t: c + np.atleast_1d(t)[:, None] * crack.half_length * d
            self.deriv = lambda t: np.broadcast_to(crack.half_length * d,
                                                   (np.atleast_1d(t).size, 2)).copy()
        elif isinstance(crack, ParametricCrack):
            pts = crack.points
            s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
            u = 2.0 * s / s[-1] - 1.0
            spl = CubicSpline(u, pts, axis=0)
            dspl = spl.derivative()
            self.point = lambda t: spl(np.atleast_1d(t))
            self.deriv = lambda t: dspl(np.atleast_1d(t))
        else:
            raise TypeError(f"unsupported crack type {type(crack).__name__}")


@dataclass(frozen=True)
class ArcDensity:
    """Chebyshev-coefficient layer density for one crack at one wavenumber.

    coeffs has shape (n, n_inc): one column per incident direction.
    """

    coeffs: np.ndarray
    nodes: np.ndarray
    values: np.ndarray            # density w at the nodes, (n, n_inc)
    wavenumber: float
    crack: object
    inc: np.ndarray               # (n_inc, 2) incident directions

    @property
    def n(self):
        return self.nodes.size


def _cheb_nodes(n):
    return np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n))


def _cheb_matrix(t, n_basis):
    return np.cos(np.outer(np.arccos(np.clip(t, -1.0, 1.0)), np.arange(n_basis)))


def _smooth_kernel(param, k, t_row, t_col):
    """S(t, s) = Phi(y(t), y(s)) + ln|t - s| / (2 pi), diagonal by its limit."""
    pr = param.point(t_row)
    pc = param.point(t_col)
    diff = pr[:, None, :] - pc[None, :, :]
    r = np.linalg.norm(diff, axis=2)
    dt = np.abs(t_row[:, None] - t_col[None, :])
    out = np.empty(r.shape, dtype=np.complex128)
    off = r > 0
    out[off] = 0.25j * hankel1(0, k * r[off]) + np.log(dt[off]) / (2.0 * np.pi)
    if np.any(~off):
        speed = np.linalg.norm(param.deriv(t_row), axis=1)
        diag = 0.25j - (np.log(0.5 * k * speed) + _EULER_GAMMA) / (2.0 * np.pi)
        out[~off] = np.broadcast_to(diag[:, None], out.shape)[~off]
    return out


def _log_rows(tau, n_basis):
    """Exact contribution of the -ln|t-s|/(2 pi) kernel part against T_j."""
    rows = 0.5 * _cheb_matrix(tau, n_basis)
    rows[:, 0] = 0.5 * np.log(2.0)
    rows[:, 1:] /= np.arange(1, n_basis)
    return rows


def _operator_rows(param, k, tau, nodes):
    """Rows of the single-layer operator on T_j, evaluated at parameters tau."""
    n = nodes.size
    s = _smooth_kernel(param, k, tau, nodes)
    return _log_rows(tau, n) + (np.pi / n) * (s @ _cheb_matrix(nodes, n))


def solve_scatter(crack, k, inc, n=64):
    """Solve the boundary integral equation for one crack and >= 1 incidences.

    inc may be a single unit vector or an (n_inc, 2) array.  n is the number
    of Chebyshev nodes (even, >= 8).
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    if n < 8 or n % 2:
        raise ValueError("node count must be even and >= 8")
    inc = np.atleast_2d(np.asarray(inc, dtype=float))
    param = _Parametrization(crack)
    t = _cheb_nodes(n)
    a = _operator_rows(param, k, t, t)
    rhs = -incident_field(param.point(t), inc, k)
    try:
        coeffs = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as e:
        raise ArithmeticError(
            f"BIE system solve failed (near-resonant or degenerate geometry): {e}") from e
    values = _cheb_matrix(t, n) @ coeffs
    return ArcDensity(coeffs=coeffs, nodes=t, values=values, wavenumber=k,
                      crack=crack, inc=inc)


def boundary_field(density, tau):
    """Total field u_inc + u_s on the crack at parameters tau (residual check)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    param = _Parametrization(density.crack)
    k = density.wavenumber
    u_s = _operator_rows(param, k, tau, density.nodes) @ density.coeffs
    return incident_field(param.point(tau), density.inc, k) + u_s


def farfield_bie(density, obs):
    """Far-field value(s) of the solved density at observation direction(s)."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    param = _Parametrization(density.crack)
    phase = np.exp(-1j * density.wavenumber * (param.point(density.nodes) @ obs.T))
    ff = -(np.pi / density.n) * (phase.T @ density.values)           # (n_obs, n_inc)
    if ff.size == 1:
        return complex(ff[0, 0])
    return ff


def _farfield_block(crack, k, th):
    """The obs = -inc far-field block of one crack and the node count it used.

    The node count doubles from _N_START until the whole block self-converges,
    max|F_2n - F_n| < _TOL max|F_2n|; the finer block F_2n is the one returned.
    """
    n = _N_START
    prev = farfield_bie(solve_scatter(crack, k, th, n), -th)
    while n < _N_MAX:
        n *= 2
        cur = farfield_bie(solve_scatter(crack, k, th, n), -th)
        if np.max(np.abs(cur - prev)) < _TOL * np.max(np.abs(cur)):
            return cur, n
        prev = cur
    raise ArithmeticError(f"far field did not self-converge to {_TOL} by n={_N_MAX}")


def assemble_msr_bie(scene, dirs):
    """MSR matrix from the full-wave solver.

    Multi-crack scenes use superposition of single-crack solves, consistent
    with the separation assumption (inter-crack multiple scattering ignored).
    Each crack's node count is refined (see _farfield_block);
    extra["bie_n"] lists the node count of each crack.
    """
    th = dirs.vectors()
    k = scene.wavenumber
    blocks, bie_n = zip(*(_farfield_block(crack, k, th) for crack in scene.cracks))
    entries = np.sum(blocks, axis=0)
    recip = float(np.linalg.norm(entries - entries.T) / np.linalg.norm(entries))
    return MsrMatrix(entries=entries, directions=dirs, wavenumber=k, provenance="bie",
                     extra={"reciprocity_defect": recip, "bie_n": list(bie_n)})
