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
from scipy.linalg import lu_factor, lu_solve
from scipy.interpolate import CubicSpline
from scipy.special import hankel1

from .forward_asym import MsrMatrix
from .scene import ParametricCrack, SegmentCrack

_EULER_GAMMA = 0.5772156649015329


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


def _build_system(param, k, n):
    t = _cheb_nodes(n)
    s = _smooth_kernel(param, k, t, t)
    a = _log_rows(t, n) + (np.pi / n) * (s @ _cheb_matrix(t, n))
    return t, a


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
    t, a = _build_system(param, k, n)
    rhs = -np.exp(1j * k * (param.point(t) @ inc.T))
    try:
        lu = lu_factor(a)
    except (np.linalg.LinAlgError, ValueError) as e:
        raise ArithmeticError(
            f"BIE system solve failed (near-resonant or degenerate geometry): {e}") from e
    coeffs = lu_solve(lu, rhs)
    values = _cheb_matrix(t, n) @ coeffs
    return ArcDensity(coeffs=coeffs, nodes=t, values=values, wavenumber=k,
                      crack=crack, inc=inc)


def boundary_field(density, tau):
    """Total field u_inc + u_s on the crack at parameters tau (residual check)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    param = _Parametrization(density.crack)
    k = density.wavenumber
    n = density.n
    s = _smooth_kernel(param, k, tau, density.nodes)
    rows = _log_rows(tau, n) + (np.pi / n) * (s @ _cheb_matrix(density.nodes, n))
    u_s = rows @ density.coeffs
    u_i = np.exp(1j * k * (param.point(tau) @ density.inc.T))
    return u_i + u_s


def farfield_bie(density, crack, k, obs):
    """Far-field value(s) of the solved density at observation direction(s)."""
    if crack is not density.crack or k != density.wavenumber:
        raise ValueError("density was solved for a different crack or wavenumber")
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    param = _Parametrization(crack)
    phase = np.exp(-1j * k * (param.point(density.nodes) @ obs.T))   # (n, n_obs)
    ff = -(np.pi / density.n) * (phase.T @ density.values)           # (n_obs, n_inc)
    if ff.size == 1:
        return complex(ff[0, 0])
    return ff


def converged_n(crack, k, n0=64, tol=1e-6, n_max=4096):
    """Smallest node count (doubling from n0) with far-field self-convergence."""
    probe_inc = np.array([1.0, 0.0])
    probe_obs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    n = n0
    prev = farfield_bie(solve_scatter(crack, k, probe_inc, n), crack, k, probe_obs)
    while n <= n_max:
        cur = farfield_bie(solve_scatter(crack, k, probe_inc, 2 * n), crack, k, probe_obs)
        if np.max(np.abs(cur - prev)) < tol:
            return n
        prev, n = cur, 2 * n
    raise ArithmeticError(f"far field did not self-converge below {tol} by n={n_max}")


def assemble_msr_bie(scene, dirs, n=None):
    """MSR matrix from the full-wave solver.

    Multi-crack scenes use superposition of single-crack solves, consistent
    with the separation assumption (inter-crack multiple scattering ignored).
    With n=None the node count per crack is found by converged_n (far-field
    self-convergence to 1e-6).
    """
    th = dirs.vectors()
    k = scene.wavenumber
    entries = np.zeros((dirs.n, dirs.n), dtype=np.complex128)
    for crack in scene.cracks:
        nc = n if n is not None else converged_n(crack, k)
        dens = solve_scatter(crack, k, th, nc)
        entries += farfield_bie(dens, crack, k, -th)   # obs_j = -theta_j
    recip = float(np.linalg.norm(entries - entries.T) / np.linalg.norm(entries))
    return MsrMatrix(entries=entries, directions=dirs, wavenumber=k,
                     provenance="bie", extra={"reciprocity_defect": recip})
