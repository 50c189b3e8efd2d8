"""Full-wave forward solver for sound-soft open arcs (Dirichlet cracks).

Single-layer representation with the endpoint square-root singularity of the
density absorbed into a Chebyshev weight: on the crack's curve y(t) =
crack.point(t), t in [-1, 1],

    u_s(x) = int_{-1}^{1} Phi(x, y(t)) w(t) / sqrt(1 - t^2) dt,
    Phi(x, y) = (i/4) H0^1(k |x - y|).

The unknowns are the values of w at the Chebyshev nodes.  The kernel splits
as Phi = -J0(k r) ln|tau - t| / (2 pi) + M with M smooth; the log part is
integrated exactly against the Chebyshev interpolant of J0 w (product
integration, Kress 1995) via

    int_{-1}^{1} ln|tau - t| T_m(t) / sqrt(1 - t^2) dt = -pi ln 2    (m = 0),
                                                        = -pi T_m(tau)/m (m >= 1),

and M by Gauss-Chebyshev quadrature, so the error falls spectrally in n.
Collocation at the nodes yields a dense system solved directly.  Far-field
values use the normalization that makes the small-crack asymptotic expansion
hold: a conjugate-plane-wave integral of the density with prefactor -1 (the
sign and scale are pinned by the asymptotic-matching test, since the
expansion's far-field convention differs from the plain Sommerfeld one by
sqrt(8 pi k) e^{-i pi/4} and a sign).
"""

import numpy as np

from .forward_asym import MsrMatrix
from .scene import incident_field
from .special import hankel0

_EULER_GAMMA = 0.5772156649015329
_N_START, _N_MAX, _TOL = 64, 4096, 1e-6   # auto node-count refinement


def _cheb_nodes(n):
    return np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n))


def _cheb_matrix(t, degrees):
    return np.cos(np.outer(np.arccos(np.clip(t, -1.0, 1.0)), degrees))


def _operator_rows(crack, k, tau, nodes):
    """Rows of the single-layer operator on the nodal density, at parameters tau.

    (pi/n) [M - J o L / (2 pi)]: J = J0(k r), L the exact log weights of the
    Chebyshev interpolant, M = Phi + J ln|tau - s| / (2 pi), diagonal by its limit.
    """
    n = nodes.size
    r = np.linalg.norm(crack.point(tau)[:, None, :] - crack.point(nodes)[None, :, :], axis=2)
    dt = np.abs(tau[:, None] - nodes[None, :])
    on = r == 0   # tau on a node: M takes its limit there and J0 is 1
    h = hankel0(k * np.where(on, 1.0, r))
    speed = np.linalg.norm(crack.deriv(tau), axis=1)
    diag = 0.25j - (np.log(0.5 * k * speed) + _EULER_GAMMA) / (2.0 * np.pi)
    with np.errstate(divide="ignore"):   # ln|tau - s| is -inf on a node, where diag replaces it
        m = np.where(on, diag[:, None], 0.25j * h + h.real * np.log(dt) / (2.0 * np.pi))
    j0 = np.where(on, 1.0, h.real)
    deg = np.arange(1, n)
    log_w = -np.log(2.0) - 2.0 * (_cheb_matrix(tau, deg) / deg) @ _cheb_matrix(nodes, deg).T
    return (np.pi / n) * (m - j0 * log_w / (2.0 * np.pi))


def solve_scatter(crack, k, inc, n):
    """Solve the boundary integral equation for one crack and >= 1 incidences.

    inc may be a single unit vector or an (n_inc, 2) array.  n is the number
    of Chebyshev nodes (even, >= 8).  Returns the density's values at the
    nodes _cheb_nodes(n), shape (n, n_inc): one column per incidence.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    if n < 8 or n % 2:
        raise ValueError("node count must be even and >= 8")
    inc = np.atleast_2d(np.asarray(inc, dtype=float))
    t = _cheb_nodes(n)
    a = _operator_rows(crack, k, t, t)
    rhs = -incident_field(crack.point(t), inc, k)
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as e:
        raise ArithmeticError(
            f"BIE system solve failed (near-resonant or degenerate geometry): {e}") from e


def boundary_field(crack, k, inc, values, tau):
    """Total field u_inc + u_s on the crack at parameters tau (residual check),
    for solve_scatter(crack, k, inc, n)'s values."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    u_s = _operator_rows(crack, k, tau, _cheb_nodes(values.shape[0])) @ values
    return incident_field(crack.point(tau), np.atleast_2d(inc), k) + u_s


def farfield_bie(crack, k, values, obs):
    """Far-field values of solve_scatter(crack, k, inc, n)'s values at one
    direction or an (n_obs, 2) array of them, shape (n_obs, n_inc)."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    n = values.shape[0]
    phase = np.exp(-1j * k * (crack.point(_cheb_nodes(n)) @ obs.T))
    return -(np.pi / n) * (phase.T @ values)


def _farfield_block(crack, k, th):
    """The obs = -inc far-field block of one crack and the node count it used.

    The node count doubles from _N_START until the whole block self-converges,
    max|F_2n - F_n| < _TOL max|F_2n|; the finer block F_2n is the one returned.
    """
    n = _N_START
    prev = farfield_bie(crack, k, solve_scatter(crack, k, th, n), -th)
    while n < _N_MAX:
        n *= 2
        cur = farfield_bie(crack, k, solve_scatter(crack, k, th, n), -th)
        if np.max(np.abs(cur - prev)) < _TOL * np.max(np.abs(cur)):
            return cur, n
        prev = cur
    raise ArithmeticError(f"far field did not self-converge to {_TOL} by n={_N_MAX}")


def assemble_msr_bie(scene, dirs):
    """MSR matrix from the full-wave solver.

    Multi-crack scenes sum single-crack solves: each crack scatters the
    incident wave alone, and the waves scattered between cracks are left out.
    Nothing bounds that error; separation_ok fails on fig4, whose arc and
    calibration segment are about 0.8 apart at k = 5*pi.
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
