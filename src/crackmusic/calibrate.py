"""Wavenumber estimation from a synthetic calibration scatterer.

Imaging with a probe wavenumber eta places every target image at (k/eta) z
instead of z.  Placing a known scatterer at y and locating its image peak p
therefore determines k = eta * (p . y) / (y . y).  The safe-placement cone
bounds where images of the unknown crack can fall for *any* eta (rays from
the origin are the unique lines containing (k/eta) z for all eta >= 0), so a
calibration scatterer placed outside the cone cannot be confused with them.
"""

from dataclasses import dataclass

import numpy as np

from . import music

RAY_TOL = 0.5                     # largest peak distance from the ray through y


@dataclass(frozen=True)
class CalibrationPlan:
    y: tuple                      # known scatterer location, |y| > 0
    eta: float                    # probe wavenumber used for imaging

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if np.linalg.norm(y) == 0:
            raise ValueError("calibration scatterer at the origin carries no scale information")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        object.__setattr__(self, "y", (float(y[0]), float(y[1])))


@dataclass(frozen=True)
class SafeCone:
    """Angular sector from the origin containing all scaled crack images."""

    angle_lo: float
    angle_hi: float               # lo < hi, hi - lo in (0, 2*pi)

    @property
    def width(self):
        return self.angle_hi - self.angle_lo

    def contains(self, p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        a = np.arctan2(p[:, 1], p[:, 0])
        rel = np.mod(a - self.angle_lo, 2.0 * np.pi)
        inside = rel <= self.width + 1e-12
        return bool(inside[0]) if inside.size == 1 else inside


def safe_cone(endpoint_images, sample_images):
    """Cone bounded by rays through the two endpoint images, oriented to
    contain the sample images."""
    e1, e2 = (np.asarray(e, dtype=float) for e in endpoint_images)
    if np.linalg.norm(e1) == 0 or np.linalg.norm(e2) == 0:
        raise ValueError("endpoint image at the origin is degenerate")
    a1 = float(np.arctan2(e1[1], e1[0]))
    a2 = float(np.arctan2(e2[1], e2[0]))
    lo, hi = (a1, a2) if a1 <= a2 else (a2, a1)
    if hi - lo >= 2.0 * np.pi or hi == lo:
        raise ValueError("endpoint images are collinear with the origin")
    inner = SafeCone(angle_lo=lo, angle_hi=hi)
    outer = SafeCone(angle_lo=hi, angle_hi=lo + 2.0 * np.pi)
    samples = np.atleast_2d(np.asarray(sample_images, dtype=float))
    n_in = int(np.sum(inner.contains(samples)))
    return inner if n_in >= samples.shape[0] - n_in else outer


def estimate_k(peak, y, eta):
    """Least-squares scalar fit of peak ~ (k/eta) y.

    Reduces to componentwise division when the peak lies on the ray through y.
    """
    peak = np.asarray(peak, dtype=float)
    y = np.asarray(y, dtype=float)
    proj = float(peak @ y)
    if proj <= 0:
        raise ValueError("calibration peak is not on the ray through y")
    return eta * proj / float(y @ y)


def _ray_distance(p, y):
    """Distance from p to the ray {t*y : t >= 0}."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    t = max(float(p @ y) / float(y @ y), 0.0)
    return float(np.linalg.norm(p - t * y))


def calibrate_and_image(msr, plan, grid, space):
    """Estimate k from the calibration peak, then re-image at eta = k_hat.

    msr must come from the scene augmented with the calibration scatterer at
    plan.y, and space is the signal space selected from it.  The calibration
    peak is the dominant peak nearest the known ray through y (restricted to
    peaks with positive projection onto y); the estimate is insensitive to
    off-ray drift along an extended calibration scatterer because of the
    least-squares projection in estimate_k.  Returns (k_hat, remap, info):
    the re-imaged map at eta = k_hat plus a report dict.  Raises when M = 0
    (the map is flat) or no dominant peak lies within RAY_TOL of the ray;
    flags ambiguity when crack images intrude on the ray neighborhood.
    """
    if space.m == 0:
        raise ValueError("M = 0 leaves a flat map with no calibration peak")
    imap = music.imaging_map(space, grid, plan.eta, msr.directions)
    peaks = music.find_peaks(imap, space.m)
    y = np.asarray(plan.y)
    candidates = [(p, v, _ray_distance(p, y)) for p, v in peaks.peaks
                  if float(np.asarray(p) @ y) > 0]
    candidates = [c for c in candidates if c[2] <= RAY_TOL]
    if not candidates:
        raise ValueError(f"no dominant peak within {RAY_TOL} of the ray through {plan.y}")
    peak, _, residual = min(candidates, key=lambda c: c[2])
    k_hat = estimate_k(peak, y, plan.eta)
    remap = music.imaging_map(space, grid, k_hat, msr.directions)
    info = {
        "k_hat": k_hat,
        "peak": [peak[0], peak[1]],
        "eta_used": plan.eta,
        "residual": residual,
        "ambiguous": len(candidates) > 1,
    }
    return k_hat, remap, info
