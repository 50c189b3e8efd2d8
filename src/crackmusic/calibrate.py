"""Wavenumber estimation from a synthetic calibration scatterer.

Imaging with a probe wavenumber eta places every target image at (k/eta) z
instead of z.  Placing a known scatterer at y and locating its image peak p
therefore determines k = eta * (p . y) / (y . y).
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
