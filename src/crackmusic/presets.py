"""Built-in experiment scenes and preset run configurations.

The four presets mirror the reference experiments: fig1/fig2 are three small
cracks at k = 2*pi/0.5 and 2*pi/0.3 (N = 16 directions), fig3 is the extended
arc at k = 2*pi/0.4 (N = 32, M = 13), fig4 adds the calibration segment at
y = (0, -1) and images at eta = 20.
"""

import numpy as np

CRACK_H = 0.05


def _rot(phi, v):
    c, s = np.cos(phi), np.sin(phi)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def small_crack_dicts():
    """The three small cracks: centers and orientations of the rotated segments."""
    return [
        {"type": "segment", "center": [-0.6, -0.2], "half_length": CRACK_H,
         "angle": 0.0},
        {"type": "segment", "center": list(_rot(np.pi / 4, (0.4, 0.35))),
         "half_length": CRACK_H, "angle": np.pi / 4 + np.pi / 4},
        {"type": "segment", "center": list(_rot(7 * np.pi / 6, (0.25, -0.6))),
         "half_length": CRACK_H, "angle": 7 * np.pi / 6 + np.pi / 4},
    ]


def extended_arc_points(n=41):
    """Sample points of the extended arc crack."""
    s = np.linspace(-1.0, 1.0, n)
    y = 0.5 * np.cos(0.5 * np.pi * s) + 0.2 * np.sin(0.5 * np.pi * s) \
        - 0.1 * np.cos(1.5 * np.pi * s)
    return np.column_stack([s, y])


def calibration_segment_points(n=41):
    """The known calibration segment {(s, -1) : -1 <= s <= 1}."""
    s = np.linspace(-1.0, 1.0, n)
    return np.column_stack([s, np.full(n, -1.0)])


_GRID = {"x0": -2.0, "x1": 2.0, "y0": -2.0, "y1": 2.0, "step": 0.01}


def _config(k, cracks, n, etas, signal_dim):
    return {
        "scene": {"wavenumber": k, "cracks": cracks},
        "forward": "asym",
        "h": CRACK_H,
        "directions": {"n": n},
        "etas": etas,
        "grid": dict(_GRID),
        "signal_dim": signal_dim,
    }


def preset_config(name):
    k1 = 2.0 * np.pi / 0.5
    k2 = 2.0 * np.pi / 0.3
    k3 = 2.0 * np.pi / 0.4
    arc = {"type": "arc", "points": extended_arc_points().tolist()}
    if name == "fig1":
        return _config(k1, small_crack_dicts(), 16, [10.0, 15.0, 20.0, k1],
                       {"method": "manual", "m": 3})
    if name == "fig2":
        return _config(k2, small_crack_dicts(), 16, [10.0, 15.0, 20.0, k2],
                       {"method": "manual", "m": 3})
    if name == "fig3":
        return _config(k3, [arc], 32, [10.0, 15.0, 20.0, 25.0, k3],
                       {"method": "manual", "m": 13})
    if name == "fig4":
        segment = {"type": "arc", "points": calibration_segment_points().tolist()}
        cfg = _config(k3, [arc, segment], 32, [20.0],
                      {"method": "threshold", "tau": 0.01})
        cfg["calibration"] = {"y": [0.0, -1.0], "eta": 20.0}
        return cfg
    raise KeyError(f"unknown preset {name!r}; choose fig1, fig2, fig3, or fig4")


PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4")
