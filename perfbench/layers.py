"""The package's layers as the traced run sees them, and their work counters."""

import importlib
import os

LAYERS = ("cli", "presets", "scene", "forward_asym", "forward_bie", "noise",
          "music", "theory", "special", "calibrate")


def modules():
    return [importlib.import_module(f"crackmusic.{name}") for name in LAYERS]


# Work counts read from each call's arguments and result.  They repeat
# exactly between runs of the same inputs.
METERS = {
    "special.bessel_j0": lambda a, out: {"evals": int(getattr(out, "size", 1))},
    "music.imaging_map": lambda a, out: {
        "point_dirs": a["grid"].xs().size * a["grid"].ys().size * a["dirs"].n},
    "music.select_signal_dim": lambda a, out: {"m": out.m},
    "music.save_map_csv": lambda a, out: {"bytes": os.path.getsize(a["path"])},
    "forward_bie.solve_scatter": lambda a, out: {"nodes": a["n"]},
    "calibrate.calibrate_and_image": lambda a, out: {
        "k_hat_rel_err": abs(out[0] - a["msr"].wavenumber) / a["msr"].wavenumber},
}

# Calls whose peak allocation is measured (tracemalloc runs only inside them).
MEMORY = ("music.imaging_map", "theory.theory_map", "forward_bie.assemble_msr_bie")
