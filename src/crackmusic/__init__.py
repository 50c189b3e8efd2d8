"""MUSIC-type imaging of sound-soft cracks from multistatic far-field data."""

from .calibrate import CalibrationPlan, calibrate_and_image, estimate_k
from .forward_asym import MsrMatrix, assemble_msr, load_msr, save_msr
from .forward_bie import assemble_msr_bie, farfield_bie, solve_scatter
from .music import (ImageGrid, ImageMap, SignalSpace, find_peaks, imaging_map,
                    select_signal_dim, svd_msr)
from .noise import add_awgn
from .scene import (DirectionSet, ParametricCrack, Scene, SegmentCrack,
                    incident_field, make_directions, separation_ok)
from .special import bessel_j0, hankel0
from .theory import TheoryParams, compare_maps, theory_map

__all__ = [
    "CalibrationPlan", "DirectionSet", "ImageGrid", "ImageMap", "MsrMatrix",
    "ParametricCrack", "Scene", "SegmentCrack", "SignalSpace",
    "TheoryParams", "add_awgn", "assemble_msr", "assemble_msr_bie", "bessel_j0",
    "calibrate_and_image", "compare_maps", "estimate_k",
    "farfield_bie", "find_peaks", "hankel0", "imaging_map", "incident_field", "load_msr",
    "make_directions", "save_msr", "select_signal_dim", "separation_ok",
    "solve_scatter", "svd_msr", "theory_map",
]

__version__ = "0.1.0"
