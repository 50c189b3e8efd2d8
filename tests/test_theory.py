import tracemalloc

import numpy as np
import pytest

from crackmusic import (ImageGrid, TheoryParams, assemble_msr, compare_maps,
                        find_peaks, imaging_map, make_directions,
                        phase_distance, select_signal_dim, svd_msr,
                        theory_map, theory_value)
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict
from crackmusic.special import bessel_j0

K1 = 2 * np.pi / 0.5
J0_FIRST_ZERO = 2.404825557695773


def scene3():
    return scene_from_dict(preset_config("fig1")["scene"])


def params3(eta):
    return TheoryParams(wavenumber=K1, eta=eta, centers=scene3().centers())


# ---- point values ----

def test_value_clamped_at_peak():
    p = TheoryParams(wavenumber=K1, eta=K1, centers=[(0.0, 0.0)])
    # at the peak the radicand is clamped at 1e-12
    assert theory_value(p, (0.0, 0.0)) == pytest.approx(1e6)


def test_value_at_j0_zero_is_one():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    x = (J0_FIRST_ZERO, 0.0)
    assert theory_value(p, x) == pytest.approx(1.0, abs=1e-12)


def test_value_matches_j0_formula():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    # |eta x - k z| = 10
    expect = 1.0 / np.sqrt(1.0 - bessel_j0(10.0) ** 2)
    assert theory_value(p, (10.0, 0.0)) == pytest.approx(expect, rel=1e-13)


def test_value_multi_center_sum():
    p = TheoryParams(wavenumber=2.0, eta=3.0, centers=[(1.0, 0.0), (0.0, -1.0)])
    x = np.array([0.4, 0.2])
    rad = 1.0 - sum(
        bessel_j0(np.linalg.norm(3.0 * x - 2.0 * np.array(z))) ** 2
        for z in [(1.0, 0.0), (0.0, -1.0)])
    assert theory_value(p, x) == pytest.approx(1.0 / np.sqrt(rad), rel=1e-13)


def test_value_shape_follows_the_rank_of_its_input():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    x = np.array([0.3, 0.4])
    one = theory_value(p, x)
    assert isinstance(one, float)
    for rows in (x[None, :], np.array([x, x])):
        vals = theory_value(p, rows)
        assert isinstance(vals, np.ndarray) and vals.shape == (rows.shape[0],)
        assert np.all(vals == one)


def test_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(wavenumber=-1.0, eta=1.0, centers=[(0, 0)])
    with pytest.raises(ValueError):
        TheoryParams(wavenumber=1.0, eta=0.0, centers=[(0, 0)])
    with pytest.raises(ValueError):
        TheoryParams(wavenumber=1.0, eta=1.0, centers=np.empty((0, 2)))


# ---- maps ----

def test_single_center_peak_at_scaled_center():
    eta = 10.0
    p = TheoryParams(wavenumber=K1, eta=eta, centers=[(-0.6, -0.2)])
    m = theory_map(p, ImageGrid(-2, 2, -2, 2, 0.01))
    pk = find_peaks(m, 1)
    target = (K1 / eta) * np.array([-0.6, -0.2])
    assert np.linalg.norm(np.asarray(pk.peaks[0][0]) - target) <= 0.01


def test_multi_center_map_maximal_at_scaled_centers():
    eta = 10.0
    p = params3(eta)
    targets = (K1 / eta) * scene3().centers()
    # each scaled center attains the clamped ceiling; the map never exceeds it
    for z in targets:
        assert theory_value(p, z) == pytest.approx(1e6)
    m = theory_map(p, ImageGrid(-2, 2, -2, 2, 0.02))
    assert m.values.max() <= 1e6
    far = phase_distance(p, m.grid.points()) > 3.0
    assert np.all(m.values.ravel()[far] < 2.0)


def test_map_radially_symmetric_single_center():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    r = 1.7
    angles = np.linspace(0, 2 * np.pi, 37)
    vals = theory_value(p, np.c_[r * np.cos(angles), r * np.sin(angles)])
    assert np.ptp(vals) < 1e-9


def test_phase_distance():
    p = TheoryParams(wavenumber=2.0, eta=4.0, centers=[(1.0, 0.0), (-1.0, 0.0)])
    d = phase_distance(p, [(0.5, 0.0), (0.0, 0.0)])
    assert d[0] == pytest.approx(0.0)
    assert d[1] == pytest.approx(2.0)


def test_phase_distance_matches_all_pairs_minimum():
    rng = np.random.default_rng(4)
    p = TheoryParams(wavenumber=3.0, eta=5.0, centers=rng.uniform(-1, 1, (7, 2)))
    pts = rng.uniform(-2, 2, (500, 2))
    pairs = np.linalg.norm(5.0 * pts[:, None, :] - 3.0 * p.centers[None, :, :], axis=2)
    assert np.array_equal(phase_distance(p, pts), pairs.min(axis=1))


def test_theory_map_memory_is_bounded():
    cfg = preset_config("fig4")
    scene = scene_from_dict(cfg["scene"])
    assert scene.centers().shape[0] == 82
    p = TheoryParams(wavenumber=scene.wavenumber, eta=20.0, centers=scene.centers())
    tracemalloc.start()
    try:
        theory_map(p, ImageGrid(**cfg["grid"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---- comparison against the numeric pipeline (single crack) ----

CENTER1 = (-0.6, -0.2)


def _numeric_map_single(grid, eta, h=1e-3):
    from crackmusic import Scene, SegmentCrack
    dirs = make_directions(64, "open")
    sc = Scene(cracks=(SegmentCrack(center=CENTER1, half_length=h / 2),),
               wavenumber=K1)
    sp = select_signal_dim(svd_msr(assemble_msr(sc, h, dirs)), "manual", m=1)
    return imaging_map(sp, grid, eta, dirs)


def params1(eta):
    return TheoryParams(wavenumber=K1, eta=eta, centers=[CENTER1])


def test_compare_map_with_itself_zero_dev():
    g = ImageGrid(-2, 2, -2, 2, 0.05)
    m = theory_map(params3(15.0), g)
    rep = compare_maps(m, m, params3(15.0))
    assert rep["max_dev"] == 0.0 and rep["mean_dev"] == 0.0
    assert rep["excluded_count"] > 0
    assert rep["compared_count"] + rep["excluded_count"] == 81 * 81


def test_squared_variant_matches_numeric():
    g = ImageGrid(-2, 2, -2, 2, 0.05)
    eta = 15.0
    rep = compare_maps(_numeric_map_single(g, eta), theory_map(params1(eta), g),
                       params1(eta))
    assert rep["max_dev"] < 0.05


def test_compare_grid_mismatch():
    a = theory_map(params3(15.0), ImageGrid(-2, 2, -2, 2, 0.1))
    b = theory_map(params3(15.0), ImageGrid(-1, 1, -1, 1, 0.1))
    with pytest.raises(ValueError):
        compare_maps(a, b, params3(15.0))
