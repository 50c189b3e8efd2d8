import tracemalloc

import numpy as np
import pytest

from crackmusic import (ImageGrid, TheoryParams, assemble_msr, compare_maps,
                        find_peaks, imaging_map, select_signal_dim, svd_msr,
                        theory_map)
from crackmusic import music, special, theory
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict
from reference import closed_form, open_directions, phase_distance
from scipy.special import j0

K1 = 2 * np.pi / 0.5
J0_FIRST_ZERO = 2.404825557695773


def scene3():
    return scene_from_dict(preset_config("fig1")["scene"])


def value_at(params, x):
    """The closed form at x, read off a one-point map."""
    return theory_map(params, ImageGrid(x[0], x[0], x[1], x[1], 1.0)).values[0, 0]


def params3(eta):
    return TheoryParams(wavenumber=K1, eta=eta, centers=scene3().centers())


# ---- point values ----

def test_value_clamped_at_peak():
    p = TheoryParams(wavenumber=K1, eta=K1, centers=[(0.0, 0.0)])
    # at the peak the radicand is clamped at 1e-12
    assert value_at(p, (0.0, 0.0)) == pytest.approx(1e6)


def test_value_at_j0_zero_is_one():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    x = (J0_FIRST_ZERO, 0.0)
    assert value_at(p, x) == pytest.approx(1.0, abs=1e-12)


def test_value_matches_j0_formula():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    # |eta x - k z| = 10
    expect = 1.0 / np.sqrt(1.0 - j0(10.0) ** 2)
    assert value_at(p, (10.0, 0.0)) == pytest.approx(expect, rel=1e-13)


def test_value_multi_center_sum():
    p = TheoryParams(wavenumber=2.0, eta=3.0, centers=[(1.0, 0.0), (0.0, -1.0)])
    x = np.array([0.4, 0.2])
    rad = 1.0 - sum(
        j0(np.linalg.norm(3.0 * x - 2.0 * np.array(z))) ** 2
        for z in [(1.0, 0.0), (0.0, -1.0)])
    assert value_at(p, x) == pytest.approx(1.0 / np.sqrt(rad), rel=1e-13)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_map_matches_the_closed_form_point_by_point(name):
    # the reference sums scipy's J0 of each distance; 1e-9 relative away from
    # the peaks (radicand >= 1e-6), and the ceiling 1e6 where it is clamped
    cfg = preset_config(name)
    scene = scene_from_dict(cfg["scene"])
    g = ImageGrid(-2.0, 2.0, -2.0, 2.0, 0.04)
    for eta in cfg["etas"]:
        values = theory_map(TheoryParams(wavenumber=scene.wavenumber, eta=eta,
                                         centers=scene.centers()), g).values
        rad, want = np.array([[closed_form((x, y), scene.wavenumber, eta, scene.centers())
                               for x in g.xs()] for y in g.ys()]).transpose(2, 0, 1)
        away, clamped = rad >= 1e-6, rad <= 1e-12
        assert np.all(np.abs(values[away] - want[away]) <= 1e-9 * want[away])
        assert np.all(values[clamped] == 1e6)


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
        assert value_at(p, z) == pytest.approx(1e6)
    m = theory_map(p, ImageGrid(-2, 2, -2, 2, 0.02))
    assert m.values.max() <= 1e6
    far = phase_distance(p, m.grid) > 3.0
    assert np.all(m.values[far] < 2.0)


def test_map_radially_symmetric_single_center():
    p = TheoryParams(wavenumber=1.0, eta=1.0, centers=[(0.0, 0.0)])
    r = 1.7
    angles = np.linspace(0, 2 * np.pi, 37)
    vals = [value_at(p, (r * np.cos(a), r * np.sin(a))) for a in angles]
    assert np.ptp(vals) < 1e-9


def _exclusion_cases():
    """(params, grid) pairs: seeded random grids and targets, some targets
    outside the grid, and grid points exactly EXCLUSION_RADIUS from a target
    along each axis (eta = k = 1 and dyadic points keep every offset exact)."""
    rng = np.random.default_rng(4)
    for i in range(8):
        x0, y0 = rng.uniform(-2, 1, 2)
        g = ImageGrid(x0, x0 + rng.uniform(0.5, 2), y0, y0 + rng.uniform(0.5, 2),
                      rng.uniform(0.005, 0.03))
        eta, k = rng.uniform(2, 10, 2)
        lo, hi = eta * np.array([g.x0, g.y0]) - 2, eta * np.array([g.x1, g.y1]) + 2
        centers = rng.uniform(lo, hi, (rng.integers(1, 12), 2)) / k
        yield pytest.param(TheoryParams(wavenumber=k, eta=eta, centers=centers), g,
                           id=f"random-{i}")
    g = ImageGrid(-1.0, 1.0, -0.5, 0.5, 0.125)
    centers = [(0.25, 0.0), (-1.0, -0.375), (1.5, 0.25), (0.0, 1.0)]
    yield pytest.param(TheoryParams(wavenumber=1.0, eta=1.0, centers=centers), g,
                       id="on-the-radius")
    centers = [(0.5, 0.5), (-0.75, 0.125), (3.0, 0.0)]
    yield pytest.param(TheoryParams(wavenumber=1.0, eta=1.0, centers=centers),
                       ImageGrid(-1, 1, 0, 0, 0.125), id="one-row")


@pytest.mark.parametrize("params, grid", _exclusion_cases())
def test_exclusion_is_the_all_pairs_phase_distance(params, grid):
    # compare_maps checks each target over the box of rows and columns within
    # EXCLUSION_RADIUS of it; the oracle checks every point against every target
    near = phase_distance(params, grid) <= theory.EXCLUSION_RADIUS
    assert np.array_equal(theory._near_targets(params, grid), near)
    flat = music.ImageMap(grid=grid, values=np.ones(near.shape))
    rep = compare_maps(flat, flat, params)
    assert (rep["excluded_count"], rep["compared_count"]) == (np.sum(near), np.sum(~near))


def test_theory_map_builds_the_j0_factors_once():
    # the factors that do not depend on the rows are built for the first
    # row block and reused by the others
    scene = scene_from_dict(preset_config("fig4")["scene"])
    p = TheoryParams(wavenumber=scene.wavenumber, eta=20.0, centers=scene.centers())
    g = ImageGrid(-2, 2, -2, 2, 0.02)
    assert len(g.row_blocks(8 * p.centers.shape[0])) >= 3
    special._factors.cache_clear()
    theory_map(p, g)
    assert special._factors.cache_info().misses == 1


def test_theory_map_memory_is_bounded():
    cfg = preset_config("fig4")
    scene = scene_from_dict(cfg["scene"])
    assert scene.centers().shape[0] == 82
    p = TheoryParams(wavenumber=scene.wavenumber, eta=20.0, centers=scene.centers())
    g = ImageGrid(**cfg["grid"])
    npts = g.xs().size * g.ys().size
    tracemalloc.start()
    try:
        theory_map(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the map itself plus a few row blocks' temporaries, whatever M is
    assert peak < 2 * npts * 8 + 4 * music._BLOCK_BYTES


def test_compare_maps_memory_is_bounded():
    p = params3(15.0)
    g = ImageGrid(-2, 2, -2, 2, 0.004)
    npts = g.xs().size * g.ys().size
    assert npts == 1001 * 1001
    m = theory_map(p, g)
    tracemalloc.start()
    try:
        compare_maps(m, m, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the compared values and their deviations: a few maps' worth
    assert peak < 5 * npts * 8


# ---- comparison against the numeric pipeline (single crack) ----

CENTER1 = (-0.6, -0.2)


def _numeric_map_single(grid, eta, h=1e-3):
    from crackmusic import Scene, SegmentCrack
    dirs = open_directions(64)
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
