import csv
import os
import tracemalloc

import numpy as np
import pytest

from crackmusic import (ImageGrid, Scene, SegmentCrack, TheoryParams,
                        assemble_msr, find_peaks, imaging_map,
                        make_directions, select_signal_dim,
                        svd_msr, theory_map)
from crackmusic import music
from crackmusic.forward_asym import MsrMatrix
from crackmusic.music import ImageMap, save_map_csv, save_map_pgm, save_spectrum_csv
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict
from reference import open_directions

K1 = 2 * np.pi / 0.5


def scene3():
    return scene_from_dict(preset_config("fig1")["scene"])


def at(x):
    """The one-point grid at x."""
    return ImageGrid(x[0], x[0], x[1], x[1], 1.0)


def msr3(n=16):
    return assemble_msr(scene3(), 0.05, make_directions(n))


def random_msr(n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return MsrMatrix(entries=e, directions=make_directions(n),
                     wavenumber=1.0, provenance="file")


# ---- svd ----

def test_svd_zero_matrix():
    z = MsrMatrix(entries=np.zeros((8, 8), complex),
                  directions=make_directions(8), wavenumber=1.0)
    assert np.all(svd_msr(z).singular_values == 0.0)


def test_svd_rank_one_single_crack():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    s = svd_msr(assemble_msr(sc, 0.05, make_directions(16))).singular_values
    assert s[1] / s[0] < 1e-12


def test_svd_reconstruction():
    msr = random_msr(12, 5)
    sp = svd_msr(msr)
    # U diag(sigma^2) U* = K K*: the left vectors and the spectrum are all a stage reads
    gram_k = msr.entries @ msr.entries.conj().T
    rebuilt = (sp.left_vectors * sp.singular_values ** 2) @ sp.left_vectors.conj().T
    assert np.linalg.norm(rebuilt - gram_k) / np.linalg.norm(gram_k) < 1e-10
    assert np.all(np.diff(sp.singular_values) <= 0)
    gram = sp.left_vectors.conj().T @ sp.left_vectors
    assert np.linalg.norm(gram - np.eye(12)) < 1e-10


def test_svd_unitary_invariance():
    msr = random_msr(10, 17)
    rng = np.random.default_rng(3)
    d1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
    d2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
    rotated = MsrMatrix(entries=np.diag(d1) @ msr.entries @ np.diag(d2),
                        directions=msr.directions, wavenumber=1.0)
    assert np.allclose(svd_msr(rotated).singular_values,
                       svd_msr(msr).singular_values)


# ---- signal dimension selection ----

def test_threshold_selects_three_cracks():
    sp = select_signal_dim(svd_msr(msr3()), "threshold", tau=0.01)
    assert sp.m == 3


def test_manual_selection_and_bounds():
    sp = svd_msr(msr3())
    assert select_signal_dim(sp, "manual", m=13).m == 13
    with pytest.raises(ValueError):
        select_signal_dim(sp, "manual", m=17)


def _diag_msr(diagonal):
    n = len(diagonal)
    return MsrMatrix(entries=np.diag(np.asarray(diagonal, dtype=complex)),
                     directions=make_directions(n), wavenumber=1.0)


def test_log_gap_flat_spectrum_is_ambiguous():
    for diagonal in ([1.0] * 8, [0.0] * 8):   # identity, and zero (0/0 gaps)
        sp = select_signal_dim(svd_msr(_diag_msr(diagonal)), "log_gap")
        assert sp.ambiguous
        assert sp.m == 4   # the prefix bound


@pytest.mark.parametrize("diagonal, rank", [
    ([1.0] + [0.0] * 15, 1),
    ([1.0, 1.0, 1.0] + [0.0] * 5, 3),
], ids=["16-rank-1", "8-rank-3"])
def test_log_gap_finds_an_exact_rank_drop(diagonal, rank):
    # sigma_M > 0 = sigma_{M+1} is an infinite gap, the largest there is
    sp = select_signal_dim(svd_msr(_diag_msr(diagonal)), "log_gap")
    assert (sp.m, sp.ambiguous) == (rank, False)


# ---- noise projector ----

def test_projector_algebra():
    for seed in range(5):
        n = 16
        sp = select_signal_dim(svd_msr(random_msr(n, seed)), "manual", m=3 + seed)
        u = sp.left_vectors[:, :sp.m]
        p = np.eye(n) - u @ u.conj().T
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert abs(np.trace(p).real - (n - sp.m)) < 1e-8


def _explicit_projector_map(space, grid, eta, dirs):
    """Reference map: unit steering vectors per point, I - U_M U_M^* as a matrix."""
    u = space.left_vectors[:, :space.m]
    proj = np.eye(space.n) - u @ u.conj().T
    xx, yy = np.meshgrid(grid.xs(), grid.ys())
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    f = np.exp(1j * eta * (pts @ dirs.vectors().T))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    r = np.linalg.norm(f @ proj.T, axis=1)
    return (1.0 / np.maximum(r, 1e-12)).reshape(grid.ys().size, grid.xs().size)


@pytest.mark.parametrize("m", [0, 3, 15, 16])
def test_imaging_map_matches_explicit_projector(m):
    sp = select_signal_dim(svd_msr(random_msr(16, 40 + m)), "manual", m=m)
    dirs = make_directions(16)
    g = ImageGrid(-1.0, 1.0, -2.1, 2.1, 0.01)
    assert len(g.row_blocks(16 * 16 * g.xs().size)) >= 3
    got = imaging_map(sp, g, 11.0, dirs).values
    ref = _explicit_projector_map(sp, g, 11.0, dirs)
    assert got.shape == ref.shape == (421, 201)
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


@pytest.mark.parametrize("scheme", [make_directions, open_directions])
@pytest.mark.parametrize("n", [15, 16])
def test_imaging_map_matches_explicit_projector_over_direction_sets(scheme, n):
    # the kernel shares one x factor between directions of equal cos theta:
    # theta and 2 pi - theta in both schemes, 0 and 2 pi in the closed one
    dirs = scheme(n)
    sp = select_signal_dim(svd_msr(random_msr(n, n)), "manual", m=n // 3)
    g = ImageGrid(-1.0, 1.0, -1.5, 1.5, 0.02)
    got = imaging_map(sp, g, 17.0, dirs).values
    ref = _explicit_projector_map(sp, g, 17.0, dirs)
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


def test_imaging_map_m0_is_exactly_one():
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=0)
    m = imaging_map(sp, ImageGrid(-1, 1, -1, 1, 0.1), 10.0, make_directions(16))
    assert np.all(m.values == 1.0)


def test_imaging_map_clamps_at_signal_space_centre():
    # a single crack at the origin: the origin's steering vector spans the signal space
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    dirs = make_directions(16)
    sp = select_signal_dim(svd_msr(assemble_msr(sc, 0.05, dirs)), "manual", m=1)
    m = imaging_map(sp, ImageGrid(-0.1, 0.1, -0.1, 0.1, 0.1), K1, dirs)
    assert m.values[1, 1] == 1.0 / music.EPS_CLAMP
    assert np.all(np.delete(m.values.ravel(), 4) < 1e3)


def test_imaging_map_rejects_direction_count_mismatch():
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    with pytest.raises(ValueError, match="directions"):
        imaging_map(sp, ImageGrid(0, 1, 0, 1, 0.5), 10.0, make_directions(8))


def test_imaging_map_rejects_nonpositive_eta():
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    dirs = make_directions(16)
    for eta in (-5.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="eta must be positive"):
            imaging_map(sp, ImageGrid(-1, 1, -1, 1, 0.5), eta, dirs)


def test_imaging_map_rejects_empty_grid():
    # imaging_map has no empty-grid case: an ImageGrid refuses a reversed
    # range, and the narrowest one it accepts holds one point
    with pytest.raises(ValueError, match="nonempty"):
        ImageGrid(0.5, 0.4, -1, 1, 0.1)
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    one = imaging_map(sp, at((0.5, 0.5)), 10.0, make_directions(16))
    assert one.values.shape == (1, 1)


# ---- steering vectors, seen through the kernel ----

def test_imaging_map_origin_is_eta_independent():
    # the steering vector at the origin is constant whatever eta is
    sp = select_signal_dim(svd_msr(random_msr(16, 9)), "manual", m=5)
    dirs = make_directions(16)
    vals = [imaging_map(sp, at((0.0, 0.0)), eta, dirs).values[0, 0] for eta in (1.0, 7.5, 40.0)]
    assert vals == pytest.approx([vals[0]] * 3, rel=1e-13)


def test_imaging_map_scale_identity():
    sp = select_signal_dim(svd_msr(random_msr(16, 11)), "manual", m=4)
    dirs = make_directions(16)
    x = np.array([0.4, -0.7])
    eta, eta2 = 12.0, 18.0
    assert imaging_map(sp, at(x), eta, dirs).values[0, 0] == pytest.approx(
        imaging_map(sp, at((eta / eta2) * x), eta2, dirs).values[0, 0], rel=1e-12)


def test_imaging_map_memory_is_bounded():
    sp = select_signal_dim(svd_msr(random_msr(64, 1)), "manual", m=10)
    g = ImageGrid(-2, 2, -2, 2, 0.005)
    npts = g.xs().size * g.ys().size
    assert npts == 801 * 801
    tracemalloc.start()
    try:
        imaging_map(sp, g, 20.0, make_directions(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the map itself plus a few blocks' temporaries, whatever N is
    assert peak < 2 * npts * 8 + 4 * music._BLOCK_BYTES


def test_imaging_map_blocks_count_a_rows_folded_stacks():
    # with N = 256 a row's (N, N - M) and (G, N - M) stacks outgrow the 9-point
    # row: blocks sized at 16 N bytes per point peaked at 14 MiB here
    cfg = preset_config("fig3")
    dirs = make_directions(256)
    msr = assemble_msr(scene_from_dict(cfg["scene"]), cfg["h"], dirs)
    sp = select_signal_dim(svd_msr(msr), "manual", m=13)
    tracemalloc.start()
    try:
        imaging_map(sp, ImageGrid(-2, 2, -2, 2, 0.5), 20.0, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


@pytest.mark.parametrize("n", [16, 32])
def test_imaging_map_is_independent_of_the_block_size(n, monkeypatch):
    # the closed form walks the same row blocks; n centres make one or two
    # of them at the default budget
    sp = select_signal_dim(svd_msr(random_msr(n, 5)), "manual", m=n // 3)
    dirs = make_directions(n)
    params = TheoryParams(wavenumber=K1, eta=13.0,
                          centers=np.random.default_rng(n).uniform(-1, 1, (n, 2)))
    g = ImageGrid(-1.0, 1.0, -1.3, 1.3, 0.02)
    maps = []
    # one grid row, the whole grid, and the default (two or four imaging blocks)
    for budget in (1, 16 * n * g.xs().size * g.ys().size, music._BLOCK_BYTES):
        monkeypatch.setattr(music, "_BLOCK_BYTES", budget)
        maps.append([imaging_map(sp, g, 13.0, dirs).values,
                     theory_map(params, g).values])
    assert all(np.array_equal(a, b) for m in maps[1:] for a, b in zip(maps[0], m))


# ---- imaging ----

def test_imaging_m0_is_one_everywhere():
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=0)
    m = imaging_map(sp, ImageGrid(-1.1, 0.5, -0.3, 0.9, 0.4), 10.0, make_directions(16))
    assert np.array_equal(m.values, np.ones((4, 5)))


def test_imaging_near_one_far_from_peaks():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    dirs = open_directions(64)
    sp = select_signal_dim(svd_msr(assemble_msr(sc, 0.05, dirs)), "manual", m=1)
    # k|x| large, far from (k/eta) z_1 = origin
    assert imaging_map(sp, at((1.5, -1.2)), K1, dirs).values[0, 0] == pytest.approx(1.0, abs=0.1)


def test_grid_points_never_pass_the_upper_bound():
    assert np.array_equal(ImageGrid(0, 1, 0, 1, 0.6).xs(), [0.0, 0.6])
    g = ImageGrid(-1, 1, -1, 1, 0.3)
    xx, yy = np.meshgrid(g.xs(), g.ys())
    assert xx.max() <= 1.0 and yy.max() <= 1.0
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: still four points
    g = ImageGrid(0, 0.3, 0, 0.3, 0.1)
    assert g.xs().size == g.ys().size == 4


def test_imaging_map_single_point_grid():
    # the kernel against the projector written out: 1 / |(I - U_M U_M^H) f|
    # with the unit steering vector f = exp(i eta theta . x) / sqrt(N)
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    dirs = make_directions(16)
    x, eta = np.array([0.25, -0.5]), 12.0
    m = imaging_map(sp, at(x), eta, dirs)
    assert m.values.shape == (1, 1)
    u = sp.left_vectors[:, :sp.m]
    f = np.exp(1j * eta * (dirs.vectors() @ x)) / np.sqrt(dirs.n)
    expect = 1.0 / np.linalg.norm((np.eye(dirs.n) - u @ u.conj().T) @ f)
    assert m.values[0, 0] == pytest.approx(expect, rel=1e-12)


def test_imaging_floor_noiseless():
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    m = imaging_map(sp, ImageGrid(-2, 2, -2, 2, 0.05), 15.0, make_directions(16))
    assert np.all(m.values >= 1.0 - 1e-9)


def _peak_targets(eta, k=K1):
    return (k / eta) * scene3().centers()


@pytest.mark.parametrize("eta", [10.0, K1])
def test_imaging_map_peaks_at_scaled_centers(eta):
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    g = ImageGrid(-2, 2, -2, 2, 0.01)
    m = imaging_map(sp, g, eta, make_directions(16))
    pk = find_peaks(m, 3)
    assert pk.complete
    targets = _peak_targets(eta)
    claimed = set()
    for p, _ in pk.peaks:
        d = np.linalg.norm(targets - np.asarray(p), axis=1)
        j = int(np.argmin(d))
        assert d[j] <= 0.02
        claimed.add(j)
    assert claimed == {0, 1, 2}


def test_peak_count_matches_crack_count_across_eta():
    sp = select_signal_dim(svd_msr(msr3()), "manual", m=3)
    dirs = make_directions(16)
    g = ImageGrid(-2, 2, -2, 2, 0.02)
    for eta in (K1 / 2, K1, 2 * K1):
        m = imaging_map(sp, g, eta, dirs)
        pk = find_peaks(m, 3)
        vals = [v for _, v in pk.peaks]
        # three dominant peaks well above the sidelobe floor
        assert len(vals) == 3 and min(vals) > 5.0


# ---- peaks ----

def test_find_peaks_constant_map_flagged():
    g = ImageGrid(-1, 1, -1, 1, 0.1)
    m = ImageMap(grid=g, values=np.ones((21, 21)))
    pk = find_peaks(m, 2)
    assert pk.peaks == () and not pk.complete


def test_find_peaks_single_crack():
    sc = Scene(cracks=(SegmentCrack(center=(0.3, -0.4), half_length=0.05),), wavenumber=K1)
    dirs = make_directions(16)
    sp = select_signal_dim(svd_msr(assemble_msr(sc, 0.05, dirs)), "manual", m=1)
    m = imaging_map(sp, ImageGrid(-2, 2, -2, 2, 0.01), 20.0, dirs)
    pk = find_peaks(m, 1)
    target = (K1 / 20.0) * np.array([0.3, -0.4])
    assert np.linalg.norm(np.asarray(pk.peaks[0][0]) - target) <= 0.01


# ---- exports ----

def test_map_csv_bytes_match_csv_writer(tmp_path):
    g = ImageGrid(-0.1, 0.2, 0.0, 0.1, 0.1)
    vals = np.array([[1.0, 0.1, 1e-300, 1e20], [2.5e-7, 123456789.125, 1 / 3, 7.0]])
    m = ImageMap(grid=g, values=vals)
    save_map_csv(m, tmp_path / "new.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "value"])
        for iy, y in enumerate(g.ys()):
            for ix, x in enumerate(g.xs()):
                w.writerow([repr(float(x)), repr(float(y)), repr(float(vals[iy, ix]))])
    ref = (tmp_path / "ref.csv").read_bytes()
    assert ref.count(b"\r\n") == 9
    assert (tmp_path / "new.csv").read_bytes() == ref


def test_map_csv_export(tmp_path):
    g = ImageGrid(0, 0.2, 0, 0.1, 0.1)
    m = ImageMap(grid=g, values=np.arange(6, dtype=float).reshape(2, 3))
    save_map_csv(m, tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 7
    assert lines[1].split(",") == ["0.0", "0.0", "0.0"]


@pytest.mark.parametrize("values, kernel", [
    (lambda rng: rng.random((251, 1001)), False),
    (lambda rng: 1 / rng.uniform(1e-3, 1, (251, 1001)), True),
], ids=["repr-below-1", "kernel-map-values"])
def test_map_csv_streams_row_blocks(values, kernel):
    # 1001-point rows; a quarter of a 1001^2 map keeps the traced write near 1 s.
    # Values in [0, 1) take the repr fallback; map values (>= 1) take the numpy
    # kernel, whose temporaries the budget covers too
    g = ImageGrid(-2, 2, -0.5, 0.5, 0.004)
    m = ImageMap(grid=g, values=values(np.random.default_rng(0)))
    assert m.values.shape == (g.ys().size, g.xs().size)
    fast = music._shortest_digits(m.values.ravel())[3]   # the values the kernel formats
    assert fast.all() == fast.any() == kernel
    tracemalloc.start()
    try:
        save_map_csv(m, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole map as Python floats is 8 MB; one row of them is 32 kB
    assert peak < 2e6


def _value_lines(v):
    """The _value_chars texts of v, one a line, as bytes."""
    chars = music._value_chars(v)
    lines = np.empty(v.size, [("v", chars.dtype), ("end", "S1")])
    lines["v"], lines["end"] = chars, b"\n"
    lines = lines.view(np.uint8)
    return lines[lines != 0].tobytes()


def test_value_chars_match_repr():
    rng = np.random.default_rng(22)
    fast = 10.0 ** rng.uniform(0, 16, 1_000_000)       # the map value range
    everywhere = np.ldexp(rng.uniform(0.5, 1, 100_000), rng.integers(-1074, 1025, 100_000))
    pow10 = 10.0 ** np.arange(-30, 31)
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([
        pow10, np.nextafter(pow10, 0), np.nextafter(pow10, np.inf),
        pow2, np.nextafter(pow2, 0), np.nextafter(pow2, np.inf),
        np.arange(1, 20001), rng.integers(1, 2 ** 53, 20000), 2.0 ** 53 - np.arange(1000),
        (rng.integers(1, 2 ** 50, 4000)[:, None] + [0.5, 0.25, 0.75, 0.125, 0.375]).ravel(),
        np.arange(1, 100001) / 10, np.arange(1, 100001) / 100, np.arange(1, 100001) / 8,
        1 / rng.uniform(0, 1, 20000), [1e6, 0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1e17],
    ])
    values = np.concatenate([fast, everywhere, -everywhere[:1000], edges, -edges[::10]])
    # the exact kernel, not repr, formats almost every value of the map range
    assert music._shortest_digits(fast)[3].mean() > 0.97
    for chunk in np.array_split(values, 32):
        assert _value_lines(chunk) == "".join(repr(v) + "\n" for v in chunk.tolist()).encode()


def test_map_pgm_export(tmp_path):
    g = ImageGrid(0, 0.2, 0, 0.1, 0.1)
    m = ImageMap(grid=g, values=np.arange(6, dtype=float).reshape(2, 3))
    save_map_pgm(m, tmp_path / "m.pgm")
    data = (tmp_path / "m.pgm").read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6
    assert data[-1] == 255 and data[len(b"P5\n3 2\n255\n")] == 0


def test_map_pgm_streams_rows():
    # the scaled map as float64 is 4 MB a copy; one block of rows stays near 2 MB
    g = ImageGrid(-2, 2, -1, 1, 0.004)
    m = ImageMap(grid=g, values=np.random.default_rng(0).random((501, 1001)))
    assert m.values.shape == (g.ys().size, g.xs().size)
    tracemalloc.start()
    try:
        save_map_pgm(m, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_spectrum_csv(tmp_path):
    sp = svd_msr(msr3())
    save_spectrum_csv(sp, tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "index,sigma,sigma_rel"
    assert len(lines) == 17
    assert lines[1].split(",")[2] == "1.0"


@pytest.mark.parametrize("scale", [1.0, 0.0], ids=["random", "all-zero"])
def test_spectrum_csv_bytes_match_csv_writer(tmp_path, scale):
    # an all-zero spectrum divides by 1, not by its top value
    s = scale * np.sort(np.random.default_rng(5).lognormal(0.0, 8.0, 23))[::-1]
    sp = music.SignalSpace(singular_values=s, left_vectors=np.eye(s.size))
    save_spectrum_csv(sp, tmp_path / "new.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "sigma", "sigma_rel"])
        top = s[0] if s[0] > 0 else 1.0
        w.writerows([i, repr(float(v)), repr(float(v / top))] for i, v in enumerate(s, start=1))
    ref = (tmp_path / "ref.csv").read_bytes()
    assert ref.count(b"\r\n") == 24
    assert (tmp_path / "new.csv").read_bytes() == ref
