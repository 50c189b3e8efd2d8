"""Seeded metamorphic tests over random, well-separated crack scenes."""

import numpy as np

from crackmusic import (ImageGrid, Scene, SegmentCrack, assemble_msr, assemble_msr_bie,
                        find_peaks, imaging_map, imaging_value, make_directions,
                        select_signal_dim, separation_ok, svd_msr)

K = 2 * np.pi / 0.5
H = 0.05
N = 16


def _random_scene(rng):
    """Three small segments in [-1, 1]^2 with k |z_m - z_m'| >= 5."""
    while True:
        cracks = tuple(SegmentCrack(center=tuple(c), half_length=H, angle=a)
                       for c, a in zip(rng.uniform(-1.0, 1.0, (3, 2)),
                                       rng.uniform(0.0, np.pi, 3)))
        scene = Scene(cracks=cracks, wavenumber=K)
        if separation_ok(scene)[0]:
            return scene


def _rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def _rotated(scene, phi):
    r = _rotation(phi)
    return Scene(cracks=tuple(SegmentCrack(center=tuple(r @ c.center), half_length=c.half_length,
                                           angle=c.angle + phi) for c in scene.cracks),
                 wavenumber=scene.wavenumber)


def test_rotating_the_scene_by_one_direction_step_permutes_the_data():
    # With N open directions, turning the scene by 2 pi/N moves incidence and
    # observation j to j - 1, so the MSR is permuted on both sides, and the
    # imaging map of the turned data is the old map turned by the same angle.
    rng = np.random.default_rng(2017)
    dirs = make_directions(N, "open")
    phi = 2 * np.pi / N
    perm = (np.arange(N) - 1) % N
    for _ in range(3):
        scene = _random_scene(rng)
        turned = _rotated(scene, phi)
        pts = rng.uniform(-1.5, 1.5, (4, 2))
        for model in (lambda sc: assemble_msr(sc, H, dirs), lambda sc: assemble_msr_bie(sc, dirs)):
            msr, msr_rot = model(scene), model(turned)
            k = msr.entries
            assert np.max(np.abs(msr_rot.entries - k[perm][:, perm])) < 1e-10 * np.max(np.abs(k))
            space = select_signal_dim(svd_msr(msr), "manual", m=3)
            space_rot = select_signal_dim(svd_msr(msr_rot), "manual", m=3)
            for x in pts:
                for eta in (10.0, K):
                    e = imaging_value(space, x, eta, dirs)
                    e_rot = imaging_value(space_rot, _rotation(phi) @ x, eta, dirs)
                    assert abs(e_rot - e) < 1e-10 * e


def test_peaks_land_at_the_scaled_centers_for_every_probe_wavenumber():
    # Imaging at a wrong probe wavenumber eta moves the peak of crack m to
    # (k/eta) z_m; the three peaks must match the three scaled centers.
    rng = np.random.default_rng(7)
    dirs = make_directions(N, "open")
    step = 0.02
    grid = ImageGrid(x0=-1.5, x1=1.5, y0=-1.5, y1=1.5, step=step)
    for _ in range(3):
        scene = _random_scene(rng)
        z = np.array([c.center for c in scene.cracks])
        space = select_signal_dim(svd_msr(assemble_msr(scene, H, dirs)), "manual", m=3)
        for eta in (10.0, K, 20.0):
            peaks = find_peaks(imaging_map(space, grid, eta, dirs), 3)
            assert peaks.complete
            p = np.array([xy for xy, _ in peaks.peaks])
            dist = np.linalg.norm(p[:, None, :] - (K / eta) * z[None, :, :], axis=-1)
            nearest = np.argmin(dist, axis=1)
            assert sorted(nearest) == [0, 1, 2]
            assert np.max(np.min(dist, axis=1)) < 2 * step


def test_msr_is_reciprocal_for_both_forward_models():
    # Reciprocity u∞(x̂, d) = u∞(−d, −x̂) makes K[j, l] = u∞(−θ_j, θ_l) a
    # symmetric matrix for any direction set: exactly for the asymptotic model,
    # whose entries are sums of e^{ik(θ_j + θ_l)·z}, and to rounding for the BIE.
    rng = np.random.default_rng(1995)
    for _ in range(3):
        scene = _random_scene(rng)
        for mode in ("open", "closed"):
            dirs = make_directions(N, mode)
            k = assemble_msr(scene, H, dirs).entries
            assert np.array_equal(k, k.T)
            k = assemble_msr_bie(scene, dirs).entries
            assert np.max(np.abs(k - k.T)) <= 1e-12 * np.max(np.abs(k))
