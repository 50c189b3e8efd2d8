"""End-to-end acceptance suite.

Each test checks one advertised guarantee of the package and prints a single
pass/fail line (collected into the terminal summary by conftest.py).
"""

import json

import numpy as np
import pytest

from conftest import record_criterion
from crackmusic import (CalibrationPlan, ImageGrid, Scene, SegmentCrack,
                        TheoryParams, add_awgn, assemble_msr,
                        assemble_msr_bie, bessel_j0, calibrate_and_image,
                        compare_maps, farfield_bie, find_peaks, imaging_map,
                        make_directions, select_signal_dim, solve_scatter,
                        svd_msr, theory_map)
from crackmusic.cli import main as cli_main
from crackmusic.forward_bie import boundary_field
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict
from reference import asym_farfield, direction_average, open_directions

K_HALF = 2 * np.pi / 0.5
K_THIRD = 2 * np.pi / 0.3
K_04 = 2 * np.pi / 0.4
CENTERS = np.array([
    [-0.6, -0.2],
    [0.03535533905932747, 0.5303300858899107],
    [-0.5165063509461095, 0.3946152422706633],
])


def check(num, desc, ok):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    record_criterion(line)
    assert ok, line


def scene3(k):
    return Scene(cracks=tuple(
        SegmentCrack(center=tuple(c), half_length=0.05) for c in CENTERS),
        wavenumber=k)


def test_criterion_01_direction_average_matches_j0():
    dirs = make_directions(360)
    worst = 0.0
    for w_abs_x in np.linspace(0.0, 30.0, 121):
        val = direction_average(w_abs_x, (1.0, 0.0), dirs)
        worst = max(worst, abs(val - bessel_j0(w_abs_x)))
    check(1, f"direction average vs J0, N=360, max err {worst:.2e} < 1e-3",
          worst < 1e-3)


def test_criterion_02_rank_structure():
    msr = assemble_msr(scene3(K_HALF), 0.05, make_directions(16))
    s = svd_msr(msr).singular_values
    ratio = s[3] / s[0]
    good = 0
    for seed in range(100):
        noisy = add_awgn(msr, 20.0, seed)
        sp = select_signal_dim(svd_msr(noisy), "log_gap")
        good += int(sp.m == 3)
    check(2, f"sigma4/sigma1 {ratio:.2e} < 1e-8 and log_gap m=3 in {good}/100 seeds",
          ratio < 1e-8 and good >= 95)


def _scaled_peak_sweep(k, snr_db=None, seed=None):
    """Criterion-3 body: returns True iff every eta map's 3 dominant peaks
    pair off bijectively with the scaled centers within 2 grid cells."""
    dirs = make_directions(16)
    msr = assemble_msr(scene3(k), 0.05, dirs)
    if snr_db is not None:
        msr = add_awgn(msr, snr_db, seed)
    space = select_signal_dim(svd_msr(msr), "manual", m=3)
    grid = ImageGrid(-2, 2, -2, 2, 0.01)
    for eta in (10.0, 15.0, 20.0, k):
        imap = imaging_map(space, grid, eta, dirs)
        pk = find_peaks(imap, 3)
        if not pk.complete:
            return False
        targets = (k / eta) * CENTERS
        claimed = set()
        for p, _ in pk.peaks:
            d = np.linalg.norm(targets - np.asarray(p), axis=1)
            j = int(np.argmin(d))
            if d[j] > 0.02 or j in claimed:
                return False
            claimed.add(j)
        if claimed != {0, 1, 2}:
            return False
    return True


def test_criterion_03_scaled_peak_law():
    ok = all(_scaled_peak_sweep(k) for k in (K_HALF, K_THIRD))
    check(3, "peaks at (k/eta)z_m within 2 cells, bijective, both k, eta incl. k",
          ok)


def test_criterion_04_theory_agreement():
    grid = ImageGrid(-2, 2, -2, 2, 0.05)
    center = (-0.6, -0.2)
    dirs = open_directions(64)
    params = TheoryParams(wavenumber=K_HALF, eta=15.0, centers=[center])
    tmap = theory_map(params, grid)

    def asym_dev(h):
        sc = Scene(cracks=(SegmentCrack(center=center, half_length=h / 2),),
                   wavenumber=K_HALF)
        sp = select_signal_dim(svd_msr(assemble_msr(sc, h, dirs)), "manual", m=1)
        imap = imaging_map(sp, grid, 15.0, dirs)
        return compare_maps(imap, tmap, params)["max_dev"]

    def bie_dev(h):
        sc = Scene(cracks=(SegmentCrack(center=center, half_length=h / 2),),
                   wavenumber=K_HALF)
        sp = select_signal_dim(svd_msr(assemble_msr_bie(sc, dirs)), "manual", m=1)
        imap = imaging_map(sp, grid, 15.0, dirs)
        return compare_maps(imap, tmap, params)["max_dev"]

    dev = asym_dev(1e-3)
    trend = [bie_dev(h) for h in (0.05, 0.01, 0.002)]
    decreasing = trend[0] > trend[1] > trend[2]
    check(4, f"theory max dev {dev:.3f} < 0.05 at h=1e-3; "
             f"trend {trend[0]:.4f} > {trend[1]:.4f} > {trend[2]:.4f}",
          dev < 0.05 and decreasing)


def test_criterion_05_origin_axis_invariance():
    dirs = make_directions(16)
    grid = ImageGrid(-2, 2, -2, 2, 0.01)
    ok = True
    for center, rule in (((0.0, 0.0), "origin"), ((0.7, 0.0), "axis")):
        sc = Scene(cracks=(SegmentCrack(center=center, half_length=0.05),),
                   wavenumber=K_HALF)
        sp = select_signal_dim(svd_msr(assemble_msr(sc, 0.05, dirs)),
                               "manual", m=1)
        for eta in (5.0, 10.0, 15.0, 20.0, 25.0):
            p = np.asarray(find_peaks(imaging_map(sp, grid, eta, dirs), 1).peaks[0][0])
            if rule == "origin":
                ok &= bool(np.linalg.norm(p) <= 0.01)
            else:
                ok &= bool(abs(p[1]) <= 0.01)
    check(5, "origin peak eta-invariant, x-axis peak stays on axis (1 cell)", ok)


def test_criterion_06_projector_algebra():
    ok = True
    worst = {"idem": 0.0, "herm": 0.0, "trace": 0.0}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _, _ = np.linalg.svd(a)
        m = int(rng.integers(1, n))
        um = u[:, :m]
        p = np.eye(n) - um @ um.conj().T
        worst["idem"] = max(worst["idem"], np.linalg.norm(p @ p - p))
        worst["herm"] = max(worst["herm"], np.linalg.norm(p - p.conj().T))
        worst["trace"] = max(worst["trace"], abs(np.trace(p).real - (n - m)))
    ok = worst["idem"] < 1e-12 and worst["herm"] < 1e-12 and worst["trace"] < 1e-8
    check(6, f"projector algebra: idem {worst['idem']:.1e}, herm {worst['herm']:.1e}, "
             f"trace {worst['trace']:.1e}", ok)


def test_criterion_07_forward_solver_soundness():
    crack = SegmentCrack(center=(-0.6, -0.2), half_length=0.5)
    k = K_HALF
    (n,) = assemble_msr_bie(Scene(cracks=(crack,), wavenumber=k),
                            make_directions(8)).extra["bie_n"]
    inc = np.array([1.0, 0.0])
    dens = solve_scatter(crack, k, inc, n=n)
    tau = np.linspace(-0.95, 0.95, 33)
    residual = float(np.max(np.abs(boundary_field(dens, tau))))

    x = np.array([0.6, 0.8])
    a = farfield_bie(solve_scatter(crack, k, np.array([0.0, 1.0]), n=n), x)[0, 0]
    b = farfield_bie(solve_scatter(crack, k, -x, n=n), np.array([0.0, -1.0]))[0, 0]
    recip = abs(a - b) / abs(a)

    obs = np.array([np.cos(0.3), np.sin(0.3)])
    inc2 = np.array([np.cos(2.1), np.sin(2.1)])
    # h is the half-length in both models; the deviation is the next term
    # of the expansion, |C| / |ln(h/2) + C| with C = ln(k/2) + gamma - i pi/2
    c_next = np.log(k / 2) + np.euler_gamma - 0.5j * np.pi
    devs, ratios = [], []
    for h in (0.05, 0.01, 0.002):
        small = SegmentCrack(center=(0.0, 0.0), half_length=h)
        sc = Scene(cracks=(small,), wavenumber=k)
        ua = asym_farfield(obs, inc2, sc, h)
        ub = farfield_bie(solve_scatter(small, k, inc2, n=32), obs)[0, 0]
        devs.append(abs(ub - ua) / abs(ua))
        ratios.append(devs[-1] * abs(np.log(h / 2) + c_next) / abs(c_next))
    decreasing = devs[0] > devs[1] > devs[2]
    off = max(abs(r - 1.0) for r in ratios)
    check(7, f"BIE residual {residual:.1e} < 1e-6, reciprocity {recip:.1e} < 1e-6, "
             f"asym match trend {devs[0]:.2f} > {devs[1]:.2f} > {devs[2]:.2f}, "
             f"within {off:.1%} <= 5% of the next term",
          residual < 1e-6 and recip < 1e-6 and decreasing and off <= 0.05)


def test_criterion_08_calibration_recovery():
    from crackmusic.presets import extended_arc_points
    cfg = preset_config("fig4")
    scene = scene_from_dict(cfg["scene"])
    dirs = make_directions(32)
    msr = assemble_msr(scene, 0.05, dirs)
    plan = CalibrationPlan(y=(0.0, -1.0), eta=20.0)
    grid = ImageGrid(-2, 2, -2, 2, 0.01)
    space = select_signal_dim(svd_msr(msr), "threshold", tau=0.01)
    k_hat, remap, _ = calibrate_and_image(msr, plan, grid, space)
    rel_err = abs(k_hat - K_04) / K_04

    m20 = imaging_map(space, grid, 20.0, dirs)
    arc = extended_arc_points()
    dense = extended_arc_points(2001)
    xs, ys = grid.xs(), grid.ys()
    xx, yy = np.meshgrid(xs, ys)

    def local_argmax(imap, center, radius=0.12):
        mask = (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius ** 2
        vals = np.where(mask, imap.values, -np.inf)
        iy, ix = np.unravel_index(np.argmax(vals), vals.shape)
        return np.array([xs[ix], ys[iy]])

    def dist_to_curve(p):
        return float(np.linalg.norm(dense - p, axis=1).min())

    ratios = []
    for z in arc[::4]:
        d20 = dist_to_curve(local_argmax(m20, (K_04 / 20.0) * z))
        dk = dist_to_curve(local_argmax(remap, (K_04 / k_hat) * z))
        ratios.append(d20 / max(dk, 1e-9))
    check(8, f"k_hat rel err {rel_err:.4f} <= 0.05, min image improvement "
             f"{min(ratios):.1f}x >= 3x", rel_err <= 0.05 and min(ratios) >= 3.0)


def test_criterion_09_noise_contract():
    dirs = make_directions(32)
    msr = assemble_msr(scene3(K_HALF), 0.05, dirs)
    ok_snr = True
    for seed in (0, 1, 2):
        noisy = add_awgn(msr, 20.0, seed)
        noise = noisy.entries - msr.entries
        measured = 10 * np.log10(np.sum(np.abs(msr.entries) ** 2)
                                 / np.sum(np.abs(noise) ** 2))
        ok_snr &= abs(measured - 20.0) <= 0.5
    ok_peaks = all(_scaled_peak_sweep(k, snr_db=20.0, seed=seed)
                   for k in (K_HALF, K_THIRD) for seed in (11, 12, 13))
    check(9, "measured SNR within 0.5 dB; scaled-peak law holds at 20 dB, 3 seeds",
          ok_snr and ok_peaks)


def test_criterion_10_determinism(tmp_path):
    grid_flag = "--grid=-2,2,-2,2,0.04"
    jobs = {
        "fig1": [("forward", "--snr-db", "20", "--seed", "7"),
                 ("image", grid_flag)],
        "fig2": [("forward", "--snr-db", "20", "--seed", "7")],
        "fig3": [("forward",), ("svd",)],
        "fig4": [("calibrate", grid_flag)],
    }
    ok = True
    for preset, cmds in jobs.items():
        for cmd in cmds:
            outputs = []
            for run_id in ("a", "b"):
                out = tmp_path / f"{preset}_{cmd[0]}_{run_id}"
                rc = cli_main([cmd[0], "--preset", preset,
                               "--out", str(out), *cmd[1:]])
                assert rc == 0
                blob = {p.name: p.read_bytes()
                        for p in sorted(out.iterdir())}
                outputs.append(blob)
            ok &= outputs[0] == outputs[1]
    check(10, "byte-identical outputs across preset re-runs", ok)
