import numpy as np
import pytest

from crackmusic import (Scene, SegmentCrack, ParametricCrack, assemble_msr,
                        assemble_msr_bie, farfield_bie, make_directions, solve_scatter)
from crackmusic import forward_bie
from crackmusic.forward_bie import boundary_field
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict
from reference import asym_farfield

K1 = 2 * np.pi / 0.5
GAMMA1 = SegmentCrack(center=(-0.6, -0.2), half_length=0.05, angle=0.0)
GAMMA2 = SegmentCrack(center=(0.2, -0.1), half_length=0.2, angle=0.4)


def test_boundary_residual_small_crack():
    inc = np.array([1.0, 0.0])
    values = solve_scatter(GAMMA1, K1, inc, 64)
    tau = np.linspace(-0.97, 0.97, 41)   # off-node check points
    assert np.max(np.abs(boundary_field(GAMMA1, K1, inc, values, tau))) < 1e-6


def test_boundary_residual_extended_arc():
    from crackmusic.presets import extended_arc_points
    arc = ParametricCrack(points=extended_arc_points(201))
    tau = np.linspace(-0.95, 0.95, 37)
    k, inc = 2 * np.pi / 0.4, np.array([0.0, -1.0])
    res = []
    for n in (64, 128):
        values = solve_scatter(arc, k, inc, n)
        res.append(np.max(np.abs(boundary_field(arc, k, inc, values, tau))))
    # the curved arc converges more slowly than a straight segment
    assert res[1] < 2e-5
    assert res[1] < 0.5 * res[0]


def test_density_linearity_superposition():
    # the solver is linear in the right-hand side: a two-incidence solve
    # equals the two one-incidence solves column by column
    inc = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = solve_scatter(GAMMA1, K1, inc, 64)
    assert values.shape == (64, 2)
    for j in range(2):
        one = solve_scatter(GAMMA1, K1, inc[j], 64)[:, 0]
        assert np.max(np.abs(values[:, j] - one)) <= 1e-13 * np.max(np.abs(one))
    tau = np.linspace(-0.9, 0.9, 11)
    assert np.max(np.abs(boundary_field(GAMMA1, K1, inc, values, tau))) < 2e-6


def _one_crack(crack):
    return Scene(cracks=(crack,), wavenumber=K1)


def test_n_refinement_self_convergence():
    dirs = make_directions(8)
    msr = assemble_msr_bie(_one_crack(GAMMA1), dirs)
    assert msr.extra["bie_n"] == [128]
    obs = np.array([[0.0, 1.0], [-1.0, 0.0]])
    prev = farfield_bie(GAMMA1, K1, solve_scatter(GAMMA1, K1, np.array([1.0, 0.0]), 64), obs)
    cur = farfield_bie(GAMMA1, K1, solve_scatter(GAMMA1, K1, np.array([1.0, 0.0]), 128), obs)
    assert np.max(np.abs(cur - prev)) < 1e-6


def _block_at(crack, dirs, n):
    """The obs = -inc far-field block of one crack solved at n nodes."""
    th = dirs.vectors()
    return farfield_bie(crack, K1, solve_scatter(crack, K1, th, n), -th)


def test_auto_n_block_is_the_solve_at_the_reported_n():
    # the refinement keeps the block it checked: re-solving the crack at
    # the reported node count reproduces the entries bit for bit
    dirs = make_directions(8)
    auto = assemble_msr_bie(_one_crack(GAMMA2), dirs)
    (n,) = auto.extra["bie_n"]
    assert np.array_equal(auto.entries, _block_at(GAMMA2, dirs, n))


def test_auto_n_block_is_within_tolerance_of_a_finer_solve():
    dirs = make_directions(8)
    auto = assemble_msr_bie(_one_crack(GAMMA2), dirs)
    finer = _block_at(GAMMA2, dirs, 2 * auto.extra["bie_n"][0])
    err = np.max(np.abs(auto.entries - finer))
    assert err < 1e-6 * np.max(np.abs(auto.entries))


def test_fig4_arc_auto_n_is_within_tolerance_of_n_1024():
    # the J0 log term is product-integrated, so the curved arc converges
    # spectrally: the refinement stops early and still matches a fine solve
    k = 2 * np.pi / 0.4
    arc = scene_from_dict(preset_config("fig4")["scene"]).cracks[0]
    dirs = make_directions(32)
    auto = assemble_msr_bie(Scene(cracks=(arc,), wavenumber=k), dirs)
    assert auto.extra["bie_n"][0] <= 256
    th = dirs.vectors()
    fine = farfield_bie(arc, k, solve_scatter(arc, k, th, 1024), -th)
    assert np.max(np.abs(auto.entries - fine)) < 1e-7 * np.max(np.abs(fine))


def test_ladder_stops_at_n_max(monkeypatch):
    # fig4's arc converges at n = 256: with the ladder capped at 128 it must
    # fail rather than solve past the cap
    arc = scene_from_dict(preset_config("fig4")["scene"]).cracks[0]
    scene = Scene(cracks=(arc,), wavenumber=2 * np.pi / 0.4)
    assert assemble_msr_bie(scene, make_directions(8)).extra["bie_n"] == [256]
    monkeypatch.setattr(forward_bie, "_N_MAX", 128)
    with pytest.raises(ArithmeticError, match="by n=128"):
        assemble_msr_bie(scene, make_directions(8))


def test_reciprocity_two_independent_solves():
    v = np.array([0.3, np.sqrt(1 - 0.09)])
    t = np.array([1.0, 0.0])
    f1 = farfield_bie(GAMMA1, K1, solve_scatter(GAMMA1, K1, t, 64), v)[0, 0]
    f2 = farfield_bie(GAMMA1, K1, solve_scatter(GAMMA1, K1, -v, 64), -t)[0, 0]
    assert abs(f1 - f2) / abs(f1) < 1e-6


def test_asymptotic_matching_trend():
    # |u_bie - u_asym| / |u_asym| decreases as h shrinks.  The next term of
    # the expansion turns ln(h/2) into ln(h/2) + C with C = ln(k/2) + gamma
    # - i pi/2, so the deviation is |C| / |ln(h/2) + C| to a few percent;
    # matching that value pins the far-field normalization.
    t = np.array([1.0, 0.0])
    v = np.array([0.3, np.sqrt(1 - 0.09)])
    c_next = np.log(K1 / 2) + np.euler_gamma - 0.5j * np.pi
    devs = []
    for h in (0.05, 0.01, 0.002):
        c = SegmentCrack(center=(0.0, 0.0), half_length=h)
        sc = Scene(cracks=(c,), wavenumber=K1)
        fb = farfield_bie(c, K1, solve_scatter(c, K1, t, 64), v)[0, 0]
        fa = asym_farfield(v, t, sc, h)
        devs.append(abs(fb - fa) / abs(fa))
        assert devs[-1] == pytest.approx(abs(c_next) / abs(np.log(h / 2) + c_next), rel=0.05)
    assert devs[0] > devs[1] > devs[2]


def test_zero_length_log_decay():
    # scattered far field vanishes like 1/|ln(h/2)|
    t = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    mags = {}
    for h in (1e-2, 1e-3, 1e-4):
        c = SegmentCrack(center=(0.0, 0.0), half_length=h)
        mags[h] = abs(farfield_bie(c, K1, solve_scatter(c, K1, t, 32), v)[0, 0])
    scaled = [mags[h] * abs(np.log(h / 2.0)) for h in (1e-2, 1e-3, 1e-4)]
    assert mags[1e-2] > mags[1e-3] > mags[1e-4]
    assert max(scaled) / min(scaled) < 1.5


def test_assemble_msr_bie_three_cracks():
    # shrink the cracks so the rank-3 structure is sharp; at the reference
    # h=0.05 the finite length already feeds the fourth singular value
    base = scene_from_dict(preset_config("fig1")["scene"])
    cracks = tuple(SegmentCrack(center=c.center, half_length=0.005,
                                angle=c.angle) for c in base.cracks)
    sc = Scene(cracks=cracks, wavenumber=base.wavenumber)
    dirs = make_directions(16)
    msr = assemble_msr_bie(sc, dirs)
    assert msr.provenance == "bie"
    assert msr.extra["bie_n"] == [128] * 3
    k = msr.entries
    assert np.linalg.norm(k - k.T) / np.linalg.norm(k) < 1e-6
    s = np.linalg.svd(k, compute_uv=False)
    # three dominant singular values, then a sharp drop
    assert s[2] / s[0] > 0.1
    assert s[3] / s[0] < 0.05 * (s[2] / s[0])


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_scatter(GAMMA1, K1, np.array([1.0, 0.0]), 6)    # below minimum
    with pytest.raises(ValueError):
        solve_scatter(GAMMA1, K1, np.array([1.0, 0.0]), 11)   # odd
    with pytest.raises(ValueError):
        solve_scatter(GAMMA1, -1.0, np.array([1.0, 0.0]), 16)
    with pytest.raises(ValueError, match="unit vector"):
        solve_scatter(GAMMA1, K1, np.array([2.0, 0.0]), 16)
    with pytest.raises(ValueError, match="unit vector"):
        solve_scatter(GAMMA1, K1, np.array([[1.0, 0.0], [0.0, 0.5]]), 16)


def test_singular_system_is_an_arithmetic_error(monkeypatch):
    monkeypatch.setattr(forward_bie, "_operator_rows",
                        lambda param, k, tau, nodes: np.zeros((tau.size, nodes.size)))
    with pytest.raises(ArithmeticError):
        solve_scatter(GAMMA1, K1, np.array([1.0, 0.0]), 16)
