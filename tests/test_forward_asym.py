import numpy as np
import pytest

from crackmusic import (MsrMatrix, Scene, SegmentCrack, assemble_msr, load_msr,
                        make_directions, save_msr)
from crackmusic.presets import preset_config
from crackmusic.scene import DirectionSet, scene_from_dict
from reference import asym_farfield, open_directions

K1 = 2 * np.pi / 0.5


def scene3():
    return scene_from_dict(preset_config("fig1")["scene"])


def test_farfield_single_centered_crack():
    # a crack at the origin scatters the same value c = -2 pi / ln(h/2) everywhere
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    msr = assemble_msr(sc, 0.05, open_directions(8))
    assert np.allclose(msr.entries, -2 * np.pi / np.log(0.025), rtol=1e-15, atol=0)


def test_farfield_forward_direction_sums_phases():
    # K[j, l] = u_inf(-theta_j, theta_l) looks forward (obs = inc) where
    # theta_j = -theta_l, half a turn on; there every crack's phase is 1
    n = 16
    msr = assemble_msr(scene3(), 0.05, open_directions(n))
    forward = msr.entries[(np.arange(n) + n // 2) % n, np.arange(n)]
    assert forward == pytest.approx(np.full(n, -3 * 2 * np.pi / np.log(0.025)))


def test_farfield_offset_crack_phase():
    sc = Scene(cracks=(SegmentCrack(center=(0.5, 0.0), half_length=0.05),),
               wavenumber=12.5664)
    # K[0, 0] is u_inf(obs = (-1, 0), inc = (1, 0))
    got = assemble_msr(sc, 0.05, open_directions(4)).entries[0, 0]
    assert got == pytest.approx(-(2 * np.pi / np.log(0.025)) * np.exp(12.5664j))


def test_farfield_rejects_bad_h():
    sc = scene3()
    for h in (0.0, -0.1, 2.0, 2.5):
        with pytest.raises(ValueError, match="ln"):
            assemble_msr(sc, h, make_directions(4))


def test_msr_complex_symmetric():
    msr = assemble_msr(scene3(), 0.05, make_directions(16))
    assert np.linalg.norm(msr.entries - msr.entries.T) == 0.0


def test_msr_single_crack_rank_one():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    msr = assemble_msr(sc, 0.05, make_directions(16))
    assert np.allclose(msr.entries, msr.entries[0, 0])
    s = np.linalg.svd(msr.entries, compute_uv=False)
    assert s[1] / s[0] < 1e-12


def test_msr_three_cracks_rank_three():
    msr = assemble_msr(scene3(), 0.05, make_directions(16))
    s = np.linalg.svd(msr.entries, compute_uv=False)
    assert s[3] / s[0] < 1e-8


def test_factorization_reconstruction():
    # every entry of the factored c A A^T is u_inf(-theta_j, theta_l)
    sc = scene3()
    dirs = make_directions(16)
    msr = assemble_msr(sc, 0.05, dirs)
    th = dirs.vectors()
    ref = np.array([[asym_farfield(-tj, tl, sc, 0.05) for tl in th] for tj in th])
    assert np.max(np.abs(msr.entries - ref)) < 1e-12 * np.max(np.abs(ref))


def test_reciprocity_of_asymptotic_model():
    # u_inf(v, t) = u_inf(-t, -v): with theta_0 = -v and theta_1 = t these are
    # K[0, 1] and K[1, 0]
    sc = scene3()
    v = np.array([0.6, 0.8])
    t = np.array([-1.0, 0.0])
    dirs = DirectionSet(angles=np.array([np.arctan2(-v[1], -v[0]), np.arctan2(t[1], t[0])]))
    k = assemble_msr(sc, 0.05, dirs).entries
    assert k[0, 1] == pytest.approx(k[1, 0], rel=1e-14)
    assert k[0, 1] == pytest.approx(asym_farfield(v, t, sc, 0.05), rel=1e-12)


def test_msr_file_round_trip(tmp_path):
    msr = assemble_msr(scene3(), 0.05, make_directions(16))
    save_msr(msr, tmp_path / "msr.csv")
    back = load_msr(tmp_path / "msr.csv")
    # repr() floats round-trip bit-exactly, which beats the 1e-15 contract
    assert np.array_equal(back.entries, msr.entries)
    assert back.wavenumber == msr.wavenumber
    assert back.provenance == "asymptotic"
    assert np.array_equal(back.directions.angles, msr.directions.angles)
    save_msr(back, tmp_path / "msr2.csv")
    assert (tmp_path / "msr.json").read_bytes() == (tmp_path / "msr2.json").read_bytes()
    assert (tmp_path / "msr.csv").read_bytes() == (tmp_path / "msr2.csv").read_bytes()


def test_msr_file_pair_bytes(tmp_path):
    # the format itself: repr floats, re,im pairs, CRLF rows; a sorted sidecar indented by 2
    msr = MsrMatrix(entries=np.array([[1 + 0.5j, -2.0], [0.25j, 3.0]]),
                    directions=make_directions(2), wavenumber=2.0, extra={"seed": 7})
    save_msr(msr, tmp_path / "msr.csv")
    assert (tmp_path / "msr.csv").read_bytes() == b"1.0,0.5,-2.0,0.0\r\n0.0,0.25,3.0,0.0\r\n"
    assert (tmp_path / "msr.json").read_bytes() == (
        b'{\n  "convention": "obs=-inc",\n  "direction_mode": "closed",\n  "n": 2,\n'
        b'  "provenance": "asymptotic",\n  "seed": 7,\n  "wavenumber": 2.0\n}')


def test_save_msr_rejects_directions_other_than_the_closed_set(tmp_path):
    # the sidecar says "closed" and load_msr builds make_directions(n), so a
    # matrix over the open set would come back over other angles
    msr = assemble_msr(scene3(), 0.05, open_directions(16))
    with pytest.raises(ValueError, match=r"make_directions\(16\)"):
        save_msr(msr, tmp_path / "msr.csv")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_msr_matrix_rejects_non_finite_entries(bad):
    e = np.ones((4, 4), dtype=complex)
    e[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MsrMatrix(entries=e, directions=make_directions(4), wavenumber=1.0)


def test_msr_matrix_rejects_direction_count_mismatch():
    with pytest.raises(ValueError, match="5 directions for a matrix of dimension 4"):
        MsrMatrix(entries=np.ones((4, 4)), directions=make_directions(5), wavenumber=1.0)
