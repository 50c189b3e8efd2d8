import numpy as np
import pytest

from crackmusic import (MsrMatrix, Scene, SegmentCrack, assemble_msr, farfield_asym,
                        load_msr, make_directions, save_msr)
from crackmusic.forward_asym import steering_matrix
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict

K1 = 2 * np.pi / 0.5


def scene3():
    return scene_from_dict(preset_config("fig1")["scene"])


def test_farfield_single_centered_crack():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    got = farfield_asym((0.0, 1.0), (1.0, 0.0), sc, 0.05)
    assert got == pytest.approx(-2 * np.pi / np.log(0.025))


def test_farfield_forward_direction_sums_phases():
    sc = scene3()
    th = np.array([1.0, 0.0])
    got = farfield_asym(th, th, sc, 0.05)
    assert got == pytest.approx(-3 * 2 * np.pi / np.log(0.025))


def test_farfield_offset_crack_phase():
    sc = Scene(cracks=(SegmentCrack(center=(0.5, 0.0), half_length=0.05),),
               wavenumber=12.5664)
    got = farfield_asym((-1.0, 0.0), (1.0, 0.0), sc, 0.05)
    assert got == pytest.approx(-(2 * np.pi / np.log(0.025)) * np.exp(12.5664j))


def test_farfield_rejects_bad_h():
    sc = scene3()
    for h in (0.0, -0.1, 2.0, 2.5):
        with pytest.raises(ValueError):
            farfield_asym((1.0, 0.0), (1.0, 0.0), sc, h)


def test_msr_complex_symmetric():
    msr = assemble_msr(scene3(), 0.05, make_directions(16, "closed"))
    assert np.linalg.norm(msr.entries - msr.entries.T) == 0.0


def test_msr_single_crack_rank_one():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=K1)
    msr = assemble_msr(sc, 0.05, make_directions(16, "closed"))
    assert np.allclose(msr.entries, msr.entries[0, 0])
    s = np.linalg.svd(msr.entries, compute_uv=False)
    assert s[1] / s[0] < 1e-12


def test_msr_three_cracks_rank_three():
    msr = assemble_msr(scene3(), 0.05, make_directions(16, "closed"))
    s = np.linalg.svd(msr.entries, compute_uv=False)
    assert s[3] / s[0] < 1e-8


def test_factorization_reconstruction():
    sc = scene3()
    dirs = make_directions(16, "closed")
    msr = assemble_msr(sc, 0.05, dirs)
    a = steering_matrix(sc, dirs)
    c = -2 * np.pi / np.log(0.025)
    rebuilt = c * (a @ a.T)
    assert np.linalg.norm(rebuilt - msr.entries) / np.linalg.norm(msr.entries) < 1e-12


def test_reciprocity_of_asymptotic_model():
    sc = scene3()
    v = np.array([0.6, 0.8])
    t = np.array([-1.0, 0.0])
    assert farfield_asym(v, t, sc, 0.05) == pytest.approx(farfield_asym(-t, -v, sc, 0.05))


def test_msr_file_round_trip(tmp_path):
    msr = assemble_msr(scene3(), 0.05, make_directions(16, "closed"))
    save_msr(msr, tmp_path / "msr.csv", tmp_path / "msr.json")
    back = load_msr(tmp_path / "msr.csv", tmp_path / "msr.json")
    # repr() floats round-trip bit-exactly, which beats the 1e-15 contract
    assert np.array_equal(back.entries, msr.entries)
    assert back.wavenumber == msr.wavenumber
    assert back.provenance == "asymptotic"
    assert back.directions.mode == "closed"
    save_msr(back, tmp_path / "msr2.csv", tmp_path / "msr2.json")
    assert (tmp_path / "msr.json").read_bytes() == (tmp_path / "msr2.json").read_bytes()
    assert (tmp_path / "msr.csv").read_bytes() == (tmp_path / "msr2.csv").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_msr_matrix_rejects_non_finite_entries(bad):
    e = np.ones((4, 4), dtype=complex)
    e[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MsrMatrix(entries=e, directions=make_directions(4), wavenumber=1.0)


def test_msr_matrix_rejects_direction_count_mismatch():
    with pytest.raises(ValueError, match="5 directions for a matrix of dimension 4"):
        MsrMatrix(entries=np.ones((4, 4)), directions=make_directions(5), wavenumber=1.0)
