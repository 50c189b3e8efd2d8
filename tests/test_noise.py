import numpy as np
import pytest

from crackmusic import add_awgn, assemble_msr, make_directions
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict


def clean_msr(n=64):
    sc = scene_from_dict(preset_config("fig1")["scene"])
    return assemble_msr(sc, 0.05, make_directions(n))


def test_a_non_finite_snr_raises():
    # +inf dB (no noise) never reaches add_awgn: load_config drops it
    msr = clean_msr(16)
    for snr_db in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            add_awgn(msr, snr_db, seed=3)


def test_same_seed_is_deterministic():
    msr = clean_msr(16)
    a = add_awgn(msr, 20.0, seed=42)
    b = add_awgn(msr, 20.0, seed=42)
    assert np.array_equal(a.entries, b.entries)
    c = add_awgn(msr, 20.0, seed=43)
    assert not np.array_equal(a.entries, c.entries)


def test_input_unmodified():
    msr = clean_msr(16)
    before = msr.entries.copy()
    add_awgn(msr, 20.0, seed=1)
    assert np.array_equal(msr.entries, before)


def test_measured_snr_within_half_db():
    msr = clean_msr(64)   # 4096 entries
    for seed in (0, 7, 1234):
        noisy = add_awgn(msr, 20.0, seed=seed)
        w = noisy.entries - msr.entries
        snr = 10 * np.log10(np.linalg.norm(msr.entries, "fro") ** 2
                            / np.linalg.norm(w, "fro") ** 2)
        assert 19.5 <= snr <= 20.5


def test_measured_snr_32x32():
    msr = clean_msr(32)   # 1024 entries, the contract's minimum size
    for seed in (0, 1, 2):
        noisy = add_awgn(msr, 20.0, seed=seed)
        w = noisy.entries - msr.entries
        snr = 10 * np.log10(np.linalg.norm(msr.entries, "fro") ** 2
                            / np.linalg.norm(w, "fro") ** 2)
        assert 19.5 <= snr <= 20.5


def test_noise_metadata_recorded():
    noisy = add_awgn(clean_msr(16), 20.0, seed=9)
    assert noisy.extra["snr_db"] == 20.0
    assert noisy.extra["seed"] == 9
