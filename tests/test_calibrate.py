import numpy as np
import pytest

from crackmusic import (CalibrationPlan, ImageGrid, Scene, SegmentCrack,
                        assemble_msr, calibrate_and_image, estimate_k,
                        find_peaks, make_directions, music,
                        select_signal_dim, svd_msr)

K3 = 2 * np.pi / 0.4


# ---- plan validation ----

def test_plan_rejects_origin_and_bad_eta():
    with pytest.raises(ValueError):
        CalibrationPlan(y=(0.0, 0.0), eta=20.0)
    with pytest.raises(ValueError):
        CalibrationPlan(y=(0.0, -1.0), eta=0.0)


# ---- scalar estimate ----

def test_estimate_examples():
    assert estimate_k((0.0, -0.77), (0.0, -1.0), 20.0) == pytest.approx(15.4)
    assert estimate_k((0.3, 0.4), (0.3, 0.4), 7.5) == pytest.approx(7.5)
    assert estimate_k((0.5, 0.0), (1.0, 0.0), 10.0) == pytest.approx(5.0)


def test_estimate_rejects_wrong_side():
    with pytest.raises(ValueError):
        estimate_k((0.0, 0.77), (0.0, -1.0), 20.0)
    with pytest.raises(ValueError):
        estimate_k((1.0, 0.0), (0.0, -1.0), 20.0)


def test_estimate_scale_consistency():
    base = estimate_k((0.2, -0.9), (0.0, -1.0), 20.0)
    for alpha in (0.5, 2.0, 3.7):
        scaled = estimate_k((0.2 * alpha, -0.9 * alpha), (0.0, -1.0), 20.0)
        assert scaled == pytest.approx(alpha * base)


# ---- end-to-end calibration ----

def _segment_msr(y, eta_ignored=None, extra_cracks=(), n=32, k=K3):
    cracks = tuple(extra_cracks) + (
        SegmentCrack(center=y, half_length=0.05),)
    scene = Scene(cracks=cracks, wavenumber=k)
    return assemble_msr(scene, 0.05, make_directions(n))


def test_calibrate_small_scatterer_recovers_k():
    msr = _segment_msr((0.0, -1.0))
    plan = CalibrationPlan(y=(0.0, -1.0), eta=20.0)
    grid = ImageGrid(-2, 2, -2, 2, 0.01)
    k_hat, remap, info = calibrate_and_image(msr, plan, grid,
                                             select_signal_dim(svd_msr(msr), "manual", m=1))
    assert abs(k_hat - K3) / K3 < 0.05
    assert remap.eta == k_hat
    assert info["k_hat"] == k_hat
    assert info["eta_used"] == 20.0
    assert not info["ambiguous"]


def test_calibrate_images_with_the_space_it_is_given(monkeypatch):
    msr = _segment_msr((0.0, -1.0))
    space = select_signal_dim(svd_msr(msr), "manual", m=1)

    def no_svd(msr):
        raise AssertionError("calibrate_and_image computed its own SVD")
    monkeypatch.setattr(music, "svd_msr", no_svd)
    k_hat, _, _ = calibrate_and_image(msr, CalibrationPlan(y=(0.0, -1.0), eta=20.0),
                                      ImageGrid(-2, 2, -2, 2, 0.01), space)
    assert abs(k_hat - K3) / K3 < 0.05


def test_calibrate_eta_equal_k_is_fixed_point():
    msr = _segment_msr((0.0, -1.0))
    plan = CalibrationPlan(y=(0.0, -1.0), eta=K3)
    grid = ImageGrid(-2, 2, -2, 2, 0.01)
    k_hat, remap, _ = calibrate_and_image(msr, plan, grid,
                                          select_signal_dim(svd_msr(msr), "manual", m=1))
    assert abs(k_hat - K3) / K3 < 0.01
    pk = find_peaks(remap, 1)
    assert np.linalg.norm(np.asarray(pk.peaks[0][0]) - np.array([0.0, -1.0])) < 0.02


def test_calibrate_accuracy_improves_with_grid_step():
    msr = _segment_msr((0.0, -1.0))
    plan = CalibrationPlan(y=(0.0, -1.0), eta=20.0)
    errs = []
    for step in (0.02, 0.01, 0.005):
        k_hat, _, _ = calibrate_and_image(msr, plan,
                                          ImageGrid(-2, 2, -2, 2, step),
                                          select_signal_dim(svd_msr(msr), "manual", m=1))
        errs.append(abs(k_hat - K3) / K3)
        # bound: (step/|y|)*(eta/k) plus sub-cell fit slack
        assert errs[-1] <= (step / 1.0) * (20.0 / K3) + 0.002


def test_calibrate_ambiguous_when_crack_image_near_ray():
    # a crack whose scaled image lands on the calibration ray
    decoy = SegmentCrack(center=(0.0, -0.5), half_length=0.05)
    msr = _segment_msr((0.0, -1.0), extra_cracks=(decoy,))
    plan = CalibrationPlan(y=(0.0, -1.0), eta=20.0)
    grid = ImageGrid(-2, 2, -2, 2, 0.01)
    k_hat, _, info = calibrate_and_image(msr, plan, grid,
                                         select_signal_dim(svd_msr(msr), "manual", m=2))
    assert info["ambiguous"]


def test_calibrate_no_peak_near_ray_raises():
    # crack far from the ray through y; no calibration scatterer present
    scene = Scene(cracks=(SegmentCrack(center=(1.0, 1.0), half_length=0.05),),
                  wavenumber=K3)
    msr = assemble_msr(scene, 0.05, make_directions(32))
    plan = CalibrationPlan(y=(0.0, -1.0), eta=20.0)
    with pytest.raises(ValueError):
        calibrate_and_image(msr, plan, ImageGrid(-2, 2, -2, 2, 0.01),
                            select_signal_dim(svd_msr(msr), "manual", m=1))
