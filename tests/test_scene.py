import numpy as np
import pytest

from crackmusic import (ParametricCrack, Scene, SegmentCrack, incident_field,
                        make_directions, separation_ok)
from crackmusic.presets import preset_config
from crackmusic.scene import scene_from_dict


def test_make_directions_n2_closed():
    d = make_directions(2, "closed")
    assert np.allclose(d.angles, [0.0, 2 * np.pi])


def test_make_directions_n5_closed():
    d = make_directions(5, "closed")
    assert np.allclose(d.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])


def test_make_directions_n16_angle_formula():
    # theta_n = theta_1 + (theta_N - theta_1)(n-1)/(N-1); n = 9 gives 16*pi/15
    d = make_directions(16, "closed")
    assert d.angles[8] == pytest.approx(16 * np.pi / 15)


def test_make_directions_closed_duplicates_endpoint():
    d = make_directions(16, "closed")
    v = d.vectors()
    assert np.allclose(v[0], v[-1])
    o = make_directions(16, "open")
    assert not np.allclose(o.vectors()[0], o.vectors()[-1])


def test_make_directions_rejects_small_n():
    with pytest.raises(ValueError):
        make_directions(1)


def test_separation_single_crack():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.05),), wavenumber=5.0)
    ok, report = separation_ok(sc)
    assert ok and report == []


def test_separation_reference_centers():
    sc = Scene(cracks=(SegmentCrack(center=(-0.6, -0.2), half_length=0.05),
                       SegmentCrack(center=(0.4, 0.35), half_length=0.05)),
               wavenumber=12.5664)
    ok, _ = separation_ok(sc)
    # k * dist = 12.5664 * 1.1413... ~ 14.35 >= 5
    assert ok


def test_separation_fails_when_close():
    sc = Scene(cracks=(SegmentCrack(center=(0, 0), half_length=0.01),
                       SegmentCrack(center=(0.1, 0), half_length=0.01)),
               wavenumber=1.0)
    ok, report = separation_ok(sc)
    assert not ok
    assert report[0]["k_dist"] == pytest.approx(0.1)


@pytest.mark.parametrize("name, separated", [
    ("fig1", True), ("fig2", True), ("fig3", False), ("fig4", False)])
def test_separation_covers_every_point_target(name, separated):
    # an arc's point targets are its sample points, 0.05 apart at k = 2*pi/0.4
    ok, report = separation_ok(scene_from_dict(preset_config(name)["scene"]))
    assert ok == separated and (report == []) == separated
    if not separated:
        assert min(r["k_dist"] for r in report) == pytest.approx(0.79, abs=0.01)


def test_incident_field_values():
    k = 12.5664
    assert incident_field((0.0, 0.0), (1.0, 0.0), k) == pytest.approx(1.0)
    assert incident_field((np.pi / k, 0.0), (1.0, 0.0), k) == pytest.approx(-1.0)
    got = incident_field((0.3, -0.2), (0.0, 1.0), k)
    assert got == pytest.approx(np.exp(-2.51328j))
    assert abs(got) == pytest.approx(1.0)


def test_incident_field_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        incident_field((0.1, 0.2), (1.0, 0.5), 3.0)


def test_segment_crack_validation_and_warning_predicate():
    with pytest.raises(ValueError):
        SegmentCrack(center=(0, 0), half_length=0.0)
    c = SegmentCrack(center=(0, 0), half_length=0.05)
    assert c.is_small_for(2 * np.pi / 0.5)
    assert not c.is_small_for(200.0)


def test_parametric_crack_validation():
    with pytest.raises(ValueError):
        ParametricCrack(points=np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        ParametricCrack(points=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="points 1 and 2 coincide"):
        ParametricCrack(points=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_parametric_crack_fits_its_spline_once(monkeypatch):
    import scipy.interpolate

    fits = []

    class CountingSpline(scipy.interpolate.CubicSpline):
        def __init__(self, *args, **kwargs):
            fits.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "CubicSpline", CountingSpline)
    arc = ParametricCrack(points=np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]]))
    assert fits == []   # not at construction
    t = np.array([-1.0, 0.0, 1.0])
    assert np.allclose(arc.point(t)[[0, -1]], [[0.0, 0.0], [1.0, 0.0]])
    assert arc.deriv(t).shape == (3, 2)
    arc.point(t)
    assert len(fits) == 1
