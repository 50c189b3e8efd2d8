import numpy as np
import pytest

from crackmusic import (ParametricCrack, Scene, SegmentCrack, incident_field,
                        make_directions, scene, separation_ok)
from crackmusic.presets import calibration_segment_points, extended_arc_points, preset_config
from crackmusic.scene import scene_from_dict
from reference import open_directions


def test_make_directions_n2_closed():
    d = make_directions(2)
    assert np.allclose(d.angles, [0.0, 2 * np.pi])


def test_make_directions_n5_closed():
    d = make_directions(5)
    assert np.allclose(d.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])


def test_make_directions_n16_angle_formula():
    # theta_n = theta_1 + (theta_N - theta_1)(n-1)/(N-1); n = 9 gives 16*pi/15
    d = make_directions(16)
    assert d.angles[8] == pytest.approx(16 * np.pi / 15)


def test_make_directions_closed_duplicates_endpoint():
    d = make_directions(16)
    v = d.vectors()
    assert np.allclose(v[0], v[-1])
    o = open_directions(16)
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
    fits = []

    def counting_fit(x, y):
        fits.append(1)
        return fit(x, y)

    fit = scene._not_a_knot
    monkeypatch.setattr(scene, "_not_a_knot", counting_fit)
    arc = ParametricCrack(points=np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]]))
    assert "_spline" not in arc.__dict__ and fits == []   # not at construction
    t = np.array([-1.0, 0.0, 1.0])
    assert np.allclose(arc.point(t)[[0, -1]], [[0.0, 0.0], [1.0, 0.0]])
    assert arc.deriv(t).shape == (3, 2)
    spline = arc.__dict__["_spline"]
    arc.point(t)
    arc.deriv(t)
    assert len(fits) == 1 and arc.__dict__["_spline"] is spline


def _spline(x, y, t):
    """Values and derivatives at t of the spline the scene fits to the rows of y at x."""
    return tuple(scene._piecewise(x, c, t) for c in scene._not_a_knot(x, y))


def test_spline_reproduces_a_cubic_on_uneven_knots():
    x = np.array([-1.0, -0.83, -0.4, -0.31, 0.2, 0.26, 0.7, 1.0])
    coef = np.array([[0.3, -1.2], [0.9, 0.4], [-0.7, 0.25], [1.1, -0.6]])  # rows: 1, t, t^2, t^3

    def cubic(t):
        return np.polynomial.polynomial.polyval(t, coef).T

    def dcubic(t):
        return np.polynomial.polynomial.polyval(t, coef[1:] * [[1], [2], [3]]).T

    t = np.linspace(-1.0, 1.0, 97) + 0.0031   # off the knots, and past the last one
    value, deriv = _spline(x, cubic(x), t)
    assert np.abs(value - cubic(t)).max() <= 1e-14
    assert np.abs(deriv - dcubic(t)).max() <= 1e-14


def test_spline_is_the_line_through_2_points_and_the_parabola_through_3():
    t = np.linspace(-1.2, 1.2, 25)
    value, deriv = _spline(np.array([-1.0, 1.0]), np.array([[1.0, 2.0], [3.0, -2.0]]), t)
    assert np.allclose(value, np.column_stack([2.0 + t, -2.0 * t]), rtol=0, atol=1e-15)
    assert np.array_equal(deriv, np.broadcast_to([1.0, -2.0], (t.size, 2)))
    x = np.array([-1.0, 0.4, 1.0])
    coef = np.array([[0.5, -1.0], [-0.3, 2.0], [1.5, 0.7]])   # rows: 1, t, t^2
    value, deriv = _spline(x, np.polynomial.polynomial.polyval(x, coef).T, t)
    assert np.abs(value - np.polynomial.polynomial.polyval(t, coef).T).max() <= 1e-14
    assert np.abs(deriv - np.polynomial.polynomial.polyval(t, coef[1:] * [[1], [2]]).T).max() <= 1e-14


@pytest.mark.parametrize("s", [calibration_segment_points()[:, 0],
                               np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 41))])
def test_straight_arc_with_uneven_spacing_is_its_line(s):
    arc = ParametricCrack(points=np.column_stack([s, np.full(s.size, -1.0)]))
    t = np.linspace(-1.0, 1.0, 301)
    assert np.abs(arc.point(t) - np.column_stack([t, np.full(t.size, -1.0)])).max() <= 1e-14
    # the chord-length knots round by a few ulps, which a piece's slope divides
    # by the piece's length
    assert np.abs(arc.deriv(t) - [1.0, 0.0]).max() <= 1e-15 / np.diff(s).min()


@pytest.mark.parametrize("n_points", [4, 41, 201])
def test_arc_curve_matches_scipy_cubic_spline(n_points):
    from scipy.interpolate import CubicSpline   # the oracle; the package does not use it

    points = extended_arc_points(n_points)
    chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))]
    oracle = CubicSpline(2.0 * chord / chord[-1] - 1.0, points, axis=0)
    arc = ParametricCrack(points=points)
    for n in (64, 128, 256):   # the node sets of fig4's BIE refinement on the arc
        t = np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n))
        for got, want in ((arc.point(t), oracle(t)), (arc.deriv(t), oracle(t, 1))):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
