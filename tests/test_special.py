import numpy as np
import pytest

from crackmusic import bessel_j0, hankel0, make_directions
from reference import direction_average

# Independent oracle: trapezoid quadrature of (1/2pi) int_0^{2pi} e^{ix cos t} dt
# with 4096 nodes (spectrally exact for |x| <= 200).
def quad_j0(x, n=4096):
    t = np.arange(n) * (2.0 * np.pi / n)
    return float(np.mean(np.exp(1j * x * np.cos(t))).real)


J0_FIRST_ZERO = 2.404825557695773   # located by bisecting the quadrature oracle


def test_j0_at_origin():
    assert bessel_j0(0.0) == 1.0


def test_j0_first_zero():
    assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-9


def test_j0_at_30_matches_quadrature_oracle():
    # oracle value frozen from the 4096-node trapezoid rule
    assert bessel_j0(30.0) == pytest.approx(-0.08636798358104017, abs=1e-9)


def test_j0_accuracy_over_range():
    xs = np.linspace(0.0, 200.0, 1777)
    vals = bessel_j0(xs)
    for x, v in zip(xs[::7], vals[::7]):
        assert abs(v - quad_j0(x)) < 1e-10


def test_j0_even_symmetry_and_bound():
    xs = np.linspace(-50.0, 50.0, 501)
    v = bessel_j0(xs)
    assert np.array_equal(v, bessel_j0(-xs))
    assert np.all(np.abs(v) <= 1.0 + 1e-15)


def test_j0_rejects_non_finite():
    with pytest.raises(ValueError):
        bessel_j0(np.nan)
    with pytest.raises(ValueError):
        bessel_j0(np.inf)


def _hankel0_sample():
    """[1e-6, 100] densely, the x < 1e-5 branch, both sides of the x = 5 split,
    and the first zeros of J0 and Y0 with their neighbouring doubles."""
    from scipy.special import jn_zeros, y0_zeros
    zeros = np.concatenate([jn_zeros(0, 32), y0_zeros(32)[0].real])
    return np.concatenate([
        np.linspace(1e-6, 100.0, 200_001), np.geomspace(1e-6, 1e-4, 401),
        np.nextafter(5.0, [0.0, 10.0]), [5.0], np.linspace(4.999, 5.001, 2001),
        zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, 200.0)])


def test_hankel0_matches_scipy_j0_y0_and_hankel1():
    # scipy's j0 and y0 run the same Cephes approximations, and hankel1 is AMOS;
    # the bounds leave room for an ulp of numpy's SIMD cos, sin and log
    from scipy.special import hankel1, j0, y0
    x = _hankel0_sample()
    h = hankel0(x)
    assert h.dtype == np.complex128 and h.shape == x.shape
    assert np.max(np.abs(h.real - j0(x))) <= 1e-15
    assert np.max(np.abs(h.imag - y0(x))) <= 1e-15
    assert np.max(np.abs(h - hankel1(0, x))) <= 4e-15


def test_hankel0_keeps_the_shape():
    # inputs longer than one pass of the evaluator, in C order and transposed
    x = np.linspace(0.5, 9.5, 3 * 10_001).reshape(3, 10_001)
    flat = hankel0(x.ravel())
    assert np.array_equal(hankel0(x), flat.reshape(x.shape))
    assert np.array_equal(hankel0(x.T), flat.reshape(x.shape).T)


def test_hankel0_rejects_non_positive_and_non_finite():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            hankel0(np.array([1.0, bad]))


def test_direction_average_at_origin():
    dirs = make_directions(45, "closed")
    assert direction_average(3.7, (0.0, 0.0), dirs) == pytest.approx(1.0)


def test_direction_average_at_j0_zero():
    dirs = make_directions(360, "closed")
    assert abs(direction_average(1.0, (J0_FIRST_ZERO, 0.0), dirs)) < 1e-3


def test_direction_average_matches_j0():
    dirs = make_directions(360, "closed")
    got = direction_average(12.5664, (0.5, 0.0), dirs)
    assert abs(got - bessel_j0(6.2832)) < 1e-3


def test_direction_sum_identity_n64():
    # the plane-wave sum identity as an approximation claim: N >= 64, w|x| <= 30
    for n in (64, 128, 360):
        dirs = make_directions(n, "closed")
        rng = np.random.default_rng(11)
        for _ in range(40):
            r = rng.uniform(0.0, 30.0)
            phi = rng.uniform(0.0, 2 * np.pi)
            x = np.array([r * np.cos(phi), r * np.sin(phi)])
            assert abs(direction_average(1.0, x, dirs) - bessel_j0(r)) < 1e-3


def test_direction_average_rotation_invariant():
    dirs = make_directions(360, "closed")
    base = direction_average(2.0, (1.3, 0.0), dirs)
    for phi in (0.3, 1.1, 2.9, 4.4):
        x = 1.3 * np.array([np.cos(phi), np.sin(phi)])
        assert abs(direction_average(2.0, x, dirs) - base) < 1e-3


def test_closed_and_open_schemes_agree_at_large_n():
    c = make_directions(360, "closed")
    o = make_directions(360, "open")
    for r in (0.5, 3.0, 11.0, 28.0):
        assert abs(direction_average(1.0, (r, 0.0), c)
                   - direction_average(1.0, (r, 0.0), o)) < 1e-3


def test_direction_average_rejects_non_finite():
    dirs = make_directions(16, "closed")
    with pytest.raises(ValueError):
        direction_average(np.nan, (0.1, 0.2), dirs)
