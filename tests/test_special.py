import numpy as np
import pytest

from crackmusic import bessel_j0, hankel0, make_directions
from crackmusic.special import _half_directions
from reference import direction_average, open_directions

# Independent oracle: trapezoid quadrature of (1/2pi) int_0^{2pi} e^{ix cos t} dt
# with 4096 nodes (spectrally exact for |x| <= 200).
def quad_j0(x, n=4096):
    t = np.arange(n) * (2.0 * np.pi / n)
    return float(np.mean(np.exp(1j * x * np.cos(t))).real)


J0_FIRST_ZERO = 2.404825557695773   # located by bisecting the quadrature oracle


def j0_on_axis(x):
    """J0(|x|) from the grid kernel: the one-row grid y = 0, the target at the origin."""
    return bessel_j0(np.atleast_1d(x), [0.0], [(0.0, 0.0)], slice(None))[0, :, 0]


def test_j0_at_origin():
    assert j0_on_axis(0.0)[0] == 1.0


def test_j0_first_zero():
    assert abs(j0_on_axis(J0_FIRST_ZERO)[0]) < 1e-9


def test_j0_at_30_matches_quadrature_oracle():
    # oracle value frozen from the 4096-node trapezoid rule
    assert j0_on_axis(30.0)[0] == pytest.approx(-0.08636798358104017, abs=1e-9)


def test_j0_accuracy_over_range():
    xs = np.linspace(0.0, 200.0, 1777)
    vals = j0_on_axis(xs)
    for x, v in zip(xs[::7], vals[::7]):
        assert abs(v - quad_j0(x)) < 1e-10


def test_j0_even_symmetry_and_bound():
    xs = np.linspace(-50.0, 50.0, 501)
    v = j0_on_axis(xs)
    assert np.array_equal(v, j0_on_axis(-xs))
    assert np.all(np.abs(v) <= 1.0 + 1e-15)


def test_j0_rejects_non_finite():
    good = ([0.0, 1.0], [0.0], [(0.0, 0.0)])   # xs, ys, centers
    for i in range(3):
        for bad in (np.nan, np.inf):
            args = list(good)
            args[i] = np.full(np.shape(good[i]), bad)
            with pytest.raises(ValueError):
                bessel_j0(*args, slice(None))


def test_j0_grid_matches_scipy_j0():
    # scipy's j0 (Cephes) as the oracle, on random grids and targets whose
    # largest grid-to-target distance reaches about 500
    from scipy.special import j0
    rng = np.random.default_rng(23)
    for half_width in (3.0, 40.0, 200.0):
        xs = np.sort(rng.uniform(-half_width, half_width, 60))
        ys = np.sort(rng.uniform(-half_width, half_width, 50))
        centers = rng.uniform(-half_width, half_width, (7, 2))
        got = bessel_j0(xs, ys, centers, slice(None))
        assert got.shape == (50, 60, 7)
        d = np.hypot(xs[:, None] - centers[:, 0], ys[:, None, None] - centers[:, 1])
        assert np.max(np.abs(got - j0(d))) <= 1e-14
    assert 450 < d.max() < 550   # the last grid's reach


@pytest.mark.parametrize("half_width, h", [(38.0, 59), (39.0, 60)])
def test_j0_matches_scipy_j0_for_odd_and_even_half_direction_counts(half_width, h):
    # the kernel pairs theta with pi - theta; theta = pi/2 is its own partner
    # only when h is even, so its weight shows on the second grid alone
    from scipy.special import j0
    xs, ys = np.linspace(-half_width, half_width, 41), np.linspace(-half_width, half_width, 37)
    centers = np.array([(0.3, -0.2), (1.0, 0.5), (-2.5, 1.5)])
    assert _half_directions(xs, ys, centers) == h
    d = np.hypot(xs[:, None] - centers[:, 0], ys[:, None, None] - centers[:, 1])
    assert np.max(np.abs(bessel_j0(xs, ys, centers, slice(None)) - j0(d))) <= 1e-14


def test_j0_rows_do_not_depend_on_the_block():
    # the direction count comes from the whole grid, so any split of the rows
    # gives the whole grid's values
    rng = np.random.default_rng(5)
    xs, ys, centers = rng.uniform(-9, 9, 31), rng.uniform(-9, 9, 17), rng.uniform(-3, 3, (4, 2))
    whole = bessel_j0(xs, ys, centers, slice(None))
    for rows in (slice(0, 1), slice(3, 4), slice(5, 12), slice(16, 17)):
        assert np.array_equal(bessel_j0(xs, ys, centers, rows), whole[rows])


def test_j0_direction_count_leaves_a_negligible_alias():
    # the average over Q directions is J0 + 2 sum_p i^{pQ} J_{pQ} cos(pQ phi):
    # the rule's Q keeps |J_Q(r)| below 1e-17 at the largest distance r
    from scipy.special import jv
    for r in np.concatenate([np.linspace(0.0, 20.0, 201), np.linspace(20.0, 800.0, 781)]):
        q = 2 * _half_directions(np.array([r]), np.array([0.0]), np.zeros((1, 2)))
        assert abs(jv(q, r)) < 1e-17, (r, q)


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
    dirs = make_directions(45)
    assert direction_average(3.7, (0.0, 0.0), dirs) == pytest.approx(1.0)


def test_direction_average_at_j0_zero():
    dirs = make_directions(360)
    assert abs(direction_average(1.0, (J0_FIRST_ZERO, 0.0), dirs)) < 1e-3


def test_direction_average_matches_j0():
    dirs = make_directions(360)
    got = direction_average(12.5664, (0.5, 0.0), dirs)
    assert abs(got - j0_on_axis(6.2832)[0]) < 1e-3


def test_direction_sum_identity_n64():
    # the plane-wave sum identity as an approximation claim: N >= 64, w|x| <= 30
    for n in (64, 128, 360):
        dirs = make_directions(n)
        rng = np.random.default_rng(11)
        for _ in range(40):
            r = rng.uniform(0.0, 30.0)
            phi = rng.uniform(0.0, 2 * np.pi)
            x = np.array([r * np.cos(phi), r * np.sin(phi)])
            assert abs(direction_average(1.0, x, dirs) - j0_on_axis(r)[0]) < 1e-3


def test_direction_average_rotation_invariant():
    dirs = make_directions(360)
    base = direction_average(2.0, (1.3, 0.0), dirs)
    for phi in (0.3, 1.1, 2.9, 4.4):
        x = 1.3 * np.array([np.cos(phi), np.sin(phi)])
        assert abs(direction_average(2.0, x, dirs) - base) < 1e-3


def test_closed_and_open_schemes_agree_at_large_n():
    c = make_directions(360)
    o = open_directions(360)
    for r in (0.5, 3.0, 11.0, 28.0):
        assert abs(direction_average(1.0, (r, 0.0), c)
                   - direction_average(1.0, (r, 0.0), o)) < 1e-3


def test_direction_average_rejects_non_finite():
    dirs = make_directions(16)
    with pytest.raises(ValueError):
        direction_average(np.nan, (0.1, 0.2), dirs)
