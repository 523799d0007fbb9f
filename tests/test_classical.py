import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from tomolab import classical
from tomolab.classical import (
    BoxTrajectory,
    DensityGrid,
    OscillatorTrajectory,
    PointTrajectory,
    RestPoint,
    box_plateaus,
    build_radon_family,
    classical_box_tomogram,
    classical_box_tomogram_build,
    classical_oscillator_tomogram,
    classical_oscillator_tomogram_build,
    inverse_radon_grid,
    parse_classical,
    radon_density,
    read_density_csv,
    time_average_support,
    time_averaged_tomogram,
    trajectory_tomogram,
    write_density_csv,
)
from tomolab.classical import _ORBIT_SEGMENTS, _cell_edges, _orbit_cdf
from tomolab.kernel import (
    DeltaAtom,
    GridFunction2D,
    MassDeficitError,
    frame_from_scaling,
    TomographyFrame,
    TomogramError,
    normalization_residual,
)


def gaussian_density(sq=1.0, sp=1.0, extent=8.0, n=321):
    g = np.linspace(-extent, extent, n)
    f = np.exp(-g[:, None] ** 2 / (2 * sq * sq) - g[None, :] ** 2 / (2 * sp * sp))
    f /= 2 * math.pi * sq * sp
    return DensityGrid(GridFunction2D(g, g, f))


def test_density_grid_validation():
    g = np.linspace(-3, 3, 61)
    with pytest.raises(TomogramError):
        DensityGrid(GridFunction2D(g, g, np.ones((61, 61))))  # mass != 1
    bad = np.exp(-g[:, None] ** 2 - g[None, :] ** 2) / math.pi * (6.0 / 60) ** 0
    bad = bad / np.sum(bad) / (0.1 * 0.1)
    bad[0, 0] = -1.0
    with pytest.raises(TomogramError):
        DensityGrid(GridFunction2D(g, g, bad))


def test_radon_gaussian_variance_sum():
    # independent Gaussians: tomogram at (1, 1) has variance sq^2 + sp^2
    sq, sp = 0.8, 1.3
    dens = gaussian_density(sq, sp)
    fr = TomographyFrame(1.0, 1.0)
    x = np.linspace(-14, 14, 1401)
    tom = radon_density(dens, fr, x)
    var = sq * sq + sp * sp
    ref = np.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
    # the +-8 grid cuts the sp = 1.3 tail: 1.8e-10 at X = -8.2, 7e-15 on +-10
    assert np.max(np.abs(tom.values - ref)) < 1e-9


def test_radon_marginals():
    sq, sp = 0.9, 1.1
    dens = gaussian_density(sq, sp)
    x = np.linspace(-10, 10, 1001)
    pos = radon_density(dens, TomographyFrame(1, 0), x)
    ref_q = np.exp(-x * x / (2 * sq * sq)) / (sq * math.sqrt(2 * math.pi))
    assert np.max(np.abs(pos.values - ref_q)) < 1e-10
    mom = radon_density(dens, TomographyFrame(0, 1), x)
    ref_p = np.exp(-x * x / (2 * sp * sp)) / (sp * math.sqrt(2 * math.pi))
    assert np.max(np.abs(mom.values - ref_p)) < 1e-10


def test_radon_rejects_zero_frame():
    dens = gaussian_density()
    with pytest.raises(TomogramError):
        radon_density(dens, TomographyFrame(0, 0), np.linspace(-5, 5, 101))


def test_radon_mass_deficit():
    dens = gaussian_density()
    with pytest.raises(MassDeficitError) as err:
        radon_density(dens, TomographyFrame(1, 0), np.linspace(-0.5, 0.5, 101))
    assert err.value.deficit > 0.1


def test_radon_homogeneity():
    # W(lX; l mu, l nu) = |l|^{-1} W(X; mu, nu)
    dens = gaussian_density()
    fr = TomographyFrame(0.7, -0.4)
    x = np.linspace(-8, 8, 401)
    base = radon_density(dens, fr, x)
    for lam in (-2.0, 0.5):
        xl = lam * x
        order = np.argsort(xl)
        scaled = radon_density(dens, fr.scaled(lam), xl[order])
        ref = base.values / abs(lam)
        assert np.max(np.abs(scaled.values[order.argsort()] - ref)) < 1e-6


def test_radon_of_a_uniform_square_is_its_trapezoid_profile():
    # a discontinuous density: the grid limits the slice route, whose
    # negative ringing the clip at 0 removes
    g = np.linspace(-1, 1, 301)
    inside = np.abs(np.arange(301) - 150) <= 75  # |q| <= 1/2 on exact nodes
    f = np.outer(inside, inside).astype(float)
    dens = DensityGrid(GridFunction2D(g, g, f / (f.sum() * (g[1] - g[0]) ** 2)))
    x = np.linspace(-1.5, 1.5, 601)
    for mu, nu in ((1.0, 0.5), (0.7, 0.7)):
        tom = radon_density(dens, TomographyFrame(mu, nu), x)
        # the sum of two uniforms on [-mu/2, mu/2] and [-nu/2, nu/2]
        ref = np.clip(((mu + nu) / 2 - np.abs(x)) / (mu * nu), 0.0, 1.0 / max(mu, nu))
        assert np.min(tom.values) >= 0.0 and abs(tom.total_mass() - 1.0) < 1e-3
        assert np.sum(np.abs(tom.values - ref)) * (x[1] - x[0]) < 1e-2


def test_radon_ray_samples_do_not_depend_on_the_x_grid(monkeypatch):
    # frame (0.02, 0) projects the grid onto |X| <= 0.16: about one ray
    # sample per two projected cells, however wide or fine the X grid
    sizes = []

    def counted(k, axis, _orig=classical._weighted_phases):
        sizes.append(k.size)
        return _orig(k, axis)

    monkeypatch.setattr(classical, "_weighted_phases", counted)
    dens = gaussian_density()
    fr = TomographyFrame(0.02, 0.0)
    tom = radon_density(dens, fr, np.linspace(-6, 6, 401))
    wide = radon_density(dens, fr, np.linspace(-60, 60, 4001))
    radon_density(dens, fr, np.linspace(-6, 6, 1201))
    assert sizes == [sizes[0]] * 6 and sizes[0] <= 0.32 / (2 * 0.02 * 0.05) + 3
    assert np.max(np.abs(wide.values[1800:2201] - tom.values)) < 1e-9 * np.max(tom.values)
    assert not np.any(tom.values[np.abs(tom.x_grid) > 0.2])


def test_radon_with_no_x_inside_the_projected_grid_is_zero(monkeypatch):
    # every X beyond [lo, hi] is exactly 0, and the chirp sum is asked for none
    asked = []

    def counted(u, c, n, _orig=classical.chirp_sum):
        asked.append(n)
        return _orig(u, c, n)

    monkeypatch.setattr(classical, "chirp_sum", counted)
    x = np.linspace(14.0, 20.0, 31)  # the grid projects onto |X| <= 12 plus a cell
    values = classical._radon_slice(gaussian_density().f, TomographyFrame(1.0, 0.5), x)
    assert asked == [0] and values.shape == x.shape and not np.any(values)


def test_inverse_radon_round_trip():
    dens = gaussian_density(extent=7.0, n=281)
    frames = np.linspace(-4.5, 4.5, 19)
    x = np.linspace(-45, 45, 901)
    fam = build_radon_family(dens, frames, frames, x, q_extent=5.5, p_extent=5.5)
    qr = np.linspace(-3, 3, 21)
    rec, resid = inverse_radon_grid(fam, qr, qr)
    ref = np.exp(-qr[:, None] ** 2 / 2 - qr[None, :] ** 2 / 2) / (2 * math.pi)
    assert np.max(np.abs(rec - ref)) < 1e-3
    assert resid < 1e-6  # reality of f for a real symmetric density


def test_projector_matches_the_slice_identity():
    # int W e^{ikX} dX of every projected frame is G(k mu, k nu), which
    # the family takes from the Fourier-slice theorem without projecting
    comps = ((0.6, 1.0, -0.5, 0.9, 1.1), (0.4, -1.2, 0.8, 0.7, 0.8))  # weight, q0, p0, sq, sp
    g = np.linspace(-7, 7, 281)
    f = sum(w * np.exp(-(g[:, None] - q0) ** 2 / (2 * sq * sq) - (g[None, :] - p0) ** 2 / (2 * sp * sp))
            / (2 * math.pi * sq * sp) for w, q0, p0, sq, sp in comps)
    dens = DensityGrid(GridFunction2D(g, g, f))
    frames = np.linspace(-4.5, 4.5, 19)
    x = np.linspace(-64, 64, 513)
    wx = np.full(x.size, x[1] - x[0])
    wx[[0, -1]] *= 0.5
    ks = (0.5, 1.0, 2.0)
    fams = [build_radon_family(dens, k * frames, k * frames, x, 5.5, 5.5) for k in ks]
    mu, nu = np.meshgrid(frames, frames, indexing="ij")
    for k, fam in zip(ks, fams):  # the identity itself against the closed form
        exact = sum(w * np.exp(1j * k * (mu * q0 + nu * p0) - k * k * (mu ** 2 * sq ** 2 + nu ** 2 * sp ** 2) / 2)
                    for w, q0, p0, sq, sp in comps)
        exact[(mu == 0) & (nu == 0)] = 1.0
        assert np.max(np.abs(fam.values - exact)) < 1e-6  # the grid truncates the tails near 1e-9
    worst = 0.0
    for i, m in enumerate(frames):
        for j, n in enumerate(frames):
            if m == 0.0 and n == 0.0:
                continue
            w = radon_density(dens, TomographyFrame(m, n), x).values * wx
            for k, fam in zip(ks, fams):
                worst = max(worst, abs(np.dot(w, np.exp(1j * k * x)) - fam.values[i, j]))
    assert worst < 1e-8


def test_inverse_radon_linearity():
    d1 = gaussian_density(1.0, 1.0, extent=7.0, n=281)
    d2 = gaussian_density(1.3, 0.8, extent=7.0, n=281)
    frames = np.linspace(-4.5, 4.5, 19)
    x = np.linspace(-45, 45, 901)
    f1 = build_radon_family(d1, frames, frames, x, 5.5, 5.5)
    f2 = build_radon_family(d2, frames, frames, x, 5.5, 5.5)
    mix = build_radon_family(d1, frames, frames, x, 5.5, 5.5)
    object.__setattr__(mix, "values", 0.5 * (f1.values + f2.values))
    qr = np.linspace(-2, 2, 9)
    rec_mix, _ = inverse_radon_grid(mix, qr, qr)
    r1, _ = inverse_radon_grid(f1, qr, qr)
    r2, _ = inverse_radon_grid(f2, qr, qr)
    assert np.max(np.abs(rec_mix - 0.5 * (r1 + r2))) < 1e-10


def test_inverse_radon_nyquist_guard():
    dens = gaussian_density(extent=7.0, n=141)
    frames = np.linspace(-4.5, 4.5, 5)  # far too coarse
    x = np.linspace(-45, 45, 301)
    fam = build_radon_family(dens, frames, frames, x, q_extent=5.5, p_extent=5.5)
    with pytest.raises(TomogramError):
        inverse_radon_grid(fam, np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))


def _selftest_round_trip(mu, nu, q_extent=6.0):
    # the selftest's radon round trip: the Gaussian density, frames over
    # mu and nu, inverted on 25 x 25 points of |q|, |p| <= 3
    fam = build_radon_family(gaussian_density(), mu, nu, np.linspace(-60, 60, 1201), q_extent, q_extent)
    qr = np.linspace(-3, 3, 25)
    rec, _ = inverse_radon_grid(fam, qr, qr)
    return rec, np.exp(-qr[:, None] ** 2 / 2 - qr[None, :] ** 2 / 2) / (2 * math.pi)


def test_inverse_radon_refuses_a_nonuniform_frame_axis():
    # steps of 0.25 up to 0 and 0.1 after, each under pi/q_extent: the first
    # step once stood for every step, a max error of 0.33 on a peak of 0.159
    axis = np.concatenate((np.linspace(-5, 0, 21), np.linspace(0.1, 5, 50)))
    with pytest.raises(TomogramError, match="frame mu_grid must be finite and uniformly spaced"):
        _selftest_round_trip(axis, axis)


def test_inverse_radon_reads_a_descending_axis_as_its_mirror():
    # reversing mu alone once returned exactly -f
    mu = np.linspace(-5, 5, 21)
    rec, ref = _selftest_round_trip(mu, mu)
    for m, n in ((mu[::-1], mu), (mu, mu[::-1]), (mu[::-1], mu[::-1])):
        back, _ = _selftest_round_trip(m, n)
        assert np.max(np.abs(back - rec)) < 1e-12
    assert np.max(np.abs(rec - ref)) < 1e-6


def test_inverse_radon_nyquist_guard_reads_step_magnitudes():
    # steps of 1 over extents of 6 are refused ascending, and were once
    # inverted with both axes reversed, where the signed steps read -6
    axis = np.linspace(-5, 5, 11)
    for a in (axis, axis[::-1]):
        with pytest.raises(TomogramError, match="dmu\\*q_extent = 6.000"):
            _selftest_round_trip(a, a)


def _trapezoid(n):
    w = np.ones(n)
    w[[0, -1]] = 0.5
    return w


@settings(max_examples=80, deadline=None)
@given(hs.lists(hs.floats(-100.0, 100.0), min_size=1, max_size=12),
       hs.lists(hs.floats(-100.0, 100.0), min_size=1, max_size=12))
def test_phase_tables_match_the_complex_exp(k, y):
    # |k y| up to 1e4; the tables are written from real cos and sin
    k, y = np.array(k), np.array(y)
    ref = np.exp(1j * np.outer(k, y))
    assert np.max(np.abs(classical._phases(k, y) - ref)) <= 1e-15
    assert np.max(np.abs(classical._weighted_phases(k, y) - ref * _trapezoid(y.size))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(hs.lists(hs.floats(-100.0, 100.0), min_size=1, max_size=4),
       hs.floats(-100.0, 100.0), hs.floats(-100.0, 100.0), hs.integers(32, 10_000),
       hs.booleans(), hs.integers(0, 2 ** 32 - 1))
@example(k=[100.0, -0.37, 1e-6], y0=-43.64367014929815, y1=46.00230328969755, m=8324, linspace=True, seed=0)
def test_uniform_axis_phase_tables_match_mpmath(k, y0, y1, m, linspace, seed):
    # uniform axes, increasing or decreasing, of up to 1e4 entries and
    # |k y| up to 1e4 take the coarse-fine product; sampled entries against
    # e^{i k y} to 30 digits, the first and last entry of each coarse block
    # among them; the example's coarse-fine points sit 2.09 eps max|y| off
    from mpmath import mp, mpf, exp

    k = np.array(k)
    y = np.linspace(y0, y1, m) if linspace else y0 + (y1 - y0) / m * np.arange(m)
    E = classical._phases(k, y)
    assert E.shape == (k.size, m) and E.flags.c_contiguous
    B = math.isqrt(m - 1) + 1
    at = np.concatenate((np.random.default_rng(seed).integers(0, m, 40), [0, B - 1, B, m - 1]))
    bound = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(k)) * np.max(np.abs(y)))
    with mp.workdps(30):
        err = max(abs(complex(E[i, a]) - exp(1j * mpf(k[i]) * mpf(y[a]))) for i in range(k.size) for a in at)
    assert err <= bound


class _CountedTrig:
    """numpy for classical, with the entries of every cos argument counted."""

    def __init__(self):
        self.sizes = []

    def cos(self, arg, **kwargs):
        self.sizes.append(np.size(arg))
        return np.cos(arg, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def test_uniform_axis_callers_take_the_product_table(monkeypatch):
    # the quadrature route's 8 x 8001 table and the Wigner map's 201 x 161
    # one are built from about 2 sqrt M cos a row, never a full K M table
    from tomolab import quantum as qt
    from tomolab import states as st

    trig = _CountedTrig()
    monkeypatch.setattr(classical, "np", trig)
    g = np.linspace(-6.0, 6.0, 121)
    state = st.CustomGrid(g, np.exp(-0.5 * g * g) / math.pi ** 0.25)
    x = np.linspace(-10.0, 10.0, 8001)
    qt.tomogram_from_wavefunction(state, TomographyFrame(0.6, 0.8), x, 1.0)
    assert trig.sizes and max(trig.sizes) <= 8 * 2 * (math.isqrt(x.size - 1) + 1)
    trig.sizes.clear()
    rho = qt.rho_grid(st.HOEigen(2), 1.0, np.linspace(-6.0, 6.0, 401))
    q = np.linspace(-3.0, 3.0, 161)
    qt.wigner_grid_from_density(rho, q, q, 1.0)
    assert trig.sizes and max(trig.sizes) <= 201 * 2 * (math.isqrt(q.size - 1) + 1)
    # a linspace axis whose coarse-fine points sit 2.09 eps max|y| off, past
    # the 2 eps an earlier admission rule allowed, takes the product too
    trig.sizes.clear()
    y = np.linspace(-43.64367014929815, 46.00230328969755, 8324)
    classical._phases(np.array([100.0, -0.37]), y)
    assert trig.sizes and max(trig.sizes) <= 2 * 2 * (math.isqrt(y.size - 1) + 1)


@pytest.mark.parametrize("n_mu, n_nu", [(23, 9), (9, 23)])
def test_characteristic_quadrature_of_a_non_square_family_is_the_double_sum(n_mu, n_nu):
    # on a square (q, p) grid multi_dot sums the longer frame axis first,
    # so the two shapes take the two contraction orders
    rng = np.random.default_rng(7)
    mu, nu = np.linspace(-2.0, 2.0, n_mu), np.linspace(-1.5, 1.5, n_nu)
    G = rng.normal(size=(n_mu, n_nu)) + 1j * rng.normal(size=(n_mu, n_nu))
    q, p = np.linspace(-1.0, 1.0, 11), np.linspace(-0.8, 1.2, 11)
    got = classical.characteristic_quadrature(classical.FrameSamples(mu, nu, G, 1.0, 1.0), q, p)
    w = np.outer(_trapezoid(n_mu), _trapezoid(n_nu)) * G * (mu[1] - mu[0]) * (nu[1] - nu[0])
    ref = np.array([[sum(w[i, j] * cmath.exp(-1j * (mu[i] * a + nu[j] * b))
                         for i in range(n_mu) for j in range(n_nu)) for b in p] for a in q])
    assert np.max(np.abs(got - ref)) < 1e-13 * np.sum(np.abs(w))


def test_trajectory_tomogram_examples():
    orbit = PointTrajectory(lambda t: math.cos(t), lambda t: -math.sin(t), 2 * math.pi)
    atom = trajectory_tomogram(orbit, 0.0, TomographyFrame(1, 0))
    assert atom.weight == 1.0 and abs(atom.location - 1.0) < 1e-15

    # free motion: q = q0 + p0 t, p = p0 (non-recurrent, period = inf)
    q0, p0 = 0.4, 1.2
    free = PointTrajectory(lambda t: q0 + p0 * t, lambda t: p0, math.inf)
    fr = TomographyFrame(0.7, -0.3)
    for t in (0.0, 1.7, 4.2):
        atom = trajectory_tomogram(free, t, fr)
        assert abs(atom.location - (fr.mu * (q0 + p0 * t) + fr.nu * p0)) < 1e-12

    # oscillator at t = 0 with q0 = sqrt2 has p(0) = 0
    osc = PointTrajectory(lambda t: math.sqrt(2) * math.cos(t),
                          lambda t: -math.sqrt(2) * math.sin(t), 2 * math.pi)
    atom = trajectory_tomogram(osc, 0.0, TomographyFrame(0, 1))
    assert abs(atom.location) < 1e-15


def test_time_average_rejects_infinite_period():
    free = PointTrajectory(lambda t: t, lambda t: 1.0, math.inf)
    with pytest.raises(TomogramError):
        time_averaged_tomogram(free, TomographyFrame(1, 0), np.linspace(-1, 1, 101))


def test_oscillator_tomogram_closed_form():
    fr = TomographyFrame(1, 0)
    assert abs(classical_oscillator_tomogram(0.0, fr, 1.0) - 1.0 / (math.sqrt(2) * math.pi)) < 1e-12
    assert classical_oscillator_tomogram(1.5, fr, 1.0) == 0.0
    assert classical_oscillator_tomogram(-2.0, fr, 1.0) == 0.0
    with pytest.raises(TomogramError):
        classical_oscillator_tomogram(0.0, TomographyFrame(0, 0), 1.0)
    # in a frame whose mu^2 overflows, R^2 - X^2 once read 0 at X = 0 and nan
    # at X = 1e160, with two RuntimeWarnings
    R = math.sqrt(2.0) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = classical_oscillator_tomogram(np.array([0.0, 1e160]), TomographyFrame(1e160, 0), 1.0)
    assert w == pytest.approx([1.0 / (math.pi * R), 1.0 / (math.pi * 1e160)], rel=1e-15)


def test_oscillator_tomogram_build_normalized():
    # turning-point cells carry the exact arcsine mass
    fr = TomographyFrame(0.8, 0.6)
    x = np.linspace(-2.0, 2.0, 2001)
    tom = classical_oscillator_tomogram_build(fr, 1.0, x)
    assert normalization_residual(tom) < 1e-6


def test_time_average_oscillator_matches_closed_form():
    fr = TomographyFrame(1, 0)
    x = np.linspace(-1.8, 1.8, 1801)
    tom = time_averaged_tomogram(OscillatorTrajectory(1.0), fr, x)
    ref = classical_oscillator_tomogram(x, fr, 1.0)
    R = math.sqrt(2)
    away = (np.abs(np.abs(x) - R) > 0.05) & (np.abs(x) < R + 0.5)
    assert np.max(np.abs(tom.values[away] - ref[away])) < 1e-3


def test_time_average_generic_vs_oscillator():
    # the generic root-summation route reproduces the closed oscillator form
    q0 = 1.0
    orbit = PointTrajectory(lambda t: q0 * math.cos(t), lambda t: -q0 * math.sin(t), 2 * math.pi)
    fr = TomographyFrame(1.0, 0.5)
    x = np.linspace(-1.4, 1.4, 701)
    tom = time_averaged_tomogram(orbit, fr, x)
    ref = classical_oscillator_tomogram(x, fr, 0.5 * q0 * q0)
    R = math.sqrt(2 * 0.5 * (1 + 0.25))
    away = np.abs(np.abs(x) - R) > 0.06
    assert np.max(np.abs(tom.values[away] - ref[away])) < 2e-3
    assert normalization_residual(tom) < 1e-3


def test_time_average_generic_normalization():
    orbit = PointTrajectory(
        lambda t: math.cos(t) + 0.3 * math.cos(2 * t),
        lambda t: -math.sin(t) - 0.6 * math.sin(2 * t),
        2 * math.pi,
    )
    fr = TomographyFrame(0.9, -0.7)
    x = np.linspace(-2.5, 2.5, 1001)
    tom = time_averaged_tomogram(orbit, fr, x)
    assert normalization_residual(tom) < 1e-3


def _two_harmonic_orbit(a1, a2, phi):
    """q = a1 cos t + a2 cos(2t + phi) with p = dq/dt."""
    return PointTrajectory(
        lambda t: a1 * math.cos(t) + a2 * math.cos(2 * t + phi),
        lambda t: -a1 * math.sin(t) - 2 * a2 * math.sin(2 * t + phi),
        2 * math.pi,
    )


def test_time_average_keeps_mass_at_a_near_inflection():
    # mu q + nu p of this orbit nearly inflects; the root-sum route lost
    # 2.5 % of the mass here (0.974588), the cell-edge CDF loses none
    a1, a2, phi = 0.894536, 0.297581, 3.39479
    fr = TomographyFrame(-1.23226, 0.224252)
    tt = np.linspace(0.0, 2 * math.pi, 1 << 16, endpoint=False)
    g = fr.mu * (a1 * np.cos(tt) + a2 * np.cos(2 * tt + phi)) \
        - fr.nu * (a1 * np.sin(tt) + 2 * a2 * np.sin(2 * tt + phi))
    span = g.max() - g.min()
    x = np.linspace(g.min() - 0.05 * span, g.max() + 0.05 * span, 401)
    tom = time_averaged_tomogram(_two_harmonic_orbit(a1, a2, phi), fr, x)
    assert normalization_residual(tom) < 1e-9


def test_time_average_generic_matches_oscillator_cells_everywhere():
    # turning cells included: both routes are cell masses over the width
    orbit = PointTrajectory(lambda t: math.cos(t), lambda t: -math.sin(t), 2 * math.pi)
    fr = TomographyFrame(1.0, 0.5)
    x = np.linspace(-1.4, 1.4, 701)
    tom = time_averaged_tomogram(orbit, fr, x)
    ref = classical_oscillator_tomogram_build(fr, 0.5, x)
    assert np.max(np.abs(tom.values - ref.values)) < 1e-4


@settings(max_examples=25, deadline=None)
@given(a1=hs.floats(0.5, 1.5), ratio=hs.floats(0.0, 0.5), phi=hs.floats(0.0, 2 * math.pi),
       s=hs.floats(0.5, 2.0), theta=hs.floats(0.0, 2 * math.pi))
def test_time_average_mass_is_exact_on_covering_grids(a1, ratio, phi, s, theta):
    fr = frame_from_scaling(s, theta)
    a2 = ratio * a1
    bound = abs(fr.mu) * (a1 + a2) + abs(fr.nu) * (a1 + 2 * a2)
    x = np.linspace(-1.1 * bound, 1.1 * bound, 401)
    tom = time_averaged_tomogram(_two_harmonic_orbit(a1, a2, phi), fr, x)
    assert normalization_residual(tom) <= 1e-12


def test_time_average_in_the_zero_frame_is_the_unit_atom():
    # mu q + nu p = 0 at every time: every model's average is delta(X), as a
    # state's tomogram is, where four of the five routes once refused the frame
    zero, x = TomographyFrame(0.0, 0.0), np.linspace(-1, 1, 101)
    models = (gaussian_density(), OscillatorTrajectory(2.0), BoxTrajectory(2.0, 0.5),
              PointTrajectory(lambda t: math.cos(t), lambda t: -math.sin(t), 2 * math.pi), RestPoint(0.7, -1.3))
    for model in models:
        tom = time_averaged_tomogram(model, zero, x)
        assert tom.atoms == (DeltaAtom(1.0, 0.0),) and not np.any(tom.values)
        assert np.array_equal(tom.x_grid, x) and tom.frame == zero
    # the box build's mu = 0 branch already gives its two half atoms there
    assert [(a.weight, a.location) for a in classical_box_tomogram_build(zero, 1.0, x).atoms] == [(0.5, 0.0)] * 2
    with pytest.raises(TomogramError, match="pointwise box tomogram needs mu != 0"):
        classical_box_tomogram(x, zero, 1.0)
    # routes that divide by the frame length still refuse it when called directly
    with pytest.raises(TomogramError, match="oscillator tomogram rejected for the zero frame"):
        classical_oscillator_tomogram_build(zero, 1.0, x)
    with pytest.raises(TomogramError, match="Radon transform rejected for the zero frame"):
        radon_density(gaussian_density(), zero, x)


def test_time_average_rest_state_is_atom():
    orbit = PointTrajectory(lambda t: 0.7, lambda t: 0.0, 1.0)
    fr = TomographyFrame(1, 0)
    tom = time_averaged_tomogram(orbit, fr, np.linspace(-2, 2, 401))
    assert len(tom.atoms) == 1
    assert abs(tom.atoms[0].location - 0.7) < 1e-9


def _counted(f):
    """f plus a list whose one entry counts the calls."""
    calls = [0]

    def wrapped(t):
        calls[0] += 1
        return f(t)
    return wrapped, calls


def _counted_orbit(q_of_t, p_of_t, period):
    """The orbit with call-counting callables, counters zeroed after the
    period check."""
    q, qn = _counted(q_of_t)
    p, pn = _counted(p_of_t)
    orbit = PointTrajectory(q, p, period)
    qn[0] = pn[0] = 0
    return orbit, qn, pn


def _mesh_reference(g, x):
    """The cell-edge tomogram of the orbit through the mesh values g."""
    cdf = _orbit_cdf(np.append(g, g[0]), _cell_edges(x))
    return np.diff(cdf) / (x[1] - x[0])


# name: (q_of_t, p_of_t, q(t) on numpy arrays, p(t) likewise, calls allowed)
_SMOOTH_ORBITS = {
    "two-harmonic": (lambda t: 1.1 * math.cos(t) + 0.35 * math.cos(2 * t + 2.2),
                     lambda t: -1.1 * math.sin(t) - 0.7 * math.sin(2 * t + 2.2),
                     lambda t: 1.1 * np.cos(t) + 0.35 * np.cos(2 * t + 2.2),
                     lambda t: -1.1 * np.sin(t) - 0.7 * np.sin(2 * t + 2.2), 256),
    "point": (lambda t: 0.8 * math.cos(t) - 1.3 * math.sin(t),
              lambda t: -1.3 * math.cos(t) - 0.8 * math.sin(t),
              lambda t: 0.8 * np.cos(t) - 1.3 * np.sin(t),
              lambda t: -1.3 * np.cos(t) - 0.8 * np.sin(t), 256),
    # agrees with its 16-point interpolant at the 32-point midpoints, so
    # only the finest-mesh probes reveal cos 32t (p need not be dq/dt)
    "aliased": (lambda t: math.cos(t) + 0.1 * math.cos(32 * t), lambda t: -math.sin(t),
                lambda t: np.cos(t) + 0.1 * np.cos(32 * t), lambda t: -np.sin(t), 256),
    # C^4 only: its coefficients fall like k^-6, so it converges late,
    # and a bound looser than roundoff would stop short of 1e-12
    "sin^5": (lambda t: abs(math.sin(t)) ** 5, math.cos,
              lambda t: np.abs(np.sin(t)) ** 5, np.cos, 8192 + 16),
}


@pytest.mark.parametrize("case", sorted(_SMOOTH_ORBITS))
def test_time_average_smooth_orbits_sample_few_times(case):
    # a smooth orbit is fixed to roundoff by its verified trigonometric
    # interpolant: within 1e-12 of peak of the plain full-mesh tomogram
    q_of_t, p_of_t, q, p, budget = _SMOOTH_ORBITS[case]
    orbit, qn, pn = _counted_orbit(q_of_t, p_of_t, 2 * math.pi)
    fr = TomographyFrame(0.83, -0.41)
    tt = np.linspace(0.0, 2 * math.pi, _ORBIT_SEGMENTS, endpoint=False)
    g = fr.mu * q(tt) + fr.nu * p(tt)
    span = g.max() - g.min()
    x = np.linspace(g.min() - 0.05 * span, g.max() + 0.05 * span, 401)
    tom = time_averaged_tomogram(orbit, fr, x)
    assert qn[0] <= budget and pn[0] <= budget
    ref = _mesh_reference(g, x)
    assert np.max(np.abs(tom.values - ref)) <= 1e-12 * np.max(ref)


def _box_bounce(L, E):
    """The box orbit from the left wall as scalar callables: triangle-wave q,
    square-wave p = +-sqrt(2E), period 2L/sqrt(2E)."""
    v = math.sqrt(2.0 * E)
    T = 2.0 * L / v

    def q_of_t(t):
        s = (t % T) * v
        return s if s <= L else 2.0 * L - s

    def p_of_t(t):
        return v if (t % T) * v < L else -v
    return q_of_t, p_of_t, T


def test_time_average_kinked_orbit_samples_every_mesh_time():
    # a box bounce never converges spectrally: it is sampled at all
    # 65,536 mesh times, bit for bit the plain loop over the mesh.  Only
    # the two mesh segments that straddle a bounce leave the true orbit,
    # each misplacing at most its time share 1/N, so no cell is off the
    # closed box tomogram by more than 2 / (N dx) (measured: 0.998 / (N dx))
    L, E = 1.3, 0.7
    q_of_t, p_of_t, T = _box_bounce(L, E)
    orbit, qn, pn = _counted_orbit(q_of_t, p_of_t, T)
    fr = TomographyFrame(0.9, -0.35)
    x = np.linspace(-1.0, 2.0, 601)
    tom = time_averaged_tomogram(orbit, fr, x)
    assert qn[0] == pn[0] == _ORBIT_SEGMENTS
    tmesh = np.linspace(0.0, T, _ORBIT_SEGMENTS, endpoint=False).tolist()
    g = np.array([fr.mu * q_of_t(t) + fr.nu * p_of_t(t) for t in tmesh])
    assert np.array_equal(tom.values, _mesh_reference(g, x))
    ref = classical_box_tomogram_build(fr, L, x, E)
    assert np.max(np.abs(tom.values - ref.values)) <= 2.0 / (_ORBIT_SEGMENTS * (x[1] - x[0]))


def test_time_average_wrap_gap_samples_every_mesh_time():
    # a 1e-11 gap at t = T passes the period check, but the periodic
    # extension jumps there, so no interpolant converges
    orbit, qn, pn = _counted_orbit(lambda t: math.cos(t) + 1e-11 * t / (2 * math.pi),
                                   lambda t: -math.sin(t), 2 * math.pi)
    time_averaged_tomogram(orbit, TomographyFrame(0.8, 0.5), np.linspace(-1.5, 1.5, 301))
    assert qn[0] == pn[0] == _ORBIT_SEGMENTS


def test_period_check_is_relative_to_the_orbit_scale():
    # sin(2 pi) = -2.4e-16, so 1e8 sin(2 pi) is a 2.45e-8 gap of pure roundoff
    big = PointTrajectory(lambda t: 1e8 * math.cos(t), lambda t: -1e8 * math.sin(t), 2 * math.pi)
    PointTrajectory(lambda t: 1e8 * (1 - math.cos(t)), lambda t: 1e8 * math.sin(t), 2 * math.pi)
    with pytest.raises(TomogramError):
        PointTrajectory(lambda t: 1e8 * math.cos(t) + 0.1 * t, lambda t: -1e8 * math.sin(t),
                        2 * math.pi)
    with pytest.raises(TomogramError):
        PointTrajectory(lambda t: math.cos(t) + 1e-8 * t, lambda t: -math.sin(t), 2 * math.pi)
    fr = TomographyFrame(0.6, 0.8)
    x = np.linspace(-1.05e8, 1.05e8, 701)
    tom = time_averaged_tomogram(big, fr, x)
    ref = classical_oscillator_tomogram_build(fr, 0.5e16, x)
    # the piecewise-linear mesh orbit is 1.94e-7 of peak off the arcsine
    # cells, the same as the unit-amplitude orbit's
    assert np.max(np.abs(tom.values - ref.values)) <= 1e-6 * np.max(ref.values)



def test_time_average_rejects_an_orbit_that_yields_nan():
    # NaN gaps compare false both ways: the period check must not pass
    # them, and an orbit undefined on half its period must not come out
    # as a half-empty tomogram
    with pytest.raises(TomogramError):
        PointTrajectory(lambda t: math.nan if t > 0 else 1.0, lambda t: 0.0, 2 * math.pi)
    half = PointTrajectory(lambda t: math.sqrt(math.cos(t)) if math.cos(t) >= 0 else math.nan,
                           lambda t: 0.0, 2 * math.pi)
    with pytest.raises(TomogramError, match="non-finite"):
        time_averaged_tomogram(half, TomographyFrame(1.0, 0.0), np.linspace(-2, 2, 101))

def test_box_tomogram_marginal():
    fr = TomographyFrame(1, 0)
    x = np.array([-0.1, 0.2, 0.5, 0.9, 1.3])
    vals = classical_box_tomogram(x, fr, 1.0)
    assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_box_tomogram_momentum_atoms():
    fr = TomographyFrame(0, 1)
    tom = classical_box_tomogram_build(fr, 1.0, np.linspace(-3, 3, 301))
    locs = sorted(a.location for a in tom.atoms)
    assert np.allclose(locs, [-math.sqrt(2), math.sqrt(2)])
    assert all(abs(a.weight - 0.5) < 1e-15 for a in tom.atoms)


def test_box_tomogram_generic_frame_support():
    # frame (1, 1), L = 1: two disjoint plateaus of height 1/2
    fr = TomographyFrame(1, 1)
    s2 = math.sqrt(2)
    for X, expect in [(-s2 + 0.1, 0.5), (1 - s2 - 0.05, 0.5), (s2 + 0.3, 0.5),
                      (0.0, 0.0), (1 + s2 + 0.1, 0.0), (-s2 - 0.1, 0.0)]:
        assert abs(classical_box_tomogram(X, fr, 1.0) - expect) < 1e-12


def test_box_tomogram_boundary_interior_value():
    # closed-interval indicator: boundary points take the interior value
    fr = TomographyFrame(1, 0)
    assert classical_box_tomogram(0.0, fr, 1.0) == 1.0
    assert classical_box_tomogram(1.0, fr, 1.0) == 1.0
    # the computed plateau edges count as inside too, in a frame where
    # (X - sqrt2 nu)/mu rounds past L at the edge X = mu L - sqrt2 nu
    fr = TomographyFrame(-1.4, 0.6)
    edges = np.ravel(box_plateaus(fr, 1.0))
    assert np.all(classical_box_tomogram(edges, fr, 1.0) >= 1.0 / 2.8)


def test_box_build_normalized():
    fr = TomographyFrame(0.8, -0.6)
    x = np.linspace(-4, 4, 1601)
    tom = classical_box_tomogram_build(fr, 1.0, x)
    assert normalization_residual(tom) < 1e-9


def test_time_average_box_plateau():
    tom = time_averaged_tomogram(BoxTrajectory(1.0, 1.0), TomographyFrame(1, 0),
                                 np.linspace(-0.5, 1.5, 801))
    inside = (tom.x_grid > 0.05) & (tom.x_grid < 0.95)
    assert np.max(np.abs(tom.values[inside] - 1.0)) < 1e-9
    assert normalization_residual(tom) < 1e-9


def test_parse_classical():
    assert isinstance(parse_classical("oscillator:E=2"), OscillatorTrajectory)
    b = parse_classical("box:L=2,E=0.5")
    assert isinstance(b, BoxTrajectory) and b.L == 2 and b.E == 0.5
    p = parse_classical("point:q0=0.8,p0=-1.3")
    assert isinstance(p, PointTrajectory)
    # the point at rest: its time average is one unit atom at mu q0 + nu p0
    assert [(p.q_of_t(t), p.p_of_t(t)) for t in (0.0, 0.3, 2.0)] == [(0.8, -1.3)] * 3
    fr = TomographyFrame(0.6, 0.8)
    tom = time_averaged_tomogram(p, fr, np.linspace(-3, 3, 121))
    assert len(tom.atoms) == 1 and tom.atoms[0].weight == 1.0
    assert tom.atoms[0].location == pytest.approx(0.6 * 0.8 - 0.8 * 1.3, abs=1e-14)
    assert not np.any(tom.values)


def test_point_at_rest_is_one_atom_at_mu_q0_plus_nu_p0(monkeypatch):
    # the orbit mesh once put these atoms at 0.10000000000000002 and -2.079999999999999
    def no_mesh(*args):
        raise AssertionError("a point at rest fills no orbit mesh")

    monkeypatch.setattr(classical, "_orbit_samples", no_mesh)
    x = np.linspace(-3, 3, 121)
    for text, fr, where in (("point:q0=0.1,p0=0", TomographyFrame(1, 0), 0.1),
                            ("point:q0=-0.7,p0=1.1", TomographyFrame(0.3, -1.7), -2.08)):
        tom = time_averaged_tomogram(parse_classical(text), fr, x)
        assert tom.atoms == (DeltaAtom(1.0, where),) and not np.any(tom.values)


def test_time_average_of_a_density_is_its_radon_transform():
    dens = gaussian_density(sq=0.7, sp=1.2, extent=6.0, n=121)
    fr = TomographyFrame(0.6, -0.8)
    x = np.linspace(-7, 7, 281)
    tom = time_averaged_tomogram(dens, fr, x)
    assert np.array_equal(tom.values, radon_density(dens, fr, x).values) and not tom.atoms


def test_time_average_rejects_what_is_not_a_classical_model():
    with pytest.raises(TypeError, match="unsupported classical model"):
        # a descriptor that was never parsed
        time_averaged_tomogram("oscillator:E=1", TomographyFrame(1, 0), np.linspace(-1, 1, 5))


def test_density_csv_roundtrip(tmp_path):
    dens = gaussian_density(extent=5.0, n=41)
    path = str(tmp_path / "dens.csv")
    write_density_csv(dens, path)
    back = read_density_csv(path)
    assert np.array_equal(back.f.values, dens.f.values)
    assert np.array_equal(back.f.x_grid, dens.f.x_grid)
    loaded = parse_classical(f"grid:{path}")
    assert isinstance(loaded, DensityGrid)


def test_density_csv_refuses_what_it_would_misread(tmp_path):
    # both once loaded silently: rows written q fastest were read p fastest,
    # and any three columns were taken for q,p,f
    dens = gaussian_density(sq=1.0, sp=0.5, extent=5.0, n=41)
    path = tmp_path / "dens.csv"
    write_density_csv(dens, str(path))
    header, *rows = path.read_text().splitlines()
    n = dens.f.x_grid.size
    q_fastest = [rows[i * n + j] for j in range(n) for i in range(n)]
    for text, message in (("\n".join([header] + q_fastest), "sidecar's axes, p fastest"),
                          ("\n".join(["x,re,im"] + rows), "header must be q,p,f")):
        path.write_text(text + "\n")
        with pytest.raises(TomogramError, match=message):
            read_density_csv(str(path))


@pytest.mark.parametrize("model, frame, support", [
    (OscillatorTrajectory(2.0), TomographyFrame(0.6, 0.8), (-2.0, 2.0)),
    (BoxTrajectory(1.5, 0.5), TomographyFrame(2.0, -0.5), (-0.5, 3.5)),
    (RestPoint(0.3, -1.2), TomographyFrame(2.0, 1.0), (-0.6, -0.6)),
    (gaussian_density(), TomographyFrame(0.6, -0.8), (-11.2, 11.2)),
])
def test_time_average_support_holds_the_whole_mass(model, frame, support):
    lo, hi = time_average_support(model, frame)
    assert lo == pytest.approx(support[0], abs=1e-12) and hi == pytest.approx(support[1], abs=1e-12)
    cell = max(hi - lo, 1.0) / 400
    tom = time_averaged_tomogram(model, frame, np.linspace(lo - cell, hi + cell, 403))
    assert normalization_residual(tom) < 1e-3
