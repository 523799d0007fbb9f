import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tomolab.classical import (
    BoxTrajectory,
    DensityGrid,
    OscillatorTrajectory,
    PointTrajectory,
    build_radon_family,
    classical_box_tomogram,
    classical_box_tomogram_build,
    classical_oscillator_tomogram,
    classical_oscillator_tomogram_build,
    inverse_radon_grid,
    parse_classical,
    radon_density,
    radon_line_integral,
    read_density_csv,
    time_averaged_tomogram,
    trajectory_tomogram,
    write_density_csv,
)
from tomolab.kernel import (
    GridFunction2D,
    MassDeficitError,
    frame_from_scaling,
    TomographyFrame,
    TomogramError,
    normalization_residual,
    resample_tomogram,
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
    assert np.max(np.abs(tom.values - ref)) < 2e-4


def test_radon_marginals():
    sq, sp = 0.9, 1.1
    dens = gaussian_density(sq, sp)
    x = np.linspace(-10, 10, 1001)
    pos = radon_density(dens, TomographyFrame(1, 0), x)
    ref_q = np.exp(-x * x / (2 * sq * sq)) / (sq * math.sqrt(2 * math.pi))
    assert np.max(np.abs(pos.values - ref_q)) < 2e-4
    mom = radon_density(dens, TomographyFrame(0, 1), x)
    ref_p = np.exp(-x * x / (2 * sp * sp)) / (sp * math.sqrt(2 * math.pi))
    assert np.max(np.abs(mom.values - ref_p)) < 2e-4


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
            w = radon_line_integral(dens.f, TomographyFrame(m, n), x) * wx
            for k, fam in zip(ks, fams):
                worst = max(worst, abs(np.dot(w, np.exp(1j * k * x)) - fam.values[i, j]))
    assert worst < 1e-3


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


def test_time_average_rejects_the_zero_frame():
    orbit = PointTrajectory(lambda t: math.cos(t), lambda t: -math.sin(t), 2 * math.pi)
    with pytest.raises(TomogramError):
        time_averaged_tomogram(orbit, TomographyFrame(0.0, 0.0), np.linspace(-1, 1, 101))


def test_time_average_rest_state_is_atom():
    orbit = PointTrajectory(lambda t: 0.7, lambda t: 0.0, 1.0)
    fr = TomographyFrame(1, 0)
    tom = time_averaged_tomogram(orbit, fr, np.linspace(-2, 2, 401))
    assert len(tom.atoms) == 1
    assert abs(tom.atoms[0].location - 0.7) < 1e-9


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


def test_tomogram_resampling_stability():
    fr = TomographyFrame(1, 0)
    x = np.linspace(-2, 2, 801)
    tom = classical_oscillator_tomogram_build(fr, 1.0, x)
    fine = resample_tomogram(tom, np.linspace(-2, 2, 1601))
    assert abs(fine.total_mass() - tom.total_mass()) < 2e-3


def test_parse_classical():
    assert isinstance(parse_classical("oscillator:E=2"), OscillatorTrajectory)
    b = parse_classical("box:L=2,E=0.5")
    assert isinstance(b, BoxTrajectory) and b.L == 2 and b.E == 0.5
    p = parse_classical("point:q0=1,p0=0")
    assert isinstance(p, PointTrajectory)
    assert abs(p.q_of_t(0.0) - 1.0) < 1e-15


def test_density_csv_roundtrip(tmp_path):
    dens = gaussian_density(extent=5.0, n=41)
    path = str(tmp_path / "dens.csv")
    write_density_csv(dens, path)
    back = read_density_csv(path)
    assert np.array_equal(back.f.values, dens.f.values)
    assert np.array_equal(back.f.x_grid, dens.f.x_grid)
    loaded = parse_classical(f"grid:{path}")
    assert isinstance(loaded, DensityGrid)
