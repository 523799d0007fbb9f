import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tomolab import quantum as qt
from tomolab import states as st
from tomolab.chirp import ChirpResolutionError, chirp_integral
from tomolab.kernel import (
    GridFunction2D,
    TomographyFrame,
    TomogramError,
    normalization_residual,
)

from conftest import random_frame


def brute_amplitude(state, frame, X, hbar, npts=200001, tails=12.0):
    """Oracle: dense-trapezoid evaluation of the defining amplitude integral."""
    lo, hi = st.position_extent(state, hbar, tails)
    y = np.linspace(lo, hi, npts)
    psi = st.position_wavefunction(state, hbar)(y)
    phase = np.exp(1j * frame.mu * y * y / (2 * hbar * frame.nu) - 1j * X * y / (hbar * frame.nu))
    return np.trapezoid(psi * phase, y)


# ---------------------------------------------------------------------------
# amplitudes and generating function
# ---------------------------------------------------------------------------

def test_hermite_amplitude_matches_defining_integral(rng):
    for _ in range(10):
        n = int(rng.integers(0, 9))
        fr = TomographyFrame(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        X = float(rng.uniform(-2, 2))
        hbar = float(rng.uniform(0.2, 2))
        ref = brute_amplitude(st.HOEigen(n), fr, X, hbar)
        val = qt.hermite_amplitude(n, fr, X, hbar)
        assert abs(val - ref) < 1e-6 * max(abs(ref), 1e-6)


def test_amplitude_generating_taylor_matches_closed_forms():
    # Cauchy-integral Taylor coefficients of J(s) reproduce A_n/sqrt(n!)
    X, hbar = 0.7, 0.55
    M, r = 128, 0.8
    for (mu, nu) in [(0.6, 0.8), (1.2, -0.7), (-0.9, -0.5), (-1.1, 0.4)]:
        fr = TomographyFrame(mu, nu)
        sk = r * np.exp(2j * math.pi * np.arange(M) / M)
        J = np.array([qt.amplitude_generating(s, fr, X, hbar) for s in sk])
        coeff = np.fft.fft(J) / M / r ** np.arange(M)
        for n in range(7):
            an = coeff[n] * math.sqrt(math.factorial(n))
            ref = qt.hermite_amplitude(n, fr, X, hbar)
            assert abs(an - ref) < 1e-8 * max(abs(ref), 1.0)


def test_amplitude_generating_zero_is_ground_amplitude():
    fr = TomographyFrame(0.5, 1.1)
    assert abs(qt.amplitude_generating(0.0, fr, 0.3, 0.8)
               - qt.hermite_amplitude(0, fr, 0.3, 0.8)) < 1e-14


def test_amplitude_generating_finite_on_disk(rng):
    for _ in range(20):
        fr = random_frame(rng)
        if fr.nu == 0.0:
            continue
        s = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        if abs(s) > 2:
            s *= 2 / abs(s)
        val = qt.amplitude_generating(s, fr, rng.uniform(-3, 3), 0.9)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_amplitude_requires_nu():
    with pytest.raises(TomogramError):
        qt.hermite_amplitude(0, TomographyFrame(1, 0), 0.0, 1.0)
    with pytest.raises(TomogramError):
        qt.amplitude_generating(0.0, TomographyFrame(1, 0), 0.0, 1.0)


def test_amplitude_branch_continuity_through_small_nu():
    # the tomogram built from amplitudes stays continuous as nu crosses 0
    fr0 = TomographyFrame(0.8, 0.0)
    x = np.linspace(-3, 3, 61)
    w0 = qt.superposition_tomogram(0, 1, fr0, x, 1.0)
    for nu in (1e-5, -1e-5):
        w = qt.superposition_tomogram(0, 1, TomographyFrame(0.8, nu), x, 1.0)
        assert np.max(np.abs(w - w0)) < 1e-3


# ---------------------------------------------------------------------------
# closed-form tomograms
# ---------------------------------------------------------------------------

def test_hermite_tomogram_ground_value():
    val = qt.hermite_tomogram(0, TomographyFrame(1, 0), 0.0, 1.0)
    assert abs(val - 1.0 / math.sqrt(math.pi)) < 1e-12
    assert abs(val - 0.564190) < 1e-6


def test_hermite_tomogram_odd_node():
    assert qt.hermite_tomogram(1, TomographyFrame(1, 0), 0.0, 1.0) == 0.0


def test_hermite_tomogram_matches_quadrature_route():
    fr = TomographyFrame(0.6, 0.8)
    hbar = 0.3
    x = np.linspace(-3, 3, 41)
    tom = qt.tomogram_from_wavefunction(st.HOEigen(5), fr, x, hbar)
    ref = qt.hermite_tomogram(5, fr, x, hbar)
    assert np.max(np.abs(tom.values - ref)) < 1e-6


def test_closed_forms_with_varpi(rng):
    # a varpi state's closed form is the varpi = 1 form in the frame
    # (mu/sqrt(varpi), nu sqrt(varpi)); the quadrature route integrates the
    # state's own varpi wave functions, so it checks that frame map
    for _ in range(5):
        varpi = float(rng.uniform(0.4, 2.5))
        hbar = float(rng.uniform(0.3, 1.5))
        fr = TomographyFrame(float(rng.uniform(-2, 2)),
                             float(rng.choice([-1, 1]) * rng.uniform(0.3, 2)))
        n = int(rng.integers(0, 6))
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for state in (st.HOEigen(n, varpi), st.Coherent(alpha, varpi),
                      st.Superposition(n, n + 3, varpi), st.CatEven(alpha, varpi),
                      st.CatOdd(alpha, varpi)):
            x = qt.default_x_grid(state, fr, hbar, count=41)
            wc = qt.state_tomogram(state, fr, x, hbar).values
            tq = qt.tomogram_from_wavefunction(state, fr, x, hbar).values
            assert np.max(np.abs(tq - wc)) < 1e-9 * np.max(wc), state
    # superposition with varpi stays a normalized density
    fr = TomographyFrame(0.7, -0.9)
    x = np.linspace(-8, 8, 2001)
    w = qt.state_tomogram(st.Superposition(1, 4, 1.7), fr, x, 0.8).values
    assert np.min(w) >= 0.0
    assert abs(np.trapezoid(w, x) - 1.0) < 1e-8


def _sides_taken(monkeypatch, state, frame, hbar, x):
    """The wave functions tomogram_from_wavefunction reads, in order, and
    "quadrature" when it integrates the amplitude; plus its tomogram."""
    seen = []
    for name in ("position_wavefunction", "momentum_wavefunction", "_ladder_amplitudes"):
        def counted(*args, _name=name, _orig=getattr(qt, name)):
            seen.append("quadrature" if _name == "_ladder_amplitudes" else _name)
            return _orig(*args)
        monkeypatch.setattr(qt, name, counted)
    return seen, qt.tomogram_from_wavefunction(state, frame, x, hbar)


def test_quadrature_representation_choice(monkeypatch):
    # sigma_q = sqrt(hbar/varpi) = 0.5, sigma_p = sqrt(hbar varpi) = 2: the
    # tie |nu| sigma_p = |mu| sigma_q is mu = 4 nu, exactly at (2, 0.5)
    state, hbar = st.HOEigen(2, 4.0), 1.0
    x = np.linspace(-4.0, 4.0, 33)
    for (mu, nu), want in (((2.0, 0.5), ["position_wavefunction", "quadrature"]),
                           ((2.0, 0.4999), ["momentum_wavefunction", "quadrature"]),
                           ((2.0, 0.5001), ["position_wavefunction", "quadrature"]),
                           ((-2.0, -0.4999), ["momentum_wavefunction", "quadrature"])):
        seen, _ = _sides_taken(monkeypatch, state, TomographyFrame(mu, nu), hbar, x)
        assert seen == want, (mu, nu)
    # mu = 0 is the exact momentum marginal, nu = 0 the exact position one
    seen, tom = _sides_taken(monkeypatch, state, TomographyFrame(0.0, -0.5), hbar, x)
    assert seen == ["momentum_wavefunction"]
    ft = st.momentum_wavefunction(state, hbar)
    assert np.array_equal(tom.values, np.abs(ft(x / -0.5)) ** 2 / 0.5)
    seen, tom = _sides_taken(monkeypatch, state, TomographyFrame(2.0, 0.0), hbar, x)
    assert seen == ["position_wavefunction"]
    psi = st.position_wavefunction(state, hbar)
    assert np.array_equal(tom.values, np.abs(psi(x / 2.0)) ** 2 / 2.0)
    # the zero frame reads no wave function
    seen, tom = _sides_taken(monkeypatch, state, TomographyFrame(0.0, 0.0), hbar, x)
    assert seen == [] and [(a.weight, a.location) for a in tom.atoms] == [(1.0, 0.0)]
    # a sampled state stays on the position side at mu = 0
    y = np.linspace(-6.0, 6.0, 121)
    g = np.exp(-0.5 * y * y + 0.4j * y)
    custom = st.CustomGrid(y, g / math.sqrt(np.trapezoid(np.abs(g) ** 2, y)))
    seen, _ = _sides_taken(monkeypatch, custom, TomographyFrame(0.0, 0.7), hbar, x)
    assert seen == ["position_wavefunction", "quadrature"]


def test_coherent_tomogram_reduction_and_peak():
    fr = TomographyFrame(1, 0)
    x = np.linspace(-4, 4, 801)
    w0 = qt.coherent_tomogram(0j, fr, x, 1.0)
    assert np.max(np.abs(w0 - qt.hermite_tomogram(0, fr, x, 1.0))) < 1e-14
    # alpha = 1, hbar = varpi = 1, frame (1, 0): peak at sqrt(2)
    w1 = qt.coherent_tomogram(1 + 0j, fr, x, 1.0)
    assert abs(x[np.argmax(w1)] - math.sqrt(2)) < 0.011
    assert abs(qt.coherent_tomogram_peak(1 + 0j, fr, 1.0) - math.sqrt(2)) < 1e-14


def test_coherent_tomogram_normalized_exactly():
    fr = TomographyFrame(0.7, -1.1)
    hbar = 0.45
    sig = math.sqrt(hbar * (fr.nu ** 2 + fr.mu ** 2) / 2.0)
    c = qt.coherent_tomogram_peak(1.2 + 0.8j, fr, hbar)
    x = np.linspace(c - 10 * sig, c + 10 * sig, 4001)
    w = qt.coherent_tomogram(1.2 + 0.8j, fr, x, hbar)
    assert abs(np.trapezoid(w, x) - 1.0) < 1e-10


def test_superposition_nonnegative_and_normalized():
    fr = TomographyFrame(0.6, 0.8)
    hbar = 0.8
    x = np.linspace(-8, 8, 4001)
    w = qt.superposition_tomogram(1, 4, fr, x, hbar)
    assert np.min(w) >= 0.0
    assert abs(np.trapezoid(w, x) - 1.0) < 1e-8


def test_superposition_cross_profile_scales_sqrt_hbar():
    fr = TomographyFrame(0.6, 0.8)
    vals = []
    for hbar in (1e-2, 1e-3):
        kappa = 1.0 / (hbar * (fr.mu ** 2 + fr.nu ** 2))
        sig = 1.0 / math.sqrt(kappa)
        x = np.linspace(-10 * sig, 10 * sig, 4001)
        cross = qt.superposition_cross_term(2, 5, fr, x, hbar)
        vals.append(np.trapezoid(np.abs(cross), x) / math.sqrt(kappa))
    assert abs(vals[0] / vals[1] - math.sqrt(10.0)) < 1e-3


def test_cat_interference_integral():
    fr = TomographyFrame(0.6, 0.8)
    for alpha, hbar in ((1 + 0j, 1.0), (1 + 0j, 0.25), (0.5 + 0j, 0.7), (2 + 0j, 1.3)):
        state = st.CatEven(alpha)
        x = qt.default_x_grid(state, fr, hbar, count=6001, tails=10.0)
        I = qt.cat_interference(alpha, fr, x, hbar)
        assert abs(np.trapezoid(I, x) - 2.0 * math.exp(-2 * abs(alpha) ** 2)) < 1e-9
    assert abs(2.0 * math.exp(-2.0) - 0.270671) < 1e-6


def test_cat_normalization():
    fr = TomographyFrame(0.9, -0.5)
    for alpha in (0.5 + 0j, 1 + 0j, 2 + 0j):
        for parity in ("even", "odd"):
            state = st.CatEven(alpha) if parity == "even" else st.CatOdd(alpha)
            x = qt.default_x_grid(state, fr, 0.6, count=6001, tails=10.0)
            w = qt.cat_tomogram(alpha, parity, fr, x, 0.6)
            assert abs(np.trapezoid(w, x) - 1.0) < 1e-6


def test_cat_interference_maximal_at_origin():
    # real alpha, momentum frame: the two gaussians coincide and the
    # fringe envelope peaks at X = 0
    fr = TomographyFrame(0, 1)
    x = np.linspace(-4, 4, 2001)
    I = qt.cat_interference(1.3 + 0j, fr, x, 1.0)
    assert abs(I[1000] - np.max(I)) < 1e-12
    envelope = 2.0 * np.sqrt(
        qt.coherent_tomogram(1.3, fr, 0.0, 1.0) * qt.coherent_tomogram(-1.3, fr, 0.0, 1.0)
    )
    assert abs(I[1000] - envelope) < 1e-10


def test_cat_parity_validation():
    with pytest.raises(TomogramError):
        qt.cat_tomogram(1 + 0j, "mixed", TomographyFrame(1, 1), 0.0, 1.0)
    for cat in (st.CatEven, st.CatOdd):
        with pytest.raises(ValueError):
            cat(1.0, varpi=-1.0)


# ---------------------------------------------------------------------------
# quadrature route dispatch and special frames
# ---------------------------------------------------------------------------

def test_position_marginal_pointwise():
    x = np.linspace(-5, 5, 501)
    fr = TomographyFrame(1, 0)
    for state in (st.HOEigen(3), st.Coherent(1 + 0j), st.CatOdd(0.9), st.Superposition(0, 2)):
        tom = qt.tomogram_from_wavefunction(state, fr, x, 0.8)
        psi = st.position_wavefunction(state, 0.8)(x)
        assert np.max(np.abs(tom.values - np.abs(psi) ** 2)) < 1e-12


def test_scaled_position_frame():
    x = np.linspace(-5, 5, 301)
    fr = TomographyFrame(-2.0, 0.0)
    state = st.HOEigen(2)
    tom = qt.tomogram_from_wavefunction(state, fr, x, 1.0)
    psi = st.position_wavefunction(state, 1.0)(x / -2.0)
    assert np.max(np.abs(tom.values - np.abs(psi) ** 2 / 2.0)) < 1e-12


def test_momentum_marginal_pointwise():
    x = np.linspace(-5, 5, 501)
    fr = TomographyFrame(0, 1)
    for state in (st.HOEigen(3), st.Coherent(0.5 + 0.5j)):
        tom = qt.tomogram_from_wavefunction(state, fr, x, 0.8)
        ft = st.momentum_wavefunction(state, 0.8)(x)
        assert np.max(np.abs(tom.values - np.abs(ft) ** 2)) < 1e-12


def test_sampled_marginals_integrate_one_interpolant():
    # every frame integrates the same linear interpolant, whose squared norm
    # sum (|a|^2 + Re a b* + |b|^2) dx/3 over the cells differs from the
    # samples' trapezoid norm (1); at mu = 0 the tomogram is |psihat|^2 of
    # that interpolant
    x = np.linspace(-8, 8, 401)
    psi = np.exp(-(x - 0.4) ** 2 / 2.0 + 0.8j * x)
    psi /= math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))
    a, b = psi[:-1], psi[1:]
    norm2 = float(np.sum(np.abs(a) ** 2 + (a * b.conj()).real + np.abs(b) ** 2)) * (x[1] - x[0]) / 3.0
    assert abs(norm2 - 1.0) > 1e-4
    state = st.CustomGrid(x, psi)
    for mu, nu in ((0.0, 1.0), (1.0, 0.0), (0.6, 0.8)):
        fr = TomographyFrame(mu, nu)
        g = qt.default_x_grid(state, fr, 1.0, count=16001)
        tom = qt.tomogram_from_wavefunction(state, fr, g, 1.0)
        mass = np.trapezoid(tom.values, g)
        assert abs(mass - norm2) < 1e-6, (fr, mass - norm2)
        if mu == 0.0:
            ref = np.abs(state.momentum_wavefunction(1.0)(g)) ** 2
            assert np.max(np.abs(tom.values - ref)) < 1e-5 * np.max(ref)


def test_sampled_oblique_tomogram_against_mpmath():
    # oracle: the interpolant amplitude by mpmath quadrature, cell by cell, at
    # five X of two oblique frames; it shares neither the Gauss-Legendre
    # nodes nor the exponential sum of the quadrature route
    from mpmath import fp

    x = np.linspace(-6, 6, 81)
    psi = np.exp(-(x - 0.3) ** 2 / 1.5 + 0.5j * x)
    psi /= math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))
    state = st.CustomGrid(x, psi)
    hbar = 0.8
    for fr in (TomographyFrame(0.6, 0.8), TomographyFrame(-1.1, 0.45)):
        g = qt.default_x_grid(state, fr, hbar, count=401)
        tom = qt.tomogram_from_wavefunction(state, fr, g, hbar).values
        a = fr.mu / (2 * hbar * fr.nu)
        for i in (60, 140, 200, 260, 340):
            b = -g[i] / (hbar * fr.nu)
            amp = 0j
            for n in range(x.size - 1):
                x0, x1, p0, p1 = float(x[n]), float(x[n + 1]), complex(psi[n]), complex(psi[n + 1])
                amp += fp.quad(lambda y: (p0 * (x1 - y) + p1 * (y - x0)) / (x1 - x0)
                               * fp.expj(a * y * y + b * y), [x0, x1])
            ref = abs(amp) ** 2 / (2 * math.pi * hbar * abs(fr.nu))
            assert abs(tom[i] - ref) < 1e-5 * np.max(tom), (fr, i)


def interpolant_amplitude(x, psi, a, b):
    """Oracle: int psi_lin(y) e^{i(a y^2 + b y)} dy of the linear interpolant
    by mpmath quadrature, one sample cell at a time."""
    from mpmath import fp

    amp = 0j
    for n in range(x.size - 1):
        x0, x1, p0, p1 = float(x[n]), float(x[n + 1]), complex(psi[n]), complex(psi[n + 1])
        amp += fp.quad(lambda y: (p0 * (x1 - y) + p1 * (y - x0)) / (x1 - x0)
                       * fp.expj(a * y * y + b * y), [x0, x1])
    return amp


@pytest.mark.parametrize("count", [81, 161, 321])
def test_sampled_tomogram_panels_end_on_the_sample_grid(count):
    # panels that straddle the interpolant's kinks left 1.5e-6 of peak at
    # this frame whatever the sample count; panels on the sample grid
    # integrate a smooth function in each cell
    x = np.linspace(-6, 6, count)
    psi = np.exp(-(x - 0.3) ** 2 / 1.5 + 0.5j * x)
    psi /= math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))
    state, hbar, fr = st.CustomGrid(x, psi), 0.8, TomographyFrame(-1.1, 0.45)
    g = qt.default_x_grid(state, fr, hbar, count=401)
    tom = qt.tomogram_from_wavefunction(state, fr, g, hbar).values
    a = fr.mu / (2 * hbar * fr.nu)
    for i in (60, 140, 200, 260, 340):
        amp = interpolant_amplitude(x, psi, a, -g[i] / (hbar * fr.nu))
        ref = abs(amp) ** 2 / (2 * math.pi * hbar * abs(fr.nu))
        assert abs(tom[i] - ref) < 1e-10 * np.max(tom), i


@dataclass(frozen=True)
class SqueezedGaussian(st.State):
    """psi(y) = (pi s^2)^(-1/4) exp(-y^2/(2 s^2)), a state known only to this file."""

    s: float

    def position_wavefunction(self, hbar):
        amp = (math.pi * self.s ** 2) ** -0.25
        return lambda y: amp * np.exp(-np.asarray(y, float) ** 2 / (2 * self.s ** 2)) + 0j

    def momentum_wavefunction(self, hbar):
        amp = (self.s ** 2 / (math.pi * hbar ** 2)) ** 0.25
        return lambda p: amp * np.exp(-(np.asarray(p, float) * self.s / hbar) ** 2 / 2) + 0j

    def natural_scales(self, hbar):
        return self.s, hbar / self.s

    def position_extent(self, hbar, tails=8.0):
        return -tails * self.s, tails * self.s

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        return -tails * hbar / self.s, tails * hbar / self.s

    def envelope_scale(self, hbar):
        return self.s


def test_state_protocol_carries_a_new_state():
    # a Gaussian of variance mu^2 s^2/2 + nu^2 hbar^2/(2 s^2) in every frame
    state, hbar = SqueezedGaussian(0.4), 0.5

    def analytic(fr, x):
        var = fr.mu ** 2 * state.s ** 2 / 2 + fr.nu ** 2 * hbar ** 2 / (2 * state.s ** 2)
        return np.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)

    # (0.6, 0.8) integrates on the position side, (1.5, 0.1) on the momentum side
    for fr in (TomographyFrame(0.6, 0.8), TomographyFrame(1.5, 0.1)):
        x = qt.default_x_grid(state, fr, hbar)
        ref = analytic(fr, x)
        tom = qt.state_tomogram(state, fr, x, hbar)
        assert np.max(np.abs(tom.values - ref)) < 1e-6 * np.max(ref)
    grid = np.linspace(-2, 2, 5)
    x = np.linspace(-12, 12, 961)
    for mu in grid:
        for nu in grid:
            if mu == 0.0 and nu == 0.0:
                continue
            fr = TomographyFrame(mu, nu)
            ref = analytic(fr, x)
            tom = qt.state_tomogram(state, fr, x, hbar)
            assert np.max(np.abs(tom.values - ref)) < 1e-6 * np.max(ref)
    # the family carries G(mu, nu) = int W e^{iX} dX = exp(-var/2), 1 at the zero frame
    fam = qt.build_state_family(state, hbar, grid, grid, x)
    var = grid[:, None] ** 2 * state.s ** 2 / 2 + grid[None, :] ** 2 * hbar ** 2 / (2 * state.s ** 2)
    assert np.max(np.abs(fam.values - np.exp(-var / 2))) < 1e-6


def test_zero_frame_atom():
    x = np.linspace(-1, 1, 21)
    for tom in (qt.tomogram_from_wavefunction(st.HOEigen(0), TomographyFrame(0, 0), x, 1.0),
                qt.state_tomogram(st.BoxEigen(3, 1.0), TomographyFrame(0, 0), x, 1.0)):
        assert len(tom.atoms) == 1
        assert tom.atoms[0].weight == 1.0 and tom.atoms[0].location == 0.0


def test_momentum_side_dispatch_matches_closed_form():
    # |mu| sigma_q > |nu| sigma_p forces the Fourier-side integral
    fr = TomographyFrame(2.0, 0.1)
    x = np.linspace(-4, 4, 81)
    tom = qt.tomogram_from_wavefunction(st.HOEigen(3), fr, x, 1.0)
    ref = qt.hermite_tomogram(3, fr, x, 1.0)
    assert np.max(np.abs(tom.values - ref)) < 1e-6


def test_homogeneity_of_quadrature_route():
    state = st.HOEigen(2)
    fr = TomographyFrame(0.7, 0.9)
    lam = -2.0
    x = np.linspace(-3, 3, 41)
    w1 = qt.tomogram_from_wavefunction(state, fr, x, 1.0).values
    xl = np.sort(lam * x)
    w2 = qt.tomogram_from_wavefunction(state, fr.scaled(lam), xl, 1.0).values[::-1]
    assert np.max(np.abs(w2 - w1 / abs(lam))) < 1e-8


def test_closed_form_homogeneity(rng):
    for lam in (-2.0, 0.5, 3.0):
        fr = TomographyFrame(0.8, -0.5)
        frl = fr.scaled(lam)
        for state, fn in [
            (st.HOEigen(4), lambda f, X: qt.hermite_tomogram(4, f, X, 0.7)),
            (st.Coherent(1 + 1j), lambda f, X: qt.coherent_tomogram(1 + 1j, f, X, 0.7)),
            (st.CatEven(1.0), lambda f, X: qt.cat_tomogram(1 + 0j, "even", f, X, 0.7)),
        ]:
            X = rng.uniform(-2, 2, size=20)
            assert np.max(np.abs(fn(frl, lam * X) - fn(fr, X) / abs(lam))) < 1e-8


def test_nonnegativity_random_frames(rng):
    states = [st.HOEigen(6), st.Coherent(1 + 0.5j), st.CatOdd(1.1), st.Superposition(2, 5)]
    for _ in range(100):
        fr = random_frame(rng)
        state = states[int(rng.integers(0, len(states)))]
        x = qt.default_x_grid(state, fr, 0.9, count=201)
        tom = qt.state_tomogram(state, fr, x, 0.9)
        assert np.min(tom.values) >= -1e-10


# ---------------------------------------------------------------------------
# box states
# ---------------------------------------------------------------------------

def test_box_position_marginal_exact():
    L, n = 1.0, 5
    fr = TomographyFrame(1, 0)
    x = np.linspace(-0.2, 1.2, 701)
    tom = qt.box_tomogram(n, L, fr, x, 1.0)
    inside = (x >= 0) & (x <= L)
    ref = np.where(inside, 2.0 / L * np.sin(n * math.pi * x / L) ** 2, 0.0)
    assert np.max(np.abs(tom.values - ref)) < 1e-12


def test_box_normalization():
    L = 1.0
    for n in (5, 20, 50):
        hbar = qt.ehrenfest_hbar(n, L)
        fr = TomographyFrame(1.0, 0.4)
        lo, hi = st.BoxEigen(n, L).x_extent(fr, hbar, mass_tol=2e-5)
        dx = 2.0 * math.pi * hbar * 0.4 / L / 14.0
        x = np.arange(lo, hi, dx)
        tom = qt.box_tomogram(n, L, fr, x, hbar)
        assert normalization_residual(tom) < 1e-4


def test_box_prefactor_reconciliation():
    # the general prefactor equals n/(4 L^2 sqrt2 |nu|) under hbar = sqrt2 L/(n pi)
    n, L, nu = 7, 1.0, 0.6
    hbar = qt.ehrenfest_hbar(n, L)
    general = 1.0 / (4.0 * math.pi * L * hbar * abs(nu))
    ehrenfest_form = n / (4.0 * L ** 2 * math.sqrt(2.0) * abs(nu))
    assert abs(general / ehrenfest_form - 1.0) < 1e-14


def test_box_quadrature_vs_stationary_phase_windows():
    # windowed averages of the two routes agree within 10 percent
    from tomolab.limits import windowed_average

    n, L = 51, 1.0
    hbar = qt.ehrenfest_hbar(n, L)
    fr = TomographyFrame(1.0, 0.3)
    period = L / n
    for c in (0.2, 0.7, 1.1):
        centers = np.array([c])
        avg_sp = windowed_average(
            lambda X: np.asarray(qt.box_tomogram_stationary_phase(n, L, fr, X)),
            centers, period, samples_per_window=32)[0]
        avg_q = windowed_average(
            lambda X: qt.box_tomogram(n, L, fr, X, hbar).values,
            centers, period, samples_per_window=32)[0]
        assert abs(avg_q / avg_sp - 1.0) < 0.10


def test_box_stationary_phase_branches():
    n, L = 20, 1.0
    fr = TomographyFrame(1.0, 0.3)
    s2 = math.sqrt(2)
    # single branch active -> 1/(2 |mu| L)
    X_single = s2 * 0.3 + 0.5  # Qs- inside, Qs+ = X + s2*0.3 > L
    assert abs(qt.box_tomogram_stationary_phase(n, L, fr, X_single) - 0.5) < 1e-12
    # both branches outside -> 0
    assert qt.box_tomogram_stationary_phase(n, L, fr, 5.0) == 0.0
    with pytest.raises(TomogramError):
        qt.box_tomogram_stationary_phase(n, L, TomographyFrame(0, 1), 0.0)
    with pytest.raises(TomogramError):
        qt.box_tomogram_stationary_phase(5, L, fr, 0.0)


def test_box_exact_matches_position_quadrature():
    # the generic quadrature of the box wave function: position-side frames
    # on 1501 points, and momentum-side ones (|nu| sigma_p < |mu| sigma_q),
    # slower and limited by the power-law momentum tails, on 401
    L = 1.0
    cases = [("position", n, fr, 1501, 1e-8) for n in (3, 20, 50)
             for fr in (TomographyFrame(0.8, 0.45), TomographyFrame(-1.3, 0.6))]
    cases += [("momentum", n, fr, 401, 1e-5) for n in (1, 5)
              for fr in (TomographyFrame(1.0, 0.1), TomographyFrame(-1.2, 0.25))]
    for side, n, fr, count, tol in cases:
        state = st.BoxEigen(n, L)
        hbar = qt.ehrenfest_hbar(n, L)
        sq, sp = st.natural_scales(state, hbar)
        assert (abs(fr.nu) * sp < abs(fr.mu) * sq) == (side == "momentum")
        x = np.linspace(*state.x_extent(fr, hbar), count)
        exact = qt.box_tomogram(n, L, fr, x, hbar).values
        quad = qt.tomogram_from_wavefunction(state, fr, x, hbar).values
        assert np.max(np.abs(exact - quad)) < tol * np.max(quad), (n, fr)


def test_box_large_n_mass_and_plateaus():
    # n = 2000 at unit energy; the exact route costs the same at every n
    from tomolab.limits import windowed_average

    n, L = 2000, 1.0
    hbar = qt.ehrenfest_hbar(n, L)
    fr = TomographyFrame(1.0, 0.3)
    lo, hi = st.BoxEigen(n, L).x_extent(fr, hbar, mass_tol=1e-5)
    x = np.arange(lo, hi, 2 * math.pi * hbar * abs(fr.nu) / (14 * L))
    assert normalization_residual(qt.box_tomogram(n, L, fr, x, hbar)) < 1e-5
    # edge-diffraction cross terms oscillate with period 2 pi hbar nu / |y_edge - y_s|,
    # several fringe periods, and move one-period means by up to ~6 % here; a
    # window of 20 fringe periods averages them out as well
    period = abs(fr.mu) * L / n
    for c in (0.1, 0.3, 0.7, 0.8, 1.2):
        centers = np.array([c])
        avg_sp = windowed_average(
            lambda X: np.asarray(qt.box_tomogram_stationary_phase(n, L, fr, X)),
            centers, period, periods=20)[0]
        avg_ex = windowed_average(
            lambda X: qt.box_tomogram(n, L, fr, X, hbar).values,
            centers, period, periods=20)[0]
        assert abs(avg_ex / avg_sp - 1.0) < 0.01, c


def mp_interval_chirp(a: float, b: float, L: float) -> complex:
    """Oracle: mpmath.quad of int_0^L exp(i(a y^2 + b y)) dy, split at the
    stationary point and into pieces of at most ~30 pi of phase."""
    import mpmath as mp

    with mp.workdps(20):
        edges = [0.0, L]
        if a != 0.0 and 0.0 < -b / (2 * a) < L:
            edges.insert(1, -b / (2 * a))
        total = mp.mpc(0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            m = int(math.ceil((2 * abs(a) * L + abs(b)) * (hi - lo) / (30 * math.pi))) + 1
            pts = [lo + (hi - lo) * k / m for k in range(m + 1)]
            total += mp.quad(lambda y: mp.expj(a * y * y + b * y), pts, method="gauss-legendre")
        return complex(total)


def test_interval_chirp_against_mpmath():
    cases = [  # (a, L, b values)
        (3.0, 1.0, [5.0, -2.0, -10.0, 0.0, -6.0, 300.0, -1e-9]),  # y_s left, inside, right, at the ends
        (-3.0, 1.0, [2.0, -5.0, 7.0, 0.0, 6.0]),                  # a < 0
        (0.0, 1.0, [0.0, 3.7, 1e-9, -40.0]),                      # a == 0
        (0.7, 2.5, [-1.0, 1.0, -4.0]),
        (1e-14, 1.0, [0.0, 3.0]),
        (1e-12, 1.0, [0.0, 2.0, -1e-6]),
        (-1e-9, 1.0, [0.0, 5e-10, -3.0]),
        (1e-6, 1.0, [0.0, -1e-6, 0.5]),
        (1e-3, 1.0, [0.0, -1e-3, 20.0]),
        (1e2, 1.0, [-40.0, -250.0, 15.0]),
        (1e4, 1.0, [-8e3]),
    ]
    for a, L, bs in cases:
        got = qt.interval_chirp(a, np.array(bs), L)
        for b, g in zip(bs, got):
            ref = mp_interval_chirp(a, b, L)
            scale = max(abs(ref), 1.0 / math.sqrt(abs(a))) if a else abs(ref)
            assert abs(g - ref) <= 1e-11 * scale, (a, b, L, g, ref)
            # tiny |a| L^2 drops the quadratic phase instead of cancelling O(1) terms
            assert abs(g - ref) <= 1e-10 * abs(ref), (a, b, L, g, ref)


def _loop_panels(coarse, dphase, env_scale):
    """The per-cell loop that _gl_panels replaced, for uniform cells."""
    from tomolab.quantum import _GL_NODES, _GL_WEIGHTS, _PHASE_PER_PANEL

    cell_w = (coarse[-1] - coarse[0]) / (coarse.size - 1)
    nsplit = np.maximum(np.maximum(np.ceil(dphase / _PHASE_PER_PANEL),
                                   np.ceil(cell_w / (0.5 * env_scale))), 1).astype(int)
    edges = [coarse[:1]]
    for j, k in enumerate(nsplit):
        edges.append(np.linspace(coarse[j], coarse[j + 1], k + 1)[1:])
    edges = np.concatenate(edges)
    centers, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return ((centers[:, None] + halves[:, None] * _GL_NODES).ravel(),
            (halves[:, None] * _GL_WEIGHTS).ravel())


def test_gl_panels_match_the_cell_loop_on_uniform_cells(rng):
    from tomolab.quantum import _gl_panels

    for _ in range(300):
        y0 = rng.uniform(-50.0, 10.0)
        coarse = np.linspace(y0, y0 + rng.uniform(1e-3, 80.0), 65)
        dphase = np.abs(rng.normal(size=64)) * rng.uniform(0.0, 40.0)
        env = rng.uniform(0.01, 10.0)
        nodes, weights = _gl_panels(coarse, dphase, env)
        ref_nodes, ref_weights = _loop_panels(coarse, dphase, env)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_gl_panels_integrate_degree_15_on_nonuniform_cells(rng):
    from tomolab.quantum import _gl_panels

    for _ in range(20):
        coarse = np.cumsum(np.concatenate(([rng.uniform(-3.0, 0.0)], rng.uniform(1e-6, 0.7, 40))))
        dphase = rng.uniform(0.0, 3.0, coarse.size - 1)
        nodes, weights = _gl_panels(coarse, dphase, rng.uniform(0.05, 5.0))
        poly = np.polynomial.Polynomial(rng.normal(size=16))
        exact = poly.integ()(coarse[-1]) - poly.integ()(coarse[0])
        scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(np.max(np.abs(coarse)))
        assert abs(weights @ poly(nodes) - exact) < 1e-13 * scale


def test_chirp_resolution_refusal():
    with pytest.raises(ChirpResolutionError) as err:
        chirp_integral(lambda y: np.ones_like(y), 1e7, 0.0, 0.0, 1.0)
    assert err.value.needed > err.value.allowed


def test_chirp_integral_matches_the_closed_form_and_mpmath():
    # stationary point -b/2a inside [0, L], at its ends and outside it
    for a in (-40.0, -3.0, 0.5, 7.0, 150.0):
        for b in (-60.0, -5.0, 0.0, 2.0, 33.0):
            for L in (0.5, 1.0, 2.5):
                got = chirp_integral(lambda y: np.ones_like(y), a, b, 0.0, L)
                for ref in (complex(qt.interval_chirp(a, np.array([b]), L)[0]),
                            mp_interval_chirp(a, b, L)):
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (a, b, L, got, ref)


def test_chirp_integral_of_a_gaussian_envelope():
    # int e^{-y^2} e^{i(a y^2 + b y)} dy = sqrt(pi/(1 - i a)) e^{-b^2/(4(1 - i a))}
    for a in (-40.0, -3.0, 0.0, 0.5, 7.0, 150.0):
        for b in (-60.0, -5.0, 0.0, 2.0, 33.0):
            got = chirp_integral(lambda y: np.exp(-y * y), a, b, -12.0, 12.0)
            ref = cmath.sqrt(math.pi / (1 - 1j * a)) * cmath.exp(-b * b / (4 * (1 - 1j * a)))
            assert abs(got - ref) <= 1e-13 * math.sqrt(math.pi), (a, b, got, ref)


def test_gl_nodes_are_leggauss_bit_for_bit():
    from tomolab.quantum import _GL_NODES, _GL_WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


# ---------------------------------------------------------------------------
# Wigner maps
# ---------------------------------------------------------------------------

def test_wigner_ground_state_value():
    x = np.linspace(-6, 6, 601)
    rho = qt.rho_grid(st.HOEigen(0), 1.0, x)
    w, _ = qt.wigner_grid_from_density(rho, [0.0, 0.5], [0.0, 0.5], 1.0)
    assert abs(w.values[0, 0] - 2.0) < 1e-3


def test_wigner_symmetry():
    x = np.linspace(-6, 6, 401)
    rho = qt.rho_grid(st.HOEigen(2), 1.0, x)
    for (p, q) in ((0.5, 0.3), (1.2, -0.4)):
        w, _ = qt.wigner_grid_from_density(rho, [q, q + 0.5], [-p, p], 1.0)
        assert abs(w.values[0, 1] - w.values[0, 0]) < 1e-8


def test_wigner_trace():
    x = np.linspace(-7, 7, 561)
    rho = qt.rho_grid(st.HOEigen(1), 1.0, x)
    qg = np.linspace(-5, 5, 101)
    grid, resid = qt.wigner_grid_from_density(rho, qg, qg, 1.0)
    from tomolab.classical import trapezoid2d

    assert abs(trapezoid2d(grid.values, grid.dx, grid.dy) / (2 * math.pi) - 1.0) < 1e-3
    assert resid < 1e-8


def test_wigner_rejects_non_hermitian():
    x = np.linspace(-3, 3, 61)
    vals = np.outer(np.exp(-x * x), np.exp(-x * x)) + 0j
    vals[3, 5] += 0.1
    with pytest.raises(TomogramError):
        qt.wigner_grid_from_density(GridFunction2D(x, x, vals), [0.0, 0.5], [0.0, 0.5], 1.0)


def test_wigner_rejects_nan_density():
    # a NaN residual fails every comparison, so the gate must not read it as small
    rho = qt.rho_grid(st.HOEigen(0), 1.0, np.linspace(-6, 6, 241))
    vals = rho.values.copy()
    vals[120, 120] = np.nan
    bad = GridFunction2D(rho.x_grid, rho.y_grid, vals)
    with pytest.raises(TomogramError):
        qt.wigner_grid_from_density(bad, [0.0, 0.5], [0.0, 0.5], 1.0)


def test_exact_wigner_forms():
    w1 = st.HOEigen(1).exact_wigner(1.0)
    assert abs(w1(0.0, 0.0) + 2.0) < 1e-14  # negative at the origin
    wc = st.Coherent(1 + 0j).exact_wigner(1.0)
    qbar = math.sqrt(2.0)
    assert abs(wc(0.0, qbar) - 2.0) < 1e-14
    assert st.BoxEigen(2, 1.0).exact_wigner(1.0) is None


def test_tomogram_from_wigner_dual_route(rng):
    hbar = 1.0
    state = st.HOEigen(0)
    x = np.linspace(-7, 7, 701)
    rho = qt.rho_grid(state, hbar, x)
    qg = np.linspace(-5.5, 5.5, 221)
    wgrid, _ = qt.wigner_grid_from_density(rho, qg, qg, hbar)
    for _ in range(20):
        fr = random_frame(rng)
        xt = np.linspace(-6, 6, 201)
        tom = qt.tomogram_from_wigner(wgrid, fr, xt, hbar)
        ref = qt.hermite_tomogram(0, fr, xt, hbar)
        assert np.max(np.abs(tom.values - ref)) < 1e-3
        assert normalization_residual(tom) < 1e-3


def test_tomogram_from_wigner_zero_frame():
    x = np.linspace(-3, 3, 121)
    rho = qt.rho_grid(st.HOEigen(0), 1.0, np.linspace(-6, 6, 241))
    qg = np.linspace(-5, 5, 81)
    w, _ = qt.wigner_grid_from_density(rho, qg, qg, 1.0)
    tom = qt.tomogram_from_wigner(w, TomographyFrame(0, 0), x, 1.0)
    assert tom.atoms == (qt.DeltaAtom(1.0, 0.0),) or (
        tom.atoms[0].weight == 1.0 and tom.atoms[0].location == 0.0
    )


def _dual_route_geometry(hbar):
    """The density grid and Wigner q = p grid of the benchmark's dual-route job."""
    s = math.sqrt(hbar)
    return np.linspace(-6 * s, 6 * s, 401), np.linspace(-4.5 * s, 4.5 * s, 161)


@pytest.mark.parametrize("state, bound", [
    # 1/100 of the errors of the earlier interpolated u-grid map
    (st.HOEigen(0), 1.9e-6), (st.HOEigen(1), 4.6e-6), (st.HOEigen(3), 1.05e-5),
    (st.Coherent(0.7 - 0.4j), 4e-6),
])
def test_wigner_from_density_matches_exact_off_the_half_grid(state, bound):
    hbar = 0.5
    x, q = _dual_route_geometry(hbar)
    t = (q - x[0]) / (0.5 * (x[1] - x[0]))
    assert np.mean(np.abs(t - np.round(t)) > 1e-3) > 0.7  # most q sit between half-grid rows
    w, resid = qt.wigner_grid_from_density(qt.rho_grid(state, hbar, x), q, q, hbar)
    ref = state.exact_wigner(hbar)(q[None, :], q[:, None])
    assert np.max(np.abs(w.values - ref)) < bound
    assert resid <= 1e-12


def test_wigner_half_grid_rows_match_the_anti_diagonal_loop(rng):
    # on a half-grid row the map is the trapezoid sum over rho[a, m - a] itself
    x = np.linspace(-2.0, 2.0, 9)
    h = x[1] - x[0]
    vals = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = GridFunction2D(x, x, vals + vals.conj().T)
    q = x[0] + 0.5 * h * np.arange(17)
    p = np.linspace(-1.5, 1.5, 7)
    w, resid = qt.wigner_grid_from_density(rho, q, p, 0.7)
    for m in range(17):
        a = np.arange(max(0, m - 8), min(8, m) + 1)
        wt = np.full(a.size, 2 * h)
        wt[0] -= h
        wt[-1] -= h
        u = (2 * a - m) * h
        ref = [np.sum(wt * rho.values[a, m - a] * np.exp(-1j * pj * u / 0.7)) for pj in p]
        assert np.allclose(w.values[m], np.real(ref), rtol=0, atol=1e-13 * np.max(np.abs(vals)))
    assert resid < 1e-13 * np.max(np.abs(vals))


def test_wigner_residual_is_the_anti_hermitian_part():
    hbar = 0.5
    x, q = _dual_route_geometry(hbar)
    rho = qt.rho_grid(st.HOEigen(1), hbar, x)
    g = np.exp(-x * x / (2 * hbar))
    bad = GridFunction2D(x, x, rho.values + 1e-8j * np.outer(g, g))  # D^dagger = -D
    qt._check_hermitian(bad)  # small enough to pass the Hermiticity gate
    _, clean = qt.wigner_grid_from_density(rho, q, q, hbar)
    _, resid = qt.wigner_grid_from_density(bad, q, q, hbar)
    # Im R peaks at q = p = 0: 1e-8 int g(u/2)^2 du = 1e-8 sqrt(4 pi hbar)
    assert clean <= 1e-12
    assert abs(resid - 1e-8 * math.sqrt(4 * math.pi * hbar)) < 1e-6 * resid


def test_wigner_rows_outside_the_density_grid_are_zero():
    x = np.linspace(-3, 3, 121)
    q = np.linspace(-4, 4, 33)
    w, _ = qt.wigner_grid_from_density(qt.rho_grid(st.HOEigen(0), 1.0, x), q, [-1.0, 0.0, 1.0], 1.0)
    assert np.all(w.values[np.abs(q) > 3] == 0.0)
    assert np.all(w.values[np.abs(q) < 2.5] > 0.0)


def test_wigner_refuses_aliased_momenta():
    x = np.linspace(-6, 6, 241)
    rho = qt.rho_grid(st.HOEigen(0), 1.0, x)
    bound = math.pi * 1.0 / (2 * (x[1] - x[0]))
    qt.wigner_grid_from_density(rho, [0.0, 0.5], [-bound, bound], 1.0)
    with pytest.raises(TomogramError, match=r"pi\*hbar/\(2h\) = 31\.42"):
        qt.wigner_grid_from_density(rho, [0.0, 0.5], [0.0, 1.01 * bound], 1.0)


# ---------------------------------------------------------------------------
# inverse maps
# ---------------------------------------------------------------------------

def test_wigner_from_tomogram_ground_and_excited():
    hbar = 1.0
    mu = np.linspace(-8, 8, 33)
    x = np.linspace(-40, 40, 1601)
    fam0 = qt.build_state_family(st.HOEigen(0), hbar, mu, mu, x)
    qg = np.linspace(-2.5, 2.5, 21)
    rec, resid = qt.wigner_from_tomogram_grid(fam0, qg, qg, hbar)
    ref = st.HOEigen(0).exact_wigner(hbar)(qg[None, :], qg[:, None])
    assert np.max(np.abs(rec.values - ref)) < 1e-3
    assert resid < 1e-6

    fam1 = qt.build_state_family(st.HOEigen(1), hbar, mu, mu, x)
    rec1, _ = qt.wigner_from_tomogram_grid(fam1, [0.0, 0.5], [0.0, 0.5], hbar)
    assert rec1.values[0, 0] < -1.9  # recovered negativity at the origin


def test_wigner_from_tomogram_linearity():
    hbar = 1.0
    mu = np.linspace(-8, 8, 33)
    x = np.linspace(-40, 40, 1601)
    fam0 = qt.build_state_family(st.HOEigen(0), hbar, mu, mu, x)
    fam1 = qt.build_state_family(st.HOEigen(1), hbar, mu, mu, x)
    mix = qt.build_state_family(st.HOEigen(0), hbar, mu, mu, x)
    object.__setattr__(mix, "values", 0.5 * (fam0.values + fam1.values))
    qg, pg = [-0.3, 0.2], [0.4, 0.9]
    wm = qt.wigner_from_tomogram_grid(mix, qg, pg, hbar)[0].values
    w0 = qt.wigner_from_tomogram_grid(fam0, qg, pg, hbar)[0].values
    w1 = qt.wigner_from_tomogram_grid(fam1, qg, pg, hbar)[0].values
    assert np.max(np.abs(wm - 0.5 * (w0 + w1))) < 1e-10


def test_density_from_tomogram_roundtrip():
    hbar = 1.0
    cst = st.Coherent(1 + 0j)
    # the grid covers the coherent wave packet (center sqrt2, width 1/sqrt2)
    # so the diagonal trace captures all the mass
    xs = np.linspace(-2.5, 5.5, 33)
    nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
    slices = qt.build_state_slices(cst, hbar, nus, np.linspace(-8, 8, 41),
                                   np.linspace(-80, 80, 3201))
    rho, herm = qt.density_grid_from_tomogram(slices, xs, hbar)
    psi = st.position_wavefunction(cst, hbar)(xs)
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-3
    assert herm < 1e-10
    # diagonal is the position density; trace is 1
    diag = np.real(np.diag(rho))
    assert np.max(np.abs(diag - np.abs(psi) ** 2)) < 1e-3
    assert abs(np.trapezoid(diag, xs) - 1.0) < 1e-3


def test_density_map_matches_the_pairwise_sum():
    # reference: the per-pair trapezoid mu sum that the vectorised map replaced
    hbar = 0.8
    xs = np.linspace(-2, 2.5, 10)
    nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
    mu = np.linspace(-6, 6, 25)
    fam = qt.build_state_slices(st.CatOdd(0.6 + 0.4j), hbar, nus, mu, np.linspace(-40, 40, 1601))
    rho, _ = qt.density_grid_from_tomogram(fam, xs, hbar)
    w = np.full(mu.size, mu[1] - mu[0])
    w[[0, -1]] *= 0.5
    for a, x in enumerate(xs):
        for b, xp in enumerate(xs):
            j = int(np.argmin(np.abs(fam.nu_grid - (x - xp) / hbar)))
            ref = np.sum(fam.values[:, j] * np.exp(-1j * mu * (x + xp) / 2) * w) / (2 * math.pi)
            assert abs(rho[a, b] - ref) < 1e-13


def test_density_from_tomogram_missing_slice():
    hbar = 1.0
    slices = qt.build_state_slices(st.HOEigen(0), hbar, [0.0, 0.5], np.linspace(-4, 4, 17),
                                   np.linspace(-20, 20, 801))
    # the pair (x, x') = (0.8, 0.1) needs the missing slice nu = 0.7
    with pytest.raises(TomogramError) as err:
        qt.density_grid_from_tomogram(slices, [0.8, 0.1], hbar)
    assert "0.7" in str(err.value)


def test_density_from_tomogram_nyquist_guard():
    hbar = 1.0
    slices = qt.build_state_slices(st.HOEigen(0), hbar, [0.0], np.linspace(-4, 4, 3),
                                   np.linspace(-20, 20, 801))
    with pytest.raises(TomogramError):
        qt.density_grid_from_tomogram(slices, [2.0], hbar)


# ---------------------------------------------------------------------------
# overlap identities
# ---------------------------------------------------------------------------

def test_amplitude_overlap_pairs():
    # int A_psi A_phi^* /(2 pi hbar |nu|) dX = <phi|psi>
    fr = TomographyFrame(0.6, 0.8)
    hbar = 0.7
    x = np.linspace(-25, 25, 5001)
    amps = {n: qt.hermite_amplitude(n, fr, x, hbar) for n in range(9)}
    norm = 2 * math.pi * hbar * abs(fr.nu)

    def overlap(a, b):
        return np.trapezoid(amps[a] * np.conj(amps[b]), x) / norm

    for n in range(9):
        for m in range(9):
            assert abs(overlap(n, m) - (1.0 if n == m else 0.0)) < 1e-6


# ---------------------------------------------------------------------------
# closed-form characteristic functions
# ---------------------------------------------------------------------------

def weyl_overlap(state, mu, nu, hbar):
    """Oracle: G(mu, nu) = <exp(i(mu q + nu p))>
    = int psi*(y - hbar nu/2) psi(y + hbar nu/2) e^{i mu y} dy by mpmath.quad."""
    import mpmath as mp

    psi = st.position_wavefunction(state, hbar)
    h = 0.5 * hbar * nu
    lo, hi = st.position_extent(state, hbar, tails=12.0)

    def integrand(y):
        return complex(np.conj(psi(float(y) - h)) * psi(float(y) + h)) * mp.expj(mu * y)

    return complex(mp.quad(integrand, list(np.linspace(lo - abs(h), hi + abs(h), 5))))


# all four (mu, nu) quadrants and both axes
CHARACTERISTIC_FRAMES = ((0.7, 0.4), (-0.5, 0.9), (-0.8, -0.3), (0.6, -1.1), (1.3, 0.0), (0.0, -1.2))


@pytest.mark.parametrize("state", [
    st.HOEigen(0), st.HOEigen(3, 0.6), st.HOEigen(12),
    st.Superposition(0, 1), st.Superposition(2, 5, 1.7),
    st.Coherent(0.7 - 0.4j), st.Coherent(0.7 - 0.4j, 1.8),
    st.CatEven(0.9 + 0.5j), st.CatOdd(0.9 + 0.5j),
    st.CatEven(-0.6 + 0.8j, 0.5), st.CatOdd(-0.6 + 0.8j, 0.5),
], ids=repr)
def test_characteristic_matches_the_weyl_overlap(state):
    hbar = 0.7
    for mu, nu in CHARACTERISTIC_FRAMES:
        G = qt.build_state_family(state, hbar, [mu], [nu], None).values[0, 0]
        assert abs(G - weyl_overlap(state, mu, nu, hbar)) < 1e-12, (mu, nu)


def test_closed_characteristic_matches_the_tomogram_trapezoid():
    # the per-frame route it replaces: a fine-grid trapezoid of each frame's
    # closed-form tomogram against e^{iX}
    hbar = 0.6
    mu = np.linspace(-3.0, 3.0, 9)
    nu = np.linspace(-2.5, 2.5, 9)
    for state in (st.CatOdd(1.1 - 0.4j, 1.3), st.Superposition(1, 4, 0.8), st.HOEigen(2),
                  st.Coherent(-0.5 + 0.9j)):
        G = qt.build_state_family(state, hbar, mu, nu, None).values
        for i, m in enumerate(mu):
            for j, n in enumerate(nu):
                fr = TomographyFrame(m, n)
                if fr.is_zero:
                    assert G[i, j] == 1.0
                    continue
                x = qt.default_x_grid(state, fr, hbar, count=6001)
                ref = np.trapezoid(qt.state_tomogram(state, fr, x, hbar).values * np.exp(1j * x), x)
                assert abs(G[i, j] - ref) < 1e-10, (state, m, n)


def box_weyl_overlap(n, L, mu, nu, hbar):
    """Oracle: the box Weyl overlap by mpmath quadrature over the overlap of
    the two shifted supports, split at the walls and at every half period of
    sin(k y)."""
    from mpmath import fp

    k, h = n * math.pi / L, 0.5 * hbar * nu
    lo, hi = abs(h), L - abs(h)
    if hi <= lo:
        return 0j

    def integrand(y):
        return (2.0 / L) * math.sin(k * (y - h)) * math.sin(k * (y + h)) * cmath.exp(1j * mu * y)

    return complex(fp.quad(integrand, list(np.linspace(lo, hi, 2 * n + 2 + int(abs(mu) * (hi - lo))))))


@pytest.mark.parametrize("n", [1, 3, 50, 400])
@pytest.mark.parametrize("L", [1.0, 2.5])
def test_box_characteristic_matches_the_weyl_overlap(n, L):
    hbar = 0.7
    for frac in (0.3, 0.999999, 1.2):  # |hbar nu| below, near and above L
        for mu in (0.0, 2.3, -17.0, 2 * n * math.pi / L + 0.4):
            nu = math.copysign(frac * L / hbar, mu if mu else -1.0)
            G = qt.build_state_family(st.BoxEigen(n, L), hbar, [mu], [nu], None).values[0, 0]
            assert abs(G - box_weyl_overlap(n, L, mu, nu, hbar)) < 1e-12, (frac, mu)


def test_large_box_family_matches_the_weyl_overlap():
    # the 105 x 105 family, x grid included, that the per-frame loop once
    # had to refuse (11025 frames x 14866 X)
    hbar = 0.1
    grid = np.linspace(-5.0, 5.0, 105)
    G = qt.build_state_family(st.BoxEigen(3, 1.0), hbar, grid, grid,
                              np.linspace(-80.0, 80.0, 14866)).values
    assert G.shape == (105, 105) and G[52, 52] == 1.0
    for i in (0, 17, 40, 52, 61, 88, 104):
        for j in (3, 30, 52, 70, 101):
            assert abs(G[i, j] - box_weyl_overlap(3, 1.0, grid[i], grid[j], hbar)) < 1e-12, (i, j)


def sampled_weyl_overlap(state, mu, nu, hbar):
    """Oracle: the Weyl overlap of a sampled state's linear interpolant by
    mpmath quadrature, split at the sample points shifted by -+hbar nu/2,
    where each factor is the straight line between its end values."""
    from mpmath import fp

    x, h = state.x_grid, 0.5 * hbar * nu
    psi = st.position_wavefunction(state, hbar)
    lo, hi = x[0] + abs(h), x[-1] - abs(h)
    cuts = np.concatenate((x - h, x + h))
    cuts = np.unique(np.concatenate(([lo, hi], cuts[(cuts > lo) & (cuts < hi)])))
    total = 0j
    for y0, y1 in zip(cuts[:-1], cuts[1:]):
        if y1 == y0:
            continue
        a0, a1 = complex(np.conj(psi(y0 - h))), complex(np.conj(psi(y1 - h)))
        b0, b1 = complex(psi(y0 + h)), complex(psi(y1 + h))
        w = float(y1 - y0)
        total += fp.quad(lambda y: (a0 + (a1 - a0) * (y - y0) / w) * (b0 + (b1 - b0) * (y - y0) / w)
                         * cmath.exp(1j * mu * y), [y0, y1])
    return complex(total)


@pytest.mark.parametrize("count", [81, 281, 1401])
def test_sampled_characteristic_matches_the_weyl_overlap(count):
    # complex samples, nonzero at both ends; shifts hbar nu/2 on and off
    # multiples of the sample spacing; mu = 200 needs many panels per cell
    x = np.linspace(-6.0, 6.0, count)
    psi = np.exp(-(x - 0.3) ** 2 / (2 * 1.7 ** 2) + 0.8j * x + 0.05j * x * x)
    psi /= math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))
    assert min(abs(psi[0]), abs(psi[-1])) > 1e-4
    state, hbar, dx = st.CustomGrid(x, psi), 0.8, x[1] - x[0]
    frames = [(0.7, 2 * 3 * dx / hbar), (-1.3, 0.37), (2.1, -2 * 7 * dx / hbar), (0.0, 1.1),
              (0.9, 0.0), (-4.0, -9.5), (200.0, 0.3)]
    for mu, nu in frames[:3] if count == 1401 else frames:
        G = qt.build_state_family(state, hbar, [mu], [nu], None).values[0, 0]
        assert abs(G - sampled_weyl_overlap(state, mu, nu, hbar)) < 1e-12, (mu, nu)


@pytest.mark.parametrize("state", [
    st.HOEigen(0), st.HOEigen(7, 0.6), st.Superposition(2, 5, 1.7), st.Coherent(0.7 - 0.4j, 1.8),
    st.CatEven(0.9 + 0.5j), st.CatOdd(-0.6 + 0.8j, 0.5),
], ids=repr)
def test_overlap_quadrature_matches_the_closed_characteristic(state):
    hbar = 0.7
    mu = np.linspace(-3.0, 3.0, 7)
    nu = np.linspace(-2.5, 2.5, 7)
    closed = qt.build_state_family(state, hbar, mu, nu, None).values
    quad = qt._overlap_characteristic(state, mu, nu, hbar)
    assert np.max(np.abs(quad - closed)) < 1e-12
