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


def test_coherent_amplitude_alpha_zero_reduces():
    fr = TomographyFrame(1.0, 0.5)
    assert abs(qt.coherent_amplitude(0j, fr, 0.3, 1.0)
               - qt.hermite_amplitude(0, fr, 0.3, 1.0)) < 1e-14


def test_tomogram_amplitude_consistency():
    fr = TomographyFrame(0.6, 0.8)
    X, hbar = 0.4, 0.7
    for state in (st.HOEigen(2), st.Coherent(0.9 + 0.2j), st.Superposition(0, 3),
                  st.CatEven(1.1), st.BoxEigen(3, 1.0)):
        amp = qt.tomogram_amplitude(state, fr, X, hbar)
        density = abs(amp) ** 2 / (2.0 * math.pi * hbar * abs(fr.nu))
        tom = qt.state_tomogram(state, fr, np.array([X - 0.01, X, X + 0.01]), hbar)
        assert abs(density - tom.values[1]) < 1e-8 * max(tom.values[1], 1e-10)


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
    # mass-times-frequency away from 1 exercises every zeta = varpi nu + i mu
    for _ in range(5):
        varpi = float(rng.uniform(0.4, 2.5))
        hbar = float(rng.uniform(0.3, 1.5))
        fr = TomographyFrame(float(rng.uniform(-2, 2)),
                             float(rng.choice([-1, 1]) * rng.uniform(0.3, 2)))
        n = int(rng.integers(0, 6))
        state = st.HOEigen(n, varpi)
        x = qt.default_x_grid(state, fr, hbar, count=41)
        tq = qt.tomogram_from_wavefunction(state, fr, x, hbar)
        wc = qt.hermite_tomogram(n, fr, x, hbar, varpi)
        assert np.max(np.abs(tq.values - wc)) < 1e-9 * np.max(wc)

        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        cstate = st.Coherent(alpha, varpi)
        x = qt.default_x_grid(cstate, fr, hbar, count=41)
        tq = qt.tomogram_from_wavefunction(cstate, fr, x, hbar)
        wc = qt.coherent_tomogram(alpha, fr, x, hbar, varpi)
        assert np.max(np.abs(tq.values - wc)) < 1e-9 * np.max(wc)
    # superposition with varpi stays a normalized density
    fr = TomographyFrame(0.7, -0.9)
    x = np.linspace(-8, 8, 2001)
    w = qt.superposition_tomogram(1, 4, fr, x, 0.8, varpi=1.7)
    assert np.min(w) >= 0.0
    assert abs(np.trapezoid(w, x) - 1.0) < 1e-8


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
    tom = qt.tomogram_from_wavefunction(st.HOEigen(0), TomographyFrame(0, 0), x, 1.0)
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
        lo, hi = qt.box_x_extent(st.BoxEigen(n, L), fr, hbar, mass_tol=2e-5)
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
    # the generic position-side quadrature of the box wave function
    L = 1.0
    for n in (3, 20, 50):
        hbar = qt.ehrenfest_hbar(n, L)
        psi = st.position_wavefunction(st.BoxEigen(n, L), hbar)
        for fr in (TomographyFrame(0.8, 0.45), TomographyFrame(-1.3, 0.6)):
            x = np.linspace(*qt.box_x_extent(st.BoxEigen(n, L), fr, hbar), 1501)
            exact = qt.box_tomogram(n, L, fr, x, hbar).values
            amps = qt._ladder_amplitudes(psi, fr.mu / (2 * hbar * fr.nu), -1 / (hbar * fr.nu),
                                         x, 0.0, L, L / max(8.0, n))
            quad = np.abs(amps) ** 2 / (2 * math.pi * hbar * abs(fr.nu))
            assert np.max(np.abs(exact - quad)) < 1e-8 * np.max(quad), (n, fr)


def test_box_large_n_mass_and_plateaus():
    # n = 2000 at unit energy; the exact route costs the same at every n
    from tomolab.limits import windowed_average

    n, L = 2000, 1.0
    hbar = qt.ehrenfest_hbar(n, L)
    fr = TomographyFrame(1.0, 0.3)
    lo, hi = qt.box_x_extent(st.BoxEigen(n, L), fr, hbar, mass_tol=1e-5)
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


def test_chirp_resolution_refusal():
    with pytest.raises(ChirpResolutionError) as err:
        chirp_integral(lambda y: np.ones_like(y), 1e7, 0.0, 0.0, 1.0, max_panels=100)
    assert err.value.needed > 100


# ---------------------------------------------------------------------------
# Wigner maps
# ---------------------------------------------------------------------------

def test_wigner_ground_state_value():
    x = np.linspace(-6, 6, 601)
    rho = qt.rho_grid(st.HOEigen(0), 1.0, x)
    assert abs(qt.wigner_from_density(rho, 0.0, 0.0, 1.0) - 2.0) < 1e-3


def test_wigner_symmetry():
    x = np.linspace(-6, 6, 401)
    rho = qt.rho_grid(st.HOEigen(2), 1.0, x)
    for (p, q) in ((0.5, 0.3), (1.2, -0.4)):
        a = qt.wigner_from_density(rho, p, q, 1.0)
        b = qt.wigner_from_density(rho, -p, q, 1.0)
        assert abs(a - b) < 1e-8


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
        qt.wigner_from_density(GridFunction2D(x, x, vals), 0.0, 0.0, 1.0)


def test_exact_wigner_forms():
    w1 = qt.exact_wigner(st.HOEigen(1), 1.0)
    assert abs(w1(0.0, 0.0) + 2.0) < 1e-14  # negative at the origin
    wc = qt.exact_wigner(st.Coherent(1 + 0j), 1.0)
    qbar = math.sqrt(2.0)
    assert abs(wc(0.0, qbar) - 2.0) < 1e-14
    assert qt.exact_wigner(st.BoxEigen(2, 1.0), 1.0) is None


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
    ref = qt.exact_wigner(st.HOEigen(0), hbar)(qg[None, :], qg[:, None])
    assert np.max(np.abs(rec.values - ref)) < 1e-3
    assert resid < 1e-6

    fam1 = qt.build_state_family(st.HOEigen(1), hbar, mu, mu, x)
    w_origin = qt.wigner_from_tomogram(fam1, 0.0, 0.0, hbar)
    assert w_origin < -1.9  # recovered negativity


def test_wigner_from_tomogram_linearity():
    hbar = 1.0
    mu = np.linspace(-8, 8, 33)
    x = np.linspace(-40, 40, 1601)
    fam0 = qt.build_state_family(st.HOEigen(0), hbar, mu, mu, x)
    fam1 = qt.build_state_family(st.HOEigen(1), hbar, mu, mu, x)
    mix = qt.build_state_family(st.HOEigen(0), hbar, mu, mu, x)
    object.__setattr__(mix, "values", 0.5 * (fam0.values + fam1.values))
    p, q = 0.4, -0.3
    wm = qt.wigner_from_tomogram(mix, p, q, hbar)
    w0 = qt.wigner_from_tomogram(fam0, p, q, hbar)
    w1 = qt.wigner_from_tomogram(fam1, p, q, hbar)
    assert abs(wm - 0.5 * (w0 + w1)) < 1e-10


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
    with pytest.raises(TomogramError) as err:
        qt.density_from_tomogram(slices, 0.8, 0.1, hbar)
    assert "0.7" in str(err.value)


def test_density_from_tomogram_nyquist_guard():
    hbar = 1.0
    slices = qt.build_state_slices(st.HOEigen(0), hbar, [0.0], np.linspace(-4, 4, 3),
                                   np.linspace(-20, 20, 801))
    with pytest.raises(TomogramError):
        qt.density_from_tomogram(slices, 2.0, 2.0, hbar)


# ---------------------------------------------------------------------------
# overlap identities
# ---------------------------------------------------------------------------

def test_amplitude_overlap_pairs():
    # int A_psi A_phi^* /(2 pi hbar |nu|) dX = <phi|psi>
    fr = TomographyFrame(0.6, 0.8)
    hbar = 0.7
    alpha = 0.6 + 0.3j
    x = np.linspace(-25, 25, 5001)
    amps = {n: qt.hermite_amplitude(n, fr, x, hbar) for n in range(9)}
    amps["coh"] = qt.coherent_amplitude(alpha, fr, x, hbar)
    norm = 2 * math.pi * hbar * abs(fr.nu)

    def overlap(a, b):
        return np.trapezoid(amps[a] * np.conj(amps[b]), x) / norm

    for n in range(9):
        for m in range(9):
            assert abs(overlap(n, m) - (1.0 if n == m else 0.0)) < 1e-6
    for n in range(9):
        ref = cmath.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
        assert abs(overlap("coh", n) - ref) < 1e-6
    assert abs(overlap("coh", "coh") - 1.0) < 1e-6
