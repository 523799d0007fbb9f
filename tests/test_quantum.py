import cmath
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from tomolab import quantum as qt
from tomolab import states as st
from tomolab.chirp import chirp_integral
from tomolab.classical import FrameSamples
from tomolab.kernel import (
    GridFunction2D,
    TomographyFrame,
    TomogramError,
    frame_from_scaling,
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
# amplitudes
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


def test_hermite_amplitude_in_a_frame_whose_squared_length_overflows():
    # X^2 in the Gaussian phase once overflowed: |A|^2 read 0 at X = 1e160, with a RuntimeWarning
    fr, X = TomographyFrame(1e160, 1.0), np.array([0.0, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = np.abs(qt.hermite_amplitude(2, fr, X, 1.0)) ** 2 / (2 * math.pi * abs(fr.nu))
    assert w == pytest.approx(qt.hermite_tomogram(2, fr, X, 1.0), rel=1e-12)


def test_amplitude_requires_nu():
    with pytest.raises(TomogramError):
        qt.hermite_amplitude(0, TomographyFrame(1, 0), 0.0, 1.0)


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


_ALPHA_AT_MILLI_HBAR = cmath.rect(1.0 / math.sqrt(2e-3), 0.4)  # |alpha| sqrt(2 hbar) = 1


@pytest.mark.parametrize("state, hbar", [
    (st.Superposition(1, 4, 1.7), 0.8), (st.Superposition(0, 3, 0.6), 0.3),
    (st.CatEven(0.9 - 0.5j, 1.4), 0.6), (st.CatOdd(-0.4 + 1.1j, 0.6), 0.9),
    (st.Coherent(1.2 + 0.7j, 2.0), 0.5),
    (st.CatEven(_ALPHA_AT_MILLI_HBAR), 1e-3), (st.CatOdd(_ALPHA_AT_MILLI_HBAR), 1e-3),
    (st.Coherent(_ALPHA_AT_MILLI_HBAR), 1e-3),
], ids=repr)
def test_closed_forms_match_quadrature_in_every_quadrant(state, hbar):
    # the closed forms against the quadrature of the defining integral in
    # all four sign quadrants of (mu, nu) and at nu = 0, within 3 sigma of
    # each coherent peak or across the classically allowed band of Fock states
    sq, sp = st.natural_scales(state, hbar)
    for mu, nu in ((0.6, 0.8), (-0.6, 0.8), (-0.9, -0.5), (1.1, -0.4), (1.3, 0.0), (-0.7, 0.0)):
        fr = TomographyFrame(mu, nu)
        sig = math.hypot(mu * sq, nu * sp)
        if isinstance(state, st.Superposition):
            r = math.sqrt(2.0 * state.max_order() + 1.0) * sig
            grids = [np.linspace(-r, r, 201)]
        else:
            centres = (st.coherent_center(a, hbar, state.varpi) for _, a in state.terms)
            grids = [np.linspace(c - 3.0 * sig, c + 3.0 * sig, 101)
                     for c in (mu * q + nu * p for q, p in centres)]
        for x in grids:
            closed = qt.state_tomogram(state, fr, x, hbar).values
            quad = qt.tomogram_from_wavefunction(state, fr, x, hbar).values
            assert np.max(np.abs(closed - quad)) < 1e-6 * np.max(closed), (mu, nu)


def test_interference_terms_are_what_the_mixtures_miss(rng):
    # superposition = half-half mixture + cross term; cat = N^2 (mixture +- I)
    x = np.linspace(-7.0, 7.0, 1401)
    for _ in range(6):
        fr = random_frame(rng)
        hbar = float(rng.uniform(0.2, 1.5))
        n, m = (int(k) for k in rng.choice(12, size=2, replace=False))
        sup = qt.superposition_tomogram(n, m, fr, x, hbar)
        mix = 0.5 * qt.hermite_tomogram(n, fr, x, hbar) + 0.5 * qt.hermite_tomogram(m, fr, x, hbar)
        cross = qt.superposition_cross_term(n, m, fr, x, hbar)
        assert np.max(np.abs(sup - mix - cross)) < 1e-13 * np.max(sup)
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            N2 = st.cat_normalization(alpha, parity) ** 2
            cat = qt.cat_tomogram(alpha, parity, fr, x, hbar)
            mix = N2 * (qt.coherent_tomogram(alpha, fr, x, hbar) + qt.coherent_tomogram(-alpha, fr, x, hbar))
            interference = sign * N2 * qt.cat_interference(alpha, fr, x, hbar)
            assert np.max(np.abs(cat - mix - interference)) < 1e-13 * np.max(cat)


def test_odd_cat_tends_to_the_first_fock_state():
    # N- (|alpha> - |-alpha>) -> |1> (up to a phase) as alpha -> 0; the odd
    # normalization through expm1 keeps this limit, and alpha = 0 is refused
    fr = TomographyFrame(0.6, -0.8)
    x = np.linspace(-5.0, 5.0, 1001)
    ref = qt.hermite_tomogram(1, fr, x, 0.7)
    for alpha in (1e-7, 1e-7j, -0.6e-7 + 0.8e-7j):
        state = st.CatOdd(alpha)
        w = qt.state_tomogram(state, fr, x, 0.7).values
        assert np.max(np.abs(w - ref)) < 1e-6 * np.max(ref), alpha
        tom = qt.state_tomogram(state, fr, qt.default_x_grid(state, fr, 0.7), 0.7)
        assert normalization_residual(tom) < 1e-6, alpha
    with pytest.raises(ValueError, match="odd cat"):
        st.CatOdd(0j)


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
    # that interpolant, here by the trapezoid rule on 8 and 16 points a cell,
    # Richardson-extrapolated: the samples stay nodes, so each cell's error
    # is a series in its step squared
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
            amps = []
            for per_cell in (8, 16):
                y = np.linspace(x[0], x[-1], per_cell * (x.size - 1) + 1)
                lin = np.interp(y, x, psi.real) + 1j * np.interp(y, x, psi.imag)
                amps.append(np.trapezoid(lin * np.exp(-1j * np.outer(g[::50], y)), y, axis=1))
            ref = np.abs((4.0 * amps[1] - amps[0]) / 3.0) ** 2 / (2.0 * math.pi)
            assert np.max(np.abs(tom.values[::50] - ref)) < 1e-9 * np.max(ref)


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


@pytest.mark.parametrize("a, slope, x, env_scale", [
    (0.7, -1.3, np.array([0.4]), 0.5),                      # one X point
    (-0.7, 2.1, np.array([-1.0, 2.5]), 0.5),                # two X points
    (0.0, 0.05, np.linspace(-2.0, 2.0, 20001), math.inf),   # X points >> panels (64)
    (300.0, 1.0, np.linspace(-0.5, 0.5, 3), math.inf),      # panels (21120) >> X points
])
def test_ladder_amplitudes_match_the_direct_sum_over_their_nodes(a, slope, x, env_scale):
    # the chirp sums against sum_j g_j e^{i(a y_j + b_k) y_j} over the
    # nodes env was called at: equal panels, node r of panel p at y_r + p h
    cells = np.linspace(-3.0, 4.0, 65)
    seen = []

    def env(y):
        seen.append(y)
        return (1.0 + 0.3j * y) * np.exp(-0.5 * (y - 0.4) ** 2)

    amps = qt._ladder_amplitudes(env, a, slope, x, cells, env_scale)
    nodes = seen[0].reshape(-1, 8)
    h = (cells[-1] - cells[0]) / nodes.shape[0]
    assert nodes.shape[0] % (cells.size - 1) == 0
    assert np.max(np.abs(nodes - nodes[0] - h * np.arange(nodes.shape[0])[:, None])) <= 1e-15 * np.max(np.abs(cells))
    g = env(nodes) * (0.5 * h * qt._GL_WEIGHTS)
    direct = np.array([np.sum(g * np.exp(1j * (a * nodes + slope * xk) * nodes)) for xk in x])
    assert np.max(np.abs(amps - direct)) <= 1e-12 * np.sum(np.abs(g))


@pytest.mark.parametrize("state, frame", [
    *[pytest.param(st.Coherent(1.0 + 0j, v), (1.0, 0.5), id=f"{v:g}") for v in (2.3e-308, 1e-300, 1e300)],
    *[pytest.param(st.parse_state(d), (0.0, 2.0), id=d)
      for d in ("ho:n=0,varpi=1.7e308", "coherent:re=1,im=0,varpi=1.7e308",
                "cat:even,re=1,im=0,varpi=1.7e308", "superpos:n=0,m=3,varpi=1.7e308")]])
def test_coherent_tomogram_at_extreme_varpi_keeps_its_mass(state, frame):
    # kappa (X - X_a)^2 once overflowed at varpi = 2.3e-308 and left a
    # normalization residual of 4e-3; sqrt(kappa) (X - X_a) is squared now.
    # At varpi = 1.7e308 the frame (0, 2) maps to (0, 2.6e154), whose
    # mu^2 + nu^2 overflows: |zeta| is taken by hypot.  Underflow stays
    # unchecked: at varpi = 1e300 the X = 0 point's distance squares to 0,
    # which is its value to rounding
    fr = TomographyFrame(*frame)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        tom = qt.state_tomogram(state, fr, qt.default_x_grid(state, fr, 1.0), 1.0)
        assert normalization_residual(tom) < 1e-12


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
    fam = qt.build_state_family(state, hbar, grid, grid)
    var = grid[:, None] ** 2 * state.s ** 2 / 2 + grid[None, :] ** 2 * hbar ** 2 / (2 * state.s ** 2)
    assert np.max(np.abs(fam.values - np.exp(-var / 2))) < 1e-6


@dataclass(frozen=True)
class ClosedGaussian(SqueezedGaussian):
    """SqueezedGaussian with its closed-form characteristic function, exp(-var/2)."""

    def characteristic(self, mu_grid, nu_grid, hbar):
        mu, nu = np.asarray(mu_grid)[:, None], np.asarray(nu_grid)[None, :]
        return np.exp(-(mu ** 2 * self.s ** 2 + nu ** 2 * hbar ** 2 / self.s ** 2) / 4)


def test_a_state_brings_its_own_characteristic_function(monkeypatch):
    # a closed-form G is a method of the state: the family of a subclass
    # defined here is what its characteristic returns, with no entry in
    # quantum, and a state without one takes the Weyl overlap quadrature
    overlaps = []

    def counted(*args, _orig=qt._overlap_characteristic):
        overlaps.append(args[0])
        return _orig(*args)
    monkeypatch.setattr(qt, "_overlap_characteristic", counted)
    hbar, mu, nu = 0.5, np.linspace(-2, 2, 5), np.linspace(-3, 3, 7)
    closed, plain = ClosedGaussian(0.4), SqueezedGaussian(0.4)
    assert type(closed) not in qt._ROUTES
    fam = qt.build_state_family(closed, hbar, mu, nu)
    assert overlaps == []
    assert np.array_equal(fam.values, closed.characteristic(mu, nu, hbar))
    quad = qt.build_state_family(plain, hbar, mu, nu)
    assert overlaps == [plain]
    assert np.max(np.abs(quad.values - fam.values)) < 1e-12


@pytest.mark.parametrize("state", [
    st.HOEigen(2, 1.5), st.Coherent(0.5 - 0.2j), st.CatEven(0.8j, 0.7), st.CatOdd(-0.7),
    st.Superposition(0, 3), st.BoxEigen(2, 1.5)], ids=repr)
def test_each_catalog_family_calls_its_own_characteristic_once(state, monkeypatch):
    calls = []
    cls = type(state)

    def counted(self, *args, _orig=cls.characteristic):
        calls.append(type(self))
        return _orig(self, *args)
    monkeypatch.setattr(cls, "characteristic", counted)
    monkeypatch.setattr(qt, "_overlap_characteristic", None)  # never reached
    grid = np.linspace(-2, 2, 9)
    fam = qt.build_state_family(state, 0.7, grid, grid)
    assert calls == [cls]
    assert fam.values[4, 4] == 1.0 and np.all(np.abs(fam.values) <= 1.0 + 1e-12)


def test_zero_frame_atom():
    x = np.linspace(-1, 1, 21)
    for tom in (qt.tomogram_from_wavefunction(st.HOEigen(0), TomographyFrame(0, 0), x, 1.0),
                qt.state_tomogram(st.BoxEigen(3, 1.0), TomographyFrame(0, 0), x, 1.0)):
        assert len(tom.atoms) == 1
        assert tom.atoms[0].weight == 1.0 and tom.atoms[0].location == 0.0


def test_default_grid_covers_narrow_tomograms():
    # only the zero frame's empty X interval is widened, to +-1: a tomogram
    # narrower than any fixed width (tiny hbar, tiny frame) keeps its extent
    for state, fr, hbar in ((st.HOEigen(2), TomographyFrame(0.6, 0.8), 1e-22),
                            (st.HOEigen(2), TomographyFrame(0.6, 0.8), 1e-300),
                            (st.Coherent(1 + 0.5j), TomographyFrame(1e-12, 0.0), 1.0)):
        x = qt.default_x_grid(state, fr, hbar)
        assert normalization_residual(qt.state_tomogram(state, fr, x, hbar)) < 1e-10
    for state in (st.HOEigen(0), st.Coherent(1 + 0.5j), st.BoxEigen(3, 1.0)):
        x = qt.default_x_grid(state, TomographyFrame(0, 0), 1.0)
        assert x[0] == -1.0 and x[-1] == 1.0
        tom = qt.state_tomogram(state, TomographyFrame(0, 0), x, 1.0)
        assert [(a.location, a.weight) for a in tom.atoms] == [(0.0, 1.0)]


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


@pytest.mark.parametrize("L", [1e-3, 1.0, 1e3, 1e5])
@pytest.mark.parametrize("mu, nu", [(0.0, 1.0), (0.3, 0.9)])
def test_box_default_grid_keeps_the_mass(L, mu, nu):
    # at hbar = 1 a wide box's momentum core hbar k is far below 1, so its
    # X interval must follow the box's own scales, with no absolute margin
    state, fr = st.BoxEigen(1, L), TomographyFrame(mu, nu)
    x = qt.default_x_grid(state, fr, 1.0)
    assert normalization_residual(qt.state_tomogram(state, fr, x, 1.0)) < 1e-4


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


@pytest.mark.parametrize("n", [10, 200, 10 ** 5])
def test_box_stationary_phase_fringe_averages_out_over_one_period(n):
    # the fringe cos(2 pi n X/(mu L)) has period |mu| L/n, so one-period
    # means are the classical two-plateau tomogram away from the plateau
    # edges: why the ehrenfest-box distance sits at the roundoff floor
    from tomolab.classical import box_plateaus, classical_box_tomogram
    from tomolab.limits import windowed_average

    for L, fr in ((1.0, TomographyFrame(1.0, 0.2)), (1.7, TomographyFrame(-0.8, 0.3)),
                  (1.0, TomographyFrame(-1.3, -0.25))):
        period = abs(fr.mu) * L / n
        edges = np.ravel(box_plateaus(fr, L))
        centers = np.linspace(edges.min() - 0.3, edges.max() + 0.3, 801)
        centers = centers[np.all(np.abs(centers[:, None] - edges[None, :]) > period, axis=1)]
        avg = windowed_average(
            lambda X: np.asarray(qt.box_tomogram_stationary_phase(n, L, fr, X)), centers, period)
        classical = classical_box_tomogram(centers, fr, L)
        assert np.max(np.abs(avg - classical)) < 1e-10, (L, fr)
        assert np.any(classical == 2.0 / (2.0 * abs(fr.mu) * L))  # both plateaus overlap somewhere


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


def mp_box_tomogram(n: int, L: float, fr: TomographyFrame, X, hbar: float) -> np.ndarray:
    """Oracle: the box tomogram |I(a, b + k) - I(a, b - k)|^2 / (4 pi L hbar |nu|)
    in 60 digits, a = mu/(2 hbar nu), b = -X/(hbar nu), k = n pi/L, from the
    erf closed form I(a, b) = sqrt(pi)/(2 sqrt a) e^{i pi/4} e^{-i b^2/4a}
    [erf(e^{-i pi/4} (2 a L + b)/(2 sqrt a)) - erf(e^{-i pi/4} b/(2 sqrt a))],
    a > 0, and the conjugate of I(-a, -b) for a < 0."""
    import mpmath as mp

    with mp.workdps(60):
        L, nu, hbar = mp.mpf(L), mp.mpf(fr.nu), mp.mpf(hbar)
        a, k, e = mp.mpf(fr.mu) / (2 * hbar * nu), n * mp.pi / L, mp.expj(-mp.pi / 4)

        def chirp(a, b):
            if a < 0:
                return mp.conj(chirp(-a, -b))
            r = 2 * mp.sqrt(a)
            return (mp.sqrt(mp.pi) / (r * e) * mp.expj(-b * b / (r * r))
                    * (mp.erf(e * (2 * a * L + b) / r) - mp.erf(e * b / r)))

        return np.array([float(abs(chirp(a, b + k) - chirp(a, b - k)) ** 2 / (4 * mp.pi * L * hbar * abs(nu)))
                         for b in (-mp.mpf(x) / (hbar * nu) for x in X)])


@pytest.mark.parametrize("L", [1e-3, 1e-1, 1e1, 1e3, 1e5, 1e8])
def test_box_tomogram_against_the_erf_oracle(L, rng):
    # the exact route at every scale, |a| L^2 from about 1e-7 to 1e16
    # over random frames, within 1e-8 of the peak
    for _ in range(3):
        fr, n = random_frame(rng), int(rng.integers(1, 6))
        span = abs(fr.mu) * L + abs(fr.nu) * (n * math.pi + 20.0) / L
        X = np.linspace(0.5 * fr.mu * L - span, 0.5 * fr.mu * L + span, 41)
        ref = mp_box_tomogram(n, L, fr, X, 1.0)
        got = qt.box_tomogram(n, L, fr, X, 1.0).values
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(ref), (n, fr, abs(fr.mu / (2 * fr.nu)) * L * L)


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
    with pytest.raises(qt.ChirpResolutionError) as err:
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
    wb = st.BoxEigen(1, 1.0).exact_wigner(1.0)  # psi(u/2)^2 at q = L/2, p = 0: int 2 cos^2(pi u/2) du = 2
    assert abs(wb(0.0, 0.5) - 2.0) < 1e-14 and wb(0.0, -0.1) == wb(0.0, 1.1) == 0.0
    g = np.linspace(-8.0, 8.0, 161)
    assert st.CustomGrid(g, np.exp(-0.5 * g * g) / math.pi ** 0.25).exact_wigner(1.0) is None


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
        assert np.max(np.abs(tom.values - ref)) < 1e-8
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


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("hbar", [0.3, 1.0])
def test_tomogram_from_wigner_dual_route_at_the_benchmark_shapes(n, hbar):
    # the benchmark's dual-route job: its grids, frames from its draw (s
    # log-uniform in [0.7, 1.4]) and X on 401 points over +-6r
    rng = np.random.default_rng(4300 + n)
    x, q = _dual_route_geometry(hbar)
    wgrid, _ = qt.wigner_grid_from_density(qt.rho_grid(st.HOEigen(n), hbar, x), q, q, hbar)
    for s, theta in zip(np.exp(rng.uniform(math.log(0.7), math.log(1.4), 8)),
                        rng.uniform(0.0, 2.0 * math.pi, 8)):
        fr = frame_from_scaling(s, theta)
        r = math.sqrt(hbar * (fr.mu ** 2 + fr.nu ** 2))
        xt = np.linspace(-6.0 * r, 6.0 * r, 401)
        tom = qt.tomogram_from_wigner(wgrid, fr, xt, hbar)
        # in the units of the hbar = 1 tomogram, whose values scale as 1/r
        assert np.max(np.abs(tom.values - qt.hermite_tomogram(n, fr, xt, hbar))) * r < 1e-6
        assert normalization_residual(tom) < 1e-3


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
    # on a half-grid row the map is the trapezoid sum over rho[a, m - a]
    # itself, the one-sample rows m = 0 and 2n - 2 included, for odd and even
    # n; between the rows it is the cubic Lagrange interpolant of those sums
    # over the 4 rows nearest q, Re for W and Im for the residual.  A
    # Hermitian rho reads one sample per pair and a residual of exactly 0,
    # while an anti-Hermitian part small enough to pass the Hermiticity gate
    # shows in the residual
    for n in (9, 10, 41, 64):
        for anti in (0.0, 3e-8):
            x = np.linspace(-2.0, 2.0, n)
            h = x[1] - x[0]
            vals, b = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
            vals = vals + vals.conj().T + anti * (b - b.conj().T)
            p = np.linspace(-1.5, 1.5, 7)
            rows = []
            for m in range(2 * n - 1):
                a = np.arange(max(0, m - n + 1), min(n - 1, m) + 1)
                wt = np.full(a.size, 2 * h)
                wt[0] -= h
                wt[-1] -= h
                u = (2 * a - m) * h
                rows.append([np.sum(wt * vals[a, m - a] * np.exp(-1j * pj * u / 0.7)) for pj in p])
            rows = np.array(rows)
            # the half-grid rows, then q between them
            for q in (x[0] + 0.5 * h * np.arange(2 * n - 1), x[0] + 0.5 * h * (np.arange(2 * n - 2) + 0.3)):
                w, resid = qt.wigner_grid_from_density(GridFunction2D(x, x, vals), q, p, 0.7)
                t = (q - x[0]) / (0.5 * h)
                nodes = np.clip(np.floor(t).astype(int) - 1, 0, 2 * n - 5)[:, None] + np.arange(4)
                lag = np.stack([np.prod([(t - nodes[:, i]) / (r - i) for i in range(4) if i != r], axis=0)
                                for r in range(4)], 1)
                ref = np.sum(lag[:, :, None] * rows[nodes], axis=1)
                assert np.allclose(w.values, ref.real, rtol=0, atol=1e-13 * np.max(np.abs(vals))), n
                if anti:
                    loop_resid = float(np.max(np.abs(ref.imag)))
                    assert abs(resid - loop_resid) < 1e-6 * loop_resid
                else:
                    assert resid == 0.0


def test_wigner_of_a_pure_state_reads_one_sample_per_pair():
    # rho_grid's outer product is Hermitian bit for bit, so its residual is
    # exactly 0 and the map takes one sample per Hermitian pair; an
    # anti-Hermitian part of 1e-13 sends it through both samples of each
    # pair, which reads a residual and moves W by roundoff only
    hbar = 0.6
    x, q = _dual_route_geometry(hbar)
    rho = qt.rho_grid(st.HOEigen(1), hbar, x)
    assert qt._hermitian_residual(rho.values)[0] == 0.0
    w, resid = qt.wigner_grid_from_density(rho, q, q, hbar)
    assert resid == 0.0
    rng = np.random.default_rng(50)
    b = rng.normal(size=rho.values.shape) + 1j * rng.normal(size=rho.values.shape)
    bad = GridFunction2D(x, x, rho.values + 1e-13 * (b - b.conj().T))
    w2, resid2 = qt.wigner_grid_from_density(bad, q, q, hbar)
    assert resid2 > 0.0
    assert np.max(np.abs(w2.values - w.values)) < 1e-12


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
    fam0 = qt.build_state_family(st.HOEigen(0), hbar, mu, mu)
    qg = np.linspace(-2.5, 2.5, 21)
    rec, resid = qt.wigner_from_tomogram_grid(fam0, qg, qg, hbar)
    ref = st.HOEigen(0).exact_wigner(hbar)(qg[None, :], qg[:, None])
    assert np.max(np.abs(rec.values - ref)) < 1e-3
    assert resid < 1e-6

    fam1 = qt.build_state_family(st.HOEigen(1), hbar, mu, mu)
    rec1, _ = qt.wigner_from_tomogram_grid(fam1, [0.0, 0.5], [0.0, 0.5], hbar)
    assert rec1.values[0, 0] < -1.9  # recovered negativity at the origin


def test_wigner_from_tomogram_linearity():
    hbar = 1.0
    mu = np.linspace(-8, 8, 33)
    fam0 = qt.build_state_family(st.HOEigen(0), hbar, mu, mu)
    fam1 = qt.build_state_family(st.HOEigen(1), hbar, mu, mu)
    mix = qt.build_state_family(st.HOEigen(0), hbar, mu, mu)
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
    slices = qt.build_state_slices(cst, hbar, nus, np.linspace(-8, 8, 41))
    rho, herm = qt.density_grid_from_tomogram(slices, xs, hbar)
    psi = st.position_wavefunction(cst, hbar)(xs)
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-3
    assert herm < 1e-10
    # diagonal is the position density; trace is 1
    diag = np.real(np.diag(rho))
    assert np.max(np.abs(diag - np.abs(psi) ** 2)) < 1e-3
    assert abs(np.trapezoid(diag, xs) - 1.0) < 1e-3


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_hermitian_residual_is_the_full_matrix_residual(n):
    # each pair of 64-row blocks is compared once, on the upper triangle:
    # the residual is max |v - v^dagger| of the full matrix, formed from the
    # same parts bit for bit, and a NaN on either side of the diagonal makes
    # it NaN; the gate's scale max |v| is read in the same blocks, from the
    # parts of every entry
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for v in (a + a.conj().T, a, a + a.conj().T + 1e-9 * a):
        full = math.sqrt(np.max(np.square(v.real - v.real.T) + np.square(v.imag + v.imag.T)))
        resid, scale = qt._hermitian_residual(v)
        assert resid == full
        assert full == pytest.approx(np.max(np.abs(v - v.conj().T)), rel=1e-15, abs=0.0)
        assert scale == math.sqrt(np.max(np.square(v.real) + np.square(v.imag)))
        assert scale == pytest.approx(np.max(np.abs(v)), rel=1e-15, abs=0.0)
    for i, j in ((n - 1, 0), (0, n - 1), (n // 2, n // 2)):
        v = a + a.conj().T
        v[i, j] = np.nan
        assert np.isnan(qt._hermitian_residual(v)[0])


def test_density_residual_is_the_shared_hermiticity_residual():
    # the residual density_grid_from_tomogram reports is the one the Wigner
    # map's gate reads: max |rho - rho^dagger|, in 64-row blocks here, NaN
    # for a NaN entry
    hbar = 1.0
    xs = np.linspace(-3.0, 3.0, 81)
    nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
    fam = qt.build_state_slices(st.Coherent(0.5 + 0.2j), hbar, nus, np.linspace(-8, 8, 41))
    rng = np.random.default_rng(7)
    G = fam.values + 1e-3 * (rng.normal(size=fam.values.shape) + 1j * rng.normal(size=fam.values.shape))
    bad = FrameSamples(fam.mu_grid, fam.nu_grid, G, fam.q_extent, fam.p_extent)
    rho, resid = qt.density_grid_from_tomogram(bad, xs, hbar)
    assert resid == qt._hermitian_residual(rho)[0]
    assert resid == pytest.approx(np.max(np.abs(rho - rho.conj().T)), rel=1e-14)
    assert resid > 1e-4
    G[20, 3] = np.nan
    bad = FrameSamples(fam.mu_grid, fam.nu_grid, G, fam.q_extent, fam.p_extent)
    rho, resid = qt.density_grid_from_tomogram(bad, xs, hbar)
    assert np.isnan(resid) and np.isnan(qt._hermitian_residual(rho)[0])


def _packet_state():
    x = np.linspace(-8.0, 8.0, 281)
    psi = np.exp(-(x - 0.3) ** 2 / 2.0 + 0.4j * x)
    return st.CustomGrid(x, psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, x)))


def test_density_map_matches_the_pairwise_sum(monkeypatch):
    # reference: the per-pair trapezoid mu sum that the vectorised map replaced
    hbar = 0.8
    xs = np.linspace(-2, 2.5, 10)
    nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
    mu = np.linspace(-6, 6, 25)
    w = np.full(mu.size, mu[1] - mu[0])
    w[[0, -1]] *= 0.5
    for state in (st.CatOdd(0.6 + 0.4j), _packet_state()):
        fam = qt.build_state_slices(state, hbar, nus, mu)
        rho, _ = qt.density_grid_from_tomogram(fam, xs, hbar)
        for a, x in enumerate(xs):
            for b, xp in enumerate(xs):
                j = int(np.argmin(np.abs(fam.nu_grid - (x - xp) / hbar)))
                ref = np.sum(fam.values[:, j] * np.exp(-1j * mu * (x + xp) / 2) * w) / (2 * math.pi)
                assert abs(rho[a, b] - ref) < 1e-13
    # the map reads the half-grid lattice: one weighted phase table over the
    # 2n - 1 row sums (x + x')/2, and one contraction in einsum's own loop
    tables, contractions = [], []
    phases, einsum = qt._weighted_phases, np.einsum
    monkeypatch.setattr(qt, "_weighted_phases", lambda k, axis: tables.append(k.shape) or phases(k, axis))
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: contractions.append((a[0], kw)) or einsum(*a, **kw))
    qt.density_grid_from_tomogram(fam, xs, hbar)
    assert tables == [(2 * xs.size - 1,)]
    assert contractions == [("ma,ad->md", {})]


def test_density_map_peak_memory_on_201_points():
    # the map holds (2n - 1)^2 entries of M, not the n^2 x n_mu tables of a
    # per-pair gather: its traced peak stays below half of one such table
    hbar = 1.0
    xs = np.linspace(-3.0, 4.0, 201)
    nus = np.arange(1 - xs.size, xs.size) * ((xs[1] - xs[0]) / hbar)
    fam = qt.build_state_slices(st.Coherent(1.0), hbar, nus, np.linspace(-6, 6, 23))
    gather = xs.size ** 2 * fam.mu_grid.size * 16
    tracemalloc.start()
    try:
        rho, _ = qt.density_grid_from_tomogram(fam, xs, hbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.shape == (201, 201)
    assert peak < gather / 2


def test_density_from_tomogram_missing_slice():
    hbar = 1.0
    slices = qt.build_state_slices(st.HOEigen(0), hbar, [0.0, 0.5], np.linspace(-4, 4, 17))
    # the pair (x, x') = (0.8, 0.1) needs the missing slice nu = 0.7
    with pytest.raises(TomogramError) as err:
        qt.density_grid_from_tomogram(slices, [0.1, 0.8], hbar)
    assert "0.7" in str(err.value)
    # the map reads a uniform increasing grid only
    for xs in ([0.8, 0.1], [0.1, 0.3, 0.8]):
        with pytest.raises(TomogramError, match="x_points"):
            qt.density_grid_from_tomogram(slices, xs, hbar)


def test_density_from_tomogram_nyquist_guard():
    hbar = 1.0
    slices = qt.build_state_slices(st.HOEigen(0), hbar, [0.0], np.linspace(-4, 4, 3))
    with pytest.raises(TomogramError):
        qt.density_grid_from_tomogram(slices, [2.0], hbar)


def _coherent_density(mu):
    # rho of Coherent(1) at hbar = 1 on 9 points over its packet, from the slices over mu
    xs = np.linspace(-1.5, 4.5, 9)
    nus = np.arange(1 - xs.size, xs.size) * (xs[1] - xs[0])
    state = st.Coherent(1.0)
    rho, _ = qt.density_grid_from_tomogram(qt.build_state_slices(state, 1.0, nus, mu), xs, 1.0)
    return rho, qt.rho_grid(state, 1.0, xs).values


def _ground_wigner(mu, nu, extent=None):
    hbar, qg = 1.0, np.linspace(-2.5, 2.5, 21)
    fam = qt.build_state_family(st.HOEigen(0), hbar, mu, nu)
    if extent is not None:
        fam = FrameSamples(fam.mu_grid, fam.nu_grid, fam.values, extent, extent)
    rec, _ = qt.wigner_from_tomogram_grid(fam, qg, qg, hbar)
    return rec.values, st.HOEigen(0).exact_wigner(hbar)(qg[None, :], qg[:, None])


def test_inverse_maps_refuse_a_nonuniform_frame_axis():
    # each step under the Nyquist bound, the first read for all: the density
    # once erred by 0.28 with trace 1.5, the Wigner function by 1.0
    with pytest.raises(TomogramError, match="frame mu_grid must be finite and uniformly spaced"):
        _coherent_density(np.concatenate((np.linspace(-8, 0, 21), np.linspace(0.2, 8, 40))))
    with pytest.raises(TomogramError, match="frame mu_grid must be finite and uniformly spaced"):
        _ground_wigner(np.concatenate((np.linspace(-8, 0, 17), np.linspace(0.25, 8, 32))), np.linspace(-8, 8, 33))


def test_inverse_maps_read_a_descending_axis_as_its_mirror():
    # a reversed mu axis once gave -rho (trace -1) and -W
    mu = np.linspace(-8, 8, 41)
    rho, exact = _coherent_density(mu)
    assert np.max(np.abs(rho - exact)) < 1e-7
    assert np.max(np.abs(_coherent_density(mu[::-1])[0] - rho)) < 1e-12
    mu = np.linspace(-8, 8, 33)
    w, exact = _ground_wigner(mu, mu)
    assert np.max(np.abs(w - exact)) < 1e-6
    for m, n in ((mu[::-1], mu), (mu, mu[::-1]), (mu[::-1], mu[::-1])):
        assert np.max(np.abs(_ground_wigner(m, n)[0] - w)) < 1e-12


def test_inverse_map_nyquist_guards_read_step_magnitudes():
    # refused ascending, and once inverted with the axes reversed
    axis = np.linspace(-5, 5, 11)
    for a in (axis, axis[::-1]):
        with pytest.raises(TomogramError, match="dmu\\*q_extent = 6.000"):
            _ground_wigner(a, a, extent=6.0)
    axis = np.linspace(-8, 8, 9)
    for a in (axis, axis[::-1]):
        with pytest.raises(TomogramError, match="mu grid too coarse"):
            _coherent_density(a)


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
        G = qt.build_state_family(state, hbar, [mu], [nu]).values[0, 0]
        assert abs(G - weyl_overlap(state, mu, nu, hbar)) < 1e-12, (mu, nu)


def test_closed_characteristic_matches_the_tomogram_trapezoid():
    # the per-frame route it replaces: a fine-grid trapezoid of each frame's
    # closed-form tomogram against e^{iX}
    hbar = 0.6
    mu = np.linspace(-3.0, 3.0, 9)
    nu = np.linspace(-2.5, 2.5, 9)
    for state in (st.CatOdd(1.1 - 0.4j, 1.3), st.Superposition(1, 4, 0.8), st.HOEigen(2),
                  st.Coherent(-0.5 + 0.9j)):
        G = qt.build_state_family(state, hbar, mu, nu).values
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
            G = qt.build_state_family(st.BoxEigen(n, L), hbar, [mu], [nu]).values[0, 0]
            assert abs(G - box_weyl_overlap(n, L, mu, nu, hbar)) < 1e-12, (frac, mu)


def test_large_box_family_matches_the_weyl_overlap():
    # the 105 x 105 family, x grid included, that the per-frame loop once
    # had to refuse (11025 frames x 14866 X)
    hbar = 0.1
    grid = np.linspace(-5.0, 5.0, 105)
    G = qt.build_state_family(st.BoxEigen(3, 1.0), hbar, grid, grid).values
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
        G = qt.build_state_family(state, hbar, [mu], [nu]).values[0, 0]
        assert abs(G - sampled_weyl_overlap(state, mu, nu, hbar)) < 1e-12, (mu, nu)


def test_overlap_block_with_mixed_signs_matches_the_weyl_overlap():
    # one mu block holding both signs of each |mu|, a repeated mu and zero:
    # every row takes its own phases, with no |mu| shared or conjugated
    x = np.linspace(-6.0, 6.0, 81)
    psi = np.exp(-(x - 0.3) ** 2 / (2 * 1.7 ** 2) + 0.8j * x + 0.05j * x * x)
    state, hbar = st.CustomGrid(x, psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))), 0.8
    mu = np.array([-2.5, 0.7, 2.5, -0.7, 0.7, 0.0, -2.5, 1.3])
    nu = np.array([0.37, -1.1])
    G = qt._overlap_characteristic(state, mu, nu, hbar)
    for i, j in np.ndindex(G.shape):
        assert abs(G[i, j] - sampled_weyl_overlap(state, mu[i], nu[j], hbar)) < 1e-12, (mu[i], nu[j])


@pytest.mark.parametrize("state", [
    st.HOEigen(0), st.HOEigen(7, 0.6), st.Superposition(2, 5, 1.7), st.Coherent(0.7 - 0.4j, 1.8),
    st.CatEven(0.9 + 0.5j), st.CatOdd(-0.6 + 0.8j, 0.5),
], ids=repr)
def test_overlap_quadrature_matches_the_closed_characteristic(state):
    hbar = 0.7
    mu = np.linspace(-3.0, 3.0, 7)
    nu = np.linspace(-2.5, 2.5, 7)
    closed = qt.build_state_family(state, hbar, mu, nu).values
    quad = qt._overlap_characteristic(state, mu, nu, hbar)
    assert np.max(np.abs(quad - closed)) < 1e-12


@pytest.mark.parametrize("state", [st.Superposition(1, 3), _packet_state()], ids=["superpos", "custom"])
@pytest.mark.parametrize("block", [None, 5000])
def test_overlap_equals_the_exp_of_every_mu(monkeypatch, state, block):
    # the phase table is written from cos and sin; the reference takes
    # exp(i mu y) for every signed mu and must agree bit for bit, also when
    # the mu rows are split over blocks and when nu and -nu share a table
    if block is not None:
        monkeypatch.setattr(qt, "_OVERLAP_BLOCK", block)
    hbar = 0.9
    mu = np.r_[np.linspace(-4.0, 4.0, 17), 2.7, -0.35]  # pairs, a zero and unpaired values
    nu = np.array([-1.3, 0.0, 0.45, 2.0, -0.45])
    G = qt._overlap_characteristic(state, mu, nu, hbar)
    psi = st.position_wavefunction(state, hbar)
    edges, env_scale = qt._cells(state, hbar)
    ref = np.zeros_like(G)
    for j, h in enumerate(0.5 * hbar * nu):
        cuts = np.concatenate((edges - h, edges + h))
        lo, hi = edges[0] + abs(h), edges[-1] - abs(h)
        nodes, weights = qt._chirp_panels(np.unique(cuts[(cuts >= lo) & (cuts <= hi)]), 0.0, 4.0,
                                          env_scale)
        f = np.conj(psi(nodes - h)) * psi(nodes + h) * weights
        rows = max(1, qt._OVERLAP_BLOCK // nodes.size)
        for i in range(0, mu.size, rows):
            ref[i:i + rows, j] = np.exp(1j * np.outer(mu[i:i + rows], nodes)) @ f
    assert np.array_equal(G, ref)


def test_edge_tails_read_each_axis_of_the_frame_box():
    # the Wigner target's box for ho:n=1 at hbar = 1 reaches |beta|^2 = 40 on
    # both axes, where |G| = |L_1(40)| e^{-20} = 39 e^{-20} at the mid-edge frames
    state = st.HOEigen(1)
    qext, pext = qt._support_radii(state, 1.0)
    reach = math.sqrt(80.0)
    fam = qt.build_state_family(state, 1.0, qt._frame_axis(reach, qext), qt._frame_axis(reach, pext))
    assert fam.edge_tails() == pytest.approx((39.0 * math.exp(-20.0),) * 2, rel=1e-9)
    # the first and last mu rows, then the first and last nu columns
    G = np.zeros((5, 4), dtype=complex)
    G[2, 1] = 9.0  # inside: on neither edge
    G[4, 2], G[1, 0], G[0, 3] = 3j, -5.0, 2.0
    fam = FrameSamples(np.arange(5.0), np.arange(4.0), G, 1.0, 1.0)
    assert fam.edge_tails() == (3.0, 5.0)
