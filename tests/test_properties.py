"""Property tests of the tomogram invariants over random catalog states,
frames and hbar: normalization, the two marginals (box states too), the
homogeneity W(lam X; lam mu, lam nu) = W(X; mu, nu)/|lam|, for the classical
orbit averages at |lam| from 1e-150 to 1e160, and for the seven limit
studies, whose distances and verdicts depend on the frame's direction only;
the parity of Fock states and cats, bitwise for Fock states on symmetric
grids; of the
characteristic functions over random frame grids, closed forms, box states
and sampled states alike: G(0, 0) = 1, G(-mu, -nu) = conj G(mu, nu),
|G| <= 1; and of the Radon transform of gridded Gaussian mixtures against
their closed-form projections, with its mass and homogeneity."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from tomolab import classical as cl
from tomolab import limits as lm
from tomolab import quantum as qt
from tomolab import states as st
from tomolab.kernel import GridFunction2D, TomographyFrame, frame_from_scaling, normalization_residual

_alpha = hs.builds(cmath.rect, hs.floats(0.3, 2.0), hs.floats(0.0, 2 * math.pi))
_fock = hs.builds(st.HOEigen, hs.integers(0, 20))
_cats = hs.one_of(hs.builds(st.CatEven, _alpha), hs.builds(st.CatOdd, _alpha))
# varpi log-uniform in [0.1, 10]: the momentum wave function is the Fourier
# turn of the position one at 1/varpi, and the closed-form tomograms reach
# varpi through quantum's frame map, a route independent of it
_log_varpi = hs.floats(math.log(0.1), math.log(10.0)).map(math.exp)
_catalog = hs.builds(
    lambda state, varpi: dataclasses.replace(state, varpi=varpi),
    hs.one_of(
        _fock,
        hs.builds(st.Coherent, _alpha),
        _cats,
        hs.lists(hs.integers(0, 20), min_size=2, max_size=2, unique=True)
        .map(lambda nm: st.Superposition(*nm)),
    ),
    _log_varpi,
)
# box tomograms hold their mass only to 1e-4, so box states stay out of the
# shared catalog and its 1e-6 normalization property
_box = hs.builds(st.BoxEigen, hs.integers(1, 40), hs.floats(0.5, 2.0))
_frame = hs.builds(frame_from_scaling, hs.floats(0.5, 2.0), hs.floats(0.0, 2 * math.pi))
_hbar = hs.floats(0.1, 2.0)
_lam = hs.floats(0.3, 3.0).flatmap(lambda a: hs.sampled_from((a, -a)))
_examples = settings(max_examples=30, deadline=None)


@_examples
@given(_catalog, _frame, _hbar)
def test_tomograms_are_normalized(state, fr, hbar):
    x = qt.default_x_grid(state, fr, hbar)
    assert normalization_residual(qt.state_tomogram(state, fr, x, hbar)) < 1e-6


@_examples
@given(hs.one_of(_catalog, _box), _hbar)
def test_marginals_are_the_position_and_momentum_densities(state, hbar):
    for fr, wf in ((TomographyFrame(1, 0), st.position_wavefunction(state, hbar)),
                   (TomographyFrame(0, 1), st.momentum_wavefunction(state, hbar))):
        x = qt.default_x_grid(state, fr, hbar, count=801)
        ref = np.abs(wf(x)) ** 2
        assert np.max(np.abs(qt.state_tomogram(state, fr, x, hbar).values - ref)) < 1e-6 * max(1.0, np.max(ref))


@_examples
@given(_catalog, _frame, _hbar, _lam)
def test_homogeneity(state, fr, hbar, lam):
    x = qt.default_x_grid(state, fr, hbar, count=401)
    w = qt.state_tomogram(state, fr, x, hbar).values
    xl = lam * x if lam > 0 else (lam * x)[::-1]
    wl = qt.state_tomogram(state, fr.scaled(lam), xl, hbar).values
    if lam < 0:
        wl = wl[::-1]
    assert np.max(np.abs(wl - w / abs(lam))) < 1e-9 * np.max(w / abs(lam))


# lam log-uniform over [1e-150, 1e160], both signs: past |lam| ~ 1e154 a
# frame's mu^2 + nu^2 overflows while its length stays a normal double
_extreme_lam = hs.floats(math.log(1e-150), math.log(1e160)).map(math.exp).flatmap(
    lambda a: hs.sampled_from((a, -a)))
_orbit = hs.one_of(hs.builds(cl.OscillatorTrajectory, hs.floats(0.5, 2.0)),
                   hs.builds(cl.BoxTrajectory, hs.floats(0.5, 2.0), hs.floats(0.5, 2.0)))


@_examples
@given(_orbit, _frame, _extreme_lam, hs.integers(20, 200))
@example(cl.OscillatorTrajectory(1.0), TomographyFrame(0.6, 0.8), -1e160, 100)
@example(cl.BoxTrajectory(1.0, 1.5), TomographyFrame(1.0, 0.3), 1e160, 20)
@example(cl.OscillatorTrajectory(0.5), TomographyFrame(-0.3, 1.7), 1e-150, 50)
def test_classical_homogeneity_at_extreme_scales(model, fr, lam, n):
    lo, hi = cl.time_average_support(model, fr)
    pad = 0.05 * (hi - lo)
    x = np.linspace(lo - pad, hi + pad, 401)
    w = cl.time_averaged_tomogram(model, fr, x).values
    xl = lam * x if lam > 0 else (lam * x)[::-1]
    wl = cl.time_averaged_tomogram(model, fr.scaled(lam), xl).values
    if lam < 0:
        wl = wl[::-1]
    assert np.max(np.abs(wl * abs(lam) - w)) < 1e-9 * np.max(w)
    assert lm.oscillator_windowed_distance(n, fr.scaled(lam)) == lm.oscillator_windowed_distance(n, fr)


@_examples
@given(hs.one_of(_fock, _cats), _frame, _hbar)
def test_parity_states_have_even_tomograms(state, fr, hbar):
    lo, hi = state.x_extent(fr, hbar, 8.0)
    x = np.linspace(-1.0, 1.0, 401) * max(abs(lo), abs(hi))
    w = qt.state_tomogram(state, fr, x, hbar).values
    assert np.max(np.abs(w - w[::-1])) < 1e-9 * np.max(w)


def _centred(extent: float, half: int) -> np.ndarray:
    # exactly symmetric, with an exact zero at the centre
    return extent * np.arange(-half, half + 1) / half


_frame_grid = hs.builds(_centred, hs.floats(0.2, 8.0), hs.integers(1, 12))
_varpi = hs.floats(0.3, 3.0)


@_examples
@given(hs.builds(st.HOEigen, hs.integers(0, 2000), _varpi), _frame, _hbar)
def test_fock_tomograms_on_symmetric_grids_are_exactly_even(state, fr, hbar):
    # phi_n(-x) = (-1)^n phi_n(x) holds bitwise, so W_n(-X) = W_n(X) does too
    lo, hi = state.x_extent(fr, hbar, 8.0)
    x = _centred(max(abs(lo), abs(hi)), 400)
    w = qt.state_tomogram(state, fr, x, hbar).values
    assert np.array_equal(w, w[::-1])


@_examples
@given(_catalog, _varpi, _frame_grid, _frame_grid, _hbar)
def test_characteristic_function_invariants(state, varpi, mu, nu, hbar):
    state = dataclasses.replace(state, varpi=varpi)
    G = qt.build_state_family(state, hbar, mu, nu).values
    assert G[mu.size // 2, nu.size // 2] == 1.0
    assert np.max(np.abs(G[::-1, ::-1] - np.conj(G))) < 1e-12
    assert np.max(np.abs(G)) <= 1.0 + 1e-12


def _packet(count, center, width, kick, chirp, floor):
    # complex samples on [-6, 6]; floor > 0 leaves the end samples nonzero
    x = np.linspace(-6.0, 6.0, count)
    psi = np.exp(-(x - center) ** 2 / (2 * width ** 2) + 1j * (kick * x + chirp * x * x)) + floor
    return st.CustomGrid(x, psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, x)))


_box = hs.builds(st.BoxEigen, hs.integers(1, 400), hs.floats(0.5, 3.0))
_sampled = hs.builds(_packet, hs.integers(20, 300), hs.floats(-1.0, 1.0), hs.floats(0.4, 2.0),
                     hs.floats(-2.0, 2.0), hs.floats(-0.2, 0.2), hs.floats(0.0, 0.05))


@_examples
@given(hs.one_of(_box, _sampled), _frame_grid, _frame_grid, _hbar)
def test_box_and_sampled_characteristic_invariants(state, mu, nu, hbar):
    G = qt.build_state_family(state, hbar, mu, nu).values
    assert G[mu.size // 2, nu.size // 2] == 1.0
    assert np.max(np.abs(G[::-1, ::-1] - np.conj(G))) < 1e-12
    assert np.max(np.abs(G)) <= 1.0 + 1e-12


# (q0, p0, sq, sp) of a mixture component; its tails are below 1e-10 of
# its peak on the +-9 grid
_component = hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-1.0, 1.0), hs.floats(0.5, 1.0), hs.floats(0.5, 1.0))


def _mixture_projection(comps, fr, x):
    # component (w, q0, p0, sq, sp) projects to N(mu q0 + nu p0, mu^2 sq^2 + nu^2 sp^2)
    out = np.zeros_like(x)
    for w, q0, p0, sq, sp in comps:
        var = (fr.mu * sq) ** 2 + (fr.nu * sp) ** 2
        out += w * np.exp(-(x - fr.mu * q0 - fr.nu * p0) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
    return out


@_examples
@given(_component, _component, hs.floats(0.1, 0.9), _frame, _lam)
def test_radon_of_a_gaussian_mixture_is_its_closed_form(c1, c2, w1, fr, lam):
    comps = ((w1, *c1), (1.0 - w1, *c2))
    g = np.linspace(-9, 9, 361)
    f = sum(w * np.exp(-(g[:, None] - q0) ** 2 / (2 * sq * sq) - (g[None, :] - p0) ** 2 / (2 * sp * sp))
            / (2 * math.pi * sq * sp) for w, q0, p0, sq, sp in comps)
    dens = cl.DensityGrid(GridFunction2D(g, g, f))
    x = np.linspace(-12, 12, 481) * fr.norm
    tom = cl.radon_density(dens, fr, x)
    ref = _mixture_projection(comps, fr, x)
    assert np.max(np.abs(tom.values - ref)) < 1e-9 * np.max(ref)
    assert abs(tom.total_mass() - 1.0) < 1e-9
    # W(lam X; lam mu, lam nu) = W(X; mu, nu)/|lam|
    xl = lam * x if lam > 0 else (lam * x)[::-1]
    wl = cl.radon_density(dens, fr.scaled(lam), xl).values
    if lam < 0:
        wl = wl[::-1]
    assert np.max(np.abs(wl - tom.values / abs(lam))) < 1e-9 * np.max(tom.values / abs(lam))


# each limit study on a small sweep in its default frame; by homogeneity a
# study reads its distances in units of |zeta|, so a frame lam zeta gives the
# distances and verdict of zeta: bitwise when lam is a power of two, to
# roundoff otherwise (the box distances sit at their roundoff floor, ~1e-16)
_STUDIES = {
    "planck-delta": (TomographyFrame(1.0, 0.0), lambda fr: lm.weak_delta_convergence(
        st.HOEigen(3), [0.1 * 0.5 ** k for k in range(4)], fr)),
    "interference": (TomographyFrame(0.6, 0.8), lambda fr: lm.interference_decay(
        0, 1, fr, [0.1 * 0.5 ** k for k in range(5)])),
    "cat-interference": (TomographyFrame(0.6, 0.8), lambda fr: lm.cat_interference_planck(
        1.0 + 0j, fr, [0.1 * 0.5 ** k for k in range(4)])),
    "ehrenfest-coherent": (TomographyFrame(1.0, 0.0), lambda fr: lm.ehrenfest_coherent(
        1.0, 0.0, fr, [1e-2, 1e-3, 1e-4])),
    "ehrenfest-cat": (TomographyFrame(1.0, 0.0), lambda fr: lm.ehrenfest_cat(
        1.0, 0.0, fr, [1e-3, 5e-4, 2.5e-4])),
    "ehrenfest-box": (TomographyFrame(1.0, 0.3), lambda fr: lm.ehrenfest_box(1.0, [25, 50], fr)),
    "ehrenfest-oscillator": (TomographyFrame(1.0, 0.0), lambda fr: lm.ehrenfest_oscillator([25, 50], fr)),
}


@pytest.mark.parametrize("study", _STUDIES)
def test_a_study_reads_the_same_at_every_frame_length(study):
    frame, run = _STUDIES[study]
    ref = run(frame)
    assert ref.verdict == "converged"
    for lam in (2.0 ** -500, 2.0 ** -20, 2.0 ** 20, 2.0 ** 500):
        rep = run(frame.scaled(lam))
        assert (rep.distances, rep.verdict) == (ref.distances, ref.verdict), lam
        # the oscillator's forbidden-region value too (None elsewhere)
        assert rep.details.get("forbidden_value") == ref.details.get("forbidden_value"), lam
    rtol, atol = (0.0, 1e-14) if study == "ehrenfest-box" else (1e-11, 0.0)
    for lam in (-128.0, -3.0, 0.37, 100.0, 1e100):
        rep = run(frame.scaled(lam))
        assert rep.verdict == ref.verdict, lam
        assert np.allclose(rep.distances, ref.distances, rtol=rtol, atol=atol), lam
