"""Property tests of the tomogram invariants over random catalog states,
frames and hbar: normalization, the two marginals, the homogeneity
W(lam X; lam mu, lam nu) = W(X; mu, nu)/|lam| and the parity of Fock
states and cats."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from tomolab import quantum as qt
from tomolab import states as st
from tomolab.kernel import TomographyFrame, frame_from_scaling, normalization_residual

_alpha = hs.builds(cmath.rect, hs.floats(0.3, 2.0), hs.floats(0.0, 2 * math.pi))
_fock = hs.builds(st.HOEigen, hs.integers(0, 20))
_cats = hs.one_of(hs.builds(st.CatEven, _alpha), hs.builds(st.CatOdd, _alpha))
_catalog = hs.one_of(
    _fock,
    hs.builds(st.Coherent, _alpha),
    _cats,
    hs.lists(hs.integers(0, 20), min_size=2, max_size=2, unique=True)
    .map(lambda nm: st.Superposition(*nm)),
)
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
@given(_catalog, _hbar)
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


@_examples
@given(hs.one_of(_fock, _cats), _frame, _hbar)
def test_parity_states_have_even_tomograms(state, fr, hbar):
    lo, hi = state.x_extent(fr, hbar, 8.0)
    x = np.linspace(-1.0, 1.0, 401) * max(abs(lo), abs(hi))
    w = qt.state_tomogram(state, fr, x, hbar).values
    assert np.max(np.abs(w - w[::-1])) < 1e-9 * np.max(w)
