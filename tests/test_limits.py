import math
import re

import numpy as np
import pytest

from tomolab import cli
from tomolab import limits as lm
from tomolab import quantum as qt
from tomolab import states as st
from tomolab.classical import classical_oscillator_tomogram
from tomolab.kernel import DeltaAtom, Tomogram, TomogramError, TomographyFrame
from tomolab.quantum import tomogram_from_wavefunction
from tomolab.specfun import hermite_phi


def gaussian_profile(n=2001, extent=8.0):
    x = np.linspace(-extent, extent, n)
    psi = np.exp(-x * x / 2.0)
    psi = psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))
    return st.CustomGrid(x, psi)


def planck_scaled_state(profile, gamma, hbar, x0=0.0):
    """psi(x) = hbar^(gamma/2) Psi(hbar^gamma (x - x0)): the profile on its
    grid stretched by hbar^(-gamma), so the state stays exactly normalized."""
    return st.CustomGrid(profile.x_grid * hbar ** -gamma + x0, profile.psi * hbar ** (gamma / 2.0))


def test_limit_report_invariants():
    with pytest.raises(ValueError):
        lm.LimitReport("s", "hbar", [0.1, 0.3, 0.2], [1, 2, 3], None, None, "x")
    with pytest.raises(ValueError):
        lm.LimitReport("s", "hbar", [0.1, 0.2], [1, 2], 0.5, 0.9, "x")  # low R^2
    rep = lm.LimitReport("s", "hbar", [0.2, 0.1], [2.0, 1.0], 1.0, 0.999, "converged")
    payload = rep.payload()
    assert payload["study"] == "s"
    assert payload["exponent"] == 1.0
    assert payload["verdict"] == "converged"


def test_fit_power_law():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    y = 3.0 * x ** 0.5
    slope, r2 = lm.fit_power_law(x, y)
    assert abs(slope - 0.5) < 1e-12
    assert r2 > 0.999999
    assert lm.fit_power_law([1, 2], [0.0, 1.0]) == (None, None)


def test_windowed_average_kills_oscillation():
    period = 0.1
    centers = np.linspace(-1, 1, 11)
    avg = lm.windowed_average(lambda X: 3.0 + np.cos(2 * math.pi * X / period), centers, period)
    assert np.max(np.abs(avg - 3.0)) < 1e-12


def test_planck_scaled_tomogram_width_gamma_half():
    prof = gaussian_profile()
    fr = TomographyFrame(0.8, 0.6)
    widths = []
    for hbar in (0.04, 0.01):
        x = np.linspace(-3 * math.sqrt(hbar) * 4, 3 * math.sqrt(hbar) * 4, 1201)
        tom = tomogram_from_wavefunction(planck_scaled_state(prof, -0.5, hbar), fr, x, hbar)
        mass = tom.grid_mass()
        mean = np.trapezoid(tom.x_grid * tom.values, tom.x_grid) / mass
        var = np.trapezoid((tom.x_grid - mean) ** 2 * tom.values, tom.x_grid) / mass
        widths.append(math.sqrt(var))
    assert abs(widths[0] / widths[1] - 2.0) < 0.02  # width ~ sqrt(hbar)


def test_planck_scaled_self_similarity_gamma_half():
    # W_h(X) = h^(-1/2) F(X / sqrt(h)) relates any two members of the family
    prof = gaussian_profile()
    fr = TomographyFrame(0.5, 1.0)
    h1, h2 = 0.04, 0.01
    u = np.linspace(-4, 4, 801)
    t1 = tomogram_from_wavefunction(planck_scaled_state(prof, -0.5, h1), fr, u * math.sqrt(h1), h1)
    t2 = tomogram_from_wavefunction(planck_scaled_state(prof, -0.5, h2), fr, u * math.sqrt(h2), h2)
    f1 = math.sqrt(h1) * t1.values
    f2 = math.sqrt(h2) * t2.values
    assert np.max(np.abs(f1 - f2)) < 1e-8


def test_planck_scaled_gamma_zero_momentum_frame():
    # gamma = 0 profile: psihat scales with exponent -(gamma+1) = -1, so the
    # momentum-frame tomogram width shrinks like hbar (not sqrt hbar) while
    # the weak limit delta(X) survives
    prof = gaussian_profile()
    fr = TomographyFrame(0.0, 1.0)
    widths = []
    for hbar in (0.08, 0.02):
        x = np.linspace(-12 * hbar, 12 * hbar, 2401)
        tom = tomogram_from_wavefunction(planck_scaled_state(prof, 0.0, hbar), fr, x, hbar)
        mass = tom.grid_mass()
        assert abs(mass - 1.0) < 1e-3
        var = np.trapezoid(tom.x_grid ** 2 * tom.values, tom.x_grid) / mass
        widths.append(math.sqrt(var))
    assert abs(widths[0] / widths[1] - 4.0) < 0.05


def test_planck_scaled_hbar_one_identity():
    # at hbar = 1 the member is the profile moved by x0, whose tomogram is
    # the profile's moved by mu x0
    prof = gaussian_profile()
    fr = TomographyFrame(0.6, 0.8)
    x = np.linspace(-5, 5, 501)
    t1 = tomogram_from_wavefunction(planck_scaled_state(prof, -0.5, 1.0, x0=0.7), fr, x + 0.6 * 0.7, 1.0)
    t2 = tomogram_from_wavefunction(prof, fr, x, 1.0)
    assert np.max(np.abs(t1.values - t2.values)) < 1e-14


def test_weak_delta_convergence_hoeigen():
    fr = TomographyFrame(0.6, 0.8)
    hs = [4e-3 * 0.25 ** k for k in range(4)]
    rep = lm.weak_delta_convergence(st.HOEigen(3), hs, fr)
    assert rep.verdict == "converged"
    # symmetric state: all odd moments vanish, so the rate is hbar^1
    assert abs(rep.fitted_exponent - 1.0) < 0.05
    ratios = [rep.distances[i] / rep.distances[i + 1] for i in range(3)]
    assert all(abs(r - 4.0) < 0.4 for r in ratios)


def test_weak_delta_convergence_coherent():
    fr = TomographyFrame(0.6, 0.8)
    hs = [4e-3 * 0.25 ** k for k in range(4)]
    rep = lm.weak_delta_convergence(st.Coherent(1 + 0j), hs, fr)
    assert rep.verdict == "converged"
    # the center drifts like sqrt(hbar), so the rate is hbar^(1/2)
    assert abs(rep.fitted_exponent - 0.5) < 0.05


def test_weak_delta_convergence_shifted_profile():
    # psi = Psi(hbar^(-1/2) (x - x0)) concentrates at X = mu x0
    prof = gaussian_profile()
    x0 = 0.7
    fr = TomographyFrame(0.8, 0.3)
    hs = [4e-3 * 0.25 ** k for k in range(4)]

    def state_of(h):
        return planck_scaled_state(prof, -0.5, h, x0=x0)

    def grid_of(h):
        c = fr.mu * x0
        w = 12 * math.sqrt(h) + 0.2
        return np.linspace(c - w, c + w, 4001)

    errors = []
    for h in hs:
        from tomolab.quantum import tomogram_from_wavefunction

        tom = tomogram_from_wavefunction(state_of(h), fr, grid_of(h), h)
        errors.append(lm.weak_error(tom, (DeltaAtom(1.0, fr.mu * x0),)))
    assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
    slope, r2 = lm.fit_power_law(hs, errors)
    assert r2 > 0.98 and slope > 0.4


def test_weak_delta_requires_geometric():
    fr = TomographyFrame(0.6, 0.8)
    with pytest.raises(ValueError):
        lm.weak_delta_convergence(st.HOEigen(1), [0.1, 0.05, 0.03, 0.01], fr)
    with pytest.raises(ValueError):
        lm.weak_delta_convergence(st.HOEigen(1), [0.1, 0.05, 0.025], fr)


def test_interference_decay_pairs():
    fr = TomographyFrame(0.6, 0.8)
    hs = [1e-1 * 0.5 ** k for k in range(8)]
    for (n, m) in ((0, 1), (2, 5)):
        rep = lm.interference_decay(n, m, fr, hs)
        assert rep.verdict == "converged"
        assert abs(rep.fitted_exponent - 0.5) < 0.03
        assert rep.r_squared > 0.99
        # signed integrals vanish by orthogonality
        assert max(abs(s) for s in rep.details["signed_integrals"]) < 1e-6
        # the physical interference L1 norm does not depend on hbar
        phys = rep.details["physical_l1"]
        assert max(phys) - min(phys) < 1e-10


def test_interference_decay_validation():
    fr = TomographyFrame(0.6, 0.8)
    hs = [1e-1 * 0.5 ** k for k in range(5)]
    with pytest.raises(ValueError):
        lm.interference_decay(2, 2, fr, hs)
    with pytest.raises(ValueError):
        lm.interference_decay(0, 1, TomographyFrame(1, 0), hs)
    with pytest.raises(ValueError):
        lm.interference_decay(0, 1, fr, [0.5, 0.25, 0.125, 0.0625, 0.03125])


def test_cat_interference_planck_invariant_integral():
    fr = TomographyFrame(0.6, 0.8)
    hs = [1e-1 * 0.5 ** k for k in range(4)]
    rep = lm.cat_interference_planck(1 + 0j, fr, hs)
    assert rep.verdict == "converged"
    target = 2.0 * math.exp(-2.0)
    for val in rep.details["interference_integrals"]:
        assert abs(val - target) < 1e-9
    assert abs(rep.details["weak_limit_coefficient"] - 1.0) < 1e-12
    for mass in rep.details["masses"]:
        assert abs(mass - 1.0) < 1e-6


def test_cat_interference_planck_large_alpha():
    fr = TomographyFrame(0.6, 0.8)
    hs = [1e-1 * 0.5 ** k for k in range(4)]
    rep = lm.cat_interference_planck(3 + 0j, fr, hs)
    target = 2.0 * math.exp(-18.0)
    assert abs(target - 3.05e-8) < 0.01e-8
    for val in rep.details["interference_integrals"]:
        assert abs(val - target) < 1e-12


def test_ehrenfest_coherent_study():
    fr = TomographyFrame(1.0, 0.0)
    rep = lm.ehrenfest_coherent(1.0, 0.0, fr, [1e-2, 1e-3, 1e-4])
    assert rep.verdict == "converged"
    assert all(pe <= 1.0 for pe in rep.details["peak_error_cells"])
    for w, we in zip(rep.details["widths"], rep.details["expected_widths"]):
        assert abs(w / we - 1.0) < 1e-3
    # momentum frame: the peak sits at p_alpha
    fr2 = TomographyFrame(0.0, 1.0)
    rep2 = lm.ehrenfest_coherent(0.3, 0.8, fr2, [1e-2, 1e-3, 1e-4])
    assert rep2.details["target_location"] == 0.8
    assert all(pe <= 1.0 for pe in rep2.details["peak_error_cells"])


def test_ehrenfest_cat_study():
    fr = TomographyFrame(1.0, 0.0)
    rep = lm.ehrenfest_cat(1.0, 0.0, fr, [1e-3, 5e-4, 2.5e-4])
    assert rep.verdict == "converged"
    c = rep.details["zero_crossings"]
    assert abs(c[1] / c[0] - 2.0) < 0.2
    assert abs(c[2] / c[1] - 2.0) < 0.2
    for n2 in rep.details["normalizations"]:
        assert abs(n2 - 0.5) < 1e-21
    for hm in rep.details["positive_half_masses"]:
        assert abs(hm - 0.5) < 1e-3
    assert rep.details["fringe_frame"] == [-0.0, 1.0]


def test_fringe_frame():
    fr = lm.fringe_frame(1.0, 0.0)
    assert (fr.mu, fr.nu) == (0.0, 1.0)
    with pytest.raises(ValueError):
        lm.fringe_frame(0.0, 0.0)


def test_ehrenfest_box_study():
    rep = lm.ehrenfest_box(1.0, [25, 50, 100], TomographyFrame(1.0, 0.3),
                           momentum_check_n=100)
    assert rep.verdict == "converged"
    assert all(d < 0.05 for d in rep.distances)
    assert rep.details["momentum_concentration"] > 0.9


def test_ehrenfest_box_validation():
    with pytest.raises(ValueError):
        lm.ehrenfest_box(1.0, [5, 25], TomographyFrame(1.0, 0.3))
    with pytest.raises(ValueError):
        lm.ehrenfest_box(1.0, [25], TomographyFrame(0.0, 1.0))


def test_ehrenfest_oscillator_study():
    rep = lm.ehrenfest_oscillator([25, 50, 100], TomographyFrame(1.0, 0.0))
    assert rep.verdict == "converged"
    assert all(rep.distances[i] > rep.distances[i + 1] for i in range(2))
    assert rep.distances[-1] < 0.03
    assert rep.details["forbidden_value"] < rep.details["forbidden_bound"]
    assert rep.details["u_route_relative_error"] < 0.02


def test_ehrenfest_oscillator_general_frame():
    rep = lm.ehrenfest_oscillator([25, 50, 100], TomographyFrame(0.6, 0.8))
    assert rep.verdict == "converged"


@pytest.mark.parametrize("n", [60, 452])
def test_oscillator_curve_matches_the_direct_average_in_its_frame(n):
    # the oracle: 3-period averages of the tomogram at the 241 centers of
    # |X| <= 1.3 r, taken in the frame itself over both signs of X
    fr = TomographyFrame(0.568, 0.856)
    r2 = fr.mu ** 2 + fr.nu ** 2
    centers = np.linspace(-1.3 * math.sqrt(r2), 1.3 * math.sqrt(r2), 241)
    kappa = n / r2
    period = math.pi / (math.sqrt(kappa) * np.sqrt(np.maximum(2 * n + 1 - kappa * centers ** 2, 1.0)))
    avg = lm.windowed_average(lambda X: qt.hermite_tomogram(n, fr, X, 1.0 / n), centers, period,
                              samples_per_window=16, periods=3)
    classical = classical_oscillator_tomogram(centers, fr, 1.0)
    distance = float(np.sum(np.abs(avg - classical)) * (centers[1] - centers[0]))

    rep = lm.ehrenfest_oscillator([n], fr)
    X, quantum, cl_curve, dx = rep.curves[0]
    assert np.max(np.abs(X - centers)) < 1e-14
    assert np.max(np.abs(quantum - avg)) < 1e-12 * np.max(avg)
    assert np.max(np.abs(cl_curve - classical)) < 1e-12 * np.max(classical)
    assert rep.distances[0] == pytest.approx(distance, rel=1e-11)


def test_the_oscillator_curve_is_even_and_its_distance_frame_free():
    # W_n depends on q^2 + p^2 alone at varpi = 1: one distance in every
    # nonzero frame, and a curve that is exactly even in X
    frames = [TomographyFrame(1.0, 0.0), TomographyFrame(0.568, 0.856),
              TomographyFrame(-0.3, 1.7), TomographyFrame(0.0, 2.5)]
    distances = {lm.oscillator_windowed_distance(452, fr) for fr in frames}
    assert len(distances) == 1
    for X, quantum, classical, _ in lm.ehrenfest_oscillator([25, 50], frames[2]).curves:
        assert np.array_equal(X, -X[::-1]) and X.size == 241
        assert np.array_equal(quantum, quantum[::-1])
        assert np.array_equal(classical, classical[::-1])
    with pytest.raises(TomogramError, match="zero frame"):
        lm.oscillator_windowed_distance(50, TomographyFrame(0.0, 0.0))


def test_the_oscillator_study_evaluates_5808_hermite_points_per_order(monkeypatch):
    # 121 centers on X >= 0 times 48 window samples: once 241 x 48 = 11,568.
    # X = 2, the forbidden-region value, is the one point appended to each
    # order's call: no scalar call is made for it at the largest n
    calls = []

    def counted(n, x):
        calls.append((n, np.size(x)))
        return hermite_phi(n, x)
    monkeypatch.setattr(st, "hermite_phi", counted)
    rep = lm.ehrenfest_oscillator([25, 50], TomographyFrame(0.6, 0.8))
    assert sorted(calls) == [(25, 5808 + 1), (50, 5808 + 1)]
    # an element's Hermite value does not depend on the rest of the array
    assert rep.details["forbidden_value"] == float(qt.hermite_tomogram(
        50, TomographyFrame(1.0, 0.0), 2.0, qt.oscillator_ehrenfest_hbar(50)))


def test_reports_are_reproducible():
    fr = TomographyFrame(0.6, 0.8)
    studies = [
        lambda: lm.weak_delta_convergence(st.HOEigen(1), [4e-3 * 0.25 ** k for k in range(4)], fr),
        lambda: lm.interference_decay(0, 1, fr, [1e-1 * 0.5 ** k for k in range(5)]),
        lambda: lm.cat_interference_planck(1.0 + 0j, fr, [0.1 * 0.5 ** k for k in range(4)]),
        lambda: lm.ehrenfest_coherent(1.0, 0.0, fr, [1e-2, 1e-3, 1e-4]),
        lambda: lm.ehrenfest_cat(1.0, 0.0, fr, [1e-3, 5e-4, 2.5e-4]),
        lambda: lm.ehrenfest_box(1.0, [25, 50], TomographyFrame(1.0, 0.3), momentum_check_n=50),
        lambda: lm.ehrenfest_oscillator([25, 50], fr),
    ]
    names = set()
    for study in studies:
        a, b = study(), study()
        assert a.payload() == b.payload()
        names.add(a.study)
        assert len(a.curves) == len(b.curves) == len(a.parameter_values)
        for ca, cb in zip(a.curves, b.curves):
            if isinstance(ca, Tomogram):
                assert ca.frame == cb.frame and ca.atoms == cb.atoms
                ca, cb = (ca.x_grid, ca.values), (cb.x_grid, cb.values)
            assert len(ca) == len(cb) and all(np.array_equal(u, v) for u, v in zip(ca, cb))
    assert names == set(cli.STUDIES)


def test_the_oscillator_ehrenfest_hbar_needs_n_at_least_1():
    # 1/n once divided by zero at n = 0
    for call in (lambda: qt.oscillator_ehrenfest_hbar(0),
                 lambda: lm.oscillator_windowed_distance(0, TomographyFrame(1.0, 0.0))):
        with pytest.raises(ValueError, match=re.escape("needs n >= 1, got n = 0")):
            call()
    assert qt.oscillator_ehrenfest_hbar(1) == 1.0


def test_constraint_provenance_recorded():
    fr = TomographyFrame(0.6, 0.8)
    hs = [4e-3 * 0.25 ** k for k in range(4)]
    assert lm.weak_delta_convergence(st.HOEigen(1), hs, fr).details["constraint"] == "planck"
    assert lm.ehrenfest_coherent(1, 0, fr, [1e-2, 1e-3, 1e-4]).details["constraint"] == "ehrenfest"


_SWEEPS = {
    "planck-delta": (lambda v: lm.weak_delta_convergence(st.HOEigen(1), v, TomographyFrame(0.6, 0.8)),
                     [4e-3 * 0.25 ** k for k in range(4)]),
    "interference": (lambda v: lm.interference_decay(0, 1, TomographyFrame(0.6, 0.8), v),
                     [1e-1 * 0.5 ** k for k in range(5)]),
    "cat-interference": (lambda v: lm.cat_interference_planck(1.0 + 0j, TomographyFrame(0.6, 0.8), v),
                         [0.1 * 0.5 ** k for k in range(4)]),
    "ehrenfest-coherent": (lambda v: lm.ehrenfest_coherent(1.0, 0.0, TomographyFrame(1.0, 0.0), v),
                           [1e-2, 1e-3, 1e-4]),
    "ehrenfest-cat": (lambda v: lm.ehrenfest_cat(1.0, 0.0, TomographyFrame(1.0, 0.0), v),
                      [1e-3, 5e-4, 2.5e-4]),
    "ehrenfest-box": (lambda v: lm.ehrenfest_box(1.0, v, TomographyFrame(1.0, 0.3), momentum_check_n=50),
                      [25, 50]),
    "ehrenfest-oscillator": (lambda v: lm.ehrenfest_oscillator(v, TomographyFrame(0.6, 0.8)), [25, 50]),
}


@pytest.mark.parametrize("study", sorted(_SWEEPS))
def test_a_reversed_sweep_gets_the_same_verdict(study):
    # the verdict asks whether the distances fall toward the limit; it once
    # read the list order, so an upward hbar sweep or a downward n sweep of
    # the same data read not-converged
    run, values = _SWEEPS[study]
    down, up = run(values), run(values[::-1])
    assert down.study == up.study == study
    assert down.verdict == up.verdict == "converged"
    assert up.distances == down.distances[::-1]
    for a, b in ((down.fitted_exponent, up.fitted_exponent), (down.r_squared, up.r_squared)):
        assert (a is None and b is None) or a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_an_hbar_sweep_without_a_trusted_fit():
    hs = [0.1, 0.05, 0.025, 0.0125]
    falling = [1.0, 0.9, 0.8, 1e-3]  # falls toward hbar -> 0, far from a power law
    rep = lm._hbar_report("s", hs, falling, {})
    assert rep.fitted_exponent is None and rep.r_squared < 0.98
    assert rep.verdict == "inconclusive"
    assert lm._hbar_report("s", hs[::-1], falling[::-1], {}, True).verdict == "inconclusive"
    # a failed condition, or distances that do not fall, are not-converged
    assert lm._hbar_report("s", hs, falling, {}, True, False).verdict == "not-converged"
    assert lm._hbar_report("s", hs, [1.0, 0.8, 0.9, 1e-3], {}).verdict == "not-converged"
    # a trusted fit of distances that grow toward hbar -> 0
    rising = [h ** -0.5 for h in hs]
    rep = lm._hbar_report("s", hs, rising, {})
    assert rep.fitted_exponent == pytest.approx(-0.5) and rep.verdict == "not-converged"


def test_an_n_sweep_at_the_roundoff_floor_counts_as_falling():
    for ns, d in (([20, 40, 80], [3e-16, 5e-16, 4e-16]), ([80, 40, 20], [4e-16, 5e-16, 3e-16])):
        rep = lm._n_report("s", ns, d, {}, True)
        assert rep.verdict == "converged"
        assert rep.fitted_exponent is None and rep.r_squared is None
    # off the floor the distances must fall as n grows, in any listing order
    assert lm._n_report("s", [20, 40], [2e-2, 1e-2], {}).verdict == "converged"
    assert lm._n_report("s", [40, 20], [1e-2, 2e-2], {}).verdict == "converged"
    assert lm._n_report("s", [20, 40], [1e-2, 2e-2], {}).verdict == "not-converged"


def test_the_n_study_thresholds_read_the_largest_n():
    fr = TomographyFrame(1.0, 0.0)
    down = lm.ehrenfest_oscillator([50, 25], fr)
    up = lm.ehrenfest_oscillator([25, 50], fr)
    assert down.details["forbidden_value"] == up.details["forbidden_value"]
    assert down.details["forbidden_bound"] == up.details["forbidden_bound"] == math.exp(-5.0)


@pytest.mark.parametrize("call", [
    lambda: lm.ehrenfest_box(1.0, [0, 25], TomographyFrame(1.0, 0.3)),
    lambda: lm.box_windowed_distance(0, 1.0, TomographyFrame(1.0, 0.3)),
], ids=["ehrenfest_box", "box_windowed_distance"])
def test_the_box_study_refuses_n_0_before_dividing_by_it(call):
    # the fringe period |mu| L/n once raised ZeroDivisionError first
    with pytest.raises(TomogramError, match="stationary phase validated for n >= 10, got 0"):
        call()


@pytest.mark.parametrize("kwargs,message", [
    (dict(L=-1.0), "box study needs a positive finite L, got -1.0"),
    (dict(L=math.inf), "box study needs a positive finite L, got inf"),
    (dict(momentum_check_n=0), "momentum check needs n >= 1, got 0"),
    (dict(momentum_check_n=-5), "momentum check needs n >= 1, got -5"),
])
def test_ehrenfest_box_refuses_inputs_outside_its_domain(kwargs, message):
    args = {"L": 1.0, "momentum_check_n": None, **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        lm.ehrenfest_box(args["L"], [20, 40], TomographyFrame(1.0, 0.3),
                         momentum_check_n=args["momentum_check_n"])
