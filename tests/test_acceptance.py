"""Acceptance battery.

Each test is one release criterion, run at its declared tolerance and
reporting a single PASS/FAIL line.  Numbers quoted in asserts are the
pinned thresholds, not tuned constants; where a target value is derived
it is computed inline from an independent route.
"""

import math
import os
import time

import numpy as np

from tomolab import classical as cl
from tomolab import limits as lm
from tomolab import quantum as qt
from tomolab import states as st
from tomolab.cli import run_selftest
from tomolab.kernel import (
    GridFunction2D,
    TomographyFrame,
    frame_from_scaling,
    normalization_residual,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def quad_route(state, frame, X, hbar):
    """Single-point tomogram value through the oscillatory-quadrature route."""
    dx = 1e-3
    grid = np.array([X - dx, X, X + dx])
    return qt.tomogram_from_wavefunction(state, frame, grid, hbar).values[1]


def test_criterion_01_closed_vs_quadrature():
    """Closed forms vs direct quadrature of the amplitude integral at 200
    random points, relative error < 1e-6, under 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        mu = float(rng.uniform(0.1, 2.0))
        nu = float(rng.uniform(0.1, 2.0))
        hbar = float(rng.uniform(0.1, 2.0))
        fr = TomographyFrame(mu, nu)
        n = int(rng.integers(0, 11))
        # stay inside the numerically meaningful support: at 60 sigma both
        # routes underflow identically and the ratio is vacuous
        sig = math.sqrt(hbar * (nu * nu + mu * mu) * (2 * n + 1) / 2.0)
        X = float(min(rng.uniform(0.1, 2.0), 3.0 * sig))
        closed = qt.hermite_tomogram(n, fr, X, hbar)
        quad = quad_route(st.HOEigen(n), fr, X, hbar)
        worst = max(worst, abs(quad - closed) / max(abs(closed), 1e-300))

        alpha = 0.8 + 0.6j
        sig_c = math.sqrt(hbar * (nu * nu + mu * mu) / 2.0)
        Xc = qt.coherent_tomogram_peak(alpha, fr, hbar) + float(rng.uniform(-3.0, 3.0)) * sig_c
        closed = qt.coherent_tomogram(alpha, fr, Xc, hbar)
        quad = quad_route(st.Coherent(alpha), fr, Xc, hbar)
        worst = max(worst, abs(quad - closed) / max(abs(closed), 1e-300))

        closed = qt.cat_tomogram(1.1 + 0j, "even", fr, X, hbar)
        quad = quad_route(st.CatEven(1.1 + 0j), fr, X, hbar)
        worst = max(worst, abs(quad - closed) / max(abs(closed), 1e-300))
    elapsed = time.time() - t0
    report("criterion 1: closed forms vs quadrature",
           worst < 1e-6 and elapsed < 60.0,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_normalization():
    """Every catalog state x 50 random frames: |mass - 1| < 1e-6 for the
    closed forms, < 1e-3 for the quadrature and box routes."""
    rng = np.random.default_rng(1002)
    frames = [frame_from_scaling(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
              for _ in range(50)]
    worst_closed = 0.0
    hbar = 0.7
    for state in (st.HOEigen(0), st.HOEigen(1), st.HOEigen(5), st.HOEigen(10),
                  st.Coherent(1 + 0.5j), st.CatEven(1.2), st.CatOdd(0.8 + 0.3j),
                  st.Superposition(1, 4)):
        for fr in frames:
            g = qt.default_x_grid(state, fr, hbar, count=3001)
            worst_closed = max(worst_closed,
                               normalization_residual(qt.state_tomogram(state, fr, g, hbar)))

    # quadrature routes: a sampled state and the box eigenstate
    worst_quad = 0.0
    xs = np.linspace(-8, 8, 1601)
    psi = np.exp(-(xs - 0.4) ** 2 / 2.0) * (1.0 + 0.2 * xs)
    psi = psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, xs))
    custom = st.CustomGrid(xs, psi)
    for fr in frames:
        g = qt.default_x_grid(custom, fr, 1.0, count=801)
        worst_quad = max(worst_quad,
                         normalization_residual(qt.tomogram_from_wavefunction(custom, fr, g, 1.0)))
    nbox, L = 5, 1.0
    hb = qt.ehrenfest_hbar(nbox, L)
    for fr in frames:
        lo, hi = st.BoxEigen(nbox, L).x_extent(fr, hb, mass_tol=2e-4)
        dx = 2.0 * math.pi * hb * max(abs(fr.nu), 0.05) / L / 14.0
        g = np.arange(lo, hi, dx)
        worst_quad = max(worst_quad,
                         normalization_residual(qt.box_tomogram(nbox, L, fr, g, hb)))
    report("criterion 2: normalization over 50 random frames",
           worst_closed < 1e-6 and worst_quad < 1e-3,
           f"closed {worst_closed:.2e}, quadrature/box {worst_quad:.2e}")


def test_criterion_03_marginal_identities():
    """Frames (1,0) and (0,1) reproduce |psi|^2 and |psihat|^2 to 1e-6."""
    hbar = 0.7
    worst = 0.0
    for state in (st.HOEigen(0), st.HOEigen(4), st.Coherent(1 + 0.5j),
                  st.CatEven(1.2), st.CatOdd(0.7 + 0.2j), st.Superposition(0, 3)):
        fr = TomographyFrame(1, 0)
        g = qt.default_x_grid(state, fr, hbar, count=2001)
        tom = qt.state_tomogram(state, fr, g, hbar)
        psi = st.position_wavefunction(state, hbar)(g)
        worst = max(worst, float(np.max(np.abs(tom.values - np.abs(psi) ** 2))))
        fr = TomographyFrame(0, 1)
        g = qt.default_x_grid(state, fr, hbar, count=2001)
        tom = qt.state_tomogram(state, fr, g, hbar)
        ft = st.momentum_wavefunction(state, hbar)(g)
        worst = max(worst, float(np.max(np.abs(tom.values - np.abs(ft) ** 2))))
    report("criterion 3: marginal identities", worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_04_amplitude_orthonormality():
    """int A_n A_m^*/(2 pi hbar |nu|) dX = delta_nm to 1e-6 for n, m <= 8,
    three frames, hbar in {0.3, 1}."""
    worst = 0.0
    for fr in (TomographyFrame(0.6, 0.8), TomographyFrame(1.2, -0.4), TomographyFrame(-0.5, 1.0)):
        for hbar in (0.3, 1.0):
            sig = math.sqrt(hbar * (fr.mu ** 2 + fr.nu ** 2))
            lim = sig * (math.sqrt(17.0) + 10.0)
            x = np.linspace(-lim, lim, 6001)
            amps = [qt.hermite_amplitude(n, fr, x, hbar) for n in range(9)]
            norm = 2 * math.pi * hbar * abs(fr.nu)
            for n in range(9):
                for m in range(9):
                    val = np.trapezoid(amps[n] * np.conj(amps[m]), x) / norm
                    worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    report("criterion 4: amplitude orthonormality (Kronecker delta)",
           worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_05_cat_interference_integral():
    """int I dX = 2 exp(-2|alpha|^2) within 1e-6 for alpha in {0.5, 1, 2},
    independent of hbar across three hbar values."""
    worst = 0.0
    fr = TomographyFrame(0.6, 0.8)
    for alpha in (0.5 + 0j, 1 + 0j, 2 + 0j):
        target = 2.0 * math.exp(-2.0 * abs(alpha) ** 2)
        for hbar in (0.3, 1.0, 2.0):
            state = st.CatEven(alpha)
            g = qt.default_x_grid(state, fr, hbar, count=8001, tails=10.0)
            I = qt.cat_interference(alpha, fr, g, hbar)
            worst = max(worst, abs(float(np.trapezoid(I, g)) - target))
    report("criterion 5: cat interference integral", worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_06_interference_decay_exponent():
    """Interference profile decays like sqrt(hbar): fitted exponent
    0.50 +- 0.03 with R^2 >= 0.99 for (0,1) and (2,5), under 2 min.

    The op-level formula int |Re A_n A_m^*|/(2 pi hbar |nu|) dX is exactly
    hbar-independent (the cross term's phase carries no X dependence), so
    the decaying quantity is the paper-normalized profile phi_n(Q)phi_m(Q);
    see the interference_decay docstring.  The reports carry both series.
    """
    t0 = time.time()
    fr = TomographyFrame(0.6, 0.8)
    hbars = [1e-1 * 0.5 ** k for k in range(10)]
    ok = True
    details = []
    for (n, m) in ((0, 1), (2, 5)):
        rep = lm.interference_decay(n, m, fr, hbars)
        good = (rep.fitted_exponent is not None
                and abs(rep.fitted_exponent - 0.5) <= 0.03
                and rep.r_squared >= 0.99
                and max(abs(s) for s in rep.details["signed_integrals"]) < 1e-6)
        ok = ok and good
        details.append(f"({n},{m}): exp {rep.fitted_exponent:.4f} R2 {rep.r_squared:.5f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    report("criterion 6: interference decay exponent", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_07_planck_delta_rate():
    """Weak-convergence error ratios across hbar quarterings equal 2
    within 20 percent for HOEigen(3) and Coherent(1).

    The coherent family obeys this (center drift ~ sqrt(hbar)).  For
    HOEigen(3) the tomograms are even in X, every odd moment vanishes,
    and the leading weak error is O(hbar): the measured ratio is 4, not
    2, for any smooth test battery.  The criterion is implemented as
    stated and the eigenstate half fails; see the decisions ledger for
    the derivation (confirmed numerically below).
    """
    fr = TomographyFrame(0.6, 0.8)
    hbars = [4e-3 * 0.25 ** k for k in range(4)]
    lines = []
    ok = True
    for label, state in (("Coherent(1)", st.Coherent(1 + 0j)), ("HOEigen(3)", st.HOEigen(3))):
        rep = lm.weak_delta_convergence(state, hbars, fr)
        ratios = [rep.distances[i] / rep.distances[i + 1] for i in range(len(rep.distances) - 1)]
        good = all(abs(r - 2.0) <= 0.4 for r in ratios) and rep.verdict == "converged"
        ok = ok and good
        lines.append(f"{label}: ratios {', '.join(f'{r:.2f}' for r in ratios)} "
                     f"[{'ok' if good else 'ratio 2 unattainable, rate is hbar^1'}]")
    report("criterion 7: Planck delta convergence rate", ok, "; ".join(lines))


def test_criterion_08_ehrenfest_box():
    """n = 200, frame (1, 0.3): windowed L1 to the classical form < 0.05
    (edges excluded); momentum concentration >= 0.9 within |X -+ sqrt2| <
    0.1 at n = 400, frame (0.02, 1); under 3 min."""
    t0 = time.time()
    d200 = lm.box_windowed_distance(200, 1.0, TomographyFrame(1.0, 0.3))
    rep = lm.ehrenfest_box(1.0, [50, 100, 200], TomographyFrame(1.0, 0.3),
                           momentum_check_n=400)
    conc = rep.details["momentum_concentration"]
    elapsed = time.time() - t0
    ok = d200 < 0.05 and conc >= 0.9 and elapsed < 180.0
    report("criterion 8: Ehrenfest box", ok,
           f"L1(n=200) {d200:.2e}, momentum concentration {conc:.4f}, {elapsed:.1f}s")


def test_criterion_09_ehrenfest_oscillator():
    """n = 100: windowed L1 to the arcsine law on |X| <= 1.3 below 0.03;
    forbidden-region value at X = 2 below 1e-4; parabolic-cylinder route
    within 2 percent of the Hermite route."""
    rep = lm.ehrenfest_oscillator([25, 50, 100], TomographyFrame(1.0, 0.0))
    d100 = rep.distances[-1]
    forb = qt.hermite_tomogram(100, TomographyFrame(1.0, 0.0), 2.0, 1.0 / 100)
    urel = rep.details["u_route_relative_error"]
    ok = d100 < 0.03 and forb < 1e-4 and urel < 0.02
    report("criterion 9: Ehrenfest oscillator", ok,
           f"L1(n=100) {d100:.4f}, forbidden {forb:.2e}, U-route rel {urel:.2e}")


def test_criterion_10_ehrenfest_coherent_cat():
    """Peak location within one grid cell at hbar in {1e-2, 1e-3, 1e-4};
    cat endpoint masses 1/2 within 1e-3; interference zero crossings
    double when hbar halves, within 10 percent."""
    fr = TomographyFrame(1.0, 0.0)
    rep_c = lm.ehrenfest_coherent(1.0, 0.0, fr, [1e-2, 1e-3, 1e-4])
    peaks_ok = all(pe <= 1.0 for pe in rep_c.details["peak_error_cells"])
    rep_k = lm.ehrenfest_cat(1.0, 0.0, fr, [1e-3, 5e-4, 2.5e-4])
    masses = rep_k.details["positive_half_masses"]
    masses_ok = all(abs(m - 0.5) < 1e-3 for m in masses)
    c = rep_k.details["zero_crossings"]
    crossings_ok = abs(c[1] / c[0] - 2.0) <= 0.2 and abs(c[2] / c[1] - 2.0) <= 0.2
    ok = peaks_ok and masses_ok and crossings_ok
    report("criterion 10: Ehrenfest coherent/cat", ok,
           f"peak cells {max(rep_c.details['peak_error_cells']):.2g}, "
           f"mass dev {max(abs(m - 0.5) for m in masses):.2e}, crossings {c}")


def test_criterion_11_reconstruction_round_trips():
    """Coherent density matrix, ground-state Wigner, and classical Gaussian
    Radon round trips, each below 1e-3 max-norm, under 5 min combined."""
    t0 = time.time()
    hbar = 1.0

    cst = st.Coherent(1 + 0j)
    xs = np.linspace(-3, 3, 25)
    nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
    slices = qt.build_state_slices(cst, hbar, nus, np.linspace(-8, 8, 41))
    rho, _ = qt.density_grid_from_tomogram(slices, xs, hbar)
    psi = st.position_wavefunction(cst, hbar)(xs)
    err_rho = float(np.max(np.abs(rho - np.outer(psi, psi.conj()))))

    mu = np.linspace(-8, 8, 33)
    fam = qt.build_state_family(st.HOEigen(0), hbar, mu, mu)
    qg = np.linspace(-3, 3, 25)
    wrec, _ = qt.wigner_from_tomogram_grid(fam, qg, qg, hbar)
    wref = st.HOEigen(0).exact_wigner(hbar)(qg[None, :], qg[:, None])
    err_wig = float(np.max(np.abs(wrec.values - wref)))

    gq = np.linspace(-8, 8, 321)
    dens = cl.DensityGrid(GridFunction2D(
        gq, gq, np.exp(-gq[:, None] ** 2 / 2 - gq[None, :] ** 2 / 2) / (2 * math.pi)))
    frames = np.linspace(-5, 5, 21)
    fam_c = cl.build_radon_family(dens, frames, frames, np.linspace(-60, 60, 1201),
                                  q_extent=6.0, p_extent=6.0)
    qr = np.linspace(-3, 3, 25)
    rec, _ = cl.inverse_radon_grid(fam_c, qr, qr)
    fref = np.exp(-qr[:, None] ** 2 / 2 - qr[None, :] ** 2 / 2) / (2 * math.pi)
    err_cl = float(np.max(np.abs(rec - fref)))

    elapsed = time.time() - t0
    ok = err_rho < 1e-3 and err_wig < 1e-3 and err_cl < 1e-3 and elapsed < 300.0
    report("criterion 11: reconstruction round trips", ok,
           f"density {err_rho:.2e}, wigner {err_wig:.2e}, radon {err_cl:.2e}, {elapsed:.1f}s")


def test_criterion_12_selftest_determinism(tmp_path):
    """Two consecutive selftest runs produce byte-identical reports."""
    blobs = []
    for i in range(2):
        out = os.path.join(tmp_path, f"run{i}")
        code = run_selftest(quick=True, out=out)
        assert code == 0
        with open(os.path.join(out, "selftest.json"), "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report("criterion 12: selftest determinism", ok,
           f"{len(blobs[0])} bytes, identical: {blobs[0] == blobs[1]}")
