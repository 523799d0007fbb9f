"""Quantum tomograms: amplitude closed forms, oscillatory-quadrature
routes, Wigner-function maps, and the inverse reconstructions back to
Wigner functions and density matrices.

For a pure state the tomogram is |A|^2 / (2 pi hbar |nu|) with the
amplitude

    A(X, mu, nu) = int psi(y) exp(i mu y^2/(2 hbar nu) - i X y/(hbar nu)) dy

(nu != 0); nu = 0 and mu = 0 reduce exactly to the position and momentum
marginals and (mu, nu) = (0, 0) to the unit atom delta(X).  Oscillator
closed forms come from the Gaussian generating function J(s) with
zeta = varpi*nu + i*mu; all fractional powers of zeta-ratios are taken
so the amplitudes agree with the defining integral in every (mu, nu)
quadrant (regression-tested against quadrature).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .chirp import _gl_panels, chirp_integral
from .classical import FrameSamples, characteristic_quadrature, radon_line_integral
from .kernel import (
    DeltaAtom,
    GridFunction2D,
    TomographyFrame,
    Tomogram,
    TomogramError,
    bilinear_interp,
    trapezoid_weights,
)
from .specfun import faddeeva
from .states import (
    BoxEigen,
    CatEven,
    CatOdd,
    Coherent,
    HOEigen,
    StateSpec,
    Superposition,
    cat_normalization,
    coherent_center,
    momentum_extent,
    momentum_wavefunction,
    natural_scales,
    position_extent,
    position_wavefunction,
)

__all__ = [
    "amplitude_generating",
    "hermite_amplitude",
    "coherent_amplitude",
    "tomogram_amplitude",
    "hermite_tomogram",
    "coherent_tomogram",
    "coherent_tomogram_peak",
    "superposition_tomogram",
    "superposition_cross_term",
    "cat_tomogram",
    "cat_interference",
    "tomogram_from_wavefunction",
    "state_tomogram",
    "default_x_grid",
    "momentum_extent",
    "box_tomogram",
    "box_tomogram_stationary_phase",
    "interval_chirp",
    "box_x_extent",
    "ehrenfest_hbar",
    "rho_grid",
    "wigner_from_density",
    "wigner_grid_from_density",
    "exact_wigner",
    "tomogram_from_wigner",
    "build_state_family",
    "wigner_from_tomogram",
    "wigner_from_tomogram_grid",
    "build_state_slices",
    "density_from_tomogram",
    "density_grid_from_tomogram",
]


# ---------------------------------------------------------------------------
# amplitude closed forms
# ---------------------------------------------------------------------------

def _zeta(frame: TomographyFrame, varpi: float) -> complex:
    return complex(varpi * frame.nu, frame.mu)


def _require_nu(frame: TomographyFrame, who: str) -> None:
    if frame.nu == 0.0:
        raise TomogramError(f"{who} requires nu != 0 (nu = 0 is the exact position branch)")


def amplitude_generating(s: complex, frame: TomographyFrame, X: float,
                         hbar: float, varpi: float = 1.0) -> complex:
    """Generating function of the oscillator amplitudes,

        J(s) = (varpi/pi hbar)^(1/4) sqrt(2 pi hbar nu / zeta*)
               * exp[ zeta s^2/(2 zeta*) - i sqrt(2 varpi/hbar) X s / zeta*
                      - X^2/(2 hbar nu zeta*) ],

    whose Taylor coefficients are A_n / sqrt(n!).  Principal branch of the
    complex square root; entire in s.
    """
    _require_nu(frame, "amplitude_generating")
    z = _zeta(frame, varpi)
    zc = z.conjugate()
    pref = (varpi / (math.pi * hbar)) ** 0.25 * cmath.sqrt(2.0 * math.pi * hbar * frame.nu / zc)
    expo = (
        z * s * s / (2.0 * zc)
        - 1j * math.sqrt(2.0 * varpi / hbar) * X * s / zc
        - X * X / (2.0 * hbar * frame.nu * zc)
    )
    return pref * cmath.exp(expo)


def hermite_amplitude(n: int, frame: TomographyFrame, X, hbar: float,
                      varpi: float = 1.0):
    """Closed-form amplitude A_n of the n-th oscillator eigenstate.

    Written with the same prefactor as J(s) and the unimodular factor
    (-i e^{i arg zeta})^n, which keeps the branch consistent with the
    defining integral for nu < 0 as well; |A_n|^2/(2 pi hbar |nu|)
    reproduces the Hermite tomogram.  Accepts scalar or array X.
    """
    from .specfun import hermite_phi

    _require_nu(frame, "hermite_amplitude")
    z = _zeta(frame, varpi)
    zc = z.conjugate()
    kappa = varpi / (hbar * (z * zc).real)
    scalar = np.isscalar(X)
    Xv = np.asarray(X, dtype=float)
    Q = np.sqrt(kappa) * Xv
    pref = (varpi / (math.pi * hbar)) ** 0.25 * cmath.sqrt(2.0 * math.pi * hbar * frame.nu / zc)
    # exp(-X^2/(2 hbar nu zeta*)) = (unit phase) * exp(-Q^2/2); the decay is
    # folded into phi_n(Q) so nothing overflows at large |X|
    phase = np.exp(-Xv * Xv / (2.0 * hbar * frame.nu * zc) + 0.5 * Q * Q)
    root = cmath.exp(1j * math.atan2(frame.mu, varpi * frame.nu))
    out = pref * phase * (-1j * root) ** n * math.pi ** 0.25 * hermite_phi(n, Q)
    return complex(out) if scalar else out


def coherent_amplitude(alpha: complex, frame: TomographyFrame, X, hbar: float,
                       varpi: float = 1.0):
    """Amplitude of the coherent state |alpha>: A_alpha = e^{-|alpha|^2/2} J(alpha).

    The damping is folded into the exponent before exponentiating: the
    combined real part is <= 0 for every alpha, so Ehrenfest-sized
    |alpha| ~ 1/sqrt(hbar) cannot overflow.
    """
    _require_nu(frame, "coherent_amplitude")
    scalar = np.isscalar(X)
    Xv = np.asarray(X, dtype=float)
    z = _zeta(frame, varpi)
    zc = z.conjugate()
    pref = (varpi / (math.pi * hbar)) ** 0.25 * cmath.sqrt(2.0 * math.pi * hbar * frame.nu / zc)
    expo = _coherent_exponent(alpha, z, Xv, hbar, varpi) - Xv * Xv / (2.0 * hbar * frame.nu * zc)
    out = pref * np.exp(expo)
    return complex(out) if scalar else out


def _box_amplitude(state: BoxEigen, frame: TomographyFrame, X: float, hbar: float) -> complex:
    """The box amplitude as the difference of the two exact interval
    chirp integrals, one per exponential in sin(k y)."""
    a = frame.mu / (2.0 * hbar * frame.nu)
    k = state.n * math.pi / state.L
    am, ap = interval_chirp(a, -X / (hbar * frame.nu) + np.array([k, -k]), state.L)
    return math.sqrt(2.0 / state.L) * (am - ap) / 2j


def tomogram_amplitude(state: StateSpec, frame: TomographyFrame, X: float,
                       hbar: float) -> complex:
    """Amplitude A_psi(X, mu, nu) for any state (nu != 0).

    States in the route table use their closed forms (box states the
    exact interval chirp integrals of :func:`interval_chirp`); every other
    state falls back to phase-resolved oscillatory quadrature of the
    defining integral.
    """
    _require_nu(frame, "tomogram_amplitude")
    route = _ROUTES.get(type(state))
    if route is not None:
        return complex(route.amplitude(state, frame, X, hbar))
    psi = position_wavefunction(state, hbar)
    lo, hi = position_extent(state, hbar)
    a = frame.mu / (2.0 * hbar * frame.nu)
    b = -X / (hbar * frame.nu)
    return chirp_integral(psi, a, b, lo, hi, env_scale=state.envelope_scale(hbar))


# ---------------------------------------------------------------------------
# closed-form tomograms
# ---------------------------------------------------------------------------

def _kappa(frame: TomographyFrame, hbar: float, varpi: float) -> float:
    d = varpi ** 2 * frame.nu ** 2 + frame.mu ** 2
    if d == 0.0:
        raise TomogramError("closed-form tomogram rejected for the zero frame")
    return varpi / (hbar * d)


def hermite_tomogram(n: int, frame: TomographyFrame, X, hbar: float,
                     varpi: float = 1.0):
    """Tomogram of the n-th oscillator eigenstate,

        W_n(X) = sqrt(kappa) * phi_n(sqrt(kappa) X)^2,
        kappa  = varpi / (hbar (varpi^2 nu^2 + mu^2)),

    the squared scaled Hermite function with its normalizing Jacobian.
    """
    from .specfun import hermite_phi

    kappa = _kappa(frame, hbar, varpi)
    Xv = np.asarray(X, dtype=float)
    out = math.sqrt(kappa) * hermite_phi(n, math.sqrt(kappa) * Xv) ** 2
    return float(out) if np.isscalar(X) else out


def coherent_tomogram_peak(alpha: complex, frame: TomographyFrame, hbar: float,
                           varpi: float = 1.0) -> float:
    """Peak location mu*<q> + nu*<p> of the coherent-state tomogram."""
    qbar, pbar = coherent_center(alpha, hbar, varpi)
    return frame.mu * qbar + frame.nu * pbar


def coherent_tomogram(alpha: complex, frame: TomographyFrame, X, hbar: float,
                      varpi: float = 1.0):
    """Gaussian tomogram of |alpha>:

        sqrt(varpi/(pi hbar (varpi^2 nu^2 + mu^2)))
        * exp[-(sqrt(varpi) X - mu sqrt(2 hbar) Re alpha
               - varpi nu sqrt(2 hbar) Im alpha)^2 / (hbar (varpi^2 nu^2 + mu^2))]
    """
    d = varpi ** 2 * frame.nu ** 2 + frame.mu ** 2
    if d == 0.0:
        raise TomogramError("closed-form tomogram rejected for the zero frame")
    Xv = np.asarray(X, dtype=float)
    shift = (
        frame.mu * math.sqrt(2.0 * hbar) * alpha.real
        + varpi * frame.nu * math.sqrt(2.0 * hbar) * alpha.imag
    )
    out = math.sqrt(varpi / (math.pi * hbar * d)) * np.exp(
        -((math.sqrt(varpi) * Xv - shift) ** 2) / (hbar * d)
    )
    return float(out) if np.isscalar(X) else out


def superposition_cross_term(n: int, m: int, frame: TomographyFrame, X,
                             hbar: float, varpi: float = 1.0):
    """Interference term Re(A_n A_m*) / (2 pi hbar |nu|) of (|n>+|m>)/sqrt2,

        sqrt(kappa) cos((n - m)(arg zeta - pi/2)) phi_n(Q) phi_m(Q),   Q = sqrt(kappa) X:

    the chirp phase common to both amplitudes cancels and is never
    formed, so the form holds down to nu = 0 (the position marginal).
    """
    from .specfun import hermite_phi

    kappa = _kappa(frame, hbar, varpi)
    Q = math.sqrt(kappa) * np.asarray(X, dtype=float)
    turn = math.cos((n - m) * (math.atan2(frame.mu, varpi * frame.nu) - 0.5 * math.pi))
    out = math.sqrt(kappa) * turn * hermite_phi(n, Q) * hermite_phi(m, Q)
    return float(out) if np.isscalar(X) else out


def superposition_tomogram(n: int, m: int, frame: TomographyFrame, X,
                           hbar: float, varpi: float = 1.0):
    """Tomogram of (|n> + |m>)/sqrt2: the half-half mixture plus the
    amplitude interference term, in every nonzero frame."""
    if n == m:
        raise TomogramError("superposition requires distinct eigenstates")
    Xv = np.asarray(X, dtype=float)
    out = (
        0.5 * hermite_tomogram(n, frame, Xv, hbar, varpi)
        + 0.5 * hermite_tomogram(m, frame, Xv, hbar, varpi)
        + superposition_cross_term(n, m, frame, Xv, hbar, varpi)
    )
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(X) else out


def _coherent_exponent(alpha: complex, z: complex, X: np.ndarray, hbar: float,
                       varpi: float) -> np.ndarray:
    # exponent of A_alpha without the chirp -X^2/(2 hbar nu zeta*) that every
    # coherent amplitude in the frame shares
    zc = z.conjugate()
    return (-0.5 * abs(alpha) ** 2 + z * alpha * alpha / (2.0 * zc)
            - 1j * math.sqrt(2.0 * varpi / hbar) * X * alpha / zc)


def cat_interference(alpha: complex, frame: TomographyFrame, X, hbar: float,
                     varpi: float = 1.0):
    """Interference term I = 2 Re(A_alpha A_{-alpha}*)/(2 pi hbar |nu|) of a
    cat state; its integral is 2 exp(-2|alpha|^2) independent of hbar.

    The chirp phase common to both amplitudes cancels and is never
    formed: with kappa = varpi/(hbar |zeta|^2),

        I = 2 sqrt(kappa/pi) Re exp(E_alpha + E_{-alpha}* - kappa X^2),

    which holds down to nu = 0 (the position marginal).
    """
    kappa = _kappa(frame, hbar, varpi)
    Xv = np.asarray(X, dtype=float)
    z = _zeta(frame, varpi)
    expo = (_coherent_exponent(alpha, z, Xv, hbar, varpi)
            + np.conj(_coherent_exponent(-alpha, z, Xv, hbar, varpi)) - kappa * Xv * Xv)
    out = 2.0 * math.sqrt(kappa / math.pi) * np.exp(expo).real
    return float(out) if np.isscalar(X) else out


def cat_tomogram(alpha: complex, parity: str, frame: TomographyFrame, X,
                 hbar: float, varpi: float = 1.0):
    """Even/odd cat tomogram N^2 [W_alpha + W_{-alpha} +- I]."""
    if parity not in ("even", "odd"):
        raise TomogramError(f"cat parity must be 'even' or 'odd', got {parity!r}")
    if frame.is_zero:
        raise TomogramError("closed-form tomogram rejected for the zero frame")
    sign = 1.0 if parity == "even" else -1.0
    N2 = cat_normalization(alpha, parity) ** 2
    Xv = np.asarray(X, dtype=float)
    out = N2 * (
        coherent_tomogram(alpha, frame, Xv, hbar, varpi)
        + coherent_tomogram(-alpha, frame, Xv, hbar, varpi)
        + sign * cat_interference(alpha, frame, Xv, hbar, varpi)
    )
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(X) else out


# ---------------------------------------------------------------------------
# quadrature route (representation-dispatched) and grid helpers
# ---------------------------------------------------------------------------

def ehrenfest_hbar(n: int, L: float = 1.0) -> float:
    """hbar pinned by unit energy for the box eigenstate: sqrt2 L/(n pi)."""
    return math.sqrt(2.0) * L / (n * math.pi)


def box_x_extent(state: BoxEigen, frame: TomographyFrame, hbar: float,
                 mass_tol: float = 1e-4) -> tuple[float, float]:
    """X interval capturing the box tomogram mass to ~mass_tol."""
    return state.x_extent(frame, hbar, mass_tol=mass_tol)


def box_tomogram(n: int, L: float, frame: TomographyFrame, x_grid,
                 hbar: float) -> Tomogram:
    """Exact box-eigenstate tomogram from the two interval chirp integrals
    A_-+ = int_0^L exp(i(a y^2 + (b -+ k) y)) dy with a = mu/(2 hbar nu),
    b = -X/(hbar nu), k = n pi/L (:func:`interval_chirp`, Faddeeva
    closed form); W = |A_- - A_+|^2 / (4 pi L hbar |nu|).

    nu = 0 uses the exact position marginal |psi_n(X/mu)|^2/|mu| and the
    zero frame the unit atom delta(X).  The cost is independent of n.
    """
    state = BoxEigen(n, L)
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    if frame.nu == 0.0:
        psi = position_wavefunction(state, hbar)
        vals = np.abs(psi(x / frame.mu)) ** 2 / abs(frame.mu)
        return Tomogram(frame, x, vals)
    pref = 1.0 / (4.0 * math.pi * L * hbar * abs(frame.nu))
    a = frame.mu / (2.0 * hbar * frame.nu)
    b = -x / (hbar * frame.nu)
    k = n * math.pi / L
    am = interval_chirp(a, b + k, L)
    ap = interval_chirp(a, b - k, L)
    return Tomogram(frame, x, pref * np.abs(am - ap) ** 2)


# |a| L^2 below which interval_chirp drops the quadratic phase: the error
# of that, <= |a| L^2/3 relative, and the cancellation in the Faddeeva
# form, ~eps/sqrt(|a| L^2), cross near eps^(2/3)
_LINEAR_CHIRP = 1e-10
_RAY = cmath.exp(0.25j * math.pi)


def interval_chirp(a: float, b, L: float) -> np.ndarray:
    """I(a, b) = int_0^L exp(i(a y^2 + b y)) dy, exactly, for an array of b.

    For a > 0, with phi(y) = a y^2 + b y and t(y) = (2 a y + b)/(2 sqrt a)
    (so t^2 = phi - phi(y_s) about the stationary point y_s = -b/2a),

        int_{y0}^{y1} = sqrt(pi)/(2 sqrt a) e^{i pi/4}
                        [e^{i phi(y0)} w(e^{i pi/4} t0) - e^{i phi(y1)} w(e^{i pi/4} t1)]

    when y_s <= y0 (DLMF 7.2-7.3 in terms of the Faddeeva function w).
    The mirror image about y_s covers y_s >= L (t -> |t|, ends swapped)
    and an interior y_s splits [0, L] there, so every w argument lies on
    the ray e^{i pi/4} |t|, nothing large cancels, and the phase b^2/4a is
    formed only for an interior y_s, where it is at most a L^2.  a < 0 is
    the conjugate of I(-a, -b); |a| L^2 < 1e-10 uses the linear phase
    (e^{ibL} - 1)/(ib) = L e^{ibL/2} sinc(bL/2).
    """
    b = np.asarray(b, dtype=float)
    if abs(a) * L * L < _LINEAR_CHIRP:
        return L * np.exp(0.5j * b * L) * np.sinc(b * L / (2.0 * math.pi))
    if a < 0.0:
        return np.conj(interval_chirp(-a, -b, L))
    ra = math.sqrt(a)
    t0 = b / (2.0 * ra)
    t1 = (2.0 * a * L + b) / (2.0 * ra)
    f0 = faddeeva(_RAY * np.abs(t0))
    f1 = np.exp(1j * (a * L + b) * L) * faddeeva(_RAY * np.abs(t1))
    inner = (t0 < 0.0) & (t1 > 0.0)
    bi = np.where(inner, b, 0.0)
    out = (np.where(t0 >= 0.0, f0, -f0) + np.where(t1 > 0.0, -f1, f1)
           + inner * (2.0 * np.exp(-0.25j * bi * bi / a)))
    return (math.sqrt(math.pi) / (2.0 * ra)) * _RAY * out


def _box_phase(n: int, L: float, frame: TomographyFrame, X: float, y, branch: int):
    # F_-+(y) = (pi/L) [ mu y^2/(2 sqrt2 nu) - (X/(sqrt2 nu) -+ 1) y ]
    s2 = math.sqrt(2.0)
    return (math.pi / L) * (
        frame.mu * y * y / (2.0 * s2 * frame.nu)
        - (X / (s2 * frame.nu) - branch) * y
    )


def box_tomogram_stationary_phase(n: int, L: float, frame: TomographyFrame, X):
    """Large-n stationary-phase form of the box tomogram at the
    unit-energy hbar = sqrt2 L/(n pi):

        [chi(Qs-) + chi(Qs+) - 2 chi(Qs-) chi(Qs+) cos n(F_-(Qs-) - F_+(Qs+))]
        / (2 |mu| L),

    Qs-+ = X/mu -+ sqrt2 nu/mu.  Vanishes when both stationary points
    leave [0, L]; requires mu != 0, nu != 0 and n >= 10.
    """
    if frame.mu == 0.0 or frame.nu == 0.0:
        raise TomogramError("stationary-phase route requires mu != 0 and nu != 0")
    if n < 10:
        raise TomogramError(f"stationary phase validated for n >= 10, got {n}")
    Xv = np.asarray(X, dtype=float)
    s2 = math.sqrt(2.0)
    qm = Xv / frame.mu - s2 * frame.nu / frame.mu
    qp = Xv / frame.mu + s2 * frame.nu / frame.mu
    chim = ((qm >= 0.0) & (qm <= L)).astype(float)
    chip = ((qp >= 0.0) & (qp <= L)).astype(float)
    fm = _box_phase(n, L, frame, Xv, qm, +1)
    fp = _box_phase(n, L, frame, Xv, qp, -1)
    out = (chim + chip - 2.0 * chim * chip * np.cos(n * (fm - fp))) / (2.0 * abs(frame.mu) * L)
    return float(out) if np.isscalar(X) else out


def _ladder_amplitudes(env, a: float, slope: float, x: np.ndarray,
                       y0: float, y1: float, env_scale: float) -> np.ndarray:
    """Amplitudes int env(y) e^{i(a y^2 + b_k y)} dy for the whole uniform
    family b_k = slope * x_k, sharing one Gauss-Legendre panel set.

    Panels are sized for the worst |2 a y + b| over the family, then each
    X differs only by the linear phase, applied as a running per-node
    complex multiplication (a geometric "ladder"): two complex
    exponentials per node total instead of one per (node, X) pair.  The
    accumulated phase rounding after nX steps is ~nX * eps, far below the
    quadrature tolerance.
    """
    x = np.asarray(x, dtype=float)
    bmax = max(abs(slope * x[0]), abs(slope * x[-1]))
    # conservative single panel set: the stationary point sweeps with X, so
    # size the panels for the frequency envelope 2|a||y| + bmax
    coarse = np.linspace(y0, y1, 65)
    prim = coarse * np.abs(coarse)  # antiderivative of 2|y|
    dphase = abs(a) * np.abs(np.diff(prim)) + bmax * np.diff(coarse)
    nodes, weights = _gl_panels(coarse, dphase, env_scale, 4_000_000)
    g = env(nodes) * np.exp(1j * a * nodes * nodes) * weights
    cur = g * np.exp(1j * slope * x[0] * nodes)
    step = np.exp(1j * slope * (x[1] - x[0]) * nodes) if x.size > 1 else None
    out = np.empty(x.size, dtype=complex)
    for k in range(x.size):
        out[k] = np.add.reduce(cur)
        if step is not None and k + 1 < x.size:
            cur *= step
    return out


def tomogram_from_wavefunction(state: StateSpec, frame: TomographyFrame,
                               x_grid, hbar: float) -> Tomogram:
    """Tomogram by quadrature of the defining amplitude integral.

    Exact branches: nu = 0 -> |psi(X/mu)|^2/|mu|; mu = 0 ->
    |psihat(X/nu)|^2/|nu|; the zero frame -> unit atom at X = 0.
    Box states take their own two-integral quadrature.  Otherwise the
    representation is chosen so the 1/|nu| (position route) or 1/|mu|
    (momentum route) prefactor stays bounded: the position integral is
    used when |nu|*sigma_p >= |mu|*sigma_q (ties included) with the
    state's natural scales, else the Fourier-side integral.  Sampled
    states always integrate on the position side, where their support is
    compact.
    """
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    if frame.nu == 0.0:
        psi = position_wavefunction(state, hbar)
        vals = np.abs(psi(x / frame.mu)) ** 2 / abs(frame.mu)
        return Tomogram(frame, x, vals)
    if frame.mu == 0.0:
        ft = momentum_wavefunction(state, hbar)
        vals = np.abs(ft(x / frame.nu)) ** 2 / abs(frame.nu)
        return Tomogram(frame, x, vals)
    route = _ROUTES.get(type(state))
    if route is not None and not route.closed:
        return Tomogram(frame, x, route.tomogram(state, frame, x, hbar))
    sq, sp = natural_scales(state, hbar)
    if state.sampled or abs(frame.nu) * sp >= abs(frame.mu) * sq:
        env = position_wavefunction(state, hbar)
        lo, hi = position_extent(state, hbar)
        a = frame.mu / (2.0 * hbar * frame.nu)
        slope = -1.0 / (hbar * frame.nu)
        scale = state.envelope_scale(hbar)
        pref = 1.0 / (2.0 * math.pi * hbar * abs(frame.nu))
    else:
        env = momentum_wavefunction(state, hbar)
        lo, hi = momentum_extent(state, hbar)
        a = -frame.nu / (2.0 * hbar * frame.mu)
        slope = 1.0 / (hbar * frame.mu)
        scale = state.envelope_scale(hbar) * sp / sq
        pref = 1.0 / (2.0 * math.pi * hbar * abs(frame.mu))
    amps = _ladder_amplitudes(env, a, slope, x, lo, hi, scale)
    return Tomogram(frame, x, pref * np.abs(amps) ** 2)


def default_x_grid(state: StateSpec, frame: TomographyFrame, hbar: float,
                   count: int = 2001, tails: float = 8.0) -> np.ndarray:
    """Uniform X grid covering mu*[q support] + nu*[p support]."""
    lo, hi = state.x_extent(frame, hbar, tails)
    if hi - lo < 1e-9:
        lo -= 1.0
        hi += 1.0
    return np.linspace(lo, hi, count)


class _Route(NamedTuple):
    """Per-class tomogram route: a closed form, or (closed=False) a
    state-specific quadrature that replaces the generic one."""

    closed: bool
    tomogram: Callable   # (state, frame, x, hbar) -> tomogram values on x
    amplitude: Callable  # (state, frame, X, hbar) -> A(X)


def _cat_amplitude(state, frame, X, hbar):
    N = cat_normalization(state.alpha, state.parity)
    aa = coherent_amplitude(state.alpha, frame, X, hbar, state.varpi)
    ab = coherent_amplitude(-state.alpha, frame, X, hbar, state.varpi)
    return N * (aa + state.sign * ab)


# Keyed by class here because states.py cannot import this module; the
# entries call the module functions by global name, so rebinding one of
# those names (tracing, tests) reaches every route.
_ROUTES = {
    HOEigen: _Route(
        True,
        lambda s, fr, x, h: hermite_tomogram(s.n, fr, x, h, s.varpi),
        lambda s, fr, X, h: hermite_amplitude(s.n, fr, X, h, s.varpi)),
    Coherent: _Route(
        True,
        lambda s, fr, x, h: coherent_tomogram(s.alpha, fr, x, h, s.varpi),
        lambda s, fr, X, h: coherent_amplitude(s.alpha, fr, X, h, s.varpi)),
    **dict.fromkeys((CatEven, CatOdd), _Route(
        True,
        lambda s, fr, x, h: cat_tomogram(s.alpha, s.parity, fr, x, h, s.varpi),
        _cat_amplitude)),
    Superposition: _Route(
        True,
        lambda s, fr, x, h: superposition_tomogram(s.n, s.m, fr, x, h, s.varpi),
        lambda s, fr, X, h: (hermite_amplitude(s.n, fr, X, h, s.varpi)
                             + hermite_amplitude(s.m, fr, X, h, s.varpi)) / math.sqrt(2.0)),
    BoxEigen: _Route(
        False,
        lambda s, fr, x, h: box_tomogram(s.n, s.L, fr, x, h).values,
        _box_amplitude),
}


def state_tomogram(state: StateSpec, frame: TomographyFrame, x_grid,
                   hbar: float, method: str = "auto") -> Tomogram:
    """Tomogram of a catalog state: closed forms when available
    (method='auto' or 'closed'), otherwise the quadrature route."""
    x = np.asarray(x_grid, dtype=float)
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature":
        return tomogram_from_wavefunction(state, frame, x, hbar)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    route = _ROUTES.get(type(state))
    if route is not None and route.closed:
        return Tomogram(frame, x, route.tomogram(state, frame, x, hbar))
    if method == "closed":
        raise TomogramError(f"no closed form for {state!r}")
    return tomogram_from_wavefunction(state, frame, x, hbar)


# ---------------------------------------------------------------------------
# Wigner maps
# ---------------------------------------------------------------------------

def rho_grid(state: StateSpec, hbar: float, x_grid) -> GridFunction2D:
    """Pure-state density matrix rho(x, x') = psi(x) psi*(x') on a grid."""
    x = np.asarray(x_grid, dtype=float)
    psi = position_wavefunction(state, hbar)(x)
    return GridFunction2D(x, x, np.outer(psi, np.conj(psi)))


def _check_hermitian(rho: GridFunction2D) -> None:
    if rho.values.shape[0] != rho.values.shape[1] or not np.array_equal(rho.x_grid, rho.y_grid):
        raise TomogramError("density matrix grid must be square with equal axes")
    scale = max(1.0, float(np.max(np.abs(rho.values))))
    resid = float(np.max(np.abs(rho.values - rho.values.conj().T)))
    if resid > 1e-6 * scale:
        raise TomogramError(f"density matrix is non-Hermitian (residual {resid:.3e})")


def wigner_from_density(rho: GridFunction2D, p: float, q: float,
                        hbar: float) -> float:
    """W(p, q) = int rho(q + u/2, q - u/2) e^{-i p u/hbar} du (real part;
    the imaginary residual of a Hermitian input is at roundoff level)."""
    vals = _wigner_values(rho, np.asarray([float(q)]), np.asarray([float(p)]), hbar)
    return float(vals[0, 0].real)


def wigner_grid_from_density(rho: GridFunction2D, q_grid, p_grid,
                             hbar: float) -> tuple[GridFunction2D, float]:
    """Wigner samples W[iq, ip] plus the worst imaginary residual."""
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    out = _wigner_values(rho, q, p, hbar)
    resid = float(np.max(np.abs(out.imag))) if out.size else 0.0
    return GridFunction2D(q, p, out.real), resid


def _wigner_values(rho: GridFunction2D, q: np.ndarray, p: np.ndarray,
                   hbar: float) -> np.ndarray:
    # one u-grid for every q, wide enough for the q whose window
    # q +- u/2 stays longest inside the rho grid; beyond its own window
    # each row samples zeros
    _check_hermitian(rho)
    pmax = float(np.max(np.abs(p))) if p.size else 0.0
    du = rho.dx * 0.5
    if pmax > 0:
        du = min(du, math.pi * hbar / (8.0 * pmax))
    x0, x1 = rho.x_grid[0], rho.x_grid[-1]
    umax = 2.0 * float(np.max(np.minimum(q - x0, x1 - q), initial=0.0))
    if umax <= 0:
        return np.zeros((q.size, p.size), dtype=complex)
    u = np.linspace(-umax, umax, int(math.ceil(2.0 * umax / du)) + 1)
    kernel = np.exp(-1j * np.outer(u, p) / hbar) * (trapezoid_weights(u.size) * (u[1] - u[0]))[:, None]
    vals = bilinear_interp(rho.x_grid, rho.y_grid, rho.values,
                           q[:, None] + 0.5 * u, q[:, None] - 0.5 * u)
    return vals @ kernel


def exact_wigner(state: StateSpec, hbar: float):
    """Analytic Wigner function (p, q) -> W of the state, or None without one."""
    return state.exact_wigner(hbar)


def tomogram_from_wigner(w: GridFunction2D, frame: TomographyFrame, x_grid,
                         hbar: float) -> Tomogram:
    """Radon transform of a Wigner grid, (1/2 pi hbar) int W delta(X - mu q - nu p);
    the zero frame returns the unit atom delta(X)."""
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    line = radon_line_integral(w, frame, x) / (2.0 * math.pi * hbar)
    np.maximum(line, 0.0, out=line)
    return Tomogram(frame, x, line)


# ---------------------------------------------------------------------------
# tomogram families and the inverse maps
# ---------------------------------------------------------------------------

def _support_slice(state: StateSpec, frame: TomographyFrame, hbar: float,
                   x: np.ndarray) -> slice:
    """Index window of x where the state's tomogram can be nonzero
    (mu*[q support] + nu*[p support], padded by one width unit)."""
    lo, hi = state.support_extent(frame, hbar)
    i0 = int(np.searchsorted(x, lo))
    i1 = int(np.searchsorted(x, hi)) + 1
    return slice(max(i0 - 1, 0), min(i1 + 1, x.size))


def build_state_family(state: StateSpec, hbar: float, mu_grid, nu_grid,
                       x_grid, method: str = "auto") -> FrameSamples:
    """Characteristic samples G(mu, nu) = int W(X; mu, nu) e^{iX} dX of one
    state over a rectangular (mu, nu) grid, each by the trapezoid rule on
    the common X grid as soon as its tomogram is built.

    Each frame is only evaluated inside its own support window on the
    common grid (the tomogram vanishes beyond mu*[q support] +
    nu*[p support]), which keeps quadrature-route states affordable.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    kernel = np.exp(1j * x) * trapezoid_weights(x.size) * float(x[1] - x[0])
    G = np.ones((mu_grid.size, nu_grid.size), dtype=complex)  # zero frame: unit atom at X = 0
    for i, mu in enumerate(mu_grid):
        for j, nu in enumerate(nu_grid):
            if mu == 0.0 and nu == 0.0:
                continue
            fr = TomographyFrame(mu, nu)
            win = _support_slice(state, fr, hbar, x)
            G[i, j] = np.dot(state_tomogram(state, fr, x[win], hbar, method).values, kernel[win])
    # declared alias radii: 4-sigma support is what the Nyquist check needs,
    # not the 8-sigma quadrature padding
    qlo, qhi = position_extent(state, hbar, tails=4.0)
    plo, phi = momentum_extent(state, hbar, tails=4.0)
    q_extent = max(abs(qlo), abs(qhi))
    p_extent = max(abs(plo), abs(phi))
    return FrameSamples(mu_grid, nu_grid, G, q_extent, p_extent)


def wigner_from_tomogram(family: FrameSamples, p: float, q: float,
                         hbar: float) -> float:
    """W(p, q) = (hbar/2 pi) * int W(X, mu, nu) e^{i(X - mu q - nu p)} dX dmu dnu."""
    acc = characteristic_quadrature(family, np.asarray([float(q)]), np.asarray([float(p)]))
    return float(acc[0, 0].real * hbar / (2.0 * math.pi))


def wigner_from_tomogram_grid(family: FrameSamples, q_grid, p_grid,
                              hbar: float) -> tuple[GridFunction2D, float]:
    """Wigner reconstruction W[iq, ip] plus the worst imaginary residual."""
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    acc = characteristic_quadrature(family, q, p)
    acc *= hbar / (2.0 * math.pi)
    return GridFunction2D(q, p, acc.real), float(np.max(np.abs(acc.imag)))


def build_state_slices(state: StateSpec, hbar: float, nu_values, mu_grid,
                       x_grid, method: str = "auto") -> FrameSamples:
    """The family at the nu slices nu = (x - x')/hbar that the density-matrix
    reconstruction reads."""
    return build_state_family(state, hbar, mu_grid, nu_values, x_grid, method)


def _density_values(samples: FrameSamples, x: np.ndarray, xprime: np.ndarray,
                    hbar: float) -> np.ndarray:
    """rho at every pair (x, x') of the broadcast arrays: the trapezoid mu
    integral of G(mu, (x - x')/hbar) e^{-i mu (x + x')/2} / 2 pi."""
    x, xprime = np.broadcast_arrays(x, xprime)
    j = samples.nu_index((x - xprime) / hbar).ravel()
    s = (0.5 * (x + xprime)).ravel()
    mu = samples.mu_grid
    dmu = samples.frame_step()[0]
    smax = float(np.max(np.abs(s)))
    if dmu * smax > math.pi:
        raise TomogramError(
            f"mu grid too coarse for |x + x'|/2 = {smax:.3f} "
            f"(need dmu <= {math.pi / smax:.3f})"
        )
    wG = samples.values[:, j] * trapezoid_weights(mu.size)[:, None]
    rho = np.einsum("mk,mk->k", wG, np.exp(-1j * np.outer(mu, s)))
    return (rho * (dmu / (2.0 * math.pi))).reshape(x.shape)


def density_from_tomogram(samples: FrameSamples, x: float, xprime: float,
                          hbar: float) -> complex:
    """rho(x, x') = (1/2 pi) int W(X, mu, (x - x')/hbar)
                                e^{i(X - mu (x + x')/2)} dX dmu."""
    return complex(_density_values(samples, np.asarray(float(x)), np.asarray(float(xprime)), hbar))


def density_grid_from_tomogram(samples: FrameSamples, x_points,
                               hbar: float) -> tuple[np.ndarray, float]:
    """rho on the pairwise grid of x_points; returns (matrix, Hermiticity residual)."""
    xs = np.asarray(x_points, dtype=float)
    rho = _density_values(samples, xs[:, None], xs[None, :], hbar)
    resid = float(np.max(np.abs(rho - rho.conj().T)))
    return rho, resid
