"""Quantum tomograms: amplitude closed forms, closed-form characteristic
functions, oscillatory-quadrature routes, Wigner-function maps, and the
inverse reconstructions back to Wigner functions and density matrices.

For a pure state the tomogram is |A|^2 / (2 pi hbar |nu|) with the
amplitude

    A(X, mu, nu) = int psi(y) exp(i mu y^2/(2 hbar nu) - i X y/(hbar nu)) dy

(nu != 0); nu = 0 and mu = 0 reduce exactly to the position and momentum
marginals and (mu, nu) = (0, 0) to the unit atom delta(X).  Oscillator
closed forms come from the Gaussian generating function J(s) with
zeta = nu + i*mu at mass times frequency varpi = 1; all fractional powers
of zeta-ratios are taken so the amplitudes agree with the defining
integral in every (mu, nu) quadrant (regression-tested against
quadrature).  Canonical maps act on the frame: a varpi oscillator state
takes the varpi = 1 form in the frame (mu/sqrt(varpi), nu sqrt(varpi)),
and the Fourier turn q -> p, p -> -q makes the momentum-side quadrature
the position-side one applied to psihat in the frame (nu, -mu).  Every
quadrature takes its Gauss-Legendre panels from one rule, :func:`_chirp_panels`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .classical import FrameSamples, characteristic_quadrature, radon_line_integral
from .kernel import (
    DeltaAtom,
    GridFunction2D,
    TomographyFrame,
    Tomogram,
    TomogramError,
    trapezoid_weights,
)
from .specfun import faddeeva, hermite_phi, laguerre_scaled, uniform_sum
from .states import (
    BoxEigen,
    CatEven,
    CatOdd,
    Coherent,
    HOEigen,
    State,
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
    "box_tomogram",
    "box_tomogram_stationary_phase",
    "interval_chirp",
    "ehrenfest_hbar",
    "rho_grid",
    "wigner_grid_from_density",
    "tomogram_from_wigner",
    "build_state_family",
    "wigner_from_tomogram_grid",
    "build_state_slices",
    "density_grid_from_tomogram",
]


# ---------------------------------------------------------------------------
# amplitude closed forms
# ---------------------------------------------------------------------------

def _require_nu(frame: TomographyFrame, who: str) -> None:
    if frame.nu == 0.0:
        raise TomogramError(f"{who} requires nu != 0 (nu = 0 is the exact position branch)")


def amplitude_generating(s: complex, frame: TomographyFrame, X: float,
                         hbar: float) -> complex:
    """Generating function of the oscillator amplitudes,

        J(s) = (1/pi hbar)^(1/4) sqrt(2 pi hbar nu / zeta*)
               * exp[ zeta s^2/(2 zeta*) - i sqrt(2/hbar) X s / zeta*
                      - X^2/(2 hbar nu zeta*) ],

    whose Taylor coefficients are A_n / sqrt(n!).  Principal branch of the
    complex square root; entire in s.
    """
    _require_nu(frame, "amplitude_generating")
    z = complex(frame.nu, frame.mu)  # zeta
    zc = z.conjugate()
    pref = (1.0 / (math.pi * hbar)) ** 0.25 * cmath.sqrt(2.0 * math.pi * hbar * frame.nu / zc)
    expo = (
        z * s * s / (2.0 * zc)
        - 1j * math.sqrt(2.0 / hbar) * X * s / zc
        - X * X / (2.0 * hbar * frame.nu * zc)
    )
    return pref * cmath.exp(expo)


def hermite_amplitude(n: int, frame: TomographyFrame, X, hbar: float):
    """Closed-form amplitude A_n of the n-th oscillator eigenstate.

    Written with the same prefactor as J(s) and the unimodular factor
    (-i e^{i arg zeta})^n, which keeps the branch consistent with the
    defining integral for nu < 0 as well; |A_n|^2/(2 pi hbar |nu|)
    reproduces the Hermite tomogram.  Accepts scalar or array X.
    """
    _require_nu(frame, "hermite_amplitude")
    z = complex(frame.nu, frame.mu)  # zeta
    zc = z.conjugate()
    kappa = 1.0 / (hbar * (z * zc).real)
    scalar = np.isscalar(X)
    Xv = np.asarray(X, dtype=float)
    Q = np.sqrt(kappa) * Xv
    pref = (1.0 / (math.pi * hbar)) ** 0.25 * cmath.sqrt(2.0 * math.pi * hbar * frame.nu / zc)
    # exp(-X^2/(2 hbar nu zeta*)) = (unit phase) * exp(-Q^2/2); the decay is
    # folded into phi_n(Q) so nothing overflows at large |X|
    phase = np.exp(-Xv * Xv / (2.0 * hbar * frame.nu * zc) + 0.5 * Q * Q)
    root = cmath.exp(1j * math.atan2(frame.mu, frame.nu))
    out = pref * phase * (-1j * root) ** n * math.pi ** 0.25 * hermite_phi(n, Q)
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# closed-form tomograms
# ---------------------------------------------------------------------------

def _kappa(frame: TomographyFrame, hbar: float) -> float:
    d = frame.nu ** 2 + frame.mu ** 2
    if d == 0.0:
        raise TomogramError("closed-form tomogram rejected for the zero frame")
    return 1.0 / (hbar * d)


def hermite_tomogram(n: int, frame: TomographyFrame, X, hbar: float):
    """Tomogram of the n-th oscillator eigenstate,

        W_n(X) = sqrt(kappa) * phi_n(sqrt(kappa) X)^2,
        kappa  = 1 / (hbar (nu^2 + mu^2)),

    the squared scaled Hermite function with its normalizing Jacobian.
    """
    kappa = _kappa(frame, hbar)
    Xv = np.asarray(X, dtype=float)
    out = math.sqrt(kappa) * hermite_phi(n, math.sqrt(kappa) * Xv) ** 2
    return float(out) if np.isscalar(X) else out


def coherent_tomogram_peak(alpha: complex, frame: TomographyFrame, hbar: float) -> float:
    """Peak location mu*<q> + nu*<p> of the coherent-state tomogram."""
    qbar, pbar = coherent_center(alpha, hbar)
    return frame.mu * qbar + frame.nu * pbar


def coherent_tomogram(alpha: complex, frame: TomographyFrame, X, hbar: float):
    """Gaussian tomogram of |alpha>, with kappa = 1/(hbar (nu^2 + mu^2)):

        sqrt(kappa/pi) exp[-kappa (X - sqrt(2 hbar) (mu Re alpha + nu Im alpha))^2]
    """
    d = frame.nu ** 2 + frame.mu ** 2
    if d == 0.0:
        raise TomogramError("closed-form tomogram rejected for the zero frame")
    Xv = np.asarray(X, dtype=float)
    r = math.sqrt(2.0 * hbar)
    shift = frame.mu * r * alpha.real + frame.nu * r * alpha.imag
    out = math.sqrt(1.0 / (math.pi * hbar * d)) * np.exp(-((Xv - shift) ** 2) / (hbar * d))
    return float(out) if np.isscalar(X) else out


def superposition_cross_term(n: int, m: int, frame: TomographyFrame, X, hbar: float):
    """Interference term Re(A_n A_m*) / (2 pi hbar |nu|) of (|n>+|m>)/sqrt2,

        sqrt(kappa) cos((n - m)(arg zeta - pi/2)) phi_n(Q) phi_m(Q),   Q = sqrt(kappa) X:

    the chirp phase common to both amplitudes cancels and is never
    formed, so the form holds down to nu = 0 (the position marginal).
    """
    kappa = _kappa(frame, hbar)
    Q = math.sqrt(kappa) * np.asarray(X, dtype=float)
    turn = math.cos((n - m) * (math.atan2(frame.mu, frame.nu) - 0.5 * math.pi))
    out = math.sqrt(kappa) * turn * hermite_phi(n, Q) * hermite_phi(m, Q)
    return float(out) if np.isscalar(X) else out


def superposition_tomogram(n: int, m: int, frame: TomographyFrame, X, hbar: float):
    """Tomogram of (|n> + |m>)/sqrt2: the half-half mixture plus the
    amplitude interference term, in every nonzero frame."""
    if n == m:
        raise TomogramError("superposition requires distinct eigenstates")
    Xv = np.asarray(X, dtype=float)
    out = (
        0.5 * hermite_tomogram(n, frame, Xv, hbar)
        + 0.5 * hermite_tomogram(m, frame, Xv, hbar)
        + superposition_cross_term(n, m, frame, Xv, hbar)
    )
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(X) else out


def _coherent_exponent(alpha: complex, z: complex, X: np.ndarray, hbar: float) -> np.ndarray:
    # exponent of A_alpha without the chirp -X^2/(2 hbar nu zeta*) that every
    # coherent amplitude in the frame shares
    zc = z.conjugate()
    return (-0.5 * abs(alpha) ** 2 + z * alpha * alpha / (2.0 * zc)
            - 1j * math.sqrt(2.0 / hbar) * X * alpha / zc)


def cat_interference(alpha: complex, frame: TomographyFrame, X, hbar: float):
    """Interference term I = 2 Re(A_alpha A_{-alpha}*)/(2 pi hbar |nu|) of a
    cat state; its integral is 2 exp(-2|alpha|^2) independent of hbar.

    The chirp phase common to both amplitudes cancels and is never
    formed: with kappa = 1/(hbar |zeta|^2),

        I = 2 sqrt(kappa/pi) Re exp(E_alpha + E_{-alpha}* - kappa X^2),

    which holds down to nu = 0 (the position marginal).
    """
    kappa = _kappa(frame, hbar)
    Xv = np.asarray(X, dtype=float)
    z = complex(frame.nu, frame.mu)  # zeta
    expo = (_coherent_exponent(alpha, z, Xv, hbar)
            + np.conj(_coherent_exponent(-alpha, z, Xv, hbar)) - kappa * Xv * Xv)
    out = 2.0 * math.sqrt(kappa / math.pi) * np.exp(expo).real
    return float(out) if np.isscalar(X) else out


def cat_tomogram(alpha: complex, parity: str, frame: TomographyFrame, X, hbar: float):
    """Even/odd cat tomogram N^2 [W_alpha + W_{-alpha} +- I]."""
    if parity not in ("even", "odd"):
        raise TomogramError(f"cat parity must be 'even' or 'odd', got {parity!r}")
    sign = 1.0 if parity == "even" else -1.0
    N2 = cat_normalization(alpha, parity) ** 2
    Xv = np.asarray(X, dtype=float)
    out = N2 * (
        coherent_tomogram(alpha, frame, Xv, hbar)
        + coherent_tomogram(-alpha, frame, Xv, hbar)
        + sign * cat_interference(alpha, frame, Xv, hbar)
    )
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(X) else out


# ---------------------------------------------------------------------------
# characteristic functions G(mu, nu) = <exp(i(mu q + nu p))> = <D(beta)>
# ---------------------------------------------------------------------------

def _displacement_beta(mu_grid, nu_grid, hbar: float) -> np.ndarray:
    """beta[i, j] with exp(i(mu_i q + nu_j p)) = D(beta): beta =
    sqrt(hbar/2) (i mu - nu), |beta|^2 = 1/(2 kappa)."""
    mu = np.asarray(mu_grid, dtype=float)[:, None]
    nu = np.asarray(nu_grid, dtype=float)[None, :]
    return (-math.sqrt(0.5 * hbar) * nu) + 1j * (math.sqrt(0.5 * hbar) * mu)


def _fock_displacement(m: int, n: int, beta):
    """<m|D(beta)|n> (Cahill & Glauber, Phys. Rev. 177 (1969) 1857): for m >= n

        sqrt(n!/m!) beta^(m-n) e^(-|beta|^2/2) L_n^(m-n)(|beta|^2),

    with the modulus from :func:`specfun.laguerre_scaled`; n > m is the
    same with (m, n) swapped and beta -> -beta*."""
    beta = np.asarray(beta, dtype=complex)
    if n > m:
        return _fock_displacement(n, m, -np.conj(beta))
    ell = laguerre_scaled(n, m - n, beta.real ** 2 + beta.imag ** 2)
    return ell * np.exp(1j * (m - n) * np.angle(beta)) if m > n else ell


def _coherent_displacement(a: complex, c: complex, beta):
    """<a|D(beta)|c> = exp(-|a|^2/2 - |beta+c|^2/2 + a*(beta+c) + (beta c* - beta* c)/2)
    of coherent states, with the exponent summed before exponentiating:
    its real part is -|a - beta - c|^2/2, so Ehrenfest-sized |alpha|
    cannot overflow."""
    beta = np.asarray(beta, dtype=complex)
    b = beta + c
    r = a - b
    return np.exp(-0.5 * (r.real ** 2 + r.imag ** 2)
                  + 1j * ((np.conj(a) * b).imag + (beta * np.conj(c)).imag))


def _expectation(terms, element, beta) -> np.ndarray:
    """<psi|D(beta)|psi> of psi = sum_c w_c |c>: sum_{a,c} w_a* w_c element(a, c, beta)."""
    return sum(np.conj(wa) * wc * element(a, c, beta) for wa, a in terms for wc, c in terms)


def _cat_characteristic(state, mu_grid, nu_grid, hbar):
    N = cat_normalization(state.alpha, state.parity)
    return _expectation(((N, state.alpha), (state.sign * N, -state.alpha)),
                        _coherent_displacement, _displacement_beta(mu_grid, nu_grid, hbar))


def _superposition_characteristic(state, mu_grid, nu_grid, hbar):
    w = 1.0 / math.sqrt(2.0)
    return _expectation(((w, state.n), (w, state.m)), _fock_displacement,
                        _displacement_beta(mu_grid, nu_grid, hbar))


def _box_characteristic(state, mu_grid, nu_grid, hbar):
    """G of the box eigenstate.  With k = n pi/L and s = hbar nu/2 the Weyl
    overlap is (1/L) int_{|s|}^{L-|s|} [cos 2ks - cos 2ky] e^{i mu y} dy:
    three integrals int e^{i w y} dy = e^{i w L/2} d sinc(w d/2) over the
    overlap of length d = L - 2|s|, and zero where d <= 0."""
    L, k = state.L, state.n * math.pi / state.L
    mu = np.asarray(mu_grid, dtype=float)[:, None]
    s = 0.5 * hbar * np.asarray(nu_grid, dtype=float)[None, :]
    d = np.maximum(L - 2.0 * np.abs(s), 0.0)

    def segment(w):
        return np.exp(0.5j * L * w) * d * np.sinc(w * d / (2.0 * math.pi))

    return (np.cos(2.0 * k * s) * segment(mu)
            - 0.5 * (segment(mu + 2.0 * k) + segment(mu - 2.0 * k))) / L


# nodes x mu entries of one exp block in _overlap_characteristic
_OVERLAP_BLOCK = 1 << 20


def _overlap_characteristic(state, mu_grid, nu_grid, hbar):
    """G(mu, nu) = int psi*(y - s) psi(y + s) e^{i mu y} dy, s = hbar nu/2,
    by Gauss-Legendre quadrature for any state.

    For each nu the panels cover the overlap of the two shifted supports;
    their coarse edges are the state's cell edges (:func:`_cells`) shifted
    by -s and +s, so each sub-cell of a sampled state holds a quadratic
    times e^{i mu y}, and they are split so that no panel spans more than
    pi/4 of phase at the largest |mu|.  All mu then take one matrix
    product with exp(i mu y), in blocks of bounded size.
    """
    mu = np.asarray(mu_grid, dtype=float)
    nu = np.asarray(nu_grid, dtype=float)
    psi = position_wavefunction(state, hbar)
    edges, env_scale = _cells(state, hbar)
    mu_max = float(np.max(np.abs(mu), initial=0.0))
    G = np.zeros((mu.size, nu.size), dtype=complex)
    for j in range(nu.size):
        h = 0.5 * hbar * nu[j]
        lo, hi = edges[0] + abs(h), edges[-1] - abs(h)
        if hi <= lo:
            continue  # the shifted supports do not overlap
        cuts = np.concatenate((edges - h, edges + h))
        coarse = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
        nodes, weights = _chirp_panels(coarse, 0.0, mu_max, env_scale)
        f = np.conj(psi(nodes - h)) * psi(nodes + h) * weights
        rows = max(1, _OVERLAP_BLOCK // nodes.size)
        for i in range(0, mu.size, rows):
            G[i:i + rows, j] = np.exp(1j * np.outer(mu[i:i + rows], nodes)) @ f
    return G


# ---------------------------------------------------------------------------
# quadrature route (representation-dispatched) and grid helpers
# ---------------------------------------------------------------------------

def ehrenfest_hbar(n: int, L: float = 1.0) -> float:
    """hbar pinned by unit energy for the box eigenstate: sqrt2 L/(n pi)."""
    return math.sqrt(2.0) * L / (n * math.pi)


def box_tomogram(n: int, L: float, frame: TomographyFrame, x_grid,
                 hbar: float) -> Tomogram:
    """Exact box-eigenstate tomogram from the two interval chirp integrals
    A_-+ = int_0^L exp(i(a y^2 + (b -+ k) y)) dy with a = mu/(2 hbar nu),
    b = -X/(hbar nu), k = n pi/L (:func:`interval_chirp`, Faddeeva
    closed form); W = |A_- - A_+|^2 / (4 pi L hbar |nu|).

    nu = 0, the zero frame included, takes the exact branches of
    :func:`tomogram_from_wavefunction`; mu = 0 (a = 0) is the linear branch
    of :func:`interval_chirp`.  The cost is independent of n.
    """
    x = np.asarray(x_grid, dtype=float)
    if frame.nu == 0.0:
        return tomogram_from_wavefunction(BoxEigen(n, L), frame, x, hbar)
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


# at most this many Gauss-Legendre panels (8 nodes each) per panel set
_MAX_PANELS = 4_000_000
_PHASE_PER_PANEL = math.pi / 4.0  # 1/8 of a period

# np.polynomial.legendre.leggauss(8), bit for bit (importing numpy.polynomial
# costs several ms of every CLI start)
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                      0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                        0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


class ChirpResolutionError(RuntimeError):
    """The requested integral needs more quadrature panels than allowed."""

    def __init__(self, needed: int, allowed: int):
        self.needed, self.allowed = needed, allowed
        super().__init__(f"chirp quadrature needs {needed} panels ({8 * needed} nodes) "
                         f"but only {allowed} are allowed")


def _gl_panels(coarse: np.ndarray, dphase: np.ndarray,
               env_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over the coarse cells (any widths,
    increasing edges), each split into equal panels that keep its phase
    change dphase under 1/8 of a period and its width under half the
    envelope scale (env_scale = inf: no envelope split).  Inside each cell
    the panel edges are the values np.linspace(left, right, nsplit + 1) gives.
    """
    width = np.diff(coarse)
    nsplit = np.maximum(np.maximum(np.ceil(dphase / _PHASE_PER_PANEL),
                                   np.ceil(width / (0.5 * env_scale))), 1).astype(int)
    total = int(nsplit.sum())
    if total > _MAX_PANELS:
        raise ChirpResolutionError(total, _MAX_PANELS)
    cell = np.repeat(np.arange(width.size), nsplit)
    k = np.arange(1, total + 1) - np.repeat(np.cumsum(nsplit) - nsplit, nsplit)
    right = k * (width / nsplit)[cell] + coarse[cell]
    right[k == nsplit[cell]] = coarse[1:]  # each cell ends exactly on its edge
    edges = np.concatenate((coarse[:1], right))
    centers = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (centers[:, None] + halves[:, None] * _GL_NODES[None, :]).ravel()
    weights = (halves[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _chirp_panels(cells: np.ndarray, a: float, b_max: float,
                  env_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The panel rule of every chirped quadrature: one panel set for all
    env(y) e^{i(a y^2 + b y)} with |b| <= b_max, whose phase changes across
    a cell by at most |a| |Delta(y|y|)| + b_max Delta y wherever y = -b/2a lies."""
    dphase = abs(a) * np.abs(np.diff(cells * np.abs(cells))) + b_max * np.diff(cells)
    return _gl_panels(cells, dphase, env_scale)


def _cells(state: State, hbar: float) -> tuple[np.ndarray, float]:
    """Edges of the position cells inside which psi is smooth, and the
    envelope scale that splits them.  A sampled state's interpolant is
    linear between its samples, so its cells are the sample grid and need
    no envelope split; other states get 64 equal cells of their extent."""
    if state.sampled:
        return state.x_grid, math.inf
    lo, hi = position_extent(state, hbar)
    return np.linspace(lo, hi, 65), state.envelope_scale(hbar)


def _ladder_amplitudes(env, a: float, slope: float, x: np.ndarray,
                       cells: np.ndarray, env_scale: float) -> np.ndarray:
    """Amplitudes int env(y) e^{i(a y^2 + b_k y)} dy over [cells[0], cells[-1]]
    for the whole uniform family b_k = slope * x_k, sharing one
    Gauss-Legendre panel set over the coarse cells (edges `cells`).

    Panels are sized for the worst |2 a y + b| over the family.  With the
    X-independent phase e^{i(a y^2 + slope x_0 y)} folded into the weights,
    the amplitude at x_k = x_0 + k dx is the exponential sum
    sum_j g_j e^{i k slope dx y_j} of :func:`specfun.uniform_sum`.
    """
    x = np.asarray(x, dtype=float)
    # one panel set for the family: the stationary point sweeps with X
    nodes, weights = _chirp_panels(cells, a, max(abs(slope * x[0]), abs(slope * x[-1])), env_scale)
    g = env(nodes) * np.exp(1j * (a * nodes + slope * x[0]) * nodes) * weights
    dx = float(x[1] - x[0]) if x.size > 1 else 0.0
    return uniform_sum(g, slope * dx * nodes, x.size)


def tomogram_from_wavefunction(state: State, frame: TomographyFrame,
                               x_grid, hbar: float) -> Tomogram:
    """Tomogram by quadrature of the defining amplitude integral, for
    every state: the reference route closed forms are checked against.

    The zero frame is the unit atom at X = 0; nu = 0 is the exact
    position marginal |psi(X/mu)|^2/|mu|; otherwise the amplitude integral
    of psi, with the prefactor 1/(2 pi hbar |nu|).  The representation is
    chosen so that prefactor stays bounded: the Fourier turn q -> p,
    p -> -q takes the frame to (nu, -mu) and psi to psihat, and is taken
    when mu = 0 (so the exact momentum marginal |psihat(X/nu)|^2/|nu|) or
    when |nu|*sigma_p < |mu|*sigma_q; ties stay on the position side.
    Sampled states always integrate on the position side, where their
    support is compact, mu = 0 included: every frame then integrates the
    same linear interpolant.
    """
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    sq, sp = natural_scales(state, hbar)
    fourier = not state.sampled and frame.nu != 0.0 and (
        frame.mu == 0.0 or abs(frame.nu) * sp < abs(frame.mu) * sq)
    mu, nu = (frame.nu, -frame.mu) if fourier else (frame.mu, frame.nu)
    env = (momentum_wavefunction if fourier else position_wavefunction)(state, hbar)
    if nu == 0.0:
        return Tomogram(frame, x, np.abs(env(x / mu)) ** 2 / abs(mu))
    # psihat's cells span the momentum extent; it varies on psi's scale times sigma_p/sigma_q
    cells = ((np.linspace(*momentum_extent(state, hbar), 65), state.envelope_scale(hbar) * sp / sq)
             if fourier else _cells(state, hbar))
    amps = _ladder_amplitudes(env, mu / (2.0 * hbar * nu), -1.0 / (hbar * nu), x, *cells)
    return Tomogram(frame, x, np.abs(amps) ** 2 * (1.0 / (2.0 * math.pi * hbar * abs(nu))))


def default_x_grid(state: State, frame: TomographyFrame, hbar: float,
                   count: int = 2001, tails: float = 8.0) -> np.ndarray:
    """Uniform X grid covering mu*[q support] + nu*[p support], with at
    least 3n + 1 points for a state of largest order n, about three for
    each node of its tomogram (2n + 1 left 5e-5 of the mass off at
    n = 3000)."""
    lo, hi = state.x_extent(frame, hbar, tails)
    if hi - lo < 1e-9:
        lo -= 1.0
        hi += 1.0
    return np.linspace(lo, hi, max(count, 3 * state.max_order() + 1))


class _Route(NamedTuple):
    """Closed forms of one state class: its tomogram, which
    :func:`state_tomogram` takes in place of quadrature, and its
    characteristic function, which :func:`build_state_family` takes in
    place of the Weyl overlap quadrature."""

    tomogram: Callable  # (state, frame, x, hbar) -> tomogram values on x
    characteristic: Callable  # (state, mu_grid, nu_grid, hbar) -> G on the whole frame grid


# Keyed by class here because states.py cannot import this module; the
# entries call the module functions by global name, so rebinding one of
# those names (tracing, tests) reaches every route.  The oscillator
# entries are written at varpi = 1 and receive the frame (or frame grids)
# that _unit_varpi maps each state to.
_ROUTES = {
    HOEigen: _Route(
        lambda s, fr, x, h: hermite_tomogram(s.n, fr, x, h),
        lambda s, mu, nu, h: _fock_displacement(s.n, s.n, _displacement_beta(mu, nu, h))),
    Coherent: _Route(
        lambda s, fr, x, h: coherent_tomogram(s.alpha, fr, x, h),
        lambda s, mu, nu, h: _coherent_displacement(s.alpha, s.alpha, _displacement_beta(mu, nu, h))),
    **dict.fromkeys((CatEven, CatOdd), _Route(
        lambda s, fr, x, h: cat_tomogram(s.alpha, s.parity, fr, x, h),
        _cat_characteristic)),
    Superposition: _Route(
        lambda s, fr, x, h: superposition_tomogram(s.n, s.m, fr, x, h),
        _superposition_characteristic),
    BoxEigen: _Route(
        lambda s, fr, x, h: box_tomogram(s.n, s.L, fr, x, h).values,
        _box_characteristic),
}


def _unit_varpi(state: State, mu, nu):
    """(mu/sqrt(varpi), nu sqrt(varpi)): the squeeze q -> q sqrt(varpi),
    p -> p/sqrt(varpi) takes a varpi oscillator state to varpi = 1 and
    relabels its frame (values or grids) so; other states keep theirs."""
    r = math.sqrt(getattr(state, "varpi", 1.0))
    return mu / r, nu * r


def state_tomogram(state: State, frame: TomographyFrame, x_grid,
                   hbar: float) -> Tomogram:
    """Tomogram of any state, and the one place its route is chosen: the
    zero frame is the unit atom delta(X); a state in the route table takes
    its closed form in the frame :func:`_unit_varpi` maps it to (a box
    state :func:`box_tomogram`, exact in every frame); every other state
    takes the quadrature of :func:`tomogram_from_wavefunction`."""
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    route = _ROUTES.get(type(state))
    if route is not None:
        unit = TomographyFrame(*_unit_varpi(state, frame.mu, frame.nu))
        return Tomogram(frame, x, route.tomogram(state, unit, x, hbar))
    return tomogram_from_wavefunction(state, frame, x, hbar)


# ---------------------------------------------------------------------------
# Wigner maps
# ---------------------------------------------------------------------------

def rho_grid(state: State, hbar: float, x_grid) -> GridFunction2D:
    """Pure-state density matrix rho(x, x') = psi(x) psi*(x') on a grid."""
    x = np.asarray(x_grid, dtype=float)
    psi = position_wavefunction(state, hbar)(x)
    return GridFunction2D(x, x, np.outer(psi, np.conj(psi)))


def _check_hermitian(rho: GridFunction2D) -> None:
    if rho.values.shape[0] != rho.values.shape[1] or not np.array_equal(rho.x_grid, rho.y_grid):
        raise TomogramError("density matrix grid must be square with equal axes")
    v = rho.values
    scale = max(1.0, float(np.max(np.abs(v))))
    # |rho - rho^dagger|^2 from the parts: (Re rho - Re rho^T)^2 + (Im rho + Im rho^T)^2
    d = np.square(v.real - v.real.T)
    d += np.square(v.imag + v.imag.T)
    resid = math.sqrt(float(np.max(d)))
    if not resid <= 1e-6 * scale:
        raise TomogramError(f"density matrix is non-Hermitian (residual {resid:.3e})")


def wigner_grid_from_density(rho: GridFunction2D, q_grid, p_grid,
                             hbar: float) -> tuple[GridFunction2D, float]:
    """Wigner samples W[iq, ip] = int rho(q + u/2, q - u/2) e^{-i p u/hbar} du
    plus the worst imaginary residual, from grid values of rho only.

    On the density grid x_a = x0 + a h the anti-diagonal rho[a, m - a] holds
    exact samples of the half-grid row q_m = x0 + m h/2, at u = (2a - m) h.
    The trapezoid rule in u (step 2h, end weights 1/2, rho zero off the grid)
    gives R_m(p) = e^{i p m h/hbar} sum_a w_{m,a} rho[a, m - a] e^{-2i p a h/hbar} 2h
    for every row in one matrix product over one (n x n_p) phase table.  Only
    the rows that the 4-point stencils of the q need are built; W(q, p) is
    the cubic Lagrange interpolant of Re R_m, zero for q outside the grid.
    The error is the trapezoid rule's (spectral for a rho that decays inside
    the grid) plus O(h^4) from the q interpolation: below 2e-6 for HOEigen(0..3)
    and a coherent state on 401 points over +-6 sqrt(hbar).  The step 2h
    aliases W(q, p) with W(q, p +- pi hbar/h), so |p| > pi*hbar/(2h) is
    refused.  The residual max |Im R_m| is the anti-Hermitian part of rho
    along the rows built: roundoff for a Hermitian rho.
    """
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    _check_hermitian(rho)
    x, h, n = rho.x_grid, rho.dx, rho.x_grid.size
    pmax, bound = float(np.max(np.abs(p), initial=0.0)), math.pi * hbar / (2.0 * h)
    if pmax > bound:
        raise TomogramError(f"|p| up to {pmax:.4g} exceeds the aliasing bound pi*hbar/(2h) = "
                            f"{bound:.4g} of the density grid (h = {h:.4g})")
    inside = (q >= x[0]) & (q <= x[-1])
    t = (q[inside] - x[0]) / (0.5 * h)
    k = min(4, 2 * n - 1)
    nodes = np.clip(np.floor(t).astype(int) - 1, 0, 2 * n - 1 - k)[:, None] + np.arange(k)
    lag = np.ones(nodes.shape)
    for j in range(k):
        for i in set(range(k)) - {j}:
            lag[:, j] *= (t - nodes[:, i]) / (j - i)
    m, at = np.unique(nodes, return_inverse=True)
    # trapezoid weights of step 2h over the a with 0 <= m - a < n
    a = np.arange(n)
    b = m[:, None] - a
    w = np.where((b >= 0) & (b < n), 2.0 * h, 0.0)
    w[np.arange(m.size), np.maximum(m - n + 1, 0)] -= h
    w[np.arange(m.size), np.minimum(m, n - 1)] -= h
    # row m of diag is anti-diagonal m of rho: rho[a, m - a] is flat element
    # m + a (n - 1), inside the buffer for every 0 <= m <= 2n - 2
    v = np.ascontiguousarray(rho.values)
    diag = np.lib.stride_tricks.as_strided(v, shape=(2 * n - 1, n), writeable=False,
                                           strides=(v.itemsize, (n - 1) * v.itemsize))
    # e^{-2i p a h/hbar} written as its cos and sin parts, twice as fast as a complex exp
    arg = np.outer(a, p) * (-2.0 * h / hbar)
    phase = np.empty(arg.shape, complex)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    R = (diag[m] * w) @ phase
    # e^{i p m h/hbar} from the table: conj(phase[m // 2]), times e^{i p h/hbar} for odd m
    R *= phase[m // 2].conj()
    R[m % 2 == 1] *= np.exp(1j * h / hbar * p)
    out = np.zeros((q.size, p.size))
    out[inside] = np.einsum("qk,qkp->qp", lag, R.real[at.reshape(nodes.shape)])
    return GridFunction2D(q, p, out), float(np.max(np.abs(R.imag), initial=0.0))


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

def build_state_family(state: State, hbar: float, mu_grid, nu_grid,
                       x_grid) -> FrameSamples:
    """Characteristic samples G(mu, nu) = int W(X; mu, nu) e^{iX} dX =
    <exp(i(mu q + nu p))> of one state over a rectangular (mu, nu) grid,
    with no tomogram built; x_grid is ignored.

    States in the route table take G from its characteristic function
    in one vectorised call on the grids :func:`_unit_varpi` maps them to
    (the oscillator catalog from <D(beta)>, box states from three
    elementary integrals); every other state takes the
    Weyl overlap quadrature of :func:`_overlap_characteristic`.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    route = _ROUTES.get(type(state))
    if route is not None:
        G = np.array(route.characteristic(state, *_unit_varpi(state, mu_grid, nu_grid), hbar),
                     dtype=complex)
    else:
        G = _overlap_characteristic(state, mu_grid, nu_grid, hbar)
    G[(mu_grid == 0.0)[:, None] & (nu_grid == 0.0)[None, :]] = 1.0  # unit atom at X = 0
    # declared alias radii: 4-sigma support is what the Nyquist check needs,
    # not the 8-sigma quadrature padding
    qlo, qhi = position_extent(state, hbar, tails=4.0)
    plo, phi = momentum_extent(state, hbar, tails=4.0)
    q_extent = max(abs(qlo), abs(qhi))
    p_extent = max(abs(plo), abs(phi))
    return FrameSamples(mu_grid, nu_grid, G, q_extent, p_extent)


def wigner_from_tomogram_grid(family: FrameSamples, q_grid, p_grid,
                              hbar: float) -> tuple[GridFunction2D, float]:
    """Wigner reconstruction W[iq, ip] plus the worst imaginary residual."""
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    acc = characteristic_quadrature(family, q, p)
    acc *= hbar / (2.0 * math.pi)
    return GridFunction2D(q, p, acc.real), float(np.max(np.abs(acc.imag)))


def build_state_slices(state: State, hbar: float, nu_values, mu_grid,
                       x_grid) -> FrameSamples:
    """The family at the nu slices nu = (x - x')/hbar that the density-matrix
    reconstruction reads."""
    return build_state_family(state, hbar, mu_grid, nu_values, x_grid)


def density_grid_from_tomogram(samples: FrameSamples, x_points,
                               hbar: float) -> tuple[np.ndarray, float]:
    """rho(x, x') on the pairwise grid of x_points, the trapezoid mu integral
    of G(mu, (x - x')/hbar) e^{-i mu (x + x')/2} / 2 pi; returns (matrix,
    Hermiticity residual)."""
    xs = np.asarray(x_points, dtype=float)
    j = samples.nu_index((xs[:, None] - xs[None, :]) / hbar).ravel()
    s = (0.5 * (xs[:, None] + xs[None, :])).ravel()
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
    rho = (rho * (dmu / (2.0 * math.pi))).reshape(xs.size, xs.size)
    resid = float(np.max(np.abs(rho - rho.conj().T)))
    return rho, resid
