"""Stable special-function evaluation for tomogram closed forms and
large-order asymptotics: normalized Hermite functions, the Faddeeva
function w(z), the Airy function Ai, log-Gamma, and the
large-negative-order parabolic-cylinder asymptotic.

The Hermite functions use the normalized three-term recurrence so that
orders up to several hundred stay inside double-precision range; the
oscillator studies rely on n ~ 100-500 where the raw polynomials overflow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hermite_phi",
    "faddeeva",
    "airy_ai",
    "log_gamma",
    "parabolic_u_asymptotic",
    "AIRY_SWITCH_POS",
    "AIRY_SWITCH_NEG",
]

HERMITE_MAX_ORDER = 10_000

# Series/asymptotic hand-over points for Ai.  The decaying side can switch
# at 5 (optimally truncated expansion is good to ~4e-11 there); the
# oscillatory side needs |x| >= 7 before the expansion floor drops under
# the 1e-9 seam-continuity budget, so the Maclaurin series covers (-7, 5).
AIRY_SWITCH_POS = 5.0
AIRY_SWITCH_NEG = -7.0


def hermite_phi(n: int, x):
    """Normalized Hermite function phi_n(x) = (sqrt(pi) 2^n n!)^(-1/2) H_n(x) e^(-x^2/2).

    Evaluated with the normalized recurrence
        phi_{k+1} = x*sqrt(2/(k+1))*phi_k - sqrt(k/(k+1))*phi_{k-1},
    which keeps every intermediate bounded (|phi_k| <= 0.8) and is stable
    at least to n = 10000.  Accepts a scalar or array x.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be nonnegative, got {n}")
    if n > HERMITE_MAX_ORDER:
        raise ValueError(f"Hermite order {n} beyond validated range {HERMITE_MAX_ORDER}")
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xv = np.asarray(x, dtype=float)
    p0 = math.pi ** -0.25 * np.exp(-0.5 * xv * xv)
    if n == 0:
        return float(p0) if scalar else p0
    p1 = math.sqrt(2.0) * xv * p0
    for k in range(1, n):
        p0, p1 = p1, xv * math.sqrt(2.0 / (k + 1)) * p1 - math.sqrt(k / (k + 1)) * p0
    return float(p1) if scalar else p1


def _weideman_coefficients(N: int) -> tuple[float, np.ndarray]:
    # Weideman (SIAM J. Numer. Anal. 31 (1994) 1497), eq. (3.7)-(3.9): the
    # Taylor coefficients of the rational expansion are the Fourier
    # coefficients of (L^2 + t^2) e^{-t^2} with t = L tan(theta/2).  The
    # N x 4N cosine sum stands in for an FFT: importing numpy.fft would add
    # ~0.3 MB of resident memory to every process that imports tomolab
    M = 2 * N
    L = math.sqrt(N / math.sqrt(2.0))
    t = L * np.tan(np.arange(-M + 1, M) * math.pi / (2 * M))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    k = np.arange(N, 0, -1)  # a_N ... a_1, highest power first
    kj = np.outer(k, np.arange(2 * M)) % (2 * M)
    return L, (np.cos(math.pi * kj / M) * np.roll(f, M)).sum(axis=1) / (2 * M)


_W_L, _W_COEFFS = _weideman_coefficients(40)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's rational approximation with N = 40 terms,

        w(z) ~ 2 p(Z)/(L - i z)^2 + pi^(-1/2)/(L - i z),
        Z = (L + i z)/(L - i z),  L = 2^(-1/4) sqrt(N),

    whose leading large-|z| term i/(sqrt(pi) z) is exact.  Against
    mpmath the relative error is below 2e-15 on the ray e^{i pi/4} t and
    on the real axis (N = 32 leaves 3e-13 near Re z ~ 5).  Not valid for
    Im z < 0.  Accepts a scalar or array z.
    """
    scalar = np.isscalar(z)
    zv = np.asarray(z, dtype=complex)
    d = _W_L - 1j * zv
    Z = (_W_L + 1j * zv) / d
    p = np.zeros_like(Z)
    for c in _W_COEFFS:
        p = p * Z + c
    out = 2.0 * p / (d * d) + (1.0 / math.sqrt(math.pi)) / d
    return complex(out) if scalar else out


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, accurate to better than 1e-12 relative."""
    if not x > 0:
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)   # Ai(0)
_AIP0 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)  # -Ai'(0)


def _airy_series(x: float) -> float:
    # Maclaurin series Ai = c1*f - c2*g; converges for all x, numerically
    # trustworthy for roughly -8 < x < 7 in double precision.
    x3 = x * x * x
    tf = 1.0
    tg = x
    f = tf
    g = tg
    for k in range(0, 120):
        tf *= x3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        if abs(tf) < 1e-18 * abs(f) and abs(tg) < 1e-18 * max(abs(g), 1e-30):
            break
    return _AI0 * f - _AIP0 * g


def _airy_u_terms(zeta: float, kmax: int = 60) -> list[float]:
    # u_k / zeta^k for the Poincare expansion, truncated at the smallest term
    terms = [1.0]
    u = 1.0
    for k in range(kmax):
        u *= (3 * k + 0.5) * (3 * k + 1.5) * (3 * k + 2.5) / (54.0 * (k + 1) * (k + 0.5))
        t = u / zeta ** (k + 1)
        if abs(t) > abs(terms[-1]):
            break
        terms.append(t)
        if abs(t) < 1e-19:
            break
    return terms


def _airy_asym_pos(x: float) -> float:
    zeta = (2.0 / 3.0) * x ** 1.5
    s = 0.0
    for k, t in enumerate(_airy_u_terms(zeta)):
        s += (-1.0) ** k * t
    return math.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * x ** 0.25)


def _airy_asym_neg(x: float) -> float:
    # Ai(-z) ~ pi^(-1/2) z^(-1/4) [ sin(zeta + pi/4) * S_even
    #                               - cos(zeta + pi/4) * S_odd ]
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    terms = _airy_u_terms(zeta)
    s_even = 0.0
    s_odd = 0.0
    for k, t in enumerate(terms):
        if k % 2 == 0:
            s_even += (-1.0) ** (k // 2) * t
        else:
            s_odd += (-1.0) ** ((k - 1) // 2) * t
    ph = zeta + 0.25 * math.pi
    return (math.sin(ph) * s_even - math.cos(ph) * s_odd) / (math.sqrt(math.pi) * z ** 0.25)


def airy_ai(x: float) -> float:
    """Airy function Ai(x) for |x| <= 100.

    Maclaurin series on (AIRY_SWITCH_NEG, AIRY_SWITCH_POS), the standard
    decaying/oscillatory asymptotic expansions beyond; both branches agree
    at the switch points to better than 1e-9 (regression-tested).
    """
    x = float(x)
    if abs(x) > 100.0:
        raise ValueError(f"airy_ai validated only for |x| <= 100, got {x}")
    if x >= AIRY_SWITCH_POS:
        return _airy_asym_pos(x)
    if x <= AIRY_SWITCH_NEG:
        return _airy_asym_neg(x)
    return _airy_series(x)


def _theta_oscillatory(xi: float) -> float:
    return 0.25 * (math.acos(xi) - xi * math.sqrt(1.0 - xi * xi))


def _theta_decaying(xi: float) -> float:
    return 0.25 * (xi * math.sqrt(xi * xi - 1.0) - math.acosh(xi))


def parabolic_u_asymptotic(a: float, x: float) -> float:
    """Large-|a| asymptotic of the parabolic cylinder function U(a, x)
    for a <= -10 and x >= 0:

        U(a, x) ~ 2^(-1/4 - a/2) Gamma(1/4 - a/2) (tau/(xi^2 - 1))^(1/4) Ai(tau)

    with xi = x/(2 sqrt|a|) and tau the Airy variable built from the
    phase integrals Theta (oscillatory branch xi <= 1, tau < 0; decaying
    branch xi >= 1, tau > 0).  tau -> 0 at the turning point xi = 1, where
    the ratio tau/(xi^2 - 1) tends to |a|^(2/3), so the formula is
    continuous across the branches by construction.

    The prefactor is assembled in log space; 2^(-a/2) Gamma(1/4 - a/2)
    overflows directly for |a| beyond ~150.
    """
    if a > -10:
        raise ValueError(f"asymptotic regime requires a <= -10, got a = {a}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    am = -float(a)
    xi = x / (2.0 * math.sqrt(am))
    if abs(xi - 1.0) < 1e-4:
        ratio = am ** (2.0 / 3.0)
        tau = 0.0
    elif xi < 1.0:
        theta = _theta_oscillatory(xi)
        tau = -((6.0 * am * theta) ** (2.0 / 3.0))
        ratio = tau / (xi * xi - 1.0)
    else:
        theta = _theta_decaying(xi)
        tau = (6.0 * am * theta) ** (2.0 / 3.0)
        ratio = tau / (xi * xi - 1.0)
    ai = airy_ai(tau) if abs(tau) <= 100.0 else _airy_asym_neg(tau)
    if ai == 0.0:
        return 0.0
    log_pref = (-0.25 - 0.5 * a) * math.log(2.0) + log_gamma(0.25 - 0.5 * a)
    return math.copysign(1.0, ai) * math.exp(
        log_pref + 0.25 * math.log(ratio) + math.log(abs(ai))
    )
