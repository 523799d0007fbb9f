"""Stable special-function evaluation for tomogram closed forms and
large-order asymptotics: normalized Hermite functions, scaled Laguerre
functions, the Faddeeva function w(z), the Airy function Ai, log-Gamma, the
large-negative-order parabolic-cylinder asymptotic, and the uniform
exponential sum behind the quadrature-route tomograms.

The Hermite and Laguerre recurrences run on mantissas with the exponent
carried apart, -x^2/2 or -x/2 plus the powers of two taken out as the
mantissa grows, so neither overflows nor underflows before its result
does: Hermite orders up to 10000 and Laguerre orders up to 2000 hold
against mpmath wherever the raw polynomials or e^(-x^2/2) leave double range.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hermite_phi",
    "laguerre_scaled",
    "faddeeva",
    "airy_ai",
    "log_gamma",
    "parabolic_u_asymptotic",
    "uniform_sum",
    "AIRY_SWITCH_POS",
    "AIRY_SWITCH_NEG",
]

HERMITE_MAX_ORDER = 10_000
LAGUERRE_MAX_ORDER = 2000

# Series/asymptotic hand-over points for Ai.  The decaying side can switch
# at 5 (optimally truncated expansion is good to ~4e-11 there); the
# oscillatory side needs |x| >= 7 before the expansion floor drops under
# the 1e-9 seam-continuity budget, so the Maclaurin series covers (-7, 5).
AIRY_SWITCH_POS = 5.0
AIRY_SWITCH_NEG = -7.0


# ln 2 = _LN2_HI + _LN2_LO with e * _LN2_HI exact for |e| < 2^20 (fdlibm)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# bits a mantissa may grow between two rescalings; the first overflow is at 2^1024
_HEADROOM = 960
# every function here underflows beyond this argument; clipping to it keeps
# one recurrence step below the headroom
_X_FAR = 2.0 ** 500


def _carried(step, n: int, v, growth: float, big, small=0.0):
    # Runs the two-term recurrence (u, v) <- step(j, u, v), j < n, from
    # (0, v) on mantissas and returns the true v_n exp(big + small), a float
    # for a 0-d v.  Every `stride` steps both mantissas are divided by the
    # power of two of the larger one and the powers are counted apart; one
    # step multiplies the larger by at most `growth`, so from |v| <= 1
    # nothing passes 2^_HEADROOM between two checks.  The counted powers
    # nearly cancel `big` (-x^2/2 or -x/2, exact) where the mantissa grew,
    # so that sum comes first, and the exponential is taken once: nothing
    # underflows before the result does.
    u = 0.0
    twos = np.zeros(np.shape(v), dtype=np.int64)
    stride = max(1, int(_HEADROOM / math.log2(max(growth, 2.0))))
    for j in range(n):
        u, v = step(j, u, v)
        if j % stride == stride - 1:
            e = np.frexp(np.maximum(np.abs(u), np.abs(v)))[1]
            u, v = np.ldexp(u, -e), np.ldexp(v, -e)
            twos += e
    v, e = np.frexp(v)
    twos += e
    out = v * np.exp((big + twos * _LN2_HI) + twos * _LN2_LO + small)
    return float(out) if out.ndim == 0 else out


def hermite_phi(n: int, x):
    """Normalized Hermite function phi_n(x) = (sqrt(pi) 2^n n!)^(-1/2) H_n(x) e^(-x^2/2).

    Evaluated with the normalized recurrence
        phi_{k+1} = x*sqrt(2/(k+1))*phi_k - sqrt(k/(k+1))*phi_{k-1}
    from the mantissa pi^(-1/4), with -x^2/2 and the powers of two taken
    out of the growing mantissa carried as a separate exponent, so only
    the result can underflow.  Within 1e-12 absolute, and 1e-10 relative
    down to 1e-300, of mpmath for n <= HERMITE_MAX_ORDER from x = 0
    through the turning point into the tail.  Accepts a scalar or array x.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be nonnegative, got {n}")
    if n > HERMITE_MAX_ORDER:
        raise ValueError(f"Hermite order {n} beyond validated range {HERMITE_MAX_ORDER}")
    xv = np.clip(np.asarray(x, dtype=float), -_X_FAR, _X_FAR)

    def step(k, p0, p1):
        return p1, xv * math.sqrt(2.0 / (k + 1)) * p1 - math.sqrt(k / (k + 1)) * p0

    # |phi_{k+1}| <= (sqrt(2)|x| + 1) max(|phi_k|, |phi_{k-1}|)
    growth = 1.0 + math.sqrt(2.0) * float(np.abs(xv).max(initial=0.0))
    return _carried(step, n, np.full_like(xv, math.pi ** -0.25), growth, -0.5 * xv * xv)


def laguerre_scaled(n: int, k: int, x):
    """Scaled Laguerre function

        l_n^(k)(x) = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x),   x >= 0,

    the modulus of <n+k|D(beta)|n> at x = |beta|^2, so |l| <= 1.  By the
    normalized recurrence b_j l_{j+1} = (2j+1+k-x) l_j - a_j l_{j-1},
    a_j = sqrt(j(j+k)), b_j = sqrt((j+1)(j+1+k)), in its difference form

        b_j d_{j+1} = a_j d_j + (c_j - x) l_j,   l_{j+1} = l_j + d_{j+1},
        c_j = 2j+1+k - a_j - b_j
            = [(sqrt(j+1+k) - sqrt(j+1))^2 + (sqrt(j+k) - sqrt(j))^2]/2,

    which never rounds x against 2j+1+k (the plain form loses 7e-11 near
    x = 0 at n = 2000).  It starts from a unit mantissa: the start
    value's logarithm -x/2 + (k/2) log x - log(k!)/2 and the powers of two
    taken out of the growing mantissa are carried separately and applied
    once at the end, so nothing underflows at large n, k or x.  Validated
    against mpmath for n <= LAGUERRE_MAX_ORDER over 0 <= x <= 4n + 200.
    Accepts a scalar or array x.
    """
    if n < 0 or k < 0:
        raise ValueError(f"Laguerre order and degree must be nonnegative, got n = {n}, k = {k}")
    if n > LAGUERRE_MAX_ORDER:
        raise ValueError(f"Laguerre order {n} beyond validated range 0..{LAGUERRE_MAX_ORDER}")
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0):
        raise ValueError("scaled Laguerre function needs x >= 0")
    xv = np.minimum(xv, _X_FAR)

    def step(j, d, ell):
        c = 0.0 if k == 0 else 0.5 * k * k * (1.0 / (math.sqrt(j + 1 + k) + math.sqrt(j + 1)) ** 2
                                              + 1.0 / (math.sqrt(j + k) + math.sqrt(j)) ** 2)
        d = (math.sqrt(j * (j + k)) * d + (c - xv) * ell) / math.sqrt((j + 1) * (j + 1 + k))
        return d, ell + d

    # |d_{j+1}| <= |d_j| + (c_j + x)|l_j| with b_j >= 1 and c_j <= k
    growth = 2.0 + k + float(xv.max(initial=0.0))
    small = -0.5 * math.lgamma(k + 1.0)
    if k:
        with np.errstate(divide="ignore"):
            small = small + 0.5 * k * np.log(xv)
    return _carried(step, n, np.ones_like(xv), growth, -0.5 * xv, small)


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


def _truncate(x: float, bits: int) -> float:
    """x > 0 cut to its leading `bits` mantissa bits."""
    mant, ex = math.frexp(x)
    return math.ldexp(math.floor(math.ldexp(mant, bits)), ex - bits)


# Gaussian gridding of uniform_sum (Greengard & Lee, SIAM Rev. 46 (2004) 443)
# on a grid of M = 2m points, each node spread to its 2 w + 1 nearest grid
# points.  With tau = s/M^2 and s = (4/3)(w + 1/2) pi, the aliasing of the
# edge modes |h| = m/2 and the Gaussian's truncation both fall to
# exp(-(2/3)(w + 1/2) pi): 5.3e-13 at w = 13 (w = 12 leaves 5e-12)
_SPREAD = 13
_SPREAD_BLOCK = 4096  # nodes per spreading pass: memory O(block w + M)
# 2 pi = _P1 + _P2 + _P3, where n _P1 and n _P2 are exact for |n| < 2^26
_P1 = _truncate(2.0 * math.pi, 27)
_P2 = 2.0 * math.pi - _P1
_P3 = 2.4492935982947064e-16
_THETA_MAX = 4.0e8  # |theta|/(2 pi) < 2^26


def uniform_sum(c, theta, m: int) -> np.ndarray:
    """f_k = sum_j c_j exp(i k theta_j) for k = 0 ... m-1, by Gaussian
    gridding in O(N w + m log m) work.

    Each theta_j is reduced to l_j (2 pi/M) + d_j in double-double
    arithmetic (|theta_j| < 4e8), so the phase of mode k carries no
    k |theta_j| rounding error; the nodes, modulated to centre the modes
    on k = m // 2, are spread with one np.bincount per real and imaginary
    part per block, the grid goes through one inverse FFT and the
    Gaussian's Fourier coefficients are divided out.  The error is at most
    1e-12 * sum_j |c_j| for every m >= 1.
    """
    c = np.asarray(c, dtype=complex).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    if m < 1 or c.shape != theta.shape:
        raise ValueError(f"uniform_sum needs m >= 1 and matching c, theta (m = {m})")
    M = 2 * m
    K = m // 2
    w = _SPREAD
    tau = (4.0 / 3.0) * (w + 0.5) * math.pi / (M * M)
    step = 2.0 * math.pi / M
    step_hi = _truncate(step, 27)
    step_lo = ((2.0 * math.pi - step_hi * M) + _P3) / M
    offs = np.arange(-w, w + 1)
    tail = np.exp(-((offs * step) ** 2) / (4.0 * tau))
    span = M + 2 * w
    re = np.zeros(span)
    im = np.zeros(span)
    for i in range(0, c.size, _SPREAD_BLOCK):
        t = theta[i:i + _SPREAD_BLOCK]
        if not np.max(np.abs(t)) < _THETA_MAX:
            raise ValueError(f"uniform_sum needs finite |theta| < {_THETA_MAX:g}")
        # theta - 2 pi n = s + lo exactly (TwoSum), then s + lo = l step + d
        n = np.rint(t / (2.0 * math.pi))
        a = t - n * _P1
        b = -n * _P2
        s = a + b
        z = s - a
        lo = (a - (s - z)) + (b - z) - n * _P3
        l = np.rint(s / step)
        d = (s - l * step_hi) - l * step_lo + lo
        li = l.astype(np.int64) % M
        cm = c[i:i + _SPREAD_BLOCK] * np.exp(1j * (step * ((K * li) % M) + K * d))
        # exp(-(d - o step)^2/(4 tau)) = e0 q^(o + w) g_o: two exponentials
        # per node, a running product over the offsets o
        q = np.exp(d * (step / (2.0 * tau)))
        g = np.empty((offs.size, d.size))
        g[0] = np.exp(-d * (d + 2.0 * w * step) / (4.0 * tau))
        for j in range(1, offs.size):
            np.multiply(g[j - 1], q, out=g[j])
        g *= tail[:, None]
        idx = (li + (offs + w)[:, None]).ravel()
        re += np.bincount(idx, (g * cm.real).ravel(), span)
        im += np.bincount(idx, (g * cm.imag).ravel(), span)
    fold = (np.arange(span) - w) % M
    grid = np.bincount(fold, re, M) + 1j * np.bincount(fold, im, M)
    h = np.arange(m) - K
    return np.fft.ifft(grid)[h % M] * (math.sqrt(math.pi / tau) * np.exp(tau * h * h))


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
