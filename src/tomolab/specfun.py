"""Stable special-function evaluation for tomogram closed forms and
large-order asymptotics: normalized Hermite functions, scaled Laguerre
functions, the Faddeeva function w(z), the Airy function Ai, log-Gamma, the
large-negative-order parabolic-cylinder asymptotic, and the chirp
z-transform behind the quadrature-route and Radon-slice tomograms.

Hermite and Laguerre functions come from one recurrence: the normalized
Laguerre recurrence in its difference form, which Hermite runs in steps of
two orders as phi_{2m+p}(x) = (-1)^m x^p l_m^(p-1/2)(x^2).  It carries
e_j = a_j d_j beside the mantissa l, so a step is e += (c_j - y) l,
l += e / b_j: five in-place passes over three array buffers, with every
c_j and b_j computed before the steps.  The exponent is carried apart,
-x^2/2 or -x/2 plus the powers of two taken out as the mantissa grows, so
neither overflows nor underflows before its result does: Hermite orders up
to 10000 and Laguerre orders up to 2000 hold against mpmath wherever the
raw polynomials or e^(-x^2/2) leave double range.

Ai and the U asymptotic run one numpy code path for every input: a scalar
is a one-element array, so it gives exactly the value of its element in an
array, and each element is truncated on its own.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "hermite_phi",
    "laguerre_scaled",
    "faddeeva",
    "airy_ai",
    "parabolic_u_asymptotic",
    "chirp_sum",
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
# phi_n, n <= HERMITE_MAX_ORDER, is below the smallest double beyond
# |x| = 200; clipping at 2^10 keeps the odd start value x inside the 64
# bits above the headroom
_HERMITE_X_FAR = 2.0 ** 10


def _carried(n: int, alpha: float, y, v, small, ymax: float):
    # Runs the normalized Laguerre recurrence (see laguerre_scaled) in its
    # difference form for n steps on the mantissa v of
    # l_0 = v exp(-y/2 + small), y <= ymax, and returns the true l_n, a
    # float for a scalar v.  It carries e_j = a_j d_j (a_j = b_{j-1}), so a
    # step is e += (c_j - y) l, l += e (1/b_j): five in-place passes over
    # three buffers, e, l and t (0-d for a scalar v).  Every `stride` steps e and l are divided
    # by the power of two of the larger one and the powers are counted
    # apart.  One step multiplies the larger by at most `growth`, so from
    # |v| <= 1 nothing passes 2^_HEADROOM between two checks, and the
    # rescaling is exact, so no element's value depends on another's.  The
    # counted powers nearly cancel -y/2 (exact) where the mantissa grew, so
    # that sum comes first, and the exponential is taken once: nothing
    # underflows before the result does.
    l = np.array(v, dtype=float)
    e = np.zeros_like(l)
    t = np.empty_like(l)
    twos = np.int64(0)
    # |e_{j+1}| <= |e_j| + (|c_j| + y)|l_j| and |l_{j+1}| <= |l_j| + sqrt(2)|e_{j+1}|,
    # as b_j >= 1/sqrt(2) and |c_j| <= |alpha| for alpha >= -1/2
    growth = 1.0 + math.sqrt(2.0) * (1.0 + abs(alpha) + ymax)
    stride = max(1, int(_HEADROOM / math.log2(growth)))
    # every c_j and 1/b_j at once, before the steps
    js = np.arange(n + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / (np.sqrt(js + alpha) + np.sqrt(js)) ** 2
    if alpha <= 0:  # (sqrt(j+alpha) - sqrt(j))^2 is alpha itself at j = 0, and c is 0 at alpha = 0
        inner[0] = 1.0 / alpha if alpha else 0.0
    c = 0.5 * alpha * alpha * (inner[1:] + inner[:-1])
    rb = 1.0 / np.sqrt(js[1:] * (js[1:] + alpha))
    for j, (cj, rbj) in enumerate(zip(c.tolist(), rb.tolist())):
        np.subtract(cj, y, out=t)
        t *= l
        e += t
        np.multiply(e, rbj, out=t)
        l += t
        if j % stride == stride - 1:
            k = np.frexp(np.maximum(np.abs(e), np.abs(l)))[1]
            np.ldexp(e, -k, out=e)
            np.ldexp(l, -k, out=l)
            twos = twos + k
    l, k = np.frexp(l)
    twos = twos + k
    out = l * np.exp((-0.5 * y + twos * _LN2_HI) + twos * _LN2_LO + small)
    return float(out) if out.ndim == 0 else out


def hermite_phi(n: int, x):
    """Normalized Hermite function phi_n(x) = (sqrt(pi) 2^n n!)^(-1/2) H_n(x) e^(-x^2/2).

    Evaluated in steps of two orders: with n = 2m + p, p = 0 or 1,

        phi_n(x) = (-1)^m x^p l_m^(p - 1/2)(x^2),

    where l_m^(alpha)(y) = sqrt(m!/Gamma(m+alpha+1)) L_m^(alpha)(y) e^(-y/2)
    (DLMF 18.7.19-20) runs the normalized Laguerre recurrence of
    laguerre_scaled in its difference form, from the mantissa x^p with
    -x^2/2 - log Gamma(p + 1/2)/2 and the powers of two taken out of the
    growing mantissa carried as a separate exponent, so only the result
    can underflow.  The difference form never rounds x^2 against 2m + p,
    which the plain two-step recurrence does (4e-12 lost at n = 10000 near
    x = 0).  Within 1e-12 absolute, and 1e-10 relative down to 1e-300, of
    mpmath for n <= HERMITE_MAX_ORDER from x = 0 through the turning point
    into the tail; phi_n(-x) = (-1)^n phi_n(x) exactly, and an element's
    value does not depend on the rest of the array.  Accepts a scalar or
    array x.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be nonnegative, got {n}")
    if n > HERMITE_MAX_ORDER:
        raise ValueError(f"Hermite order {n} beyond validated range {HERMITE_MAX_ORDER}")
    xv = np.minimum(np.maximum(np.asarray(x, dtype=float), -_HERMITE_X_FAR), _HERMITE_X_FAR)
    m, p = divmod(n, 2)
    v = xv if p else np.ones_like(xv)
    out = _carried(m, p - 0.5, xv * xv, v, -0.5 * math.lgamma(p + 0.5), _HERMITE_X_FAR ** 2)
    return -out if m & 1 else out


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
    small = -0.5 * math.lgamma(k + 1.0)
    if k:
        with np.errstate(divide="ignore"):
            small = small + 0.5 * k * np.log(xv)
    return _carried(n, k, xv, np.ones_like(xv), small, float(xv.max(initial=0.0)))


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
        p *= Z
        p += c
    out = 2.0 * p / (d * d) + (1.0 / math.sqrt(math.pi)) / d
    return complex(out) if scalar else out


# every 2^a 3^b 5^c up to 2^40 (each once), ascending: the lengths numpy's
# FFT takes fastest.  np.unique would import numpy.ma, 16 ms of every start
_FFT_LENGTHS = np.multiply.outer(np.multiply.outer(2.0 ** np.arange(41), 3.0 ** np.arange(26)), 5.0 ** np.arange(18))
_FFT_LENGTHS = np.sort(_FFT_LENGTHS[_FFT_LENGTHS <= 2.0 ** 40])


def chirp_sum(u, c: float, n: int) -> np.ndarray:
    """f[..., k] = sum_m u[..., m] e^{2ickm}, k = 0 ... n-1, along the last
    axis of u (M terms), by Bluestein's chirp z-transform (Rabiner, Schafer
    & Rader, IEEE Trans. Audio Electroacoust. 17 (1969) 86): as
    2km = k^2 + m^2 - (k - m)^2, f is e^{ick^2} times the convolution of
    u_m e^{icm^2} with e^{-icd^2}, one FFT product of the least 2^a 3^b 5^c
    length >= M + n - 1.  Each phase c m^2 is rounded once, so for
    |c| (M + n)^2 up to 1e6 the error is below
    (1e-12 + 2e-16 |c| (M + n)^2) sum |u|.  n = 0 gives an empty last axis.
    """
    u = np.asarray(u, dtype=complex)
    M = u.shape[-1]
    L = int(_FFT_LENGTHS[np.searchsorted(_FFT_LENGTHS, M + n - 1)])
    m = np.arange(1 - M, max(n, 1))
    w = np.exp(1j * c * (m * m))  # e^{i c m^2}, m = 1 - M ... n - 1
    conv = np.fft.ifft(np.fft.fft(u * w[M - 1::-1], L) * np.fft.fft(w.conj(), L))
    return w[M - 1:M - 1 + n] * conv[..., M - 1:M - 1 + n]


_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)   # Ai(0)
_AIP0 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)  # -Ai'(0)
# x^3 ratios of consecutive Maclaurin terms of the two Ai series, two steps a row
_AIRY_STEPS = [(1.0 / ((3 * k + 2) * (3 * k + 3)), 1.0 / ((3 * k + 3) * (3 * k + 4)),
                1.0 / ((3 * k + 5) * (3 * k + 6)), 1.0 / ((3 * k + 6) * (3 * k + 7))) for k in range(0, 120, 2)]
# u_k of the Ai expansions for large |x| (DLMF 9.7.2)
_AIRY_U = [1.0]
for _k in range(60):
    _AIRY_U.append(_AIRY_U[-1] * ((3 * _k + 0.5) * (3 * _k + 1.5) * (3 * _k + 2.5)
                                  / (54.0 * (_k + 1) * (_k + 0.5))))


def _split(x, index, fs):
    # the pair fs[i](x) on the elements of x whose index is i, each
    # function evaluated on its own elements only
    out = [np.empty_like(x), np.empty_like(x)]
    for i, f in enumerate(fs):
        mask = index == i
        for o, v in zip(out, f(x[mask])):
            o[mask] = v
    return tuple(out)


def _airy_series(x):
    # Maclaurin series Ai = c1*f - c2*g; converges for all x, numerically
    # trustworthy for roughly -8 < x < 7 in double precision.  Terms are
    # added two at a time until every element's two series have converged;
    # past its own convergence an element's terms are below half an ulp of
    # its sums and leave them unchanged, so each element gets its own
    # truncation.
    x3 = x * x * x
    tf = 1.0
    tg = x
    f = tf
    g = tg
    for rf, rg, rf2, rg2 in _AIRY_STEPS:
        tf = tf * (x3 * rf)
        tg = tg * (x3 * rg)
        f = f + tf
        g = g + tg
        tf = tf * (x3 * rf2)
        tg = tg * (x3 * rg2)
        f = f + tf
        g = g + tg
        if np.all((abs(tf) <= 1e-18 * abs(f)) & (abs(tg) <= 1e-18 * abs(g))):
            break
    return _AI0 * f - _AIP0 * g, 0.0


def _airy_u_sum(zeta, w):
    # sum_k w^k u_k zeta^-k, each element truncated at its smallest term:
    # before the first term larger than the one before it, and after the
    # first term below 1e-19
    s = 1.0
    r = 1.0 / zeta
    t = 1.0
    wk = 1.0
    live = True
    for k in range(1, len(_AIRY_U)):
        last = t
        t = _AIRY_U[k] * r ** k
        wk = wk * w
        live = live & (t <= last)
        s = s + wk * t * live
        live = live & (t >= 1e-19)
        if not np.any(live):
            break
    return s


def _airy_decaying(x):
    # Ai(x) = m e^(-zeta), zeta = (2/3) x^(3/2), by the expansion for x -> +inf
    zeta = (2.0 / 3.0) * x ** 1.5
    return _airy_u_sum(zeta, -1.0) / (2.0 * math.sqrt(math.pi) * x ** 0.25), zeta


def _airy_oscillatory(x):
    # Ai(-z) ~ pi^(-1/2) z^(-1/4) [ sin(zeta + pi/4) * S_even
    #                               - cos(zeta + pi/4) * S_odd ],
    # S_even + i S_odd = sum_k i^k u_k zeta^-k
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    s = _airy_u_sum(zeta, 1j)
    ph = zeta + 0.25 * math.pi
    return (np.sin(ph) * s.real - np.cos(ph) * s.imag) / (math.sqrt(math.pi) * z ** 0.25), 0.0


def _airy(x):
    # (m, zeta) with Ai(x) = m e^(-zeta) for any real x; zeta is 0 off the
    # decaying branch, and m does not underflow
    return _split(x, (x > AIRY_SWITCH_NEG) * 1 + (x >= AIRY_SWITCH_POS),
                  (_airy_oscillatory, _airy_series, _airy_decaying))


def airy_ai(x):
    """Airy function Ai(x) for |x| <= 100, for a scalar or an array x.

    Maclaurin series on (AIRY_SWITCH_NEG, AIRY_SWITCH_POS), the standard
    decaying/oscillatory asymptotic expansions beyond, each element
    truncated on its own; both branches agree at the switch points to
    better than 1e-9 (regression-tested), and the whole range holds within
    5e-12 of mpmath.  A scalar x gives a float, the value of its element in
    an array.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 100.0):
        raise ValueError(f"airy_ai validated only for |x| <= 100, got {np.max(np.abs(x))}")
    m, zeta = _airy(np.atleast_1d(x))
    out = (m * np.exp(-zeta)).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def parabolic_u_asymptotic(a: float, x):
    """Large-|a| asymptotic of the parabolic cylinder function U(a, x)
    for a <= -10 and a scalar or array x >= 0 (DLMF 12.10):

        U(a, x) ~ 2^(-1/4 - a/2) Gamma(1/4 - a/2) (tau/(xi^2 - 1))^(1/4) Ai(tau)

    with xi = x/(2 sqrt|a|) and tau the Airy variable built from the
    phase integrals Theta (oscillatory branch xi <= 1, tau < 0; decaying
    branch xi >= 1, tau > 0).  tau -> 0 at the turning point xi = 1, where
    the ratio tau/(xi^2 - 1) tends to |a|^(2/3), so the formula is
    continuous across the branches by construction.

    The prefactor and the decay of Ai are assembled in log space;
    2^(-a/2) Gamma(1/4 - a/2) overflows directly for |a| beyond ~150, and
    where U's envelope leaves double range (|a| beyond ~300) an
    OverflowError is raised.  A scalar x gives a float, the value of its
    element in an array.
    """
    if a > -10:
        raise ValueError(f"asymptotic regime requires a <= -10, got a = {a}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"argument must be nonnegative, got {np.min(x)}")
    am = -float(a)

    def turning(xi):
        return 0.0, am ** (2.0 / 3.0)

    def oscillatory(xi):
        tau = -((6.0 * am * (0.25 * (np.acos(xi) - xi * np.sqrt(1.0 - xi * xi)))) ** (2.0 / 3.0))
        return tau, tau / (xi * xi - 1.0)

    def decaying(xi):
        tau = (6.0 * am * (0.25 * (xi * np.sqrt(xi * xi - 1.0) - np.acosh(xi)))) ** (2.0 / 3.0)
        return tau, tau / (xi * xi - 1.0)

    xi = np.atleast_1d(x) / (2.0 * math.sqrt(am))
    tau, ratio = _split(xi, (1.0 - xi < 1e-4) * 1 + (xi - 1.0 >= 1e-4), (oscillatory, turning, decaying))
    m, zeta = _airy(tau)
    log_pref = (-0.25 - 0.5 * a) * math.log(2.0) + math.lgamma(0.25 - 0.5 * a)
    power = log_pref + 0.25 * np.log(ratio) - zeta
    if np.any(power > _LOG_DOUBLE_MAX):
        raise OverflowError(f"U(a, x) beyond the double range at a = {a}")
    out = (m * np.exp(power)).reshape(x.shape)
    return float(out) if out.ndim == 0 else out
