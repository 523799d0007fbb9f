import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tomolab import specfun as sf
from tomolab.limits import oscillator_local_period, windowed_average
from tomolab.specfun import (
    airy_ai,
    chirp_sum,
    faddeeva,
    hermite_phi,
    laguerre_scaled,
    parabolic_u_asymptotic,
)


def exact_hermite_phi(n: int, x: Fraction) -> float:
    """Oracle: physicists' Hermite coefficients in exact integer arithmetic,
    evaluated with Fractions, then scaled to the normalized function."""
    coeffs = {0: {0: 1}, 1: {1: 2}}
    for k in range(1, n):
        nxt = {}
        for p, c in coeffs[k].items():
            nxt[p + 1] = nxt.get(p + 1, 0) + 2 * c
        for p, c in coeffs[k - 1].items():
            nxt[p] = nxt.get(p, 0) - 2 * k * c
        coeffs[k + 1] = nxt
    poly = sum(c * x ** p for p, c in coeffs[n].items())
    lognorm = 0.5 * (0.5 * math.log(math.pi) + n * math.log(2.0) + math.lgamma(n + 1.0))
    return float(poly) * math.exp(-float(x) ** 2 / 2.0 - lognorm)


def airy_oracle(x: float) -> float:
    """Oracle: the Airy integral representation evaluated on the rotated ray
    t = e^{i pi/6} s, where the integrand decays like exp(-s^3/3)."""
    from scipy.integrate import simpson

    s = np.linspace(0.0, 12.0, 40001)
    rot = np.exp(1j * math.pi / 6.0)
    f = np.exp(-s ** 3 / 3.0 + 1j * x * rot * s)
    return float(np.real(rot * simpson(f, x=s)) / math.pi)


def test_hermite_ground_value():
    assert abs(hermite_phi(0, 0.0) - math.pi ** -0.25) < 1e-15


def test_hermite_odd_parity_node():
    assert hermite_phi(1, 0.0) == 0.0


def test_hermite_against_exact_polynomial():
    val = hermite_phi(10, 1.3)
    ref = exact_hermite_phi(10, Fraction(13, 10))
    assert abs(val - ref) < 1e-12
    for n, xf in [(3, Fraction(1, 2)), (7, Fraction(-9, 4)), (15, Fraction(21, 10))]:
        assert abs(hermite_phi(n, float(xf)) - exact_hermite_phi(n, xf)) < 1e-12


def test_hermite_rejects_bad_order():
    with pytest.raises(ValueError):
        hermite_phi(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_phi(10_001, 0.0)


def test_hermite_orthonormality():
    x = np.linspace(-25, 25, 8001)
    w = np.ones_like(x)
    w[0] = w[-1] = 0.5
    dx = x[1] - x[0]
    phis = np.array([hermite_phi(k, x) for k in range(21)])
    gram = (phis * w) @ phis.T * dx
    assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_hermite_recurrence_stability_n500():
    x = np.linspace(-40, 40, 4001)
    v = hermite_phi(500, x)
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v)) <= 0.8


def test_hermite_uniform_bound(rng):
    for n in (0, 1, 5, 17, 60, 200):
        x = rng.uniform(-30, 30, size=200)
        assert np.max(np.abs(hermite_phi(n, x))) <= 0.8


def mp_hermite_phi(n: int, x: float) -> float:
    """Oracle: (sqrt(pi) 2^n n!)^(-1/2) H_n(x) e^(-x^2/2) at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        xx = mp.mpf(x)
        lognorm = (mp.log(mp.pi) / 2 + n * mp.log(2) + mp.loggamma(n + 1)) / 2
        return float(mp.hermite(n, xx) * mp.exp(-xx * xx / 2 - lognorm))


# a forbidden-tail point where mpmath gives |phi_n| of about 1e-299
_HERMITE_TAIL = {720: 60.7, 1000: 66.5, 3000: 96.0, 10000: 156.7}


@pytest.mark.parametrize("n", sorted(_HERMITE_TAIL))
def test_hermite_against_mpmath_at_large_order(n):
    # e^(-x^2/2) alone underflows past |x| = 38.6, inside the allowed
    # region of every order n >= 745; the carried exponent does not
    xt = math.sqrt(2 * n + 1)
    xs = np.concatenate((np.linspace(-0.93 * xt, 0.97 * xt, 5),
                         [xt, -(xt + 1.0), xt + 3.0, xt + 6.0, _HERMITE_TAIL[n]]))
    for x, g in zip(xs, hermite_phi(n, xs)):
        ref = mp_hermite_phi(n, x)
        assert abs(ref) >= 1e-300
        assert abs(g - ref) <= 1e-12 and abs(g - ref) <= 1e-10 * abs(ref), (n, x, g, ref)


def test_far_arguments_give_zero_not_nan():
    far = np.array([1e4, -1e4, 1e300, -np.finfo(float).max])
    for n in (0, 1, 1000, sf.HERMITE_MAX_ORDER):
        assert np.array_equal(hermite_phi(n, far), np.zeros(4)), n
    assert hermite_phi(7, -1e4) == 0.0
    far = np.array([1e6, 1e300, np.finfo(float).max])
    for n, k in ((0, 0), (3, 5), (sf.LAGUERRE_MAX_ORDER, 0)):
        assert np.array_equal(laguerre_scaled(n, k, far), np.zeros(3)), (n, k)


def test_hermite_near_the_origin_at_the_largest_order():
    # the plain two-step recurrence rounds x^2 against 2k+1 and loses
    # 1e-12 here; the difference form does not
    for x in (0.0, 1e-3, 0.3, 1.0, 2.5):
        for n in (sf.HERMITE_MAX_ORDER, sf.HERMITE_MAX_ORDER - 1):
            ref = mp_hermite_phi(n, x)
            assert abs(hermite_phi(n, x) - ref) <= 1e-13, (n, x)


@settings(max_examples=200, deadline=None)
@given(hs.integers(0, 2000), hs.floats(allow_nan=False, allow_infinity=False))
def test_hermite_parity_is_exact(n, x):
    assert hermite_phi(n, -x) == (-1) ** n * hermite_phi(n, x)


@settings(max_examples=100, deadline=None)
@given(hs.integers(0, 300),
       hs.lists(hs.floats(-60.0, 60.0) | hs.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_hermite_scalar_call_equals_its_array_element(n, xs):
    got = hermite_phi(n, np.array(xs))
    for x, g in zip(xs, got):
        assert hermite_phi(n, x) == g


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("n", [0, 3, 400, 2000])
def test_laguerre_scalar_call_equals_its_array_element(n, k):
    # a scalar runs the recurrence on 0-d buffers, rescaled on its own schedule
    xs = np.array([0.0, 1e-300, 0.5, 7.25, n + k + 1.0, 4.0 * n, 4.0 * n + 200.0])
    got = laguerre_scaled(n, k, xs)
    for x, g in zip(xs, got):
        assert laguerre_scaled(n, k, x) == g


def _carried_loop(n, alpha, y, v, small):
    """The recurrence of specfun._carried with each c_j and b_j from the math
    module inside the step, and no rescaling (n and y small enough)."""
    l, e = np.array(v, dtype=float), np.zeros_like(y)
    for j in range(n):
        c = 0.0
        if alpha:
            inner = 1.0 / (math.sqrt(j + alpha) + math.sqrt(j)) ** 2 if j + alpha > 0 else 1.0 / alpha
            c = 0.5 * alpha * alpha * (1.0 / (math.sqrt(j + 1 + alpha) + math.sqrt(j + 1)) ** 2 + inner)
        e = e + (c - y) * l
        l = l + e * (1.0 / math.sqrt((j + 1) * (j + 1 + alpha)))
    l, k = np.frexp(l)
    return l * np.exp((-0.5 * y + k * sf._LN2_HI) + k * sf._LN2_LO + small)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
def test_carried_coefficients_taken_before_the_steps_equal_the_per_step_ones(n):
    # c_j and b_j come from numpy for all j at once; the values are the same
    x = np.linspace(0.0, 12.0, 49)
    for p in (0, 1):
        want = _carried_loop(n, p - 0.5, x * x, x ** p, -0.5 * math.lgamma(p + 0.5))
        assert np.array_equal(hermite_phi(2 * n + p, x) * (-1) ** n, want)
    for k in (0, 1, 5):
        with np.errstate(divide="ignore"):
            small = -0.5 * math.lgamma(k + 1.0) + (0.5 * k * np.log(x) if k else 0.0)
        assert np.array_equal(laguerre_scaled(n, k, x), _carried_loop(n, k, x, np.ones_like(x), small))


def test_hermite_unit_norm_at_the_largest_order():
    # the 30,001-point trapezoid rule on [-160, 160] (step 0.0107, under
    # half the shortest period 2 pi/sqrt(2n+1)), summed on its nonnegative
    # half since phi_n^2 is even
    x = np.linspace(0.0, 160.0, 15001)
    norm = 2.0 * np.trapezoid(hermite_phi(sf.HERMITE_MAX_ORDER, x) ** 2, x)
    assert abs(norm - 1.0) < 1e-10


def test_airy_origin():
    ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert abs(airy_ai(0.0) - ref) < 1e-12
    assert abs(ref - 0.355028) < 1e-6


def test_airy_decay_side():
    v = airy_ai(10.0)
    assert v > 0.0
    assert v < 1e-9


def test_airy_oscillatory_against_integral_oracle():
    assert abs(airy_ai(-5.0) - airy_oracle(-5.0)) < 1e-8
    for x in (-2.0, -6.9, -8.5, 1.0, 3.5):
        assert abs(airy_ai(x) - airy_oracle(x)) < 1e-8


def test_airy_switch_continuity():
    def ai(branch, x):
        m, zeta = branch(x)
        return m * math.exp(-zeta)

    for seam in (sf.AIRY_SWITCH_POS, sf.AIRY_SWITCH_NEG):
        asym = sf._airy_decaying if seam > 0 else sf._airy_oscillatory
        assert abs(ai(sf._airy_series, seam) - ai(asym, seam)) < 1e-9


def test_airy_array_against_mpmath():
    # every branch and both seams, each element truncated on its own
    import mpmath as mp

    seams = [s + d for s in (sf.AIRY_SWITCH_POS, sf.AIRY_SWITCH_NEG) for d in (-1e-12, 0.0, 1e-12)]
    x = np.concatenate((np.linspace(-100.0, 100.0, 4001), seams))
    got = airy_ai(x)
    ref = np.array([float(mp.airyai(v)) for v in x])
    assert np.max(np.abs(got - ref)) < 5e-12
    for v, g in zip(seams, got[-len(seams):]):
        assert abs(airy_ai(v) - g) < 1e-14 and isinstance(airy_ai(v), float)


_AIRY_SEAMS = [v for s in (sf.AIRY_SWITCH_POS, sf.AIRY_SWITCH_NEG) for v in (math.nextafter(s, 0.0), s)]


@settings(max_examples=100, deadline=None)
@given(hs.lists(hs.floats(-100.0, 100.0) | hs.sampled_from(_AIRY_SEAMS), min_size=1, max_size=20))
def test_airy_scalar_call_equals_its_array_element(xs):
    got = airy_ai(np.array(xs))
    for x, g in zip(xs, got):
        assert airy_ai(x) == g


@settings(max_examples=100, deadline=None)
@given(hs.floats(-200.0, -10.0), hs.lists(hs.floats(0.0, 100.0), min_size=1, max_size=20))
def test_parabolic_scalar_call_equals_its_array_element(a, xs):
    got = parabolic_u_asymptotic(a, np.array(xs))
    for x, g in zip(xs, got):
        assert parabolic_u_asymptotic(a, x) == g


def test_airy_domain():
    with pytest.raises(ValueError):
        airy_ai(101.0)
    with pytest.raises(ValueError):
        airy_ai(np.array([0.0, -100.5, 3.0]))
    airy_ai(-100.0)


def test_gamma_ratio_approaches_sqrt2():
    # sqrt(n) Gamma((n+1)/2) / Gamma(n/2 + 1) -> sqrt(2)
    n = 400
    ratio = math.sqrt(n) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0 + 1.0))
    assert abs(ratio - math.sqrt(2.0)) < 0.002
    n = 10000
    ratio = math.sqrt(n) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0 + 1.0))
    assert abs(ratio - math.sqrt(2.0)) < 1e-4


def test_parabolic_hermite_relation():
    # H_n(y) = 2^(n/2) e^(y^2/2) U(-(n+1/2), sqrt2 y) at n = 40, y = 1
    n, y = 40, 1.0
    U = parabolic_u_asymptotic(-(n + 0.5), math.sqrt(2.0) * y)
    approx = 2.0 ** (n / 2.0) * math.exp(y * y / 2.0) * U
    lognorm = 0.5 * (0.5 * math.log(math.pi) + n * math.log(2.0) + math.lgamma(n + 1.0))
    exact = hermite_phi(n, y) * math.exp(y * y / 2.0 + lognorm)
    assert abs(approx / exact - 1.0) < 0.01


def test_parabolic_turning_point_uses_airy_zero():
    am = 60.5
    val = parabolic_u_asymptotic(-am, 2.0 * math.sqrt(am))
    pref = math.exp((-0.25 + am / 2.0) * math.log(2.0) + math.lgamma(0.25 + am / 2.0))
    assert abs(val - pref * am ** (1.0 / 6.0) * airy_ai(0.0)) < 1e-9 * abs(val)


def test_parabolic_envelope_matches_hermite_n100():
    # windowed averages of the squared functions agree to 2%
    from tomolab.kernel import TomographyFrame

    n = 100
    fr = TomographyFrame(1.0, 0.0)
    centers = np.array([0.3, 0.8, 1.2])
    period = float(np.max(oscillator_local_period(n, fr, centers)))
    lognorm = 0.5 * math.log(n / math.pi) - math.lgamma(n + 1.0)

    def w_u(X):
        return np.exp(lognorm) * parabolic_u_asymptotic(-(n + 0.5), math.sqrt(2.0 * n) * np.abs(X)) ** 2

    def w_h(X):
        return math.sqrt(n) * hermite_phi(n, math.sqrt(n) * X) ** 2

    for c in centers:
        cs = np.array([c])
        au = windowed_average(w_u, cs, period, periods=3)[0]
        ah = windowed_average(w_h, cs, period, periods=3)[0]
        assert abs(au / ah - 1.0) < 0.02


def test_parabolic_array_matches_the_per_point_loop():
    # the criterion-9 cross-check's 121 x 48 points at n = 100, against
    # the per-point loop the study used to run
    from tomolab.kernel import TomographyFrame
    from tomolab.limits import _oscillator_u_route

    n = 100
    centers = np.linspace(-1.3, 1.3, 121)
    periods = oscillator_local_period(n, TomographyFrame(1.0, 0.0), centers)
    offs = ((np.arange(48) + 0.5) / 48 - 0.5) * 3
    X = (centers[:, None] + offs[None, :] * periods[:, None]).ravel()
    pref = 0.5 * math.log(n / math.pi) - math.lgamma(n + 1.0)
    ref = np.empty_like(X)
    for i, xx in enumerate(X):
        u = parabolic_u_asymptotic(-(n + 0.5), math.sqrt(2.0 * n) * abs(xx))
        ref[i] = math.exp(pref + 2.0 * math.log(abs(u))) if u != 0.0 else 0.0
    assert np.max(np.abs(_oscillator_u_route(n, X) / ref - 1.0)) < 1e-9


def test_parabolic_decaying_side_does_not_underflow():
    # Ai(tau) alone leaves the normal double range past tau = 104 (x = 61.4
    # here); U, whose prefactor is e^181, does not
    import mpmath as mp

    xs = np.array([40.0, 60.0, 64.0, 66.0])
    for x, got in zip(xs, parabolic_u_asymptotic(-100.5, xs)):
        assert abs(got / float(mp.pcfu(-100.5, x)) - 1.0) < 1e-3, x


def test_parabolic_domain():
    with pytest.raises(ValueError):
        parabolic_u_asymptotic(-5.0, 1.0)
    with pytest.raises(ValueError):
        parabolic_u_asymptotic(-20.0, -0.1)
    with pytest.raises(ValueError):
        parabolic_u_asymptotic(-5.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        parabolic_u_asymptotic(-20.0, np.array([1.0, -0.1, 3.0]))
    assert isinstance(parabolic_u_asymptotic(-20.0, 1.0), float)
    for x in (5.0, np.array([5.0, 60.0])):
        with pytest.raises(OverflowError):
            parabolic_u_asymptotic(-400.5, x)


# ---------------------------------------------------------------------------
# Faddeeva function
# ---------------------------------------------------------------------------

def mp_faddeeva(z: complex) -> complex:
    """Oracle: w(z) = exp(-z^2) erfc(-i z) at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        zz = mp.mpc(z)
        return complex(mp.exp(-zz * zz) * mp.erfc(-1j * zz))


def test_faddeeva_on_the_chirp_ray():
    # the interval chirp integrals evaluate w only on e^{i pi/4} t, t >= 0
    ts = np.concatenate(([0.0], np.logspace(-6, 8, 57)))
    zs = cmath.exp(0.25j * math.pi) * ts
    got = faddeeva(zs)
    for z, g in zip(zs, got):
        ref = mp_faddeeva(z)
        assert abs(g - ref) <= 1e-13 * abs(ref), z


def test_faddeeva_upper_half_plane():
    points = [0.0, 1e-8, 0.5, -2.0, 3.0, 5.0, -6.5, 30.0, 1e3, 1e10,
              1j, 10j, 1e4j, 1 + 1j, -3 + 4j, 5 + 0.1j, -5 + 0.1j,
              0.2 + 1e-3j, 100 + 100j, -40 + 0.5j, 1e6 + 1j]
    for z in points:
        ref = mp_faddeeva(z)
        assert abs(faddeeva(z) - ref) <= 1e-13 * abs(ref), z
    assert isinstance(faddeeva(0.3j), complex)
    assert faddeeva(np.array([0.3j, 2.0])).shape == (2,)


def exact_uniform_sum(c: np.ndarray, theta: np.ndarray, m: int) -> np.ndarray:
    """Oracle: sum_j c_j e^{i k theta_j} with every phase k theta_j formed
    exactly.  theta_hi keeps 39 mantissa bits, so k theta_hi is exact for
    k < 2^14 and cos/sin reduce it exactly; k theta_lo is below
    2^-39 k |theta| and rounds harmlessly.  Mode k0 + b is the product
    of the exact factors e^{i k0 theta} and e^{i b theta}."""
    assert m < 2 ** 14
    mant, ex = np.frexp(theta)
    hi = np.ldexp(np.trunc(np.ldexp(mant, 39)), ex - 39)
    lo = theta - hi

    def phase(k):
        kh = np.multiply.outer(k, hi)
        return (np.cos(kh) + 1j * np.sin(kh)) * np.exp(1j * np.multiply.outer(k, lo))

    block = 128
    table = phase(np.arange(block))
    out = np.empty(m, dtype=complex)
    for k0 in range(0, m, block):
        rows = min(block, m - k0)
        out[k0:k0 + rows] = table[:rows] @ (c * phase(np.asarray(k0)))
    return out


@settings(max_examples=25, deadline=None)
@given(M=hs.integers(1, 5000), n=hs.integers(1, 9000), decades=hs.floats(-2.0, 6.0),
       sign=hs.sampled_from((-1.0, 1.0)), seed=hs.integers(0, 2 ** 32 - 1))
def test_chirp_sum_matches_the_exact_sum(M, n, decades, sign, seed):
    # stated accuracy (1e-12 + 2e-16 q) sum |u| over the stated range
    # q = |c| (M + n)^2 <= 1e6; a float64 direct sum would itself be off by
    # 2 k m |c| eps, hence the exact-phase oracle, whose phases 2 c m carry
    # one rounding each (at most q eps/2 after the factor k)
    rng = np.random.default_rng(seed)
    q = 10.0 ** decades
    c = sign * q / (M + n) ** 2
    u = (rng.normal(size=M) + 1j * rng.normal(size=M)) * np.exp(rng.uniform(-4.0, 4.0, M))
    exact = exact_uniform_sum(u, 2.0 * c * np.arange(M), n)
    err = np.max(np.abs(chirp_sum(u, c, n) - exact))
    assert err <= (1e-12 + 2e-16 * q) * np.sum(np.abs(u)), (M, n, q, err / np.sum(np.abs(u)))
    # a batch along the leading axes holds the same bound
    err = np.max(np.abs(chirp_sum(np.stack((u, 1j * u)), c, n) - [exact, 1j * exact]))
    assert err <= (1e-12 + 2e-16 * q) * np.sum(np.abs(u))


# ---------------------------------------------------------------------------
# scaled Laguerre functions
# ---------------------------------------------------------------------------

def mp_laguerre_scaled(n: int, k: int, x: float) -> float:
    """Oracle: sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x) at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        xx = mp.mpf(x)
        return float(mp.sqrt(mp.factorial(n) / mp.factorial(n + k)) * xx ** (mp.mpf(k) / 2)
                     * mp.exp(-xx / 2) * mp.laguerre(n, k, xx))


def test_laguerre_scaled_against_mpmath():
    # x from 0 (and just above it, where the plain recurrence rounds x away
    # against 2j+1+k) through the turning point 4n + 2k + 2 to 4n + 200
    for n, k in ((0, 0), (1, 3), (2, 0), (7, 1), (40, 0), (40, 25), (300, 2),
                 (2000, 0), (2000, 7), (150, 600)):
        xs = np.concatenate(([0.0, 1e-9, 1e-4, 0.05], np.linspace(0.5, 4 * n + 200, 11),
                             [4 * n + 2 * k + 2.0]))
        got = laguerre_scaled(n, k, xs)
        for x, g in zip(xs, got):
            assert abs(g - mp_laguerre_scaled(n, k, x)) < 1e-12, (n, k, x)
    assert laguerre_scaled(5, 2, 3.0) == pytest.approx(mp_laguerre_scaled(5, 2, 3.0), abs=1e-15)


def test_laguerre_scaled_does_not_underflow():
    # e^(-x/2) alone underflows at x = 8200; the carried exponent does not
    assert abs(laguerre_scaled(2000, 0, 7900.0) - mp_laguerre_scaled(2000, 0, 7900.0)) < 1e-12
    assert abs(laguerre_scaled(2000, 0, 7900.0)) > 1e-3


def test_laguerre_scaled_rejects_orders_beyond_the_validated_range():
    laguerre_scaled(sf.LAGUERRE_MAX_ORDER, 0, 1.0)
    with pytest.raises(ValueError, match="0..2000"):
        laguerre_scaled(sf.LAGUERRE_MAX_ORDER + 1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre_scaled(3, -1, 1.0)
    with pytest.raises(ValueError):
        laguerre_scaled(3, 0, -0.5)
