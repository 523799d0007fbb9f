import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from tomolab import specfun as sf
from tomolab.limits import oscillator_local_period, windowed_average
from tomolab.specfun import (
    airy_ai,
    faddeeva,
    hermite_phi,
    log_gamma,
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
    for seam in (sf.AIRY_SWITCH_POS, sf.AIRY_SWITCH_NEG):
        series = sf._airy_series(seam)
        asym = sf._airy_asym_pos(seam) if seam > 0 else sf._airy_asym_neg(seam)
        assert abs(series - asym) < 1e-9


def test_airy_domain():
    with pytest.raises(ValueError):
        airy_ai(101.0)
    airy_ai(-100.0)


def test_log_gamma_half():
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    assert abs(log_gamma(0.5) - 0.572365) < 1e-6


def test_log_gamma_factorial():
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-12


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


def test_gamma_ratio_approaches_sqrt2():
    # sqrt(n) Gamma((n+1)/2) / Gamma(n/2 + 1) -> sqrt(2)
    n = 400
    ratio = math.sqrt(n) * math.exp(log_gamma((n + 1) / 2.0) - log_gamma(n / 2.0 + 1.0))
    assert abs(ratio - math.sqrt(2.0)) < 0.002
    n = 10000
    ratio = math.sqrt(n) * math.exp(log_gamma((n + 1) / 2.0) - log_gamma(n / 2.0 + 1.0))
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
    pref = math.exp((-0.25 + am / 2.0) * math.log(2.0) + log_gamma(0.25 + am / 2.0))
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
        out = np.empty_like(X)
        for i, xx in enumerate(np.abs(X)):
            u = parabolic_u_asymptotic(-(n + 0.5), math.sqrt(2.0 * n) * xx)
            out[i] = math.exp(lognorm + 2.0 * math.log(abs(u))) if u else 0.0
        return out

    def w_h(X):
        return math.sqrt(n) * hermite_phi(n, math.sqrt(n) * X) ** 2

    for c in centers:
        cs = np.array([c])
        au = windowed_average(w_u, cs, period, periods=3)[0]
        ah = windowed_average(w_h, cs, period, periods=3)[0]
        assert abs(au / ah - 1.0) < 0.02


def test_parabolic_domain():
    with pytest.raises(ValueError):
        parabolic_u_asymptotic(-5.0, 1.0)
    with pytest.raises(ValueError):
        parabolic_u_asymptotic(-20.0, -0.1)


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

