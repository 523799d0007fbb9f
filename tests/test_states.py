import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from tomolab import classical as cl
from tomolab import states as st
from tomolab.kernel import TomogramError, _check_uniform_grid


def test_parse_ho():
    s = st.parse_state("ho:n=3,varpi=2.0")
    assert isinstance(s, st.HOEigen) and s.n == 3 and s.varpi == 2.0


def test_parse_coherent_and_cat():
    s = st.parse_state("coherent:re=1,im=-0.5")
    assert isinstance(s, st.Coherent) and s.alpha == 1 - 0.5j
    c = st.parse_state("cat:odd,re=0.7,im=0.1")
    assert isinstance(c, st.CatOdd) and c.alpha == 0.7 + 0.1j


def test_parse_superpos_box():
    s = st.parse_state("superpos:n=0,m=3")
    assert isinstance(s, st.Superposition) and (s.n, s.m) == (0, 3)
    b = st.parse_state("box:n=5,L=2.0")
    assert isinstance(b, st.BoxEigen) and b.n == 5 and b.L == 2.0


def test_parse_rejects_unknown_key_with_token():
    with pytest.raises(st.DescriptorError) as err:
        st.parse_state("ho:n=3,weird=1")
    assert "weird" in str(err.value)
    assert "^" in str(err.value)  # position marker


def test_parse_rejects_bad_value_with_position():
    with pytest.raises(st.DescriptorError) as err:
        st.parse_state("ho:n=abc")
    assert "abc" in str(err.value)


def test_parse_rejects_unknown_kind():
    with pytest.raises(st.DescriptorError):
        st.parse_state("qubit:n=1")


def _err(kind: type, message: str, text: str, caret: int):
    return kind, f"{message}\n  {text}\n  {' ' * caret}^" if kind is st.DescriptorError else message


_EMPTY = "empty descriptor field"
_ODD_AT_ZERO = "an odd cat state needs alpha != 0 and |alpha| >= 1e-8, got 0j (its alpha -> 0 limit is |1>)"

# every kind with and without its optional keys and every refusal path of the
# two descriptor parsers, pinned when both shared one kind:args scanner: an
# equal state or model, or the exception type, message and caret
_DESCRIPTOR_CASES = [
    ("state", "ho:n=3", st.HOEigen(3)),
    ("state", "ho:n=3,varpi=2", st.HOEigen(3, 2.0)),
    ("state", "ho:", _err(st.DescriptorError, _EMPTY, "ho:", 3)),
    ("state", "ho", _err(st.DescriptorError, "descriptor must look like kind:args", "ho", 0)),
    ("state", "ho:n=", _err(st.DescriptorError, "cannot parse '' as int", "ho:n=", 5)),
    ("state", "ho:n=abc", _err(st.DescriptorError, "cannot parse 'abc' as int", "ho:n=abc", 5)),
    ("state", "ho:n=3,n=4", _err(st.DescriptorError, "duplicate key 'n'", "ho:n=3,n=4", 7)),
    ("state", "ho:n=3,,", _err(st.DescriptorError, _EMPTY, "ho:n=3,,", 7)),
    ("state", "ho:n=3,weird=1",
     _err(st.DescriptorError, "unknown key 'weird' (allowed: n, varpi)", "ho:n=3,weird=1", 7)),
    ("state", "ho:varpi=2", _err(st.DescriptorError, "missing required key 'n'", "ho:varpi=2", 10)),
    ("state", "coherent:re=1,im=-0.5", st.Coherent(1 - 0.5j)),
    ("state", "coherent:", _err(st.DescriptorError, _EMPTY, "coherent:", 9)),
    ("state", "coherent:re=1", st.Coherent(1 + 0j)),
    ("state", "cat:even", st.CatEven(0j)),
    ("state", "cat:odd,re=0.7,im=0.1", st.CatOdd(0.7 + 0.1j)),
    ("state", "cat:odd", _err(ValueError, _ODD_AT_ZERO, "", 0)),
    ("state", "cat:even,", _err(st.DescriptorError, _EMPTY, "cat:even,", 9)),
    ("state", "cat:weird,re=1",
     _err(st.DescriptorError, "cat parity must be even or odd, got 'weird'", "cat:weird,re=1", 4)),
    ("state", "cat:", _err(st.DescriptorError, "cat parity must be even or odd, got ''", "cat:", 4)),
    ("state", "superpos:n=0,m=3", st.Superposition(0, 3)),
    ("state", "superpos:n=1", _err(st.DescriptorError, "missing required key 'm'", "superpos:n=1", 12)),
    ("state", "box:n=5,L=2.0", st.BoxEigen(5, 2.0)),
    ("state", "box:n=5", st.BoxEigen(5, 1.0)),
    ("state", "box:", _err(st.DescriptorError, _EMPTY, "box:", 4)),
    ("state", "box:L=2", _err(st.DescriptorError, "missing required key 'n'", "box:L=2", 7)),
    ("state", "custom:/nonexistent.csv", _err(st.DescriptorError, "custom state file not found: '/nonexistent.csv'",
                                              "custom:/nonexistent.csv", 7)),
    ("state", "qubit:n=1", _err(st.DescriptorError, "unknown state kind 'qubit'", "qubit:n=1", 0)),
    ("state", "", _err(st.DescriptorError, "descriptor must look like kind:args", "", 0)),
    ("state", ":", _err(st.DescriptorError, "unknown state kind ''", ":", 0)),
    ("state", "ho:n=-1", _err(ValueError, "oscillator quantum number must be >= 0, got -1", "", 0)),
    ("state", "box:n=1,L=1e300", st.BoxEigen(1, 1e300)),
    ("state", "coherent:re=inf", _err(ValueError, "|alpha|^2 must be finite, got alpha = (inf+0j)", "", 0)),
    ("classical", "oscillator:E=2", cl.OscillatorTrajectory(2.0)),
    ("classical", "oscillator:", _err(st.DescriptorError, _EMPTY, "oscillator:", 11)),
    ("classical", "oscillator:E=x", _err(st.DescriptorError, "cannot parse 'x' as float", "oscillator:E=x", 13)),
    ("classical", "box:L=2,E=0.5", cl.BoxTrajectory(2.0, 0.5)),
    ("classical", "box:E=2", cl.BoxTrajectory(1.0, 2.0)),
    ("classical", "box:L=2", cl.BoxTrajectory(2.0, 1.0)),
    ("classical", "point:q0=0.8,p0=-1.3", (0.8, -1.3)),
    ("classical", "point:q0=1", (1.0, 0.0)),
    ("classical", "point:", _err(st.DescriptorError, _EMPTY, "point:", 6)),
    ("classical", "grid:/nonexistent.csv", _err(st.DescriptorError, "density file not found: '/nonexistent.csv'",
                                                "grid:/nonexistent.csv", 5)),
    ("classical", "rest:q0=1", _err(st.DescriptorError, "unknown classical kind 'rest'", "rest:q0=1", 0)),
    ("classical", "", _err(st.DescriptorError, "descriptor must look like kind:args", "", 0)),
    ("classical", "oscillator", _err(st.DescriptorError, "descriptor must look like kind:args", "oscillator", 0)),
    ("classical", "box:L=-1", _err(TomogramError, "box trajectory needs positive L and E", "", 0)),
]


@pytest.mark.parametrize("parser,text,expected", _DESCRIPTOR_CASES)
def test_both_descriptor_parsers_keep_their_results(parser, text, expected):
    parse = st.parse_state if parser == "state" else cl.parse_classical
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        kind, message = expected
        with pytest.raises(Exception) as err:
            parse(text)
        assert (type(err.value), str(err.value)) == (kind, message)
    elif isinstance(expected, tuple):  # a point at rest, whose orbit functions compare by identity
        model = parse(text)
        assert type(model) is cl.RestPoint
        assert (model.q_of_t(0.0), model.p_of_t(0.0), model.period) == (*expected, 1.0)
    else:
        assert parse(text) == expected


def test_descriptor_roundtrip():
    for text in ("ho:n=3,varpi=1", "coherent:re=1,im=0", "cat:even,re=1.2,im=0",
                 "superpos:n=1,m=4", "box:n=5,L=1"):
        state = st.parse_state(text)
        again = st.parse_state(state.descriptor())
        assert type(again) is type(state)


# varpi and L are finite normal doubles
_positive = hs.floats(min_value=sys.float_info.min, allow_infinity=False)
# a coherent or cat state refuses an alpha whose |alpha|^2 overflows
_alpha = hs.builds(complex, hs.floats(-1e150, 1e150), hs.floats(-1e150, 1e150))
_order = hs.integers(0, 10 ** 6)
_catalog = hs.one_of(
    hs.builds(st.HOEigen, _order, _positive),
    hs.builds(st.Coherent, _alpha, _positive),
    hs.builds(st.CatEven, _alpha, _positive),
    # an odd cat needs |alpha| >= 1e-8: at alpha = 0 its normalization is infinite
    hs.builds(st.CatOdd, _alpha.filter(lambda a: abs(a) >= 1e-8), _positive),
    hs.tuples(_order, _order, _positive).filter(lambda t: t[0] != t[1])
    .map(lambda t: st.Superposition(*t)),
    hs.builds(st.BoxEigen, hs.integers(1, 10 ** 6), _positive),
)


@given(_catalog)
def test_descriptor_round_trips_exactly(state):
    # every float survives at full precision and varpi is kept for the
    # whole oscillator family, so a JSON sidecar replays its run exactly
    assert st.parse_state(state.descriptor()) == state


@pytest.mark.parametrize("make, field", [
    (lambda v: st.HOEigen(1, v), "varpi"), (lambda v: st.Coherent(1.0, v), "varpi"),
    (lambda v: st.CatOdd(1.0, v), "varpi"), (lambda v: st.Superposition(0, 1, v), "varpi"),
    (lambda v: st.BoxEigen(1, v), "L")])
@pytest.mark.parametrize("value", [0.0, -1.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan])
def test_scale_parameters_are_finite_normal_doubles(make, field, value):
    # below the smallest normal double 1/value overflows; every route needs it
    with pytest.raises(ValueError, match=f"{field} must be a finite positive normal double"):
        make(value)
    make(sys.float_info.min)
    make(sys.float_info.max)


def test_custom_grid_normalization_enforced():
    x = np.linspace(-6, 6, 801)
    psi = np.exp(-x * x / 2.0)
    with pytest.raises(ValueError):
        st.CustomGrid(x, psi)  # not normalized
    psi /= math.sqrt(np.trapezoid(np.abs(psi) ** 2, x))
    st.CustomGrid(x, psi)


def test_custom_grid_spacing_takes_the_kernel_rule(tmp_path):
    # np.allclose's default atol of 1e-8 once passed any spacing below 1e-8
    x = np.array([0.0, 1e-9, 5e-9, 6e-9])
    with pytest.raises(TomogramError, match="uniformly spaced"):
        _check_uniform_grid(x)
    with pytest.raises(TomogramError, match="CustomGrid x-grid must be finite and uniformly spaced"):
        st.CustomGrid(x, np.full(4, 1e4 + 0j))
    path = tmp_path / "psi.csv"
    np.savetxt(path, np.column_stack([x, np.full(4, 1e4)]), delimiter=",", header="x,re", comments="")
    with pytest.raises(TomogramError, match="CustomGrid x-grid must be finite and uniformly spaced"):
        st.parse_state(f"custom:{path}")



def test_custom_state_file_reads_as_the_structured_reader_did(tmp_path):
    x = np.linspace(-6, 6, 1027)
    psi = np.exp(-x * x / 2.0 + 0.3j * x) * math.pi ** -0.25
    path = tmp_path / "psi.csv"
    np.savetxt(path, np.column_stack([x, psi.real, psi.imag]), delimiter=",",
               header="x, re, im", comments="")
    state = st.parse_state(f"custom:{path}")
    ref = np.genfromtxt(path, delimiter=",", names=True)
    assert np.array_equal(state.x_grid, ref["x"])
    assert np.array_equal(state.psi, ref["re"] + 1j * ref["im"])
    # a header behind a comment mark, and no im column
    real = tmp_path / "real.csv"
    np.savetxt(real, np.column_stack([x, np.abs(psi)]), delimiter=",", header="x,re")
    assert np.array_equal(st.parse_state(f"custom:{real}").psi, np.abs(psi) + 0j)
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.column_stack([x, psi.imag]), delimiter=",", header="x,im", comments="")
    with pytest.raises(st.DescriptorError, match="custom CSV needs header x,re"):
        st.parse_state(f"custom:{bad}")

def test_cat_normalization_constant():
    for a in (0.5, 1.0, 2.0):
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            N = st.cat_normalization(a, parity)
            assert abs(N - 1.0 / math.sqrt(2.0 * (1.0 + sign * math.exp(-2.0 * a * a)))) < 1e-15


def test_wavefunctions_normalized():
    x = np.linspace(-14, 14, 4001)
    for state in (st.HOEigen(4), st.Coherent(1 + 0.5j), st.CatEven(1.2),
                  st.CatOdd(0.8 + 0.3j), st.Superposition(0, 3)):
        psi = st.position_wavefunction(state, 0.7)(x)
        assert abs(np.trapezoid(np.abs(psi) ** 2, x) - 1.0) < 1e-8
        ft = st.momentum_wavefunction(state, 0.7)(x)
        assert abs(np.trapezoid(np.abs(ft) ** 2, x) - 1.0) < 1e-8


def test_momentum_wavefunction_matches_quadrature():
    # psihat(p) = (2 pi hbar)^(-1/2) int psi(y) e^(-i p y/hbar) dy over the
    # catalog, the oscillators at varpi != 1 too; the box integral runs over
    # its compact support so the oracle stays smooth
    from scipy.integrate import simpson

    hbar = 0.6
    line = np.linspace(-20, 20, 20001)
    cases = [(cls(*args, varpi), line) for varpi in (1.0, 0.25, 4.0) for cls, args in (
        (st.HOEigen, (3,)), (st.Superposition, (1, 4)), (st.Coherent, (0.8 - 0.4j,)),
        (st.CatEven, (1.2 + 0.3j,)), (st.CatOdd, (0.7j,)))]
    for state, y in cases + [(st.BoxEigen(4, 1.0), np.linspace(0.0, 1.0, 20001))]:
        psi = st.position_wavefunction(state, hbar)(y)
        ft = st.momentum_wavefunction(state, hbar)
        for p in (-1.3, 0.0, 0.7, 2.1):
            direct = simpson(psi * np.exp(-1j * p * y / hbar), x=y) / math.sqrt(2 * math.pi * hbar)
            assert abs(ft(np.asarray(p)) - direct) < 1e-6


def mp_box_momentum(n: int, L: float, hbar: float, p: float) -> complex:
    """Oracle: psihat(p) of sqrt(2/L) sin(ky) on [0, L] at 50 digits, with k the
    double n pi/L: the rational form [k - e^{-iqL}(k cos kL + i q sin kL)]/(k^2 - q^2),
    q = p/hbar, which is k(1 - (-1)^n e^{-iqL})/(k^2 - q^2) where kL is exactly n pi,
    and its limit -+iL/2 (to the rounding of k) at q = +-k.  cos kL and sin kL are taken at 50 digits, not
    as (-1)^n and 0: the rounding of k in kL would put a pole of relative size
    ulp/|q/k - 1| at the resonance."""
    import mpmath as mp

    with mp.workdps(50):
        k, q, L = mp.mpf(n * math.pi / L), mp.mpf(p) / mp.mpf(hbar), mp.mpf(L)
        amp = mp.sqrt(2 / L) / mp.sqrt(2 * mp.pi * mp.mpf(hbar))
        if q * q == k * k:
            return complex(amp * mp.mpc(0, -mp.sign(q)) * L / 2)
        num = k - mp.exp(-1j * q * L) * (k * mp.cos(k * L) + 1j * q * mp.sin(k * L))
        return complex(amp * num / (k * k - q * q))


def test_box_momentum_resonance_finite():
    # at and near q = +-k: a switch to the limit -+iL/2 inside a window such as
    # |k^2 - q^2| < 1e-9 k^2 is off by up to 4.5e-9 relative (n = 40, |q/k - 1| = 5e-10)
    for n, L, hbar in ((3, 1.0, 1.0), (40, 2.0, 0.3)):
        k = n * math.pi / L
        rel = [s * (1.0 + d) for d in (1e-3, 1e-6, 2e-9, 5e-10, 1e-12, 0.0) for s in (1.0, -1.0)]
        p = hbar * k * np.array(rel + [0.37, -2.37])
        vals = st.momentum_wavefunction(st.BoxEigen(n, L), hbar)(p)
        assert np.all(np.isfinite(vals))
        for pj, v in zip(p, vals):
            ref = mp_box_momentum(n, L, hbar, pj)
            assert abs(v - ref) <= 1e-13 * abs(ref), (n, pj / (hbar * k), v, ref)


def mp_fock_wigner(n: int, r2: float) -> float:
    """Oracle: 2 (-1)^n L_n(2 r^2) e^(-r^2) at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        r2 = mp.mpf(r2)
        return float(2 * (-1) ** n * mp.laguerre(n, 0, 2 * r2) * mp.exp(-r2))


@pytest.mark.parametrize("n", [400, 1000])
def test_fock_wigner_against_mpmath_at_large_order(n):
    # the plain Laguerre recurrence overflowed to NaN at every one of these
    # points; r^2 = varpi q^2/hbar + p^2/(varpi hbar)
    varpi, hbar = 0.8, 0.5
    w = st.HOEigen(n, varpi).exact_wigner(hbar)
    r = math.sqrt(2.0 * n)
    for p, q in ((0.0, r), (0.5, r), (math.sqrt(n), math.sqrt(n) + 0.3),
                 (-1.0, math.sqrt(2 * n + 1) + 0.5), (3.0, -math.sqrt(2 * n + 12))):
        q, p = q * math.sqrt(hbar / varpi), p * math.sqrt(hbar * varpi)
        got = w(np.array([p]), np.array([q]))[0]
        assert abs(got - mp_fock_wigner(n, varpi * q * q / hbar + p * p / (varpi * hbar))) < 1e-12, (p, q)


def quadrature_wigner(state, hbar, q, p):
    """Oracle: W(q, p) = int psi(q + u/2) psi*(q - u/2) e^{-ipu/hbar} du, a
    60,001-point trapezoid over |u| <= 30 of the position wave function."""
    psi = st.position_wavefunction(state, hbar)
    u = np.linspace(-30.0, 30.0, 60001)
    w = np.full(u.size, 60.0 / 60000)  # u[1] - u[0] would carry 30 eps of roundoff, 7e-12 relative
    w[[0, -1]] *= 0.5
    rows = [psi(qi + 0.5 * u) * np.conj(psi(qi - 0.5 * u)) * w for qi in q]
    return np.real(np.array(rows) @ np.exp(-1j * np.outer(u, p) / hbar))


@pytest.mark.parametrize("make", [
    lambda v: st.HOEigen(3, v), lambda v: st.Coherent(0.6 - 0.4j, v), lambda v: st.CatEven(1.1 + 0.3j, v),
    lambda v: st.CatOdd(0.8 + 0.4j, v), lambda v: st.Superposition(1, 4, v)],
    ids=["ho", "coherent", "cat-even", "cat-odd", "superpos"])
@pytest.mark.parametrize("varpi", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("hbar", [0.25, 1.0])
def test_oscillator_wigner_is_the_quadrature_of_its_wave_function(make, varpi, hbar):
    # one displaced-parity sum serves every oscillator family, cats and
    # superpositions included, and obeys the parity bound |W| <= 2
    state = make(varpi)
    w = state.exact_wigner(hbar)
    sq, sp = st.natural_scales(state, hbar)
    q, p = sq * np.linspace(-3.0, 3.0, 7), sp * np.linspace(-2.5, 2.5, 6)
    assert np.max(np.abs(w(p[None, :], q[:, None]) - quadrature_wigner(state, hbar, q, p))) < 1e-12
    qg, pg = sq * np.linspace(-6.0, 6.0, 121), sp * np.linspace(-6.0, 6.0, 121)
    assert np.max(np.abs(w(pg[None, :], qg[:, None]))) <= 2.0


@pytest.mark.parametrize("n, L, hbar", [(1, 1.0, 1.0), (3, 1.0, 0.1), (5, 2.0, 0.2), (40, 1.5, 0.01)])
def test_box_wigner_is_the_quadrature_of_its_wave_function(n, L, hbar):
    # W(q, p) = int psi(q + u/2) psi*(q - u/2) e^{-ipu/hbar} du over the
    # overlap |u| <= 2 min(q, L - q), where the integrand is smooth: 600
    # Gauss-Legendre nodes of the position wave function; 0 off [0, L]
    state = st.BoxEigen(n, L)
    psi = st.position_wavefunction(state, hbar)
    k = n * math.pi / L
    q, p = np.linspace(-0.1 * L, 1.1 * L, 37), hbar * k * np.linspace(-3.0, 3.0, 25)
    w = state.exact_wigner(hbar)(p[None, :], q[:, None])
    t, wt = np.polynomial.legendre.leggauss(600)
    for qi, row in zip(q, w):
        r = 2.0 * max(min(qi, L - qi), 0.0)
        u = r * t
        ref = np.real((psi(qi + 0.5 * u) * np.conj(psi(qi - 0.5 * u)) * r * wt) @ np.exp(-1j * np.outer(u, p) / hbar))
        assert np.max(np.abs(row - ref)) < 1e-12, qi
    assert np.all(w[(q < 0) | (q > L)] == 0.0)
