"""Quantum state catalog and the descriptor mini-language.

Each state is a small immutable spec implementing the :class:`State`
protocol: position wave functions psi(y), their hbar-scaled Fourier
transforms

    psihat(p) = (2*pi*hbar)^(-1/2) * int psi(y) exp(-i*p*y/hbar) dy,

natural scales, extents and the other per-state facts the tomogram
routes need, all evaluated on demand.  hbar is always passed alongside
the spec so one spec can be swept through Planck/Ehrenfest families.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .kernel import _NORMAL_MIN, _check_uniform_grid, _read_table
from .specfun import hermite_phi, laguerre_scaled

__all__ = [
    "State",
    "HOEigen",
    "Coherent",
    "CatEven",
    "CatOdd",
    "Superposition",
    "BoxEigen",
    "CustomGrid",
    "DescriptorError",
    "parse_state",
    "cat_normalization",
    "coherent_center",
    "position_wavefunction",
    "momentum_wavefunction",
    "natural_scales",
    "position_extent",
]


class State:
    """The protocol every quantum state implements (the module functions
    of the same names document the methods without docstrings).

    A new state is one subclass: its wave functions, natural scales, extents and
    envelope scale give it the quadrature tomogram route, default grids and frame
    families in :mod:`tomolab.quantum` with no other edit.  A closed-form G or W
    is a method of the state; a closed-form tomogram is one quantum route entry.
    """

    # psi is interpolated samples rather than a formula: the state is
    # position-only (it has no momentum wave function), every route
    # integrates its samples on the position side, where they have compact
    # support, and there is no exact wave function to check results against
    sampled: ClassVar[bool] = False

    def position_wavefunction(self, hbar: float):
        raise NotImplementedError

    def momentum_wavefunction(self, hbar: float):
        raise NotImplementedError

    def natural_scales(self, hbar: float) -> tuple[float, float]:
        raise NotImplementedError

    def position_extent(self, hbar: float, tails: float = 8.0) -> tuple[float, float]:
        raise NotImplementedError

    def momentum_extent(self, hbar: float, tails: float = 8.0,
                        mass_tol: float = 1e-6) -> tuple[float, float]:
        """Interval of p outside which |psihat| is negligible (box states have
        power-law momentum tails sized from the requested mass tolerance)."""
        raise NotImplementedError

    def envelope_scale(self, hbar: float) -> float:
        """Smallest length on which psi(y) varies; sizes quadrature panels (not read if sampled)."""
        raise NotImplementedError

    def max_order(self) -> int:
        """Largest quantum number; sizes the Wigner reconstruction's frame box."""
        return 0

    def descriptor(self) -> str:
        """Inverse of parse_state for catalog states (used in JSON sidecars)."""
        raise NotImplementedError

    def exact_wigner(self, hbar: float):
        """Analytic Wigner function (p, q) -> W, or None when there is none here."""
        return None

    def characteristic(self, mu_grid, nu_grid, hbar: float):
        """Analytic G(mu, nu) = <exp(i(mu q + nu p))> on mu_grid x nu_grid, or None when there is none."""
        return None

    def x_extent(self, frame, hbar: float, tails: float = 8.0) -> tuple[float, float]:
        """X interval mu*[position extent] + nu*[momentum extent] of the tomogram."""
        qlo, qhi = self.position_extent(hbar, tails)
        plo, phi = self.momentum_extent(hbar, tails)
        corners = [frame.mu * q + frame.nu * p for q in (qlo, qhi) for p in (plo, phi)]
        return min(corners), max(corners)


def _require_normal(name: str, value: float) -> None:
    # below the smallest normal double, 1/value or sqrt(1/value) overflows
    if not (math.isfinite(value) and value >= _NORMAL_MIN):
        raise ValueError(f"{name} must be a finite positive normal double, got {value!r}")


def _box_wave_number(n: int, L: float) -> float:
    """k = n pi/L of a box eigenstate, refused where k or a scale the box
    routes build from it (k^2, L^2, the momentum reach's k^2/L) is not normal."""
    k = n * math.pi / L
    for name, value in (("k = n pi/L", k), ("k^2", k * k), ("L^2", L * L), ("k^2/L", k * k / L)):
        _require_normal(f"box {name} at n = {n}, L = {L!r},", value)
    return k


def _segment(w, d, L):
    """e^{i w L/2} d sinc(w d/2) = int e^{i w y} dy over the length d centred on L/2."""
    return np.exp(0.5j * L * w) * d * np.sinc(w * d / (2.0 * math.pi))


def _num(v: float) -> str:
    """Shortest round-tripping float text, with integral values written as integers."""
    return repr(float(v)).removesuffix(".0")


def _basis_rows(basis: str, labels, hbar: float, rw: float, turn: complex, y: np.ndarray):
    """Rows u_a(y) of the basis vectors |a> (Fock orders or coherent amplitudes)
    of the oscillator sqrt(mass * frequency) = rw seen through turn, phased
    relative to the first row, which stays real, and that row's phase c_0 + s_0 y
    as (c_0, s_0): sum_a w_a |a> has the wave function sqrt(s) e^{i(c_0 + s_0 y)}
    sum_a w_a u_a(y), s = rw/sqrt(hbar).  In x = s y a Fock row is turn^k phi_k(x)
    and a coherent row, b = turn a, pi^(-1/4) e^{-(x - sqrt2 Re b)^2/2 + i Im b (sqrt2 x - Re b)}."""
    s = rw * math.sqrt(1.0 / hbar)
    if basis == "fock":
        angle = math.atan2(turn.imag, turn.real)
        rows = [hermite_phi(k, s * y) for k in labels]
        first = labels[0] * angle, 0.0
        phases = [(k - labels[0]) * angle for k in labels]
    else:
        b = [turn * a for a in labels]
        rows = [math.pi ** -0.25 * np.exp(-0.5 * (s * y - math.sqrt(2.0) * c.real) ** 2) for c in b]
        chirp = [(-c.real * c.imag, math.sqrt(2.0) * s * c.imag) for c in b]
        first = c0, s0 = chirp[0]
        phases = [(c - c0) + (t - s0) * y for c, t in chirp]
    return rows[:1] + [u * np.exp(1j * t) for u, t in zip(rows[1:], phases[1:])], first


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


def _expectation(bras, kets, element, beta) -> np.ndarray:
    """<phi|D(beta)|psi> of <phi| = sum_a w_a* <a| and |psi> = sum_c w_c |c>:
    sum_{a,c} w_a* w_c element(a, c, beta)."""
    return sum(np.conj(wa) * wc * element(a, c, beta) for wa, a in bras for wc, c in kets)


class _Oscillator(State):
    """The varpi oscillator family (mass * frequency = varpi).

    Each family writes its extent _extent(hbar, tails, rw, turn) once and the
    wave function _wave is read off its terms by :func:`_basis_rows`, for the
    oscillator with sqrt(mass * frequency) = rw.  Position passes rw = sqrt(varpi), turn = 1;
    momentum is the Fourier turn e^(-i pi N/2): rw = 1/sqrt(varpi), and
    turn = -i multiplies a Fock weight by (-i)^k, a coherent amplitude a to -i a.
    """

    def __post_init__(self):
        _require_normal("varpi", self.varpi)

    def position_wavefunction(self, hbar):
        return self._wave(hbar, math.sqrt(self.varpi), 1.0)

    def momentum_wavefunction(self, hbar):
        return self._wave(hbar, 1.0 / math.sqrt(self.varpi), -1j)

    def position_extent(self, hbar, tails=8.0):
        return self._extent(hbar, tails, math.sqrt(self.varpi), 1.0)

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        return self._extent(hbar, tails, 1.0 / math.sqrt(self.varpi), -1j)

    def _wave(self, hbar, rw, turn):
        # sqrt(s) e^(i(c_0 + s_0 y)) sum_a w_a u_a(y), s = rw/sqrt(hbar)
        terms, root = self.terms, math.sqrt(rw * math.sqrt(1.0 / hbar))

        def psi(y):
            y = np.asarray(y, dtype=float)
            rows, (c0, s0) = _basis_rows(self.basis, [a for _, a in terms], hbar, rw, turn, y)
            return root * np.exp(1j * (c0 + s0 * y)) * sum(w * u for (w, _), u in zip(terms, rows))

        return psi

    def natural_scales(self, hbar):
        # each root taken apart: hbar * varpi overflows near the largest double
        return math.sqrt(hbar) / math.sqrt(self.varpi), math.sqrt(hbar) * math.sqrt(self.varpi)

    def exact_wigner(self, hbar):
        # W = 2 <psi|D(2 alpha) Pi|psi> (Royer, Phys. Rev. A 15 (1977) 449): the sum that
        # gives G, with the kets under the parity Pi (a Fock weight times (-1)^k, a
        # coherent label a -> -a), at alpha = (sqrt(varpi) q + i p/sqrt(varpi))/sqrt(2 hbar),
        # its scale roots taken apart so that no varpi overflows
        rw, rh = math.sqrt(self.varpi), math.sqrt(hbar)
        kets = [(w * (-1) ** a, a) if self.basis == "fock" else (w, -a) for w, a in self.terms]
        return lambda p, q: 2.0 * _expectation(self.terms, kets, self._element, math.sqrt(2.0) * (
            np.asarray(q, float) * (rw / rh) + 1j * (np.asarray(p, float) / (rw * rh)))).real

    def characteristic(self, mu_grid, nu_grid, hbar):
        # <psi|D(beta)|psi> at varpi = 1 in the frame (mu/sqrt(varpi), nu sqrt(varpi)),
        # where exp(i(mu q + nu p)) = D(beta), beta = sqrt(hbar/2) (i mu - nu)
        rw, c = math.sqrt(self.varpi), math.sqrt(0.5 * hbar)
        mu = (np.asarray(mu_grid, float) / rw)[:, None]
        nu = (np.asarray(nu_grid, float) * rw)[None, :]
        return _expectation(self.terms, self.terms, self._element, -c * nu + 1j * (c * mu))

    def _varpi_field(self) -> str:
        return "" if self.varpi == 1.0 else f",varpi={_num(self.varpi)}"


class _Fock(_Oscillator):
    """Eigenstate combinations sum_k w_k |k>, terms = ((w_k, k), ...); the
    wave functions, extents and largest order are read off the terms."""

    basis: ClassVar[str] = "fock"
    _element = staticmethod(_fock_displacement)

    def max_order(self):
        return max(k for _, k in self.terms)

    def _extent(self, hbar, tails, rw, turn):
        r = math.sqrt(hbar) / rw * (math.sqrt(2.0 * self.max_order() + 1.0) + tails)
        return -r, r

    def envelope_scale(self, hbar):
        return self.natural_scales(hbar)[0] / math.sqrt(2.0 * self.max_order() + 1.0)


@dataclass(frozen=True)
class HOEigen(_Fock):
    """Harmonic-oscillator eigenstate |n> with mass*frequency varpi."""

    n: int
    varpi: float = 1.0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"oscillator quantum number must be >= 0, got {self.n}")
        super().__post_init__()

    @property
    def terms(self):
        return ((1.0, self.n),)

    def descriptor(self):
        return f"ho:n={self.n},varpi={_num(self.varpi)}"


@dataclass(frozen=True)
class Superposition(_Fock):
    """Equal-weight superposition (|n> + |m>)/sqrt(2) of oscillator eigenstates."""

    n: int
    m: int
    varpi: float = 1.0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("superposition orders must be nonnegative")
        if self.n == self.m:
            raise ValueError("superposition requires two distinct eigenstates")
        super().__post_init__()

    @property
    def terms(self):
        w = 1.0 / math.sqrt(2.0)
        return ((w, self.n), (w, self.m))

    def descriptor(self):
        return f"superpos:n={self.n},m={self.m}{self._varpi_field()}"


def cat_normalization(alpha: complex, parity: str) -> float:
    """N_+- = 1/sqrt(2(1 +- exp(-2|alpha|^2))), the odd one through expm1,
    which keeps its relative accuracy as alpha -> 0."""
    a2 = abs(alpha) * abs(alpha)
    norm = 1.0 + math.exp(-2.0 * a2) if parity == "even" else -math.expm1(-2.0 * a2)
    return 1.0 / math.sqrt(2.0 * norm)


def coherent_center(alpha: complex, hbar: float, varpi: float = 1.0) -> tuple[float, float]:
    """Phase-space mean (q, p) of |alpha>: alpha = (sqrt(varpi) q + i p/sqrt(varpi)) / sqrt(2 hbar)."""
    rw = math.sqrt(varpi)
    return math.sqrt(2.0 * hbar) / rw * alpha.real, math.sqrt(2.0 * hbar) * rw * alpha.imag


class _Displaced(_Oscillator):
    """Coherent packets and their superpositions sum_a w_a |a>, terms =
    ((w_a, a), ...); the wave functions and extents are read off the terms."""

    basis: ClassVar[str] = "coherent"
    _element = staticmethod(_coherent_displacement)

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not math.isfinite(self.alpha.real * self.alpha.real + self.alpha.imag * self.alpha.imag):
            raise ValueError(f"|alpha|^2 must be finite, got alpha = {self.alpha}")
        super().__post_init__()

    def _extent(self, hbar, tails, rw, turn):
        q = [math.sqrt(2.0 * hbar) / rw * (turn * a).real for _, a in self.terms]
        r = tails * (math.sqrt(hbar) / rw)
        return min(q) - r, max(q) + r

    def envelope_scale(self, hbar):
        _, pbar = coherent_center(self.alpha, hbar, self.varpi)
        return min(self.natural_scales(hbar)[0], hbar / (abs(pbar) + 1e-30))

    def _alpha_fields(self) -> str:
        return f"re={_num(self.alpha.real)},im={_num(self.alpha.imag)}{self._varpi_field()}"


@dataclass(frozen=True)
class Coherent(_Displaced):
    """Coherent state |alpha> of the varpi oscillator."""

    alpha: complex
    varpi: float = 1.0

    @property
    def terms(self):
        return ((1.0, self.alpha),)

    def descriptor(self):
        return f"coherent:{self._alpha_fields()}"


@dataclass(frozen=True)
class _Cat(_Displaced):
    """Coherent superposition N (|alpha> + sign |-alpha>)."""

    alpha: complex
    varpi: float = 1.0
    sign: ClassVar[float]

    def __post_init__(self):
        super().__post_init__()
        # N- = 1/sqrt(2(1 - exp(-2|alpha|^2))) is finite only while |alpha|^2 > 0,
        # and the rows of |alpha> and |-alpha> lose ~1e-16/|alpha| to their difference
        if self.sign < 0 and abs(self.alpha) < 1e-8:
            raise ValueError(f"an odd cat state needs alpha != 0 and |alpha| >= 1e-8, got {self.alpha} "
                             "(its alpha -> 0 limit is |1>)")

    @property
    def parity(self) -> str:
        return "even" if self.sign > 0 else "odd"

    @property
    def terms(self):
        N = cat_normalization(self.alpha, self.parity)
        return ((N, self.alpha), (self.sign * N, -self.alpha))

    def descriptor(self):
        return f"cat:{self.parity},{self._alpha_fields()}"


class CatEven(_Cat):
    """Even coherent superposition N+ (|alpha> + |-alpha>)."""

    sign = 1.0


class CatOdd(_Cat):
    """Odd coherent superposition N- (|alpha> - |-alpha>)."""

    sign = -1.0


@dataclass(frozen=True)
class BoxEigen(State):
    """Eigenstate n of the infinite square well on [0, L] (mass 1)."""

    n: int
    L: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"box quantum number must be >= 1, got {self.n}")
        _require_normal("box width L", self.L)

    def position_wavefunction(self, hbar):
        k, L = _box_wave_number(self.n, self.L), self.L
        amp = math.sqrt(2.0 / L)

        def box_psi(y):
            y = np.asarray(y, dtype=float)
            inside = (y >= 0.0) & (y <= L)
            return np.where(inside, amp * np.sin(k * y), 0.0) + 0j

        return box_psi

    def momentum_wavefunction(self, hbar):
        # sin ky = (e^{iky} - e^{-iky})/2i, so psihat is two segments over [0, L]
        k, L = _box_wave_number(self.n, self.L), self.L
        amp = math.sqrt(2.0 / L) / (2j * math.sqrt(2.0 * math.pi * hbar))

        def box_ft(p):
            q = np.asarray(p, dtype=float) / hbar
            return amp * (_segment(k - q, L, L) - _segment(-k - q, L, L))

        return box_ft

    def exact_wigner(self, hbar):
        # psi(q + u/2) psi(q - u/2) = (cos ku - cos 2kq)/L over |u| <= 2 min(q, L - q),
        # three segments centred at 0: an interval of length 0, so W = 0, off [0, L]
        k, L = _box_wave_number(self.n, self.L), self.L

        def box_wigner(p, q):
            q, w = np.asarray(q, float), np.asarray(p, float) / hbar
            d = 4.0 * np.maximum(np.minimum(q, L - q), 0.0)
            return (0.5 * (_segment(k - w, d, 0.0) + _segment(-k - w, d, 0.0))
                    - np.cos(2.0 * k * q) * _segment(-w, d, 0.0)).real / L

        return box_wigner

    def characteristic(self, mu_grid, nu_grid, hbar):
        # with s = hbar nu/2 the Weyl overlap is (1/L) int_{|s|}^{L-|s|} [cos 2ks - cos 2ky]
        # e^{i mu y} dy, three segments over the overlap of length d = L - 2|s|, 0 where d <= 0
        k, L = _box_wave_number(self.n, self.L), self.L
        mu = np.asarray(mu_grid, float)[:, None]
        s = 0.5 * hbar * np.asarray(nu_grid, float)[None, :]
        d = np.maximum(L - 2.0 * np.abs(s), 0.0)
        return (np.cos(2.0 * k * s) * _segment(mu, d, L)
                - 0.5 * (_segment(mu + 2.0 * k, d, L) + _segment(mu - 2.0 * k, d, L))) / L

    def natural_scales(self, hbar):
        return self.L / 2.0, hbar * self.n * math.pi / self.L

    def position_extent(self, hbar, tails=8.0):
        _box_wave_number(self.n, self.L)
        return 0.0, self.L

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        """Power-law momentum tails: the reach is sized from the requested
        mass tolerance, not from tails."""
        k = _box_wave_number(self.n, self.L)
        core = hbar * k
        # (8 k^2 hbar^3/(3 pi L mass_tol))^(1/3), each cube root taken apart:
        # the product overflows for boxes that pass the scale check
        tail = (8.0 / (3.0 * math.pi * mass_tol)) ** (1 / 3) * k ** (2 / 3) * hbar / self.L ** (1 / 3)
        r = core + 1.5 * tail
        return -r, r

    def envelope_scale(self, hbar):
        return self.L / max(8, self.n)

    def max_order(self):
        return self.n

    def descriptor(self):
        return f"box:n={self.n},L={_num(self.L)}"

    def x_extent(self, frame, hbar, tails=8.0, mass_tol=1e-4):
        """X interval capturing the box tomogram mass to ~mass_tol.

        The smooth support is mu*[0, L] broadened by nu times the momentum
        spread; beyond it the tomogram decays like 1/X^4 (sharp-wall
        diffraction), which the momentum reach at mass_tol/4 carries.
        """
        plo, phi = self.momentum_extent(hbar, mass_tol=mass_tol / 4.0)
        corners = [frame.mu * q + frame.nu * p for q in (0.0, self.L) for p in (plo, phi)]
        return min(corners), max(corners)


class CustomGrid(State):
    """Arbitrary normalized wave function sampled on a uniform grid.

    Samples are interpolated linearly and treated as zero outside the
    grid; the state is position-only, with no momentum wave function.
    The L2 norm must be 1 within 1e-8.
    """

    sampled = True

    def __init__(self, x_grid, psi):
        x = np.array(x_grid, dtype=float)
        v = np.array(psi, dtype=complex)
        if x.ndim != 1 or v.shape != x.shape or x.size < 4:
            raise ValueError("CustomGrid needs matching 1D arrays of at least 4 samples")
        _check_uniform_grid(x, "CustomGrid x-grid")
        norm = math.sqrt(float(np.trapezoid(np.abs(v) ** 2, x)))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"CustomGrid wave function has L2 norm {norm!r}, expected 1")
        x.setflags(write=False)
        v.setflags(write=False)
        self.x_grid = x
        self.psi = v

    def __repr__(self):
        return f"CustomGrid(n={self.x_grid.size}, span=[{self.x_grid[0]}, {self.x_grid[-1]}])"

    def position_wavefunction(self, hbar):
        xg, pg = self.x_grid, self.psi

        def custom_psi(y):
            y = np.asarray(y, dtype=float)
            re = np.interp(y, xg, pg.real, left=0.0, right=0.0)
            im = np.interp(y, xg, pg.imag, left=0.0, right=0.0)
            return re + 1j * im

        return custom_psi

    def natural_scales(self, hbar):
        dens = np.abs(self.psi) ** 2
        mass = np.trapezoid(dens, self.x_grid)
        mean = np.trapezoid(self.x_grid * dens, self.x_grid) / mass
        var = np.trapezoid((self.x_grid - mean) ** 2 * dens, self.x_grid) / mass
        sq = max(math.sqrt(max(var, 0.0)), 1e-6)
        return sq, hbar / sq

    def position_extent(self, hbar, tails=8.0):
        return float(self.x_grid[0]), float(self.x_grid[-1])

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        # spectral radius holding all but mass_tol of the sampled momentum density
        dx = float(self.x_grid[1] - self.x_grid[0])
        psd = np.abs(np.fft.fft(self.psi)) ** 2
        k = 2.0 * math.pi * np.fft.fftfreq(self.psi.size, d=dx)
        order = np.argsort(np.abs(k))
        cum = np.cumsum(psd[order])
        idx = int(np.searchsorted(cum, (1.0 - 0.1 * mass_tol) * cum[-1]))
        r = hbar * abs(k[order][min(idx, k.size - 1)]) * 1.5 + hbar * 2.0 * math.pi / (dx * self.psi.size)
        return -r, r

    def descriptor(self):
        return "custom:<grid>"


def _require_hbar(hbar: float) -> None:
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")


def position_wavefunction(state: State, hbar: float):
    """Vectorized psi(y) for the given state at the given hbar."""
    _require_hbar(hbar)
    return state.position_wavefunction(hbar)


def momentum_wavefunction(state: State, hbar: float):
    """Vectorized psihat(p) in the hbar-scaled Fourier convention."""
    _require_hbar(hbar)
    return state.momentum_wavefunction(hbar)


def natural_scales(state: State, hbar: float) -> tuple[float, float]:
    """(position width, momentum width) used for representation dispatch."""
    return state.natural_scales(hbar)


def position_extent(state: State, hbar: float, tails: float = 8.0) -> tuple[float, float]:
    """Interval [ymin, ymax] outside which |psi| is negligible."""
    return state.position_extent(hbar, tails)


# ---------------------------------------------------------------------------
# descriptor mini-language
# ---------------------------------------------------------------------------

class DescriptorError(ValueError):
    """State descriptor parse failure; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        marker = " " * pos + "^"
        super().__init__(f"{message}\n  {text}\n  {marker}")


def _parse_kv(text: str, body: str, offset: int, allowed: dict[str, type],
              required: tuple[str, ...]) -> dict:
    out: dict = {}
    pos = offset
    for token in body.split(",") if body else ():  # no fields: every key takes its default
        if not token:
            raise DescriptorError(text, pos, "empty descriptor field")
        if "=" not in token:
            raise DescriptorError(text, pos, f"expected key=value, got {token!r}")
        key, val = token.split("=", 1)
        if key not in allowed:
            raise DescriptorError(text, pos, f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
        if key in out:
            raise DescriptorError(text, pos, f"duplicate key {key!r}")
        try:
            out[key] = allowed[key](val)
        except ValueError:
            raise DescriptorError(text, pos + len(key) + 1,
                                  f"cannot parse {val!r} as {allowed[key].__name__}") from None
        pos += len(token) + 1
    for key in required:
        if key not in out:
            raise DescriptorError(text, len(text), f"missing required key {key!r}")
    return out


def _scan_descriptor(text: str, what: str, kinds: dict):
    """The one kind:args scanner, of what ("state" or "classical") by its kind's row in kinds:
    a keyword kind's (make, {key: type}, *required keys) gives make(**its key=value fields),
    and any other row is the kind's own parser(text, args, offset of the args)."""
    if ":" not in text:
        raise DescriptorError(text, 0, "descriptor must look like kind:args")
    kind, body = text.split(":", 1)
    if kind not in kinds:
        raise DescriptorError(text, 0, f"unknown {what} kind {kind!r}")
    row, off = kinds[kind], len(kind) + 1
    if callable(row):
        return row(text, body, off)
    make, allowed, *required = row
    return make(**_parse_kv(text, body, off, allowed, required))


_ALPHA_KEYS = {"re": float, "im": float, "varpi": float}


def _displaced(cls):
    """A coherent-family state from the descriptor fields re, im and varpi."""
    return lambda re=0.0, im=0.0, varpi=1.0: cls(complex(re, im), varpi)


def _parse_cat(text: str, body: str, off: int) -> State:
    parity, _, fields = body.partition(",")
    if parity not in ("even", "odd"):
        raise DescriptorError(text, off, f"cat parity must be even or odd, got {parity!r}")
    kv = _parse_kv(text, fields, off + len(parity) + 1, _ALPHA_KEYS, ())
    return _displaced(CatEven if parity == "even" else CatOdd)(**kv)


def _parse_custom(text: str, body: str, off: int) -> State:
    if not os.path.exists(body):
        raise DescriptorError(text, off, f"custom state file not found: {body!r}")
    col = _read_table(
        body, lambda _, names: None if "x" in names and "re" in names else DescriptorError(
            text, off, "custom CSV needs header x,re[,im]"),
        lambda names, _: DescriptorError(text, off, f"custom CSV rows need {len(names)} columns"))
    return CustomGrid(col["x"], col["re"] + 1j * col.get("im", 0.0))


# every state descriptor kind, a row of _scan_descriptor
_STATE_KINDS = {
    "ho": (HOEigen, {"n": int, "varpi": float}, "n"),
    "coherent": (_displaced(Coherent), _ALPHA_KEYS),
    "cat": _parse_cat,
    "superpos": (Superposition, {"n": int, "m": int, "varpi": float}, "n", "m"),
    "box": (BoxEigen, {"n": int, "L": float}, "n"),
    "custom": _parse_custom,
}


def parse_state(text: str) -> State:
    """Parse a state descriptor, one scan of _scan_descriptor over _STATE_KINDS:

        ho:n=<int>[,varpi=<f>]                  coherent:re=<f>,im=<f>[,varpi=<f>]
        cat:even|odd,re=<f>,im=<f>[,varpi=<f>]  superpos:n=<int>,m=<int>[,varpi=<f>]
        box:n=<int>,L=<f>                       custom:<path.csv>
    """
    return _scan_descriptor(text, "state", _STATE_KINDS)
