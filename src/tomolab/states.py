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

from .specfun import hermite_phi

__all__ = [
    "State",
    "HOEigen",
    "Coherent",
    "CatEven",
    "CatOdd",
    "Superposition",
    "BoxEigen",
    "CustomGrid",
    "StateSpec",
    "DescriptorError",
    "parse_state",
    "state_descriptor",
    "cat_normalization",
    "coherent_center",
    "position_wavefunction",
    "momentum_wavefunction",
    "natural_scales",
    "position_extent",
    "momentum_extent",
    "planck_scaled_state",
]


class State:
    """The protocol every quantum state implements (the module functions
    of the same names document the methods without docstrings).

    A new state is one subclass: its wave functions, natural scales,
    extents and envelope scale give it the quadrature tomogram route,
    default grids and frame families in :mod:`tomolab.quantum` with no
    other edit.  A closed form is opted in through quantum's route table.
    """

    # psi is interpolated samples rather than a formula: the quadrature
    # route stays on the position side, where the samples have compact
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
        raise NotImplementedError

    def envelope_scale(self, hbar: float) -> float:
        """Smallest length on which psi(y) varies; sizes quadrature panels."""
        raise NotImplementedError

    def max_order(self) -> int:
        """Largest quantum number; sizes the Wigner reconstruction's frame box."""
        return 0

    def descriptor(self) -> str:
        raise NotImplementedError

    def exact_wigner(self, hbar: float):
        """Analytic Wigner function (p, q) -> W, or None when there is none here."""
        return None

    def x_extent(self, frame, hbar: float, tails: float = 8.0) -> tuple[float, float]:
        """X interval mu*[position extent] + nu*[momentum extent] of the tomogram."""
        qlo, qhi = self.position_extent(hbar, tails)
        plo, phi = self.momentum_extent(hbar, tails)
        corners = [frame.mu * q + frame.nu * p for q in (qlo, qhi) for p in (plo, phi)]
        return min(corners), max(corners)

    def support_extent(self, frame, hbar: float) -> tuple[float, float]:
        """X interval outside which the tomogram is negligible, padded by one width unit."""
        lo, hi = self.x_extent(frame, hbar, tails=10.0)
        return lo - 0.5, hi + 0.5


def _num(v: float) -> str:
    """Shortest round-tripping float text, with integral values written as integers."""
    return repr(float(v)).removesuffix(".0")


class _Oscillator(State):
    """The varpi oscillator family (mass * frequency = varpi)."""

    def __post_init__(self):
        if not self.varpi > 0:
            raise ValueError(f"varpi must be positive, got {self.varpi}")

    def natural_scales(self, hbar):
        return math.sqrt(hbar / self.varpi), math.sqrt(hbar * self.varpi)

    def _varpi_field(self) -> str:
        return "" if self.varpi == 1.0 else f",varpi={_num(self.varpi)}"


class _Fock(_Oscillator):
    """Eigenstate combinations, whose extents grow with the largest order."""

    def position_extent(self, hbar, tails=8.0):
        r = math.sqrt(hbar / self.varpi) * (math.sqrt(2.0 * self.max_order() + 1.0) + tails)
        return -r, r

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        r = math.sqrt(hbar * self.varpi) * (math.sqrt(2.0 * self.max_order() + 1.0) + tails)
        return -r, r

    def envelope_scale(self, hbar):
        return math.sqrt(hbar / self.varpi) / math.sqrt(2.0 * self.max_order() + 1.0)


@dataclass(frozen=True)
class HOEigen(_Fock):
    """Harmonic-oscillator eigenstate |n> with mass*frequency varpi."""

    n: int
    varpi: float = 1.0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"oscillator quantum number must be >= 0, got {self.n}")
        super().__post_init__()

    def max_order(self):
        return self.n

    def position_wavefunction(self, hbar):
        s = math.sqrt(self.varpi / hbar)
        n = self.n
        return lambda y: math.sqrt(s) * hermite_phi(n, s * np.asarray(y, dtype=float)) + 0j

    def momentum_wavefunction(self, hbar):
        s = math.sqrt(1.0 / (self.varpi * hbar))
        n = self.n
        phase = (-1j) ** n
        return lambda p: phase * math.sqrt(s) * hermite_phi(n, s * np.asarray(p, dtype=float))

    def descriptor(self):
        return f"ho:n={self.n},varpi={_num(self.varpi)}"

    def exact_wigner(self, hbar):
        n, w = self.n, self.varpi

        def w_fock(p, q):
            r2 = w * np.asarray(q, float) ** 2 / hbar + np.asarray(p, float) ** 2 / (w * hbar)
            # Laguerre L_n(2 r^2) by upward recurrence
            z = 2.0 * r2
            l0 = np.ones_like(z)
            if n == 0:
                ln = l0
            else:
                l1 = 1.0 - z
                ln = l1
                for k in range(1, n):
                    l0, ln = ln, ((2 * k + 1 - z) * ln - k * l0) / (k + 1)
            return 2.0 * (-1.0) ** n * ln * np.exp(-r2)

        return w_fock


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

    def max_order(self):
        return max(self.n, self.m)

    def position_wavefunction(self, hbar):
        s = math.sqrt(self.varpi / hbar)
        n, m = self.n, self.m

        def sup_psi(y):
            y = np.asarray(y, dtype=float)
            return math.sqrt(s / 2.0) * (hermite_phi(n, s * y) + hermite_phi(m, s * y)) + 0j

        return sup_psi

    def momentum_wavefunction(self, hbar):
        s = math.sqrt(1.0 / (self.varpi * hbar))
        n, m = self.n, self.m

        def sup_ft(p):
            p = np.asarray(p, dtype=float)
            return math.sqrt(s / 2.0) * (
                (-1j) ** n * hermite_phi(n, s * p) + (-1j) ** m * hermite_phi(m, s * p)
            )

        return sup_ft

    def descriptor(self):
        return f"superpos:n={self.n},m={self.m}{self._varpi_field()}"


def cat_normalization(alpha: complex, parity: str) -> float:
    """N_+- = 1/sqrt(2(1 +- exp(-2|alpha|^2)))."""
    a2 = abs(alpha) ** 2
    sign = 1.0 if parity == "even" else -1.0
    return 1.0 / math.sqrt(2.0 * (1.0 + sign * math.exp(-2.0 * a2)))


def coherent_center(alpha: complex, hbar: float, varpi: float = 1.0) -> tuple[float, float]:
    """Phase-space mean (q, p) of |alpha>: alpha = (sqrt(varpi) q + i p/sqrt(varpi)) / sqrt(2 hbar)."""
    qbar = math.sqrt(2.0 * hbar / varpi) * alpha.real
    pbar = math.sqrt(2.0 * hbar * varpi) * alpha.imag
    return qbar, pbar


def _coherent_psi(alpha: complex, hbar: float, varpi: float, y: np.ndarray) -> np.ndarray:
    qbar, pbar = coherent_center(alpha, hbar, varpi)
    amp = (varpi / (math.pi * hbar)) ** 0.25
    return amp * np.exp(
        -varpi * (y - qbar) ** 2 / (2.0 * hbar)
        + 1j * pbar * y / hbar
        - 0.5j * pbar * qbar / hbar
    )


def _coherent_psihat(alpha: complex, hbar: float, varpi: float, p: np.ndarray) -> np.ndarray:
    qbar, pbar = coherent_center(alpha, hbar, varpi)
    amp = (1.0 / (math.pi * hbar * varpi)) ** 0.25
    return amp * np.exp(
        -((p - pbar) ** 2) / (2.0 * hbar * varpi)
        - 1j * qbar * p / hbar
        + 0.5j * pbar * qbar / hbar
    )


class _Displaced(_Oscillator):
    """Coherent packets |alpha> and their superpositions; _span(center, r) is the extent."""

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        super().__post_init__()

    def position_extent(self, hbar, tails=8.0):
        qbar, _ = coherent_center(self.alpha, hbar, self.varpi)
        return self._span(qbar, tails * math.sqrt(hbar / self.varpi))

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        _, pbar = coherent_center(self.alpha, hbar, self.varpi)
        return self._span(pbar, tails * math.sqrt(hbar * self.varpi))

    def envelope_scale(self, hbar):
        _, pbar = coherent_center(self.alpha, hbar, self.varpi)
        return min(math.sqrt(hbar / self.varpi), hbar / (abs(pbar) + 1e-30))

    def _alpha_fields(self) -> str:
        return f"re={_num(self.alpha.real)},im={_num(self.alpha.imag)}{self._varpi_field()}"


@dataclass(frozen=True)
class Coherent(_Displaced):
    """Coherent state |alpha> of the varpi oscillator."""

    alpha: complex
    varpi: float = 1.0

    def position_wavefunction(self, hbar):
        return lambda y: _coherent_psi(self.alpha, hbar, self.varpi, np.asarray(y, dtype=float))

    def momentum_wavefunction(self, hbar):
        return lambda p: _coherent_psihat(self.alpha, hbar, self.varpi, np.asarray(p, dtype=float))

    @staticmethod
    def _span(center, r):
        return center - r, center + r

    def descriptor(self):
        return f"coherent:{self._alpha_fields()}"

    def exact_wigner(self, hbar):
        qbar, pbar = coherent_center(self.alpha, hbar, self.varpi)
        w = self.varpi

        def w_coh(p, q):
            return 2.0 * np.exp(
                -w * (np.asarray(q, float) - qbar) ** 2 / hbar
                - (np.asarray(p, float) - pbar) ** 2 / (w * hbar)
            )

        return w_coh


@dataclass(frozen=True)
class _Cat(_Displaced):
    """Coherent superposition N (|alpha> + sign |-alpha>)."""

    alpha: complex
    varpi: float = 1.0
    sign: ClassVar[float]

    @property
    def parity(self) -> str:
        return "even" if self.sign > 0 else "odd"

    def _superpose(self, packet, hbar):
        N = cat_normalization(self.alpha, self.parity)
        a, w, sign = self.alpha, self.varpi, self.sign

        def cat_wave(y):
            y = np.asarray(y, dtype=float)
            return N * (packet(a, hbar, w, y) + sign * packet(-a, hbar, w, y))

        return cat_wave

    def position_wavefunction(self, hbar):
        return self._superpose(_coherent_psi, hbar)

    def momentum_wavefunction(self, hbar):
        return self._superpose(_coherent_psihat, hbar)

    @staticmethod
    def _span(center, r):
        r = abs(center) + r
        return -r, r

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
        if not self.L > 0:
            raise ValueError(f"box width must be positive, got {self.L}")

    def position_wavefunction(self, hbar):
        k = self.n * math.pi / self.L
        amp = math.sqrt(2.0 / self.L)
        L = self.L

        def box_psi(y):
            y = np.asarray(y, dtype=float)
            inside = (y >= 0.0) & (y <= L)
            return np.where(inside, amp * np.sin(k * y), 0.0) + 0j

        return box_psi

    def momentum_wavefunction(self, hbar):
        k = self.n * math.pi / self.L
        L = self.L
        alt = (-1.0) ** self.n
        amp = math.sqrt(2.0 / L) / math.sqrt(2.0 * math.pi * hbar)

        def box_ft(p):
            p = np.asarray(p, dtype=float)
            q = p / hbar
            denom = k * k - q * q
            near = np.abs(denom) < 1e-9 * k * k
            denom_safe = np.where(near, 1.0, denom)
            main = k * (1.0 - alt * np.exp(-1j * q * L)) / denom_safe
            resonant = np.where(q > 0, -0.5j * L, 0.5j * L)
            return amp * np.where(near, resonant, main)

        return box_ft

    def natural_scales(self, hbar):
        return self.L / 2.0, hbar * self.n * math.pi / self.L

    def position_extent(self, hbar, tails=8.0):
        return 0.0, self.L

    def momentum_extent(self, hbar, tails=8.0, mass_tol=1e-6):
        """Power-law momentum tails: the reach is sized from the requested
        mass tolerance, not from tails."""
        k = self.n * math.pi / self.L
        core = hbar * k
        tail = (8.0 * k * k * hbar ** 3 / (3.0 * math.pi * self.L * mass_tol)) ** (1.0 / 3.0)
        r = core + 1.5 * tail
        return -r, r

    def max_order(self):
        return self.n

    def descriptor(self):
        return f"box:n={self.n},L={_num(self.L)}"

    def x_extent(self, frame, hbar, tails=8.0, mass_tol=1e-4):
        """X interval capturing the box tomogram mass to ~mass_tol.

        The smooth support is mu*[0, L] broadened by nu times the momentum
        spread; beyond it the tomogram decays like 1/X^4 (sharp-wall
        diffraction), so the pad is sized from that power law.
        """
        plo, phi = self.momentum_extent(hbar, mass_tol=mass_tol / 4.0)
        corners = [frame.mu * q + frame.nu * p for q in (0.0, self.L) for p in (plo, phi)]
        return min(corners) - 0.5, max(corners) + 0.5

    def support_extent(self, frame, hbar):
        return self.x_extent(frame, hbar, mass_tol=1e-6)


class CustomGrid(State):
    """Arbitrary normalized wave function sampled on a uniform grid.

    Samples are interpolated linearly and treated as zero outside the
    grid.  The L2 norm must be 1 within 1e-8.
    """

    sampled = True

    def __init__(self, x_grid, psi):
        x = np.array(x_grid, dtype=float)
        v = np.array(psi, dtype=complex)
        if x.ndim != 1 or v.shape != x.shape or x.size < 4:
            raise ValueError("CustomGrid needs matching 1D arrays of at least 4 samples")
        d = np.diff(x)
        if np.any(d <= 0) or not np.allclose(d, d[0], rtol=1e-9):
            raise ValueError("CustomGrid x-grid must be uniform increasing")
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

    def momentum_wavefunction(self, hbar):
        xg, pg = self.x_grid, self.psi
        pref = 1.0 / math.sqrt(2.0 * math.pi * hbar)

        def custom_ft(p):
            p = np.atleast_1d(np.asarray(p, dtype=float))
            ker = np.exp(-1j * np.outer(p, xg) / hbar)
            out = pref * np.trapezoid(ker * pg[None, :], xg, axis=1)
            return out if out.size > 1 else out[0]

        return custom_ft

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

    def envelope_scale(self, hbar):
        return 2.0 * float(self.x_grid[1] - self.x_grid[0])

    def descriptor(self):
        return "custom:<grid>"


StateSpec = State


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


def momentum_extent(state: State, hbar: float, tails: float = 8.0,
                    mass_tol: float = 1e-6) -> tuple[float, float]:
    """Interval of p outside which |psihat| is negligible (box states have
    power-law momentum tails sized from the requested mass tolerance)."""
    return state.momentum_extent(hbar, tails, mass_tol)


def planck_scaled_state(profile: CustomGrid, gamma: float, hbar: float,
                        x0: float = 0.0) -> CustomGrid:
    """Apply the scaling law psi(x) = hbar^(gamma/2) * Psi(hbar^gamma * (x - x0)).

    The profile grid is stretched by hbar^(-gamma) so the scaled state
    stays exactly normalized; gamma in [-1, 0] is the validated range.
    """
    if not -1.0 <= gamma <= 0.0:
        raise ValueError(f"scaling exponent gamma must lie in [-1, 0], got {gamma}")
    _require_hbar(hbar)
    scale = hbar ** (-gamma)
    return CustomGrid(profile.x_grid * scale + x0, profile.psi * hbar ** (gamma / 2.0))


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
    for token in body.split(","):
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


def parse_state(text: str) -> State:
    """Parse a state descriptor:

        ho:n=<int>[,varpi=<f>]                  coherent:re=<f>,im=<f>[,varpi=<f>]
        cat:even|odd,re=<f>,im=<f>[,varpi=<f>]  superpos:n=<int>,m=<int>[,varpi=<f>]
        box:n=<int>,L=<f>                       custom:<path.csv>
    """
    if ":" not in text:
        raise DescriptorError(text, 0, "descriptor must look like kind:args")
    kind, body = text.split(":", 1)
    off = len(kind) + 1
    alpha_keys = {"re": float, "im": float, "varpi": float}
    if kind == "ho":
        kv = _parse_kv(text, body, off, {"n": int, "varpi": float}, ("n",))
        return HOEigen(kv["n"], kv.get("varpi", 1.0))
    if kind == "coherent":
        kv = _parse_kv(text, body, off, alpha_keys, ())
        return Coherent(complex(kv.get("re", 0.0), kv.get("im", 0.0)), kv.get("varpi", 1.0))
    if kind == "cat":
        parts = body.split(",", 1)
        parity = parts[0]
        if parity not in ("even", "odd"):
            raise DescriptorError(text, off, f"cat parity must be even or odd, got {parity!r}")
        kv = _parse_kv(text, parts[1], off + len(parity) + 1, alpha_keys, ()) if len(parts) > 1 else {}
        alpha = complex(kv.get("re", 0.0), kv.get("im", 0.0))
        return (CatEven if parity == "even" else CatOdd)(alpha, kv.get("varpi", 1.0))
    if kind == "superpos":
        kv = _parse_kv(text, body, off, {"n": int, "m": int, "varpi": float}, ("n", "m"))
        return Superposition(kv["n"], kv["m"], kv.get("varpi", 1.0))
    if kind == "box":
        kv = _parse_kv(text, body, off, {"n": int, "L": float}, ("n",))
        return BoxEigen(kv["n"], kv.get("L", 1.0))
    if kind == "custom":
        path = body
        if not os.path.exists(path):
            raise DescriptorError(text, off, f"custom state file not found: {path!r}")
        data = np.genfromtxt(path, delimiter=",", names=True)
        names = data.dtype.names or ()
        if "x" not in names or "re" not in names:
            raise DescriptorError(text, off, "custom CSV needs header x,re[,im]")
        im = data["im"] if "im" in names else np.zeros_like(data["x"])
        return CustomGrid(data["x"], data["re"] + 1j * im)
    raise DescriptorError(text, 0, f"unknown state kind {kind!r}")


def state_descriptor(state: State) -> str:
    """Inverse of parse_state for catalog states (used in JSON sidecars)."""
    return state.descriptor()
