"""Output checks for benchmark jobs.

Every check runs outside the timed region and returns None when the output
is correct, or a one-line reason when it is not.  The references here are
written from the physics, not from tomolab's own routes: Hermite functions
from numpy's Hermite series, wave functions of the catalog states from their
textbook forms, the Wigner transform by direct quadrature, and trajectory
time averages by histogramming a dense time mesh.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Stated tolerances (absolute).
MASS_TOL_CLOSED = 1e-6      # closed-form tomograms on a grid covering the support
MASS_TOL_QUADRATURE = 1e-3  # box / custom-state quadrature tomograms
MASS_TOL_STUDY = 1e-3       # tomogram artifacts written by limit studies
RECONSTRUCT_TOL = 1e-3      # max-norm error of reconstructions (acceptance criterion 11)
TIME_AVERAGE_L1_TOL = 2e-2  # L1 of a trajectory time average against the histogram
COMPARE_OSCILLATOR_L1 = 0.03  # windowed L1 at unit energy (ehrenfest-oscillator verdict bound)
COMPARE_BOX_L1 = 0.05         # windowed L1 at unit energy (ehrenfest-box verdict bound)


def trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def tomogram_mass(csv_path: str) -> float:
    """Trapezoid mass of a written tomogram plus the atom weights of its
    JSON sidecar, when it has one."""
    x, v = read_xy_csv(csv_path)
    mass = trapezoid(v, float(x[1] - x[0]))
    side = os.path.splitext(csv_path)[0] + ".json"
    if os.path.exists(side):
        with open(side) as fh:
            mass += sum(a["weight"] for a in json.load(fh).get("atoms", []))
    return mass


def check_mass(csv_path: str, tol: float, expected: tuple[float, float] = (1.0, 1.0)) -> str | None:
    """Mass within tol of the interval `expected` (a single value when both
    ends agree)."""
    if not os.path.exists(csv_path):
        return f"missing output {os.path.basename(csv_path)}"
    mass = tomogram_mass(csv_path)
    resid = max(expected[0] - mass, mass - expected[1], 0.0)
    if not resid <= tol:
        return f"{os.path.basename(csv_path)}: mass residual {resid:.3e} > {tol:.0e}"
    return None


def check_max_error(name: str, err: float, tol: float) -> str | None:
    if not err <= tol:
        return f"{name}: max error {err:.3e} > {tol:.0e}"
    return None


# ---------------------------------------------------------------------------
# reference wave functions (varpi = 1)
# ---------------------------------------------------------------------------

def hermite_function(n: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) from numpy's Hermite series; fine for the small n used here."""
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return norm * np.polynomial.hermite.hermval(x, coef) * np.exp(-0.5 * x * x)


def fock_psi(n: int, hbar: float, y: np.ndarray) -> np.ndarray:
    s = 1.0 / math.sqrt(hbar)
    return math.sqrt(s) * hermite_function(n, s * y) + 0j


def coherent_psi(alpha: complex, hbar: float, y: np.ndarray) -> np.ndarray:
    q0 = math.sqrt(2.0 * hbar) * alpha.real
    p0 = math.sqrt(2.0 * hbar) * alpha.imag
    return (math.pi * hbar) ** -0.25 * np.exp(
        -(y - q0) ** 2 / (2.0 * hbar) + 1j * p0 * (y - 0.5 * q0) / hbar)


def catalog_psi(kind: str, params: dict, hbar: float):
    """Position wave function of a catalog state as a callable."""
    if kind == "ho":
        return lambda y: fock_psi(params["n"], hbar, y)
    if kind == "coherent":
        return lambda y: coherent_psi(params["alpha"], hbar, y)
    if kind == "cat":
        a = params["alpha"]
        sign = 1.0 if params["parity"] == "even" else -1.0
        norm = 1.0 / math.sqrt(2.0 * (1.0 + sign * math.exp(-2.0 * abs(a) ** 2)))
        return lambda y: norm * (coherent_psi(a, hbar, y) + sign * coherent_psi(-a, hbar, y))
    if kind == "superpos":
        n, m = params["n"], params["m"]
        return lambda y: (fock_psi(n, hbar, y) + fock_psi(m, hbar, y)) / math.sqrt(2.0)
    raise ValueError(f"no reference wave function for {kind!r}")


def wigner_reference(psi, q: np.ndarray, p: np.ndarray, hbar: float,
                     u_max: float, n_u: int = 4001) -> np.ndarray:
    """W[iq, ip] = int psi(q + u/2) psi*(q - u/2) e^{-i p u / hbar} du,
    the normalization tomolab uses (W = 2 at the ground-state origin)."""
    u = np.linspace(-u_max, u_max, n_u)
    w = np.full(u.size, u[1] - u[0])
    w[0] = w[-1] = 0.5 * w[0]
    kernel = np.exp(-1j * np.outer(u, p) / hbar) * w[:, None]  # (n_u, n_p)
    out = np.empty((q.size, p.size))
    for i, qq in enumerate(q):
        corr = psi(qq + 0.5 * u) * np.conj(psi(qq - 0.5 * u))
        out[i] = (corr @ kernel).real
    return out


def read_grid_csv(path: str, n_values: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (a, b, v1[, v2]) on a full product grid -> axes and value arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    a = np.unique(data[:, 0])
    b = np.unique(data[:, 1])
    vals = data[:, 2:2 + n_values].reshape(a.size, b.size, n_values)
    return a, b, vals


def check_wigner_csv(path: str, psi, hbar: float, tol: float) -> str | None:
    q, p, vals = read_grid_csv(path, 1)
    u_max = 4.0 * max(np.max(np.abs(q)), 1.0) + 40.0 * math.sqrt(hbar)
    ref = wigner_reference(psi, q, p, hbar, u_max)
    return check_max_error("wigner vs reference", float(np.max(np.abs(vals[:, :, 0] - ref))), tol)


def check_density_csv(path: str, psi, tol: float) -> str | None:
    x, _, vals = read_grid_csv(path, 2)
    rho = vals[:, :, 0] + 1j * vals[:, :, 1]
    s = psi(x)
    return check_max_error("density vs reference", float(np.max(np.abs(rho - np.outer(s, s.conj())))), tol)


def oscillator_tomogram(n: int, mu: float, nu: float, hbar: float, X: np.ndarray) -> np.ndarray:
    """sqrt(kappa) phi_n(sqrt(kappa) X)^2 with kappa = 1/(hbar (mu^2 + nu^2))."""
    rk = 1.0 / math.sqrt(hbar * (mu * mu + nu * nu))
    return rk * hermite_function(n, rk * X) ** 2


def gaussian_mixture(q: np.ndarray, p: np.ndarray, comps) -> np.ndarray:
    """Phase-space density sum_k w_k N(q; q_k, s_k) N(p; p_k, s_k) on a grid."""
    out = np.zeros((q.size, p.size))
    for w, qk, pk, s in comps:
        out += w * np.outer(np.exp(-(q - qk) ** 2 / (2 * s * s)),
                            np.exp(-(p - pk) ** 2 / (2 * s * s))) / (2 * math.pi * s * s)
    return out


def trajectory_histogram(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell-averaged density of the values g (a dense uniform time mesh of
    mu q(t) + nu p(t)) on the cells centred at the grid points x."""
    dx = x[1] - x[0]
    edges = np.concatenate(([x[0] - 0.5 * dx], x + 0.5 * dx))
    counts, _ = np.histogram(g, bins=edges)
    return counts / (g.size * dx)


def check_report_verdict(path: str, expected: str) -> tuple[dict | None, str | None]:
    if not os.path.exists(path):
        return None, f"missing report {os.path.basename(path)}"
    with open(path) as fh:
        report = json.load(fh)
    if report["verdict"] != expected:
        return report, f"{report['study']}: verdict {report['verdict']!r}, expected {expected!r}"
    return report, None
