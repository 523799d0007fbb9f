"""Planck- and Ehrenfest-limit studies.

Each study sweeps a parameter family (hbar downward, or quantum number n
upward at fixed energy), measures how far the quantum tomograms are from
their distributional targets, fits the decay on a log-log scale, and
returns a LimitReport.  Limits here hold in the weak sense, so the
comparisons are built accordingly: pairing against a fixed battery of
smooth test functions for delta targets, and local averaging over a few
oscillation periods before L1 comparison against smooth classical
tomograms.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .classical import classical_box_tomogram, classical_oscillator_tomogram
from .kernel import Tomogram, TomographyFrame, TomogramError, normalization_residual
from .quantum import (
    box_tomogram,
    box_tomogram_stationary_phase,
    cat_interference,
    cat_tomogram,
    coherent_tomogram,
    coherent_tomogram_peak,
    default_x_grid,
    ehrenfest_hbar,
    hermite_tomogram,
    state_tomogram,
    superposition_cross_term,
    tomogram_from_wavefunction,
)
from .specfun import log_gamma, parabolic_u_asymptotic
from .states import CatEven, CustomGrid, cat_normalization, planck_scaled_state

__all__ = [
    "LimitReport",
    "TestFunction",
    "default_test_battery",
    "fit_power_law",
    "planck_scaled_tomogram",
    "weak_delta_convergence",
    "interference_decay",
    "cat_interference_planck",
    "ehrenfest_coherent",
    "ehrenfest_cat",
    "fringe_frame",
    "ehrenfest_box",
    "ehrenfest_oscillator",
    "box_windowed_distance",
    "oscillator_windowed_distance",
    "oscillator_local_period",
    "windowed_average",
    "weak_error",
]


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class LimitReport:
    """Record of one convergence study.

    distances[i] is the study's error measure at parameter_values[i];
    fitted_exponent is the log-log slope magnitude and is present only
    when the fit is trustworthy (R^2 >= 0.98).
    """

    study: str
    parameter_name: str
    parameter_values: list[float]
    distances: list[float]
    fitted_exponent: float | None
    r_squared: float | None
    verdict: str
    details: dict = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def __post_init__(self):
        p = np.asarray(self.parameter_values, dtype=float)
        if p.size >= 2:
            d = np.diff(p)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("parameter_values must be strictly monotone")
        if not np.all(np.isfinite(np.asarray(self.distances, dtype=float))):
            raise ValueError("distances must be finite")
        if self.fitted_exponent is not None and (
            self.r_squared is None or self.r_squared < 0.98
        ):
            raise ValueError("fitted_exponent requires a fit with R^2 >= 0.98")

    def to_json(self) -> str:
        payload = {
            "study": self.study,
            "parameters": self.parameter_name,
            "values": list(map(float, self.parameter_values)),
            "distances": list(map(float, self.distances)),
            "exponent": self.fitted_exponent,
            "r2": self.r_squared,
            "verdict": self.verdict,
            "details": self.details,
            "artifacts": self.artifacts,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> tuple[float | None, float | None]:
    """Least-squares slope of log y against log x and its R^2; (None, None)
    when the data cannot be fitted (nonpositive values)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0) or x.size < 2:
        return None, None
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


def _trusted_fit(values: Sequence[float], distances: Sequence[float]):
    """fit_power_law with the exponent dropped unless R^2 >= 0.98."""
    exponent, r2 = fit_power_law(values, distances)
    if r2 is None or r2 < 0.98:
        exponent = None
    return exponent, r2


def _decreasing(distances: Sequence[float]) -> bool:
    return all(distances[i] > distances[i + 1] for i in range(len(distances) - 1))


def _hbar_report(study: str, hbar_values: Sequence[float], distances: list[float],
                 details: dict, *conditions: bool, gate: bool = True) -> LimitReport:
    """Report of an hbar sweep with the shared verdict: converged when the
    fit is trusted, its exponent positive and every study condition holds;
    not-converged otherwise; inconclusive without a trusted fit unless the
    study's gate condition already fails."""
    exponent, r2 = _trusted_fit(hbar_values, distances)
    if exponent is None:
        verdict = "inconclusive" if gate else "not-converged"
    else:
        verdict = "converged" if exponent > 0 and all(conditions) else "not-converged"
    return LimitReport(study, "hbar", list(map(float, hbar_values)), distances,
                       exponent, r2, verdict, details=details)


def _thread_count() -> int:
    raw = os.environ.get("TOMOLAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        return min(4, os.cpu_count() or 1)
    return n


def _map_ordered(fn: Callable, items: Sequence):
    """Deterministic parallel map: results come back in input order."""
    n = _thread_count()
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# weak-convergence machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Smooth bounded test function for weak-convergence pairing."""

    label: str
    fn: Callable[[np.ndarray], np.ndarray]


def default_test_battery() -> tuple[TestFunction, ...]:
    """Gaussians of widths {0.5, 1, 2} centered at {-1, 0, 1} plus one
    bounded oscillatory function cos(X) e^{-X^2/4}; the spread of centers
    and widths distinguishes mass, location and spurious oscillation."""
    tests = []
    for c in (-1.0, 0.0, 1.0):
        for w in (0.5, 1.0, 2.0):
            tests.append(TestFunction(
                f"gauss(c={c:g},w={w:g})",
                lambda X, c=c, w=w: np.exp(-((X - c) ** 2) / (2.0 * w * w)),
            ))
    tests.append(TestFunction("cos*gauss", lambda X: np.cos(X) * np.exp(-X * X / 4.0)))
    return tuple(tests)


def _require_geometric(values: Sequence[float], minimum: int) -> None:
    v = np.asarray(values, dtype=float)
    if v.size < minimum:
        raise ValueError(f"need at least {minimum} parameter values, got {v.size}")
    ratios = v[1:] / v[:-1]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("parameter values must form a geometric sequence")


def weak_error(tom: Tomogram, tests: Sequence[TestFunction],
               center: float, targets: Sequence[float] | None = None) -> float:
    """max over the battery of |int W phi dX - N phi(center)| (or, with
    explicit targets, |int W phi dX - target_phi|)."""
    x, v, dx = tom.x_grid, tom.values, tom.dx
    mass = tom.total_mass()
    errs = []
    for k, t in enumerate(tests):
        lhs = dx * (np.dot(v, t.fn(x)) - 0.5 * (v[0] * t.fn(x[0]) + v[-1] * t.fn(x[-1])))
        lhs += sum(a.weight * float(t.fn(np.asarray(a.location))) for a in tom.atoms)
        rhs = targets[k] if targets is not None else mass * float(t.fn(np.asarray(center)))
        errs.append(abs(lhs - rhs))
    return max(errs)


def planck_scaled_tomogram(profile: CustomGrid, gamma: float, hbar: float,
                           frame: TomographyFrame, x_grid) -> Tomogram:
    """Tomogram of the scaled state psi(x) = hbar^(gamma/2) Psi(hbar^gamma x).

    For gamma = -1/2 the family is exactly self-similar: W(X) =
    hbar^(-1/2) F(X/sqrt(hbar)) with F the hbar = 1 tomogram.
    """
    scaled = planck_scaled_state(profile, gamma, hbar)
    return tomogram_from_wavefunction(scaled, frame, x_grid, hbar)


def weak_delta_convergence(state_for_hbar, hbar_values: Sequence[float],
                           frame: TomographyFrame, center: float = 0.0,
                           tests: Sequence[TestFunction] | None = None,
                           grid_points: int = 4001,
                           study: str = "planck-delta") -> LimitReport:
    """Weak convergence of a tomogram family to N*delta(X - center).

    state_for_hbar is a StateSpec (one spec swept over hbar) or a
    callable hbar -> StateSpec.  Every tomogram must be normalized to
    1e-3 before its weak error enters the report.
    """
    _require_geometric(hbar_values, 4)
    tests = tuple(tests) if tests is not None else default_test_battery()

    def one(hbar: float):
        state = state_for_hbar(hbar) if callable(state_for_hbar) else state_for_hbar
        grid = default_x_grid(state, frame, hbar, count=grid_points)
        tom = state_tomogram(state, frame, grid, hbar)
        resid = normalization_residual(tom)
        if resid > 1e-3:
            raise TomogramError(
                f"tomogram at hbar={hbar} not normalized (residual {resid:.2e}); "
                f"grid does not cover the state"
            )
        return weak_error(tom, tests, center), resid

    results = _map_ordered(one, list(hbar_values))
    errors = [r[0] for r in results]
    monotone = _decreasing(errors)
    details = {
        "constraint": "planck",
        "center": center,
        "normalization_residuals": [r[1] for r in results],
        "monotone": monotone,
    }
    return _hbar_report(study, hbar_values, errors, details, monotone)


# ---------------------------------------------------------------------------
# interference studies
# ---------------------------------------------------------------------------

def interference_decay(n: int, m: int, frame: TomographyFrame,
                       hbar_values: Sequence[float]) -> LimitReport:
    """Decay of the superposition interference profile.

    The tomogram cross term is cos(theta_nm) * sqrt(kappa) *
    phi_n(Q) phi_m(Q) with Q = sqrt(kappa) X and an X-independent phase,
    so its plain L1 norm is exactly hbar-independent; what shrinks is
    the profile phi_n(Q) phi_m(Q) itself, whose L1 norm scales as
    kappa^(-1/2) ~ sqrt(hbar).  The report's distances are that profile
    norm, int |Re A_n A_m*|/(2 pi hbar |nu| sqrt(kappa)) dX; the
    invariant L1 values and the signed integrals (zero by eigenstate
    orthogonality) are kept in details.
    """
    if n == m:
        raise ValueError("interference study needs two distinct eigenstates")
    if frame.nu == 0.0:
        raise ValueError("interference study needs nu != 0")
    _require_geometric(hbar_values, 5)
    if not all(1e-4 <= h <= 1e-1 for h in hbar_values):
        raise ValueError("hbar values must lie in [1e-4, 1e-1]")

    def one(hbar: float):
        kappa = 1.0 / (hbar * (frame.mu ** 2 + frame.nu ** 2))
        sig = 1.0 / math.sqrt(kappa)
        lim = (math.sqrt(2.0 * max(n, m) + 1.0) + 8.0) * sig
        x = np.linspace(-lim, lim, 4001)
        cross = superposition_cross_term(n, m, frame, x, hbar)
        dx = x[1] - x[0]
        l1_phys = float(dx * np.sum(np.abs(cross)))
        signed = float(dx * np.sum(cross))
        return l1_phys / math.sqrt(kappa), l1_phys, signed

    results = _map_ordered(one, list(hbar_values))
    distances = [r[0] for r in results]
    details = {"constraint": "planck", "n": n, "m": m}
    if _trusted_fit(hbar_values, distances)[0] is not None:  # inconclusive reports keep only n, m
        details["physical_l1"] = [r[1] for r in results]
        details["signed_integrals"] = [r[2] for r in results]
    return _hbar_report("interference", hbar_values, distances, details)


def cat_interference_planck(alpha: complex, frame: TomographyFrame,
                            hbar_values: Sequence[float]) -> LimitReport:
    """Planck limit of the even-cat interference term: its integral stays
    pinned at 2 exp(-2|alpha|^2) at every hbar, the full tomogram keeps
    unit mass, and N^2 (2 + 2 e^{-2|alpha|^2}) = 1 makes the weak limit a
    unit delta; distances are the weak-delta errors of the full tomogram."""
    _require_geometric(hbar_values, 4)
    if frame.nu == 0.0:
        raise ValueError("cat interference study needs nu != 0")
    target = 2.0 * math.exp(-2.0 * abs(alpha) ** 2)
    tests = default_test_battery()

    def one(hbar: float):
        state = CatEven(alpha)
        grid = default_x_grid(state, frame, hbar, count=8001, tails=10.0)
        I = cat_interference(alpha, frame, grid, hbar)
        dx = grid[1] - grid[0]
        integral = float(np.trapezoid(I, dx=dx))
        tom = state_tomogram(state, frame, grid, hbar)
        mass = tom.total_mass()
        return weak_error(tom, tests, 0.0), integral, mass

    results = _map_ordered(one, list(hbar_values))
    errors = [r[0] for r in results]
    integrals = [r[1] for r in results]
    masses = [r[2] for r in results]
    hbar_independent = max(abs(v - target) for v in integrals) < 1e-6
    N2 = cat_normalization(alpha, "even") ** 2
    details = {
        "constraint": "planck",
        "alpha": [alpha.real, alpha.imag],
        "interference_integrals": integrals,
        "interference_target": target,
        "masses": masses,
        "weak_limit_coefficient": N2 * (2.0 + target),
    }
    return _hbar_report("cat-interference", hbar_values, errors, details,
                        _decreasing(errors), hbar_independent, gate=hbar_independent)


# ---------------------------------------------------------------------------
# Ehrenfest studies
# ---------------------------------------------------------------------------

def _ehrenfest_alpha(q_alpha: float, p_alpha: float, hbar: float) -> complex:
    """alpha(hbar) pinned by alpha sqrt(2 hbar) = q_alpha + i p_alpha."""
    return complex(q_alpha, p_alpha) / math.sqrt(2.0 * hbar)


def ehrenfest_coherent(q_alpha: float, p_alpha: float, frame: TomographyFrame,
                       hbar_values: Sequence[float],
                       grid_points: int = 4001) -> LimitReport:
    """Coherent states at fixed mean energy: alpha grows as hbar shrinks so
    the tomogram peak stays at mu q_alpha + nu p_alpha while the width
    collapses like sqrt(hbar); the weak limit is the tomogram of the
    classical point state delta(q - q_alpha) delta(p - p_alpha)."""
    _require_geometric(hbar_values, 3)
    tests = default_test_battery()
    X_star = frame.mu * q_alpha + frame.nu * p_alpha
    peak_errors, widths, errors = [], [], []
    for hbar in hbar_values:
        alpha = _ehrenfest_alpha(q_alpha, p_alpha, hbar)
        sigma = math.sqrt(hbar * (frame.nu ** 2 + frame.mu ** 2) / 2.0)
        grid = np.linspace(X_star - 12 * sigma - 0.5, X_star + 12 * sigma + 0.5, grid_points)
        vals = coherent_tomogram(alpha, frame, grid, hbar)
        tom = Tomogram(frame, grid, vals)
        peak = grid[int(np.argmax(vals))]
        peak_pred = coherent_tomogram_peak(alpha, frame, hbar)
        dx = grid[1] - grid[0]
        peak_errors.append(abs(peak - X_star) / dx)
        mean = float(np.trapezoid(grid * vals, dx=dx))
        var = float(np.trapezoid((grid - mean) ** 2 * vals, dx=dx))
        widths.append(math.sqrt(max(var, 0.0)))
        errors.append(weak_error(tom, tests, X_star))
        if not abs(peak_pred - X_star) < 1e-12 * max(1.0, abs(X_star)):
            raise TomogramError(
                f"coherent peak {peak_pred!r} at hbar={hbar} misses the classical point {X_star!r}"
            )
    peaks_ok = all(pe <= 1.0 for pe in peak_errors)
    details = {
        "constraint": "ehrenfest",
        "q_alpha": q_alpha,
        "p_alpha": p_alpha,
        "target_location": X_star,
        "peak_error_cells": peak_errors,
        "widths": widths,
        "expected_widths": [
            math.sqrt(h * (frame.mu ** 2 + frame.nu ** 2) / 2.0) for h in hbar_values
        ],
    }
    return _hbar_report("ehrenfest-coherent", hbar_values, errors, details,
                        _decreasing(errors), peaks_ok)


def fringe_frame(q_alpha: float, p_alpha: float) -> TomographyFrame:
    """The frame (mu, nu) ~ (-p, q) in which the two cat components
    project on top of each other; that is the only axis family where the
    interference survives (in any separating frame it is suppressed by
    exp(-|alpha|^2 (1 - cos ...)), the Radon dual of Wigner fringes
    running perpendicular to the separation)."""
    s = math.hypot(q_alpha, p_alpha)
    if s == 0.0:
        raise ValueError("fringe frame undefined for a cat displaced to the origin")
    return TomographyFrame(-p_alpha / s, q_alpha / s)


def ehrenfest_cat(q_alpha: float, p_alpha: float, frame: TomographyFrame,
                  hbar_values: Sequence[float]) -> LimitReport:
    """Even cats at fixed mean energy.

    Three effects are tracked: (i) the interference oscillation frequency
    grows like 1/hbar, counted by zero crossings over a fixed X window in
    the fringe-carrying frame (see :func:`fringe_frame`; in the given
    frame, when it separates the components, the interference is
    exponentially suppressed); (ii) N_+-^2 -> 1/2; (iii) weakly the
    tomogram tends to the half/half mixture of deltas at
    +-(mu q_alpha + nu p_alpha), measured in the given frame.
    """
    _require_geometric(hbar_values, 3)
    tests = default_test_battery()
    X_star = abs(frame.mu * q_alpha + frame.nu * p_alpha)
    ffr = fringe_frame(q_alpha, p_alpha)
    hmax = max(hbar_values)
    window = 1.5 * math.sqrt(hmax * (ffr.mu ** 2 + ffr.nu ** 2) / 2.0)
    crossings, n2s, half_masses, errors = [], [], [], []
    for hbar in hbar_values:
        alpha = _ehrenfest_alpha(q_alpha, p_alpha, hbar)
        n2s.append(1.0 / (2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2))))
        # zero crossings of the interference over the fixed window
        freq = 2.0 * abs(ffr.nu * q_alpha - ffr.mu * p_alpha) / (
            hbar * (ffr.nu ** 2 + ffr.mu ** 2)
        )
        npts = max(2001, int(20 * freq * window / math.pi))
        xw = np.linspace(-window, window, npts)
        I = cat_interference(alpha, ffr, xw, hbar)
        sign = np.sign(I)
        sign = sign[sign != 0]
        crossings.append(int(np.count_nonzero(np.diff(sign) != 0)))
        # full tomogram in the given frame: half-line masses and weak
        # error against the two-delta mixture
        sigma = math.sqrt(hbar * (frame.nu ** 2 + frame.mu ** 2) / 2.0)
        lim = X_star + 12 * sigma + 0.5
        grid = np.linspace(-lim, lim, 8001)
        vals = cat_tomogram(alpha, "even", frame, grid, hbar)
        tom = Tomogram(frame, grid, vals)
        dx = grid[1] - grid[0]
        pos = float(np.trapezoid(np.where(grid > 0, vals, 0.0), dx=dx))
        half_masses.append(pos)
        targets = [0.5 * float(t.fn(np.asarray(X_star))) + 0.5 * float(t.fn(np.asarray(-X_star)))
                   for t in tests]
        errors.append(weak_error(tom, tests, 0.0, targets=targets))
    details = {
        "constraint": "ehrenfest",
        "q_alpha": q_alpha,
        "p_alpha": p_alpha,
        "endpoint_locations": [X_star, -X_star],
        "fringe_frame": [ffr.mu, ffr.nu],
        "zero_crossings": crossings,
        "crossing_window": window,
        "normalizations": n2s,
        "positive_half_masses": half_masses,
    }
    return _hbar_report("ehrenfest-cat", hbar_values, errors, details, _decreasing(errors))


def windowed_average(fn: Callable[[np.ndarray], np.ndarray], centers: np.ndarray,
                     period, samples_per_window: int = 24,
                     periods: int = 1) -> np.ndarray:
    """Mean of fn over [c - periods*period/2, c + periods*period/2) sampled
    uniformly; with the window an exact multiple of the period this
    averages an oscillation to its mean.

    period may be a scalar or an array of per-center local periods (for
    chirped oscillations, a window commensurate with the local period at
    every center avoids the leakage bias of one global window).
    """
    centers = np.asarray(centers, dtype=float)
    period = np.broadcast_to(np.asarray(period, dtype=float), centers.shape)
    offs = (np.arange(samples_per_window * periods) + 0.5) / (samples_per_window * periods)
    offs = (offs - 0.5) * periods
    pts = centers[:, None] + offs[None, :] * period[:, None]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return vals.mean(axis=1)


def box_windowed_distance(n: int, L: float, fr: TomographyFrame) -> float:
    """L1 distance between the fringe-averaged stationary-phase box
    tomogram at unit energy and the classical two-plateau tomogram,
    excluding two sample steps around the four support edges."""
    period = abs(fr.mu) * L / n
    s = math.sqrt(2.0) * fr.nu
    edges = np.array([s, fr.mu * L + s, -s, fr.mu * L - s])
    lo = min(min(edges) - 0.2, -0.2)
    hi = max(max(edges) + 0.2, 0.2)
    step = max(period, (hi - lo) / 600.0)
    centers = np.arange(lo, hi, step)
    keep = np.ones(centers.size, dtype=bool)
    for e in edges:
        keep &= np.abs(centers - e) > 2.0 * step
    avg = windowed_average(
        lambda X: np.asarray(box_tomogram_stationary_phase(n, L, fr, X)),
        centers[keep], period,
    )
    classical = np.asarray(classical_box_tomogram(centers[keep], fr, L))
    return float(np.sum(np.abs(avg - classical)) * step)


def ehrenfest_box(L: float, n_values: Sequence[int],
                  frames: Sequence[TomographyFrame],
                  momentum_check_n: int | None = None) -> LimitReport:
    """Box eigenstates at unit energy (hbar = sqrt2 L/(n pi), n upward):
    the stationary-phase tomogram, averaged over one fringe period,
    approaches the two-plateau classical box tomogram in L1 away from the
    four support edges.

    The fringe cos n(F_-(Qs-) - F_+(Qs+)) is exactly periodic in X with
    period |mu| L / n, so the one-period local average removes it
    identically where both plateaus overlap; the distances then sit at
    the quadrature floor (~1e-15) for every n instead of decaying
    smoothly, and the verdict treats an all-floor sequence as converged.
    Optionally also measures the momentum-frame mass concentration near
    X = +-sqrt2 from the exact box tomogram at n = momentum_check_n,
    frame (0.02, 1)."""
    n_values = list(n_values)
    if any(n < 10 for n in n_values):
        raise ValueError("stationary-phase study needs n >= 10")
    frames = list(frames)
    if any(f.mu == 0.0 or f.nu == 0.0 for f in frames):
        raise ValueError("box study frames need mu != 0 and nu != 0")

    distances = [max(box_windowed_distance(n, L, fr) for fr in frames) for n in n_values]
    details: dict = {
        "constraint": "ehrenfest",
        "L": L,
        "frames": [[f.mu, f.nu] for f in frames],
        "hbar_values": [ehrenfest_hbar(n, L) for n in n_values],
    }

    # position-marginal plateau at the largest n, frame -> (1, 0)
    n_last = n_values[-1]
    fr_pos = TomographyFrame(1.0, 0.02)
    period = L / n_last
    centers = np.linspace(0.15 * L, 0.85 * L, 41)
    avg = windowed_average(
        lambda X: np.asarray(box_tomogram_stationary_phase(n_last, L, fr_pos, X)),
        centers, period,
    )
    details["plateau_error"] = float(np.max(np.abs(avg - 1.0 / L)))

    if momentum_check_n is not None:
        nq = momentum_check_n
        hbar = ehrenfest_hbar(nq, L)
        frq = TomographyFrame(0.02, 1.0)
        conc = 0.0
        for sgn in (-1.0, 1.0):
            c = sgn * math.sqrt(2.0)
            dx = 2.0 * math.pi * hbar / L / 14.0
            grid = np.arange(c - 0.1, c + 0.1 + dx, dx)
            tom = box_tomogram(nq, L, frq, grid, hbar)
            conc += float(np.trapezoid(tom.values, dx=dx))
        details["momentum_concentration"] = conc
        details["momentum_check_n"] = nq

    at_floor = max(distances) < 1e-6
    ok = (_decreasing(distances) or at_floor) and distances[-1] < 0.05
    exponent, r2 = _trusted_fit(n_values, distances)
    return LimitReport(
        "ehrenfest-box", "n", list(map(float, n_values)), distances,
        exponent, r2, "converged" if ok else "not-converged", details=details,
    )


def _oscillator_u_route(n: int, X: np.ndarray) -> np.ndarray:
    """W_n(X, 1, 0) through the parabolic-cylinder asymptotic,
    sqrt(n/pi) U^2(-(n+1/2), sqrt(2n) X)/n!, assembled in log space."""
    pref = 0.5 * math.log(n / math.pi) - log_gamma(n + 1.0)
    out = np.empty_like(X)
    for i, xx in enumerate(X):
        u = parabolic_u_asymptotic(-(n + 0.5), math.sqrt(2.0 * n) * abs(xx))
        out[i] = math.exp(pref + 2.0 * math.log(abs(u))) if u != 0.0 else 0.0
    return out


def oscillator_local_period(n: int, frame: TomographyFrame, X: np.ndarray) -> np.ndarray:
    """Spacing of the squared-Hermite oscillation of W_n at hbar = 1/n,
    from the WKB phase derivative (pi over sqrt(kappa (2n+1) - kappa^2 X^2))."""
    hbar = 1.0 / n
    kappa = 1.0 / (hbar * (frame.mu ** 2 + frame.nu ** 2))
    inside = np.maximum(2.0 * n + 1.0 - kappa * X * X, 1.0)
    return math.pi / (math.sqrt(kappa) * np.sqrt(inside))


def oscillator_windowed_distance(n: int, frame: TomographyFrame,
                                 xmax: float | None = None) -> float:
    """L1 distance between the 3-period locally averaged oscillator
    tomogram at unit energy (hbar = 1/n) and the classical arcsine law,
    over |X| <= xmax (default 0.92 R, clear of the turning points)."""
    r2f = frame.mu ** 2 + frame.nu ** 2
    R = math.sqrt(2.0 * r2f)
    if xmax is None:
        xmax = 1.3 * R / math.sqrt(2.0)
    hbar = 1.0 / n
    centers = np.linspace(-xmax, xmax, 241)
    periods = oscillator_local_period(n, frame, centers)
    avg = windowed_average(
        lambda X: np.asarray(hermite_tomogram(n, frame, X, hbar)),
        centers, periods, samples_per_window=16, periods=3,
    )
    classical = np.asarray(classical_oscillator_tomogram(centers, frame, 1.0))
    return float(np.sum(np.abs(avg - classical)) * (centers[1] - centers[0]))


def ehrenfest_oscillator(n_values: Sequence[int],
                         frame: TomographyFrame = TomographyFrame(1.0, 0.0),
                         u_route_check_n: int | None = 100) -> LimitReport:
    """Oscillator eigenstates at unit energy (hbar = 1/n): the locally
    averaged tomogram approaches the arcsine law 1/(pi sqrt(R^2 - X^2)),
    R = sqrt(2(mu^2+nu^2)), on the classically allowed region, and is
    exponentially small beyond the turning points.

    The local average runs over 3 periods of the squared-Hermite
    oscillation (period estimated from the WKB phase derivative);
    distances are L1 against the arcsine law on |X| <= 0.92 R.  At
    u_route_check_n (frame (1,0) only) the same windowed average is
    cross-computed through the parabolic-cylinder asymptotic.
    """
    if frame.is_zero:
        raise TomogramError("oscillator study rejected for the zero frame")
    n_values = list(n_values)
    if any(n < 20 for n in n_values):
        raise ValueError("oscillator study needs n >= 20")
    r2f = frame.mu ** 2 + frame.nu ** 2
    R = math.sqrt(2.0 * r2f)
    xmax = 1.3 * R / math.sqrt(2.0)

    distances = _map_ordered(lambda n: oscillator_windowed_distance(n, frame, xmax), n_values)
    details: dict = {
        "constraint": "ehrenfest",
        "frame": [frame.mu, frame.nu],
        "hbar_values": [1.0 / n for n in n_values],
        "allowed_region_halfwidth": xmax,
    }

    # forbidden-region smallness at X = sqrt2 R (i.e. 2 in the (1,0) frame)
    n_last = n_values[-1]
    Xf = 2.0 * R / math.sqrt(2.0)
    details["forbidden_value"] = float(hermite_tomogram(n_last, frame, Xf, 1.0 / n_last))
    details["forbidden_bound"] = math.exp(-n_last / 10.0)

    if u_route_check_n is not None and frame.mu == 1.0 and frame.nu == 0.0:
        n = u_route_check_n
        centers = np.linspace(-1.3, 1.3, 121)
        periods = oscillator_local_period(n, frame, centers)
        avg_h = windowed_average(
            lambda X: np.asarray(hermite_tomogram(n, frame, X, 1.0 / n)),
            centers, periods, samples_per_window=16, periods=3,
        )
        avg_u = windowed_average(lambda X: _oscillator_u_route(n, X),
                                 centers, periods, samples_per_window=16, periods=3)
        details["u_route_relative_error"] = float(np.max(np.abs(avg_u / avg_h - 1.0)))
        details["u_route_n"] = n

    ok = _decreasing(distances) and distances[-1] < 0.03
    exponent, r2 = _trusted_fit(n_values, distances)
    return LimitReport(
        "ehrenfest-oscillator", "n", list(map(float, n_values)), distances,
        exponent, r2, "converged" if ok else "not-converged", details=details,
    )
