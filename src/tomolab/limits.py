"""Planck- and Ehrenfest-limit studies.

Each study sweeps hbar -> 0 or quantum number n -> infinity, measures how
far the quantum tomograms are from their distributional targets, fits the
decay on a log-log scale, and returns a LimitReport with the verdict of
its sweep kind, whatever order the values come in.  Limits here hold in
the weak sense, so the comparisons are built accordingly: pairing against
a fixed battery of smooth test functions of X/|zeta| for delta targets,
and local averaging over a few oscillation periods before L1 comparison
against smooth classical tomograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .classical import box_plateaus, classical_box_tomogram, classical_oscillator_tomogram
from .kernel import DeltaAtom, Tomogram, TomographyFrame, TomogramError, normalization_residual
from .quantum import (
    _require_stationary_phase,
    box_tomogram,
    box_tomogram_stationary_phase,
    cat_interference,
    coherent_tomogram_peak,
    default_x_grid,
    ehrenfest_hbar,
    hermite_tomogram,
    oscillator_ehrenfest_hbar,
    state_tomogram,
    superposition_cross_term,
)
from .specfun import parabolic_u_asymptotic
from .states import CatEven, Coherent, State, _box_wave_number, cat_normalization

__all__ = [
    "LimitReport",
    "default_test_battery",
    "fit_power_law",
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
    fitted_exponent, the signed log-log slope, is present only when the
    fit is trustworthy (R^2 >= 0.98).  curves[i] is what the study
    measured at parameter_values[i]: the Tomogram of the four tomogram
    studies, the (X, cross term) profile of the interference study, and for
    the n studies (X, quantum, classical, dx), the windowed quantum average
    and the classical tomogram at the X centres, whose sum
    |quantum - classical| dx is distances[i].  Curves are not part of the JSON.
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
    curves: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        _require_monotone(self.parameter_values)
        if not np.all(np.isfinite(np.asarray(self.distances, dtype=float))):
            raise ValueError("distances must be finite")
        if self.fitted_exponent is not None and (
            self.r_squared is None or self.r_squared < 0.98
        ):
            raise ValueError("fitted_exponent requires a fit with R^2 >= 0.98")

    def payload(self) -> dict:
        return {
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


def _require_count(values: Sequence[float], minimum: int) -> None:
    if len(values) < minimum:
        raise ValueError(f"need at least {minimum} parameter values, got {len(values)}")


def _require_monotone(values: Sequence[float]) -> None:
    d = np.diff(np.asarray(values, dtype=float))
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError(f"sweep values must be strictly monotone, got {list(values)}")


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


def _falls(values: Sequence[float], distances: Sequence[float], toward_zero: bool) -> bool:
    """Whether the distances fall strictly as the parameter moves toward its
    limit (0, or infinity), whatever order the sweep lists the values in."""
    steps = np.diff(np.asarray(distances, dtype=float)[np.argsort(values)])
    return bool(np.all(steps > 0 if toward_zero else steps < 0))


def _hbar_report(study: str, hbar_values: Sequence[float], distances: list[float],
                 details: dict, *conditions: bool, curves: list = ()) -> LimitReport:
    """Report of an hbar sweep: converged with no exponent when every
    distance is exactly 0 (the limit is reached at every hbar) and every
    study condition holds; otherwise not-converged when a condition fails,
    the distances do not fall as hbar -> 0 or a trusted fit has an
    exponent <= 0, inconclusive when nothing fails but no fit is trusted,
    and converged when one is."""
    exact = not any(distances)
    exponent, r2 = _trusted_fit(hbar_values, distances)
    failed = (not all(conditions) or not (exact or _falls(hbar_values, distances, toward_zero=True))
              or (exponent is not None and exponent <= 0))
    verdict = "not-converged" if failed else "converged" if exact or exponent is not None else "inconclusive"
    return LimitReport(study, "hbar", list(map(float, hbar_values)), distances,
                       exponent, r2, verdict, details=details, curves=list(curves))


def _n_report(study: str, n_values: Sequence[int], distances: list[float],
              details: dict, *conditions: bool, curves: list = ()) -> LimitReport:
    """Report of an n sweep: converged when every study condition holds and
    the distances fall as n -> infinity or all sit at the roundoff floor."""
    roundoff = max(distances) < 1e-6  # falling, and reported with no exponent or R^2
    exponent, r2 = (None, None) if roundoff else _trusted_fit(n_values, distances)
    falls = roundoff or _falls(n_values, distances, toward_zero=False)
    verdict = "converged" if falls and all(conditions) else "not-converged"
    return LimitReport(study, "n", list(map(float, n_values)), distances,
                       exponent, r2, verdict, details=details, curves=list(curves))


def _sweep(fn: Callable, values: Sequence) -> list[list]:
    """fn at every value, in order, as one list per component of its
    result tuple; fewer than two values, which have no step to fall by,
    or values that are not strictly monotone are refused before any is
    computed."""
    _require_count(values, 2)
    _require_monotone(values)
    return [list(column) for column in zip(*(fn(v) for v in values))]


# ---------------------------------------------------------------------------
# weak-convergence machinery
# ---------------------------------------------------------------------------

def default_test_battery() -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """Gaussians of widths {0.5, 1, 2} centered at {-1, 0, 1} plus one
    bounded oscillatory function cos(X) e^{-X^2/4}; the spread of centers
    and widths distinguishes mass, location and spurious oscillation."""
    tests = []
    for c in (-1.0, 0.0, 1.0):
        for w in (0.5, 1.0, 2.0):
            tests.append(lambda X, c=c, w=w: np.exp(-((X - c) ** 2) / (2.0 * w * w)))
    tests.append(lambda X: np.cos(X) * np.exp(-X * X / 4.0))
    return tuple(tests)


def _require_geometric(values: Sequence[float], minimum: int) -> None:
    _require_count(values, minimum)
    v = np.asarray(values, dtype=float)
    ratios = v[1:] / v[:-1]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("parameter values must form a geometric sequence")


def weak_error(tom: Tomogram, targets: Sequence[DeltaAtom]) -> float:
    """max over the battery of |int W phi(X/|zeta|) dX - N sum_k w_k phi(x_k/|zeta|)|,
    N the tomogram's mass, (w_k, x_k) the target atoms and |zeta| = 1 for
    the zero frame.  Read in units of |zeta|, the error of a frame lam zeta
    is that of zeta, since W(lam X; lam mu, lam nu) = W(X; mu, nu)/|lam|."""
    r = tom.frame.norm or 1.0
    x, v, dx = tom.x_grid / r, tom.values, tom.dx
    mass = tom.total_mass()

    def paired(atoms, t):
        return sum(a.weight * float(t(np.asarray(a.location / r))) for a in atoms)

    errs = []
    with np.errstate(over="ignore"):  # far out the battery is 0
        for t in default_test_battery():
            lhs = dx * (np.dot(v, t(x)) - 0.5 * (v[0] * t(x[0]) + v[-1] * t(x[-1])))
            errs.append(abs(lhs + paired(tom.atoms, t) - mass * paired(targets, t)))
    return max(errs)


def weak_delta_convergence(state: State, hbar_values: Sequence[float],
                           frame: TomographyFrame, center: float = 0.0) -> LimitReport:
    """Weak convergence of the tomograms of one state, swept over hbar, to
    N*delta(X - center).  Every tomogram must be normalized to 1e-3 before
    its weak error enters the report.
    """
    _require_geometric(hbar_values, 4)

    def one(hbar: float):
        tom = state_tomogram(state, frame, default_x_grid(state, frame, hbar), hbar)
        resid = normalization_residual(tom)
        if resid > 1e-3:
            raise TomogramError(
                f"tomogram at hbar={hbar} not normalized (residual {resid:.2e}); "
                f"grid does not cover the state"
            )
        return weak_error(tom, (DeltaAtom(1.0, center),)), resid, tom

    errors, residuals, toms = _sweep(one, hbar_values)
    details = {
        "constraint": "planck",
        "center": center,
        "normalization_residuals": residuals,
        "monotone": _falls(hbar_values, errors, toward_zero=True),
    }
    return _hbar_report("planck-delta", hbar_values, errors, details, curves=toms)


# ---------------------------------------------------------------------------
# interference studies
# ---------------------------------------------------------------------------

def interference_decay(n: int, m: int, frame: TomographyFrame,
                       hbar_values: Sequence[float]) -> LimitReport:
    """Decay of the superposition interference profile.

    In every nonzero frame the cross term sqrt(kappa) Re(u_n u_m*) is
    cos(theta_nm) sqrt(kappa) phi_n(Q) phi_m(Q), Q = sqrt(kappa) X, so its
    plain L1 norm is exactly hbar-independent; what shrinks is the profile
    phi_n(Q) phi_m(Q) itself, whose L1 norm scales as kappa^(-1/2) ~
    sqrt(hbar).  The report's distances are that profile norm in units of
    |zeta|, sqrt(hbar) int |cross term| dX, the same for every frame
    length; the invariant L1 values and the signed integrals (zero by
    eigenstate orthogonality) are kept in details.  Each curve is every
    second sample of the summed profile, 2001 rows over its range.
    """
    if n == m:
        raise ValueError("interference study needs two distinct eigenstates")
    _require_geometric(hbar_values, 5)

    def one(hbar: float):
        sig = math.sqrt(hbar) * frame.norm  # kappa^(-1/2)
        lim = (math.sqrt(2.0 * max(n, m) + 1.0) + 8.0) * sig
        x = np.linspace(-lim, lim, 4001)
        cross = superposition_cross_term(n, m, frame, x, hbar)
        dx = x[1] - x[0]
        l1_phys = float(dx * np.sum(np.abs(cross)))
        signed = float(dx * np.sum(cross))
        return l1_phys * math.sqrt(hbar), l1_phys, signed, (x[::2], cross[::2])

    distances, l1_phys, signed, profiles = _sweep(one, hbar_values)
    details = {"constraint": "planck", "n": n, "m": m}
    report = _hbar_report("interference", hbar_values, distances, details, curves=profiles)
    if report.fitted_exponent is not None:  # reports without a trusted fit keep only n, m
        details.update(physical_l1=l1_phys, signed_integrals=signed)
    return report


def cat_interference_planck(alpha: complex, frame: TomographyFrame,
                            hbar_values: Sequence[float]) -> LimitReport:
    """Planck limit of the even-cat interference term: its integral stays
    pinned at 2 exp(-2|alpha|^2) at every hbar, the full tomogram keeps
    unit mass, and N^2 (2 + 2 e^{-2|alpha|^2}) = 1 makes the weak limit a
    unit delta; distances are the weak-delta errors of the full tomogram,
    in every nonzero frame, nu = 0 included (the zero frame has no I)."""
    _require_geometric(hbar_values, 4)
    target = 2.0 * math.exp(-2.0 * abs(alpha) ** 2)
    state = CatEven(alpha)

    def one(hbar: float):
        tom = state_tomogram(state, frame, default_x_grid(state, frame, hbar), hbar)
        integral = float(np.trapezoid(cat_interference(alpha, frame, tom.x_grid, hbar), dx=tom.dx))
        return weak_error(tom, (DeltaAtom(1.0, 0.0),)), integral, tom.total_mass(), tom

    errors, integrals, masses, toms = _sweep(one, hbar_values)
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
    return _hbar_report("cat-interference", hbar_values, errors, details, hbar_independent,
                        curves=toms)


# ---------------------------------------------------------------------------
# Ehrenfest studies
# ---------------------------------------------------------------------------

def _ehrenfest_alpha(q_alpha: float, p_alpha: float, hbar: float) -> complex:
    """alpha(hbar) pinned by alpha sqrt(2 hbar) = q_alpha + i p_alpha."""
    return complex(q_alpha, p_alpha) / math.sqrt(2.0 * hbar)


def ehrenfest_coherent(q_alpha: float, p_alpha: float, frame: TomographyFrame,
                       hbar_values: Sequence[float]) -> LimitReport:
    """Coherent states at fixed mean energy: alpha grows as hbar shrinks so
    the tomogram peak stays at mu q_alpha + nu p_alpha while the width
    collapses like sqrt(hbar); the weak limit is the tomogram of the
    classical point state delta(q - q_alpha) delta(p - p_alpha).  Widths
    are read in units of |zeta|, 1 for the zero frame (the target's atom)."""
    _require_geometric(hbar_values, 3)
    X_star, r = frame.mu * q_alpha + frame.nu * p_alpha, frame.norm or 1.0

    def one(hbar: float):
        alpha = _ehrenfest_alpha(q_alpha, p_alpha, hbar)
        state = Coherent(alpha)
        tom = state_tomogram(state, frame, default_x_grid(state, frame, hbar), hbar)
        grid, vals, dx = tom.x_grid, tom.values, tom.dx
        peak_pred = coherent_tomogram_peak(alpha, frame, hbar)
        if not abs(peak_pred - X_star) < 1e-12 * max(1.0, abs(X_star)):
            raise TomogramError(
                f"coherent peak {peak_pred!r} at hbar={hbar} misses the classical point {X_star!r}"
            )
        mean = float(np.trapezoid(grid * vals, dx=dx))
        var = float(np.trapezoid(((grid - mean) / r) ** 2 * vals, dx=dx))  # in units of |zeta|^2
        peak = tom.atoms[0].location if tom.atoms else grid[int(np.argmax(vals))]
        return (abs(peak - X_star) / dx, math.sqrt(max(var, 0.0)) * r,
                weak_error(tom, (DeltaAtom(1.0, X_star),)), tom)

    peak_errors, widths, errors, toms = _sweep(one, hbar_values)
    details = {
        "constraint": "ehrenfest",
        "q_alpha": q_alpha,
        "p_alpha": p_alpha,
        "target_location": X_star,
        "peak_error_cells": peak_errors,
        "widths": widths,
        "expected_widths": [math.sqrt(h / 2.0) * frame.norm for h in hbar_values],
    }
    return _hbar_report("ehrenfest-coherent", hbar_values, errors, details, curves=toms)


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
    +-(mu q_alpha + nu p_alpha), measured in the given frame (in the zero
    frame, the unit atom at both, the fringe count and weight read |zeta| as 1).
    """
    _require_geometric(hbar_values, 3)
    X_star, r = abs(frame.mu * q_alpha + frame.nu * p_alpha), frame.norm or 1.0
    cross = abs(frame.nu * q_alpha - frame.mu * p_alpha)
    ffr = fringe_frame(q_alpha, p_alpha)  # a unit frame
    window = 1.5 * math.sqrt(max(hbar_values) / 2.0)

    def one(hbar: float):
        alpha = _ehrenfest_alpha(q_alpha, p_alpha, hbar)
        # zero crossings of the interference over the fixed window
        freq = 2.0 * abs(ffr.nu * q_alpha - ffr.mu * p_alpha) / hbar
        npts = max(2001, int(20 * freq * window / math.pi))
        xw = np.linspace(-window, window, npts)
        sign = np.sign(cat_interference(alpha, ffr, xw, hbar))
        crossings = int(np.count_nonzero(np.diff(sign[sign != 0]) != 0))
        # full tomogram in the given frame: half-line masses and weak
        # error against the two-delta mixture.  The fringes between the
        # components at +-X_star have period pi hbar |zeta|^2/cross and weight
        # exp(-X_star^2/(hbar |zeta|^2)): where that weight passes 1e-6 and the
        # default grid has fewer than two samples a period, it takes four
        state = CatEven(alpha)
        grid = default_x_grid(state, frame, hbar)
        fringes = (grid[-1] - grid[0]) / r * (cross / r) / (math.pi * hbar)
        if (X_star / r) ** 2 < hbar * math.log(1e6) and 2 * fringes > grid.size - 1:
            grid = np.linspace(grid[0], grid[-1], math.ceil(4 * fringes) + 1)
        tom = state_tomogram(state, frame, grid, hbar)
        return (crossings, 1.0 / (2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2))),
                float(np.trapezoid(np.where(grid > 0, tom.values, 0.0), dx=tom.dx)),
                weak_error(tom, (DeltaAtom(0.5, X_star), DeltaAtom(0.5, -X_star))), tom)

    crossings, n2s, half_masses, errors, toms = _sweep(one, hbar_values)
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
    return _hbar_report("ehrenfest-cat", hbar_values, errors, details, curves=toms)


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


def _box_curve(n: int, L: float, fr: TomographyFrame) -> tuple[float, tuple]:
    """box_windowed_distance and its curve (LimitReport.curves)."""
    _require_stationary_phase(n, fr)  # before the period divides by n
    _box_wave_number(n, L)  # refuses, naming L, a box whose scales leave the normal doubles
    period = abs(fr.mu) * L / n
    edges = np.ravel(box_plateaus(fr, L))
    pad = 0.2 * abs(fr.mu) * L  # a fifth of the plateau width
    lo = min(min(edges) - pad, -pad)
    hi = max(max(edges) + pad, pad)
    step = max(period, (hi - lo) / 600.0)
    centers = np.arange(lo, hi, step)
    keep = np.ones(centers.size, dtype=bool)
    for e in edges:
        keep &= np.abs(centers - e) > 2.0 * step
    centers = centers[keep]
    avg = windowed_average(
        lambda X: np.asarray(box_tomogram_stationary_phase(n, L, fr, X)),
        centers, period,
    )
    classical = np.asarray(classical_box_tomogram(centers, fr, L))
    return float(np.sum(np.abs(avg - classical)) * step), (centers, avg, classical, step)


def box_windowed_distance(n: int, L: float, fr: TomographyFrame) -> float:
    """L1 distance between the fringe-averaged stationary-phase box
    tomogram at unit energy and the classical two-plateau tomogram,
    excluding two sample steps around the four support edges."""
    return _box_curve(n, L, fr)[0]


def ehrenfest_box(L: float, n_values: Sequence[int], frame: TomographyFrame,
                  momentum_check_n: int | None = None) -> LimitReport:
    """Box eigenstates at unit energy (hbar = sqrt2 L/(n pi), n upward):
    the stationary-phase tomogram, averaged over one fringe period,
    approaches the two-plateau classical box tomogram in L1 away from the
    four support edges.

    The fringe cos(2 pi n X/(mu L)) is exactly periodic in X with period
    |mu| L/n, so the one-period local average removes it identically
    where both plateaus overlap; the distances then sit at the roundoff
    floor (~1e-15) for every n, where an n sweep counts as falling.  The
    stationary-phase route refuses n < 10, mu = 0 and nu = 0.  Optionally
    also measures the momentum-frame mass concentration near X = +-sqrt2
    from the exact box tomogram at n = momentum_check_n >= 1, frame (0.02, 1)."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"box study needs a positive finite L, got {L!r}")
    if momentum_check_n is not None and momentum_check_n < 1:
        raise ValueError(f"momentum check needs n >= 1, got {momentum_check_n}")
    n_values = list(n_values)

    distances, curves = _sweep(lambda n: _box_curve(n, L, frame), n_values)
    details: dict = {
        "constraint": "ehrenfest",
        "L": L,
        "frame": [frame.mu, frame.nu],
        "hbar_values": [ehrenfest_hbar(n, L) for n in n_values],
    }

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

    return _n_report("ehrenfest-box", n_values, distances, details,
                     distances[n_values.index(max(n_values))] < 0.05, curves=curves)


def _oscillator_u_route(n: int, X: np.ndarray) -> np.ndarray:
    """W_n(X, 1, 0) through the parabolic-cylinder asymptotic,
    sqrt(n/pi) U^2(-(n+1/2), sqrt(2n) X)/n!, with the prefactor's square
    root applied to U before squaring (U^2 alone overflows past n = 170)."""
    pref = 0.5 * math.log(n / math.pi) - math.lgamma(n + 1.0)
    return (parabolic_u_asymptotic(-(n + 0.5), math.sqrt(2.0 * n) * np.abs(X)) * math.exp(0.5 * pref)) ** 2


def oscillator_local_period(n: int, frame: TomographyFrame, X: np.ndarray) -> np.ndarray:
    """Spacing of the squared-Hermite oscillation of W_n at hbar = 1/n,
    from the WKB phase derivative (pi over sqrt(kappa (2n+1) - kappa^2 X^2))."""
    hbar = oscillator_ehrenfest_hbar(n)
    r = frame.norm
    kappa, Xr = 1.0 / hbar, X / r  # in units of |zeta|
    inside = np.maximum(2.0 * n + 1.0 - kappa * Xr * Xr, 1.0)
    return math.pi * r / (math.sqrt(kappa) * np.sqrt(inside))


def _three_period_average(fn: Callable[[np.ndarray], np.ndarray], n: int,
                          frame: TomographyFrame, centers: np.ndarray) -> np.ndarray:
    """windowed_average of fn over 3 local periods of W_n (16 samples each)."""
    return windowed_average(fn, centers, oscillator_local_period(n, frame, centers),
                            samples_per_window=16, periods=3)


def _oscillator_curve(n: int, frame: TomographyFrame) -> tuple[float, tuple, float]:
    """oscillator_windowed_distance, its curve (LimitReport.curves) and the
    tomogram at X = 2 in the frame (1, 0), the forbidden-region value.

    At varpi = 1 the eigenstate's Wigner function depends on q^2 + p^2
    alone, so its tomogram is even in X and, in a frame of length r, that
    of (1, 0) under X -> r X, values -> values/r.  The Hermite average is
    taken in (1, 0) at the 121 centers of [0, 1.3], mirrored onto the 241
    of [-1.3, 1.3] and mapped: every nonzero frame has the same distance."""
    if frame.is_zero:
        raise TomogramError("oscillator windowed distance rejected for the zero frame")
    unit = TomographyFrame(1.0, 0.0)
    hbar = oscillator_ehrenfest_hbar(n)
    forbidden = []

    def hermite(X):  # X = 2 rides on the one Hermite call as its last point
        values = np.asarray(hermite_tomogram(n, unit, np.append(X, 2.0), hbar))
        forbidden.append(float(values[-1]))
        return values[:-1]

    half = np.linspace(0.0, 1.3, 121)
    avg = _three_period_average(hermite, n, unit, half)
    centers, avg = np.concatenate((-half[:0:-1], half)), np.concatenate((avg[:0:-1], avg))
    classical = np.asarray(classical_oscillator_tomogram(centers, unit, 1.0))
    dx = half[1] - half[0]
    r = frame.norm
    return (float(np.sum(np.abs(avg - classical)) * dx),
            (r * centers, avg / r, classical / r, r * dx), forbidden[0])


def oscillator_windowed_distance(n: int, frame: TomographyFrame) -> float:
    """L1 distance between the 3-period locally averaged tomogram of the
    oscillator eigenstate n at hbar = 1/n (energy 1 + 1/(2n)) and the
    arcsine law of the E = 1 orbit, over |X| <= 0.92 R, clear of the
    turning points; the same in every nonzero frame."""
    return _oscillator_curve(n, frame)[0]


def ehrenfest_oscillator(n_values: Sequence[int],
                         frame: TomographyFrame = TomographyFrame(1.0, 0.0)) -> LimitReport:
    """Oscillator eigenstates at hbar = 1/n, whose energy hbar(n + 1/2) =
    1 + 1/(2n) tends to 1: the locally averaged tomogram approaches the
    arcsine law 1/(pi sqrt(R^2 - X^2)) of the E = 1 orbit,
    R = sqrt(2) |zeta|, on the classically allowed region, and is
    exponentially small beyond the turning points.

    The local average runs over 3 periods of the squared-Hermite
    oscillation (period estimated from the WKB phase derivative);
    distances are L1 against the arcsine law on |X| <= 0.92 R.  At n = 100
    (frame (1,0) only) the same windowed average is cross-computed
    through the parabolic-cylinder asymptotic.
    """
    n_values = list(n_values)
    if any(n < 20 for n in n_values):
        raise ValueError("oscillator study needs n >= 20")

    distances, curves, forbidden = _sweep(lambda n: _oscillator_curve(n, frame), n_values)
    details: dict = {
        "constraint": "ehrenfest",
        "frame": [frame.mu, frame.nu],
        "hbar_values": [oscillator_ehrenfest_hbar(n) for n in n_values],
        "allowed_region_halfwidth": 1.3 * frame.norm,
    }

    # forbidden-region smallness at the largest n, at X = 2 in the frame (1, 0):
    # the same in every direction (see _oscillator_curve) and free of |zeta|
    n_top = max(n_values)
    details["forbidden_value"] = forbidden[n_values.index(n_top)]
    details["forbidden_bound"] = math.exp(-n_top / 10.0)

    if frame.mu == 1.0 and frame.nu == 0.0:
        n = 100
        hbar = oscillator_ehrenfest_hbar(n)
        centers = np.linspace(0.0, 1.3, 61)  # both routes are even in X
        avg_h = _three_period_average(lambda X: np.asarray(hermite_tomogram(n, frame, X, hbar)),
                                      n, frame, centers)
        avg_u = _three_period_average(lambda X: _oscillator_u_route(n, X), n, frame, centers)
        details["u_route_relative_error"] = float(np.max(np.abs(avg_u / avg_h - 1.0)))
        details["u_route_n"] = n

    return _n_report("ehrenfest-oscillator", n_values, distances, details,
                     distances[n_values.index(n_top)] < 0.03, curves=curves)
