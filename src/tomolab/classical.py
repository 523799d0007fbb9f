"""Classical tomography: Radon transforms of phase-space densities and
trajectories, time averaging, the inverse Radon map, and the two
closed-form classical tomograms (particle in a box, harmonic oscillator).

Conventions: phase-space densities f(q, p) are carried as GridFunction2D
with values[iq, ip]; the Radon transform over the line X = mu*q + nu*p
is computed by rotating to the line coordinate and integrating along it.
A family of frames is carried as its characteristic samples G(mu, nu)
(FrameSamples), which a gridded density gets from the Fourier-slice
theorem without projecting.  Time-averaged trajectory tomograms are
built from a time CDF F(X), the share of the period that mu*q + nu*p
spends below X: every grid value is the cell mass F(right edge) -
F(left edge) over the cell width.  The
oscillator and box CDFs are closed forms; a generic periodic orbit uses
the exact CDF of the piecewise-linear orbit through uniform time samples.
The integrable singularities at turning points stay summable, and the
mass is exact once the grid covers the orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import (
    DeltaAtom,
    GridFunction2D,
    MassDeficitError,
    TomographyFrame,
    Tomogram,
    TomogramError,
    bilinear_interp,
    trapezoid_weights,
)

__all__ = [
    "DensityGrid",
    "PointTrajectory",
    "BoxTrajectory",
    "OscillatorTrajectory",
    "radon_density",
    "radon_line_integral",
    "FrameSamples",
    "build_radon_family",
    "characteristic_quadrature",
    "inverse_radon",
    "inverse_radon_grid",
    "trajectory_tomogram",
    "time_averaged_tomogram",
    "classical_box_tomogram",
    "classical_box_tomogram_build",
    "classical_oscillator_tomogram",
    "classical_oscillator_tomogram_build",
    "parse_classical",
    "write_density_csv",
    "read_density_csv",
]

_ORBIT_SEGMENTS = 1 << 16  # time-mesh segments per period of a generic orbit


@dataclass(frozen=True)
class DensityGrid:
    """Phase-space probability density f(q, p) sampled on a grid."""

    f: GridFunction2D

    def __post_init__(self):
        v = self.f.values
        if np.iscomplexobj(v):
            raise TomogramError("phase-space density must be real")
        if float(np.min(v)) < -1e-12:
            raise TomogramError("phase-space density must be nonnegative")
        mass = trapezoid2d(v, self.f.dx, self.f.dy)
        if abs(mass - 1.0) > 1e-3:
            raise TomogramError(f"density mass {mass!r} is not 1 within 1e-3")


@dataclass(frozen=True)
class PointTrajectory:
    """Deterministic trajectory (q(t), p(t)).

    A finite period is validated (|q(0) - q(T)| and |p(0) - p(T)| below
    1e-9) and enables time averaging; non-recurrent motion such as free
    flight may use period = inf, which instantaneous tomograms accept
    but time averaging rejects.
    """

    q_of_t: Callable[[float], float]
    p_of_t: Callable[[float], float]
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise TomogramError(f"period must be positive, got {self.period}")
        if math.isfinite(self.period):
            dq = abs(self.q_of_t(0.0) - self.q_of_t(self.period))
            dp = abs(self.p_of_t(0.0) - self.p_of_t(self.period))
            if dq > 1e-9 or dp > 1e-9:
                raise TomogramError(
                    f"trajectory is not {self.period}-periodic (gaps {dq:.2e}, {dp:.2e})"
                )


@dataclass(frozen=True)
class BoxTrajectory:
    """Bouncing particle of mass 1 in [0, L] with energy E (speed sqrt(2E))."""

    L: float
    E: float = 1.0

    def __post_init__(self):
        if not (self.L > 0 and self.E > 0):
            raise TomogramError("box trajectory needs positive L and E")


@dataclass(frozen=True)
class OscillatorTrajectory:
    """Harmonic motion with m = omega = 1 at energy E; q(t) = sqrt(2E) cos t."""

    E: float = 1.0

    def __post_init__(self):
        if not self.E > 0:
            raise TomogramError("oscillator trajectory needs positive E")


def trapezoid2d(values: np.ndarray, dx: float, dy: float) -> float:
    wx, wy = trapezoid_weights(values.shape[0]), trapezoid_weights(values.shape[1])
    return float(dx * dy * (wx @ values @ wy))


# ---------------------------------------------------------------------------
# Radon transform of a gridded density
# ---------------------------------------------------------------------------

def _support_box(grid: GridFunction2D) -> tuple[float, float, float, float]:
    """Bounding box of the nonzero samples, padded by one cell."""
    mask = np.abs(grid.values) > 0.0
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    if rows.size == 0:
        return grid.x_grid[0], grid.x_grid[0], grid.y_grid[0], grid.y_grid[0]
    q0 = grid.x_grid[max(rows[0] - 1, 0)]
    q1 = grid.x_grid[min(rows[-1] + 1, grid.x_grid.size - 1)]
    p0 = grid.y_grid[max(cols[0] - 1, 0)]
    p1 = grid.y_grid[min(cols[-1] + 1, grid.y_grid.size - 1)]
    return float(q0), float(q1), float(p0), float(p1)


def _clip_interval(c: np.ndarray, d: float, lo: float, hi: float,
                   t0: np.ndarray, t1: np.ndarray) -> None:
    """Intersect [t0, t1] (in place) with {t : lo <= c + t*d <= hi}."""
    if d == 0.0:
        outside = (c < lo) | (c > hi)
        t0[outside] = np.inf
        t1[outside] = -np.inf
        return
    a = (lo - c) / d
    b = (hi - c) / d
    lo_t = np.minimum(a, b)
    hi_t = np.maximum(a, b)
    np.maximum(t0, lo_t, out=t0)
    np.minimum(t1, hi_t, out=t1)


def radon_line_integral(grid: GridFunction2D, frame: TomographyFrame,
                        x_grid: np.ndarray) -> np.ndarray:
    """Line integrals (1/sqrt(mu^2+nu^2)) * int g(line_X(t)) dt for every X.

    line_X(t) = X*(mu, nu)/(mu^2+nu^2) + t*(-nu, mu)/sqrt(mu^2+nu^2), the
    exact parametrization of X = mu*q + nu*p; g is interpolated
    bilinearly, vanishes off its grid, and the t range is clipped per X
    to the support box so far-off lines cost nothing.
    """
    mu, nu = frame.mu, frame.nu
    r2 = mu * mu + nu * nu
    if r2 == 0.0:
        raise TomogramError("Radon transform undefined for the zero frame")
    r = math.sqrt(r2)
    q0, q1, p0, p1 = _support_box(grid)
    x = np.asarray(x_grid, dtype=float)
    cq = x * (mu / r2)
    cp = x * (nu / r2)
    dq, dp = -nu / r, mu / r
    t0 = np.full(x.shape, -np.inf)
    t1 = np.full(x.shape, np.inf)
    _clip_interval(cq, dq, q0, q1, t0, t1)
    _clip_interval(cp, dp, p0, p1, t0, t1)
    length = np.maximum(t1 - t0, 0.0)
    out = np.zeros_like(x)
    lmax = float(np.max(length)) if length.size else 0.0
    if lmax <= 0.0:
        return out
    dt = 0.75 * min(grid.dx, grid.dy)
    nfix = max(9, int(math.ceil(lmax / dt)) + 1)
    live = np.nonzero(length > 0.0)[0]
    u = np.linspace(0.0, 1.0, nfix)
    tmat = t0[live, None] + length[live, None] * u[None, :]
    qpts = cq[live, None] + tmat * dq
    ppts = cp[live, None] + tmat * dp
    samples = bilinear_interp(grid.x_grid, grid.y_grid, grid.values, qpts, ppts)
    sums = np.add.reduce(samples, axis=1) - 0.5 * (samples[:, 0] + samples[:, -1])
    out[live] = sums * (length[live] / (nfix - 1)) / r
    return out


def radon_density(model: DensityGrid, frame: TomographyFrame,
                  x_grid: Sequence[float], mass_tol: float = 1e-3) -> Tomogram:
    """Tomogram of a gridded density: W(X) = int f delta(X - mu q - nu p) dq dp.

    Raises MassDeficitError when the X grid (or the density grid) fails to
    capture the full probability mass within mass_tol.
    """
    if frame.is_zero:
        raise TomogramError("Radon transform rejected for the zero frame")
    x = np.asarray(x_grid, dtype=float)
    values = radon_line_integral(model.f, frame, x)
    np.maximum(values, 0.0, out=values)
    tom = Tomogram(frame, x, values)
    deficit = abs(tom.total_mass() - 1.0)
    if deficit > mass_tol:
        raise MassDeficitError(deficit)
    return tom


# ---------------------------------------------------------------------------
# tomogram families on a rectangular (mu, nu) grid and the inverse map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameSamples:
    """Characteristic samples G(mu, nu) = int W(X; mu, nu) e^{iX} dX of a
    tomogram family on a rectangular frame grid, the only thing the
    inverse maps read of it.

    values[i, j] = G(mu_grid[i], nu_grid[j]) (complex); the zero frame,
    whose tomogram is the unit atom delta(X), is exactly 1.  q_extent /
    p_extent declare the support radius of the underlying density for
    Nyquist checks.
    """

    mu_grid: np.ndarray
    nu_grid: np.ndarray
    values: np.ndarray
    q_extent: float
    p_extent: float

    def frame_step(self) -> tuple[float, float]:
        dmu = float(self.mu_grid[1] - self.mu_grid[0]) if self.mu_grid.size > 1 else 0.0
        dnu = float(self.nu_grid[1] - self.nu_grid[0]) if self.nu_grid.size > 1 else 0.0
        return dmu, dnu

    def nu_index(self, nu):
        """Index into nu_grid of each requested nu (scalar or array), which
        must be sampled to 1e-9 relative."""
        nu = np.asarray(nu, dtype=float)
        order = np.argsort(self.nu_grid, kind="stable")
        srt = self.nu_grid[order]
        hi = np.minimum(np.searchsorted(srt, nu), srt.size - 1)
        lo = np.maximum(hi - 1, 0)
        idx = order[np.where(np.abs(srt[lo] - nu) <= np.abs(srt[hi] - nu), lo, hi)]
        miss = np.abs(self.nu_grid[idx] - nu) > 1e-9 * np.maximum(1.0, np.abs(nu))
        if np.any(miss):
            k = np.flatnonzero(miss)[0]
            raise TomogramError(
                f"missing tomogram slice: nu = {float(nu.flat[k])!r} not sampled "
                f"(nearest available {float(self.nu_grid[idx.flat[k]])!r})"
            )
        return idx


def _check_nyquist(family: FrameSamples) -> None:
    dmu, dnu = family.frame_step()
    if dmu * family.q_extent > math.pi or dnu * family.p_extent > math.pi:
        raise TomogramError(
            f"frame grid too coarse for declared bandwidth: "
            f"dmu*q_extent = {dmu * family.q_extent:.3f}, "
            f"dnu*p_extent = {dnu * family.p_extent:.3f} (both must be <= pi)"
        )


def build_radon_family(model: DensityGrid, mu_grid, nu_grid, x_grid,
                       q_extent: float, p_extent: float) -> FrameSamples:
    """Characteristic samples of a gridded density over a rectangular
    frame grid, from the Fourier-slice theorem:

        G(mu, nu) = int f(q, p) e^{i(mu q + nu p)} dq dp
                  = (E_q w) f (E_p w)^T dq dp,   E_q[i, a] = e^{i mu_i q_a},

    two matrix products under the trapezoid rule, with no projection
    (Natterer, The Mathematics of Computerized Tomography, ch. II.1).
    G no longer reads x_grid; the argument stays for callers that pass
    the X grid of the projections.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    g = model.f
    Eq = np.exp(1j * np.outer(mu_grid, g.x_grid)) * trapezoid_weights(g.x_grid.size)
    Ep = np.exp(1j * np.outer(nu_grid, g.y_grid)) * trapezoid_weights(g.y_grid.size)
    G = (Eq @ g.values @ Ep.T) * (g.dx * g.dy)
    G[np.ix_(mu_grid == 0.0, nu_grid == 0.0)] = 1.0  # unit atom at X = 0
    return FrameSamples(mu_grid, nu_grid, G, float(q_extent), float(p_extent))


def characteristic_quadrature(family: FrameSamples, q_grid, p_grid) -> np.ndarray:
    """The double frame integral int G(mu, nu) e^{-i(mu q + nu p)} dmu dnu
    on a (q, p) grid, by 2D trapezoid quadrature."""
    _check_nyquist(family)
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    dmu, dnu = family.frame_step()
    Gw = family.values * np.outer(trapezoid_weights(family.mu_grid.size),
                                  trapezoid_weights(family.nu_grid.size))
    Eq = np.exp(-1j * np.outer(family.mu_grid, q))  # (nmu, nq)
    Ep = np.exp(-1j * np.outer(family.nu_grid, p))  # (nnu, np)
    acc = np.einsum("mn,mq,np->qp", Gw, Eq, Ep, optimize=True)
    return acc * (dmu * dnu)


def inverse_radon(family: FrameSamples, q: float, p: float) -> float:
    """Phase-space density f(q, p) recovered from the characteristic
    samples of a tomogram family; returns the real part."""
    val, _ = inverse_radon_grid(family, np.asarray([q]), np.asarray([p]))
    return float(val[0, 0])


def inverse_radon_grid(family: FrameSamples, q_grid, p_grid) -> tuple[np.ndarray, float]:
    """f on a (q, p) grid; returns (values[iq, ip], max imaginary residual)."""
    acc = characteristic_quadrature(family, q_grid, p_grid) / (2.0 * math.pi) ** 2
    return acc.real, float(np.max(np.abs(acc.imag)))


# ---------------------------------------------------------------------------
# trajectory tomograms
# ---------------------------------------------------------------------------

def trajectory_tomogram(model: PointTrajectory, t: float,
                        frame: TomographyFrame) -> DeltaAtom:
    """Instantaneous tomogram of a point state: unit atom at mu*q(t) + nu*p(t)."""
    return DeltaAtom(1.0, frame.mu * model.q_of_t(t) + frame.nu * model.p_of_t(t))


def _cell_edges(x: np.ndarray) -> np.ndarray:
    dx = x[1] - x[0]
    return np.concatenate(([x[0] - 0.5 * dx], x + 0.5 * dx))


def _oscillator_cdf(X: np.ndarray, R: float) -> np.ndarray:
    return 0.5 + np.arcsin(np.clip(X / R, -1.0, 1.0)) / math.pi


def classical_oscillator_tomogram(X, frame: TomographyFrame, E: float = 1.0):
    """Time-averaged oscillator tomogram (m = omega = 1):

        (1/pi) / sqrt(R^2 - X^2) on |X| < R,   R = sqrt(2E(mu^2+nu^2)),

    zero outside; the value diverges integrably at the turning points
    |X| = R (grid builders assign those cells their exact mass).
    """
    if frame.is_zero:
        raise TomogramError("oscillator tomogram rejected for the zero frame")
    R = math.sqrt(2.0 * E * (frame.mu ** 2 + frame.nu ** 2))
    X = np.asarray(X, dtype=float)
    inside = np.abs(X) < R
    out = np.zeros_like(X)
    out[inside] = 1.0 / (math.pi * np.sqrt(R * R - X[inside] ** 2))
    return float(out) if out.ndim == 0 else out


def classical_oscillator_tomogram_build(frame: TomographyFrame, E: float,
                                        x_grid) -> Tomogram:
    """Sampled oscillator tomogram with every grid value the exact
    arcsine-law mass of its cell divided by the cell width.

    Cell averages agree with the pointwise density to O(dx^2) away from
    the turning points, keep the integrable singularities summable, and
    make the trapezoid mass exact once the support lies inside the grid.
    """
    if frame.is_zero:
        raise TomogramError("oscillator tomogram rejected for the zero frame")
    x = np.asarray(x_grid, dtype=float)
    R = math.sqrt(2.0 * E * (frame.mu ** 2 + frame.nu ** 2))
    masses = np.diff(_oscillator_cdf(_cell_edges(x), R))
    return Tomogram(frame, x, masses / (x[1] - x[0]))


def classical_box_tomogram(X, frame: TomographyFrame, L: float):
    """Time-averaged box tomogram at unit energy for mu != 0:

        (1/(2|mu|L)) * [chi_[0,L](X/mu - sqrt2 nu/mu) + chi_[0,L](X/mu + sqrt2 nu/mu)]

    chi is the closed-interval indicator (boundary points take the
    interior value).  mu = 0 is distributional: two atoms of weight 1/2
    at +-sqrt2 nu, handled by classical_box_tomogram_build.
    """
    if frame.is_zero:
        raise TomogramError("box tomogram rejected for the zero frame")
    if frame.mu == 0.0:
        raise TomogramError("pointwise box tomogram needs mu != 0; mu = 0 is two delta atoms")
    X = np.asarray(X, dtype=float)
    qm = X / frame.mu - math.sqrt(2.0) * frame.nu / frame.mu
    qp = X / frame.mu + math.sqrt(2.0) * frame.nu / frame.mu
    chi_m = ((qm >= 0.0) & (qm <= L)).astype(float)
    chi_p = ((qp >= 0.0) & (qp <= L)).astype(float)
    out = (chi_m + chi_p) / (2.0 * abs(frame.mu) * L)
    return float(out) if out.ndim == 0 else out


def _box_cdf(X: np.ndarray, frame: TomographyFrame, L: float, E: float = 1.0) -> np.ndarray:
    # cumulative mass of the two 1/(2|mu|L) plateaus over mu*[0, L] +- nu*sqrt(2E)
    s = frame.nu * math.sqrt(2.0 * E)
    lo_m, hi_m = sorted((s, frame.mu * L + s))
    lo_p, hi_p = sorted((-s, frame.mu * L - s))
    c = np.clip((X - lo_m) / (hi_m - lo_m), 0.0, 1.0) * 0.5
    c += np.clip((X - lo_p) / (hi_p - lo_p), 0.0, 1.0) * 0.5
    return c


def classical_box_tomogram_build(frame: TomographyFrame, L: float, x_grid,
                                 E: float = 1.0) -> Tomogram:
    """Sampled energy-E box tomogram; support-edge cells carry exact
    masses, and mu = 0 yields the two momentum atoms at +-nu sqrt(2E)."""
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        raise TomogramError("box tomogram rejected for the zero frame")
    if frame.mu == 0.0:
        s = frame.nu * math.sqrt(2.0 * E)
        atoms = (DeltaAtom(0.5, -s), DeltaAtom(0.5, s))
        return Tomogram(frame, x, np.zeros_like(x), atoms)
    edges = _cell_edges(x)
    masses = np.diff(_box_cdf(edges, frame, L, E))
    dx = x[1] - x[0]
    return Tomogram(frame, x, masses / dx)


def _orbit_cdf(g: np.ndarray, e: np.ndarray) -> np.ndarray:
    """F(e): the share of time the piecewise-linear closed orbit through
    the samples g (g[-1] == g[0]) spends below each ascending level e.

    Segments with hi <= e count whole (a flat one is a step); the few
    (segment, level) pairs with lo < e < hi add their linear ramps.
    """
    lo, hi = np.minimum(g[:-1], g[1:]), np.maximum(g[:-1], g[1:])
    F = np.searchsorted(np.sort(hi), e, side="right").astype(float)
    j0 = np.searchsorted(e, lo, side="right")
    k = np.maximum(np.searchsorted(e, hi, side="left") - j0, 0)
    seg = np.repeat(np.arange(lo.size), k)
    j = j0[seg] + np.arange(seg.size) - np.repeat(np.cumsum(k) - k, k)
    F += np.bincount(j, (e[j] - lo[seg]) / (hi[seg] - lo[seg]), e.size)
    return F / lo.size


def time_averaged_tomogram(model, frame: TomographyFrame, x_grid) -> Tomogram:
    """Time average (1/T) int_0^T delta(X - mu q(t) - nu p(t)) dt.

    Every variant returns cell masses over the cell width, the
    differences of a time CDF at the cell edges.  Closed variants
    (BoxTrajectory, OscillatorTrajectory) use their analytic CDFs; a
    generic PointTrajectory samples mu q + nu p on a uniform mesh of
    _ORBIT_SEGMENTS per period and takes the CDF of the piecewise-linear
    orbit through those samples, so the mass is exact whenever the grid
    covers the orbit, turning points included.  An orbit spanning less
    than one cell becomes a unit atom at its time mean.
    """
    x = np.asarray(x_grid, dtype=float)
    if isinstance(model, OscillatorTrajectory):
        return classical_oscillator_tomogram_build(frame, model.E, x)
    if isinstance(model, BoxTrajectory):
        return classical_box_tomogram_build(frame, model.L, x, model.E)
    if not isinstance(model, PointTrajectory):
        raise TypeError(f"unsupported classical model {model!r}")
    if not math.isfinite(model.period):
        raise TomogramError("time averaging needs a finite period")
    if frame.is_zero:
        raise TomogramError("time average rejected for the zero frame")
    tmesh = np.linspace(0.0, model.period, _ORBIT_SEGMENTS, endpoint=False).tolist()
    g = np.array([frame.mu * model.q_of_t(t) + frame.nu * model.p_of_t(t) for t in tmesh])
    dx = x[1] - x[0]
    if float(np.max(g) - np.min(g)) < dx:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, float(np.mean(g))),))
    cdf = _orbit_cdf(np.append(g, g[0]), _cell_edges(x))
    return Tomogram(frame, x, np.diff(cdf) / dx)


def parse_classical(text: str):
    """Parse a classical model descriptor:

        oscillator:E=<f>    box:L=<f>,E=<f>    point:q0=<f>,p0=<f>
        grid:<path.csv>

    point gives harmonic motion (m = omega = 1) from (q0, p0); grid loads
    a phase-space density written by :func:`write_density_csv`.
    """
    from .states import DescriptorError, _parse_kv

    if ":" not in text:
        raise DescriptorError(text, 0, "descriptor must look like kind:args")
    kind, body = text.split(":", 1)
    off = len(kind) + 1
    if kind == "oscillator":
        kv = _parse_kv(text, body, off, {"E": float}, ())
        return OscillatorTrajectory(kv.get("E", 1.0))
    if kind == "box":
        kv = _parse_kv(text, body, off, {"L": float, "E": float}, ())
        return BoxTrajectory(kv.get("L", 1.0), kv.get("E", 1.0))
    if kind == "point":
        kv = _parse_kv(text, body, off, {"q0": float, "p0": float}, ())
        q0, p0 = kv.get("q0", 0.0), kv.get("p0", 0.0)
        return PointTrajectory(
            lambda t: q0 * math.cos(t) + p0 * math.sin(t),
            lambda t: p0 * math.cos(t) - q0 * math.sin(t),
            2.0 * math.pi,
        )
    if kind == "grid":
        import os

        if not os.path.exists(body):
            raise DescriptorError(text, off, f"density file not found: {body!r}")
        return read_density_csv(body)
    raise DescriptorError(text, 0, f"unknown classical kind {kind!r}")


# ---------------------------------------------------------------------------
# gridded-density CSV exchange format: rows q,p,f plus a JSON axes sidecar
# ---------------------------------------------------------------------------

def write_density_csv(model: DensityGrid, csv_path: str) -> str:
    """Write the density as CSV rows `q,p,f` (p fastest) with a JSON
    sidecar declaring both axes; returns the sidecar path."""
    import json
    import os

    from .kernel import _atomic_write, _write_csv

    g = model.f
    _write_csv(csv_path, "q,p,f", (np.repeat(g.x_grid, g.y_grid.size),
                                   np.tile(g.y_grid, g.x_grid.size), g.values))
    meta = {
        "q_grid": {"min": float(g.x_grid[0]), "max": float(g.x_grid[-1]), "count": int(g.x_grid.size)},
        "p_grid": {"min": float(g.y_grid[0]), "max": float(g.y_grid[-1]), "count": int(g.y_grid.size)},
    }
    side = os.path.splitext(csv_path)[0] + ".json"
    _atomic_write(side, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return side


def read_density_csv(csv_path: str) -> DensityGrid:
    """Read a density written by :func:`write_density_csv`."""
    import json
    import os

    side = os.path.splitext(csv_path)[0] + ".json"
    with open(side) as fh:
        meta = json.load(fh)
    qg = np.linspace(meta["q_grid"]["min"], meta["q_grid"]["max"], meta["q_grid"]["count"])
    pg = np.linspace(meta["p_grid"]["min"], meta["p_grid"]["max"], meta["p_grid"]["count"])
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1)
    if data.shape[0] != qg.size * pg.size:
        raise TomogramError(
            f"density CSV has {data.shape[0]} rows, axes declare {qg.size * pg.size}"
        )
    vals = data[:, 2].reshape(qg.size, pg.size)
    return DensityGrid(GridFunction2D(qg, pg, vals))
