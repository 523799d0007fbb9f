"""Classical tomography: Radon transforms of phase-space densities and
trajectories, time averaging, the inverse Radon map, and the two
closed-form classical tomograms (particle in a box, harmonic oscillator).

Conventions: phase-space densities f(q, p) are carried as GridFunction2D
with values[iq, ip]; their Radon transform over the line X = mu*q + nu*p
comes from the Fourier-slice theorem, one frame from its characteristic
function on the ray (t mu, t nu), and a family of frames is carried as
its characteristic samples G(mu, nu) (FrameSamples), with no projection.
Time-averaged trajectory tomograms are built from a time CDF F(X), the
share of the period that mu*q + nu*p spends below X: every grid value is
the cell mass F(right edge) - F(left edge) over the cell width.  The
oscillator and box CDFs are closed forms; a generic periodic orbit uses
the exact CDF of the piecewise-linear orbit through uniform time samples,
filled in by spectral doubling when the orbit is smooth.
The integrable singularities at turning points stay summable, and the
mass is exact once the grid covers the orbit.
"""

from __future__ import annotations

import math
import os
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
    _check_uniform_grid,
    _read_json,
    _read_table,
    _sidecar,
    _write_csv,
    _write_json,
    trapezoid_weights,
)
from .specfun import chirp_sum

__all__ = [
    "DensityGrid",
    "PointTrajectory",
    "RestPoint",
    "BoxTrajectory",
    "OscillatorTrajectory",
    "radon_density",
    "FrameSamples",
    "build_radon_family",
    "characteristic_quadrature",
    "inverse_radon_grid",
    "trajectory_tomogram",
    "time_averaged_tomogram",
    "box_plateaus",
    "classical_box_tomogram",
    "classical_box_tomogram_build",
    "classical_oscillator_tomogram",
    "classical_oscillator_tomogram_build",
    "parse_classical",
    "write_density_csv",
    "read_density_csv",
]

_ORBIT_SEGMENTS = 1 << 16  # time-mesh segments per period of a generic orbit
# odd mesh indices, on no coarser level, that check a converged orbit
_ORBIT_PROBES = np.arange(1, _ORBIT_SEGMENTS, _ORBIT_SEGMENTS // 8 + 2)
_ORBIT_CHECKED = 1 << 12  # largest sample count whose interpolant is checked


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
    1e-9 times the orbit's scale, the largest of 1 and |q|, |p| at the
    quarter periods, since the roundoff of q(T) grows with the orbit) and
    enables time averaging; non-recurrent motion such as free flight may
    use period = inf, which instantaneous tomograms accept but time
    averaging rejects.
    """

    q_of_t: Callable[[float], float]
    p_of_t: Callable[[float], float]
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise TomogramError(f"period must be positive, got {self.period}")
        if math.isfinite(self.period):
            scale = max(1.0, *(abs(f(k * self.period / 4.0))
                               for f in (self.q_of_t, self.p_of_t) for k in range(4)))
            dq = abs(self.q_of_t(0.0) - self.q_of_t(self.period))
            dp = abs(self.p_of_t(0.0) - self.p_of_t(self.period))
            if not (dq <= 1e-9 * scale and dp <= 1e-9 * scale):  # NaN fails too
                raise TomogramError(
                    f"trajectory is not {self.period}-periodic (gaps {dq:.2e}, {dp:.2e})"
                )


class RestPoint(PointTrajectory):
    """The phase-space point (q0, p0) at rest, whose time average is its
    instantaneous tomogram: the unit atom at mu q0 + nu p0."""

    def __init__(self, q0: float = 0.0, p0: float = 0.0):
        super().__init__(lambda t: q0, lambda t: p0, 1.0)


@dataclass(frozen=True)
class BoxTrajectory:
    """Bouncing particle of mass 1 in [0, L] with energy E (speed sqrt(2E))."""

    L: float = 1.0
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

def _phases(k: np.ndarray, y: np.ndarray) -> np.ndarray:
    """E[i, a] = e^{i k_i y_a}, the phase table of every dense Fourier sum
    here and in the quantum maps, C-ordered (K, M).  A uniform axis of
    M >= 32 entries, step h, whose points y_{bB} + h c (a = bB + c,
    B = ceil sqrt M) lie within 3 eps max|y| of every y_a, takes the
    product e^{i k y_{bB}} e^{i k h c}: about 2 sqrt M cos/sin and M
    complex multiplies a row, within 4 eps (1 + |k| max|y|) of e^{i k y}.
    Other axes (Gauss-Legendre nodes, short axes) take one cos and one
    sin an entry."""
    k, y = np.asarray(k, dtype=float), np.asarray(y, dtype=float)
    m = y.size
    B = math.isqrt(m - 1) + 1 if m >= 32 else 0
    if B:
        fine = (y[-1] - y[0]) / (m - 1) * np.arange(B)
        # the product's own rounding, at most 0.74 eps (1 + |k| max|y|) against the
        # exact phase of its points over 6,000 random axes, leaves 3 of the 4 eps
        reach = 3.0 * np.finfo(float).eps * np.max(np.abs(y))
        if not np.max(np.abs((y[::B, None] + fine).ravel()[:m] - y)) <= reach:  # NaN fails too
            B = 0
    arg = np.outer(k, np.concatenate((y[::B], fine)) if B else y)
    T = np.empty(arg.shape, complex)
    np.cos(arg, out=T.real)
    np.sin(arg, out=T.imag)
    if not B:
        return T
    C, F, full = T[:, :-B], T[:, -B:], m // B
    E = np.empty((k.size, m), complex)
    # splitting the last axis of E[:, :full B] gives a view, so out= fills E
    np.multiply(C[:, :full, None], F[:, None, :], out=E[:, :full * B].reshape(k.size, full, B))
    np.multiply(C[:, full:], F[:, :m - full * B], out=E[:, full * B:])
    return E


def _weighted_phases(k: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """E[i, a] = w_a e^{i k_i axis_a}: the phase table times the trapezoid
    weights of the summed axis."""
    return _phases(k, axis) * trapezoid_weights(axis.size)


def _radon_slice(g: GridFunction2D, frame: TomographyFrame, x: np.ndarray) -> np.ndarray:
    """int g delta(X - mu q - nu p) dq dp of a real grid g on the uniform X
    grid x, from G(t mu, t nu) = int g e^{it(mu q + nu p)} on the ray:

        W(X) = (1/pi) Re int_0^T G(t mu, t nu) e^{-itX} dt,

    both integrals by the trapezoid rule, T = pi/cell the ray's Nyquist
    point (projected cell max(|mu| dq, |nu| dp)).  The t step 2 pi/(hi - lo)
    makes the alias period the projected grid padded by one cell, [lo, hi],
    so the ray takes one sample per two projected cells whatever the X
    grid, and X beyond [lo, hi] is exactly 0.  The t sum at the X inside
    is one chirp z-transform (:func:`specfun.chirp_sum`).
    """
    mu, nu = frame.mu, frame.nu
    ends = [mu * q + nu * p for q in g.x_grid[[0, -1]] for p in g.y_grid[[0, -1]]]
    cell = max(abs(mu) * g.dx, abs(nu) * g.dy)
    lo, hi = min(ends) - cell, max(ends) + cell
    dt = 2.0 * math.pi / (hi - lo)
    t = np.arange(int((hi - lo) / (2.0 * cell)) + 1) * dt
    G = ((_weighted_phases(t * mu, g.x_grid) @ g.values) * _weighted_phases(t * nu, g.y_grid)).sum(axis=1)
    inside = (x >= lo) & (x <= hi)
    x0 = x[inside][0] if inside.any() else 0.0
    # e^{-i t_k X_j} = e^{-i t_k x0} e^{-i k j dt dX}
    u = G * trapezoid_weights(t.size) * np.exp(-1j * t * x0)
    W = np.zeros(x.size)
    W[inside] = chirp_sum(u, -0.5 * dt * _check_uniform_grid(x), np.count_nonzero(inside)).real
    return W * (g.dx * g.dy * dt / math.pi)


def radon_density(model: DensityGrid, frame: TomographyFrame,
                  x_grid: Sequence[float]) -> Tomogram:
    """Tomogram of a gridded density: W(X) = int f delta(X - mu q - nu p) dq dp.

    Raises MassDeficitError when the X grid (or the density grid) fails to
    capture the full probability mass within 1e-3.
    """
    if frame.is_zero:
        raise TomogramError("Radon transform rejected for the zero frame")
    x = np.asarray(x_grid, dtype=float)
    values = _radon_slice(model.f, frame, x)
    np.maximum(values, 0.0, out=values)
    tom = Tomogram(frame, x, values)
    deficit = abs(tom.total_mass() - 1.0)
    if deficit > 1e-3:
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
    Nyquist checks.  The density map reads the columns positionally: its
    nu_grid must be exactly the slices d h/hbar of its x grid, ascending.
    """

    mu_grid: np.ndarray
    nu_grid: np.ndarray
    values: np.ndarray
    q_extent: float
    p_extent: float

    def frame_step(self) -> tuple[float, float]:
        """(|dmu|, |dnu|), the first steps of the axes put in ascending order,
        for the inverse maps: an axis whose steps are not all equal within the
        kernel's uniform-grid tolerance is refused (a family only sampled is not)."""
        steps = []
        for name, a in (("mu", self.mu_grid), ("nu", self.nu_grid)):
            a = a[::-1] if a.size and a[-1] < a[0] else a
            _check_uniform_grid(a, f"frame {name}_grid")
            steps.append(float(a[1] - a[0]) if a.size > 1 else 0.0)
        return tuple(steps)

    def edge_tails(self) -> tuple[float, float]:
        """Largest |G| on the first and last mu, and on the first and last nu:
        the tail the inverse maps discard beyond the frame box on each axis."""
        g = np.abs(self.values)
        return float(g[[0, -1], :].max()), float(g[:, [0, -1]].max())


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
    # multi_dot contracts in the cheaper order; the inverse map is the same product
    Eq, Ep = _weighted_phases(mu_grid, g.x_grid), _weighted_phases(nu_grid, g.y_grid)
    G = np.linalg.multi_dot([Eq, g.values, Ep.T]) * (g.dx * g.dy)
    G[np.ix_(mu_grid == 0.0, nu_grid == 0.0)] = 1.0  # unit atom at X = 0
    return FrameSamples(mu_grid, nu_grid, G, float(q_extent), float(p_extent))


def characteristic_quadrature(family: FrameSamples, q_grid, p_grid) -> np.ndarray:
    """The double frame integral int G(mu, nu) e^{-i(mu q + nu p)} dmu dnu
    on a (q, p) grid, by 2D trapezoid quadrature: the product of
    :func:`build_radon_family` with the frame axes summed."""
    _check_nyquist(family)
    dmu, dnu = family.frame_step()
    Eq = _weighted_phases(-np.asarray(q_grid, dtype=float), family.mu_grid)  # (nq, nmu)
    Ep = _weighted_phases(-np.asarray(p_grid, dtype=float), family.nu_grid)  # (np, nnu)
    return np.linalg.multi_dot([Eq, family.values, Ep.T]) * (dmu * dnu)


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


def _oscillator_radius(frame: TomographyFrame, E: float) -> float:
    """Turning-point radius R = sqrt(2E) |zeta| of the oscillator tomogram."""
    if frame.is_zero:
        raise TomogramError("oscillator tomogram rejected for the zero frame")
    return math.sqrt(2.0 * E) * frame.norm


def classical_oscillator_tomogram(X, frame: TomographyFrame, E: float = 1.0):
    """Time-averaged oscillator tomogram (m = omega = 1):

        (1/pi) / sqrt(R^2 - X^2) on |X| < R,   R = sqrt(2E) |zeta|,

    zero outside; the value diverges integrably at the turning points
    |X| = R (grid builders assign those cells their exact mass).
    """
    R = _oscillator_radius(frame, E)
    X = np.asarray(X, dtype=float)
    inside = np.abs(X) < R
    out = np.zeros_like(X)
    u = X[inside] / R  # R^2 - X^2 would overflow past |zeta| ~ 1e154
    out[inside] = 1.0 / (math.pi * R * np.sqrt((1.0 - u) * (1.0 + u)))
    return float(out) if out.ndim == 0 else out


def classical_oscillator_tomogram_build(frame: TomographyFrame, E: float,
                                        x_grid) -> Tomogram:
    """Sampled oscillator tomogram with every grid value the exact
    arcsine-law mass of its cell divided by the cell width.

    Cell averages agree with the pointwise density to O(dx^2) away from
    the turning points, keep the integrable singularities summable, and
    make the trapezoid mass exact once the support lies inside the grid.
    """
    R = _oscillator_radius(frame, E)
    x = np.asarray(x_grid, dtype=float)
    cdf = 0.5 + np.arcsin(np.clip(_cell_edges(x) / R, -1.0, 1.0)) / math.pi
    return Tomogram(frame, x, np.diff(cdf) / (x[1] - x[0]))


def box_plateaus(frame: TomographyFrame, L: float, E: float = 1.0):
    """The sorted X intervals mu*[0, L] - nu sqrt(2E) and mu*[0, L] + nu sqrt(2E):
    the energy-E box tomogram's two plateaus of mass 1/2 (atoms when mu = 0)."""
    s = frame.nu * math.sqrt(2.0 * E)
    return tuple(tuple(sorted((c, frame.mu * L + c))) for c in (-s, s))


def _box_indicators(X: np.ndarray, frame: TomographyFrame, L: float):
    """The closed-interval indicators of the two unit-energy plateaus at X."""
    return tuple(((X >= lo) & (X <= hi)).astype(float) for lo, hi in box_plateaus(frame, L))


def classical_box_tomogram(X, frame: TomographyFrame, L: float):
    """Time-averaged box tomogram at unit energy for mu != 0:

        (1/(2|mu|L)) * [chi_[0,L](X/mu - sqrt2 nu/mu) + chi_[0,L](X/mu + sqrt2 nu/mu)]

    chi is the closed-interval indicator (boundary points take the
    interior value).  mu = 0 (the zero frame too) is distributional: two
    atoms of weight 1/2 at +-sqrt2 nu, handled by classical_box_tomogram_build.
    """
    if frame.mu == 0.0:
        raise TomogramError("pointwise box tomogram needs mu != 0; mu = 0 is two delta atoms")
    out = sum(_box_indicators(np.asarray(X, dtype=float), frame, L)) / (2.0 * abs(frame.mu) * L)
    return float(out) if out.ndim == 0 else out


def classical_box_tomogram_build(frame: TomographyFrame, L: float, x_grid,
                                 E: float = 1.0) -> Tomogram:
    """Sampled energy-E box tomogram; support-edge cells carry exact
    masses; mu = 0, the zero frame too, gives the two atoms at +-nu sqrt(2E)."""
    x = np.asarray(x_grid, dtype=float)
    plateaus = box_plateaus(frame, L, E)
    if frame.mu == 0.0:
        atoms = tuple(DeltaAtom(0.5, lo) for lo, _ in plateaus)
        return Tomogram(frame, x, np.zeros_like(x), atoms)
    edges = _cell_edges(x)
    cdf = sum(np.clip((edges - lo) / (hi - lo), 0.0, 1.0) * 0.5 for lo, hi in plateaus)
    return Tomogram(frame, x, np.diff(cdf) / (x[1] - x[0]))


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


def _trig_resample(g: np.ndarray, m: int) -> np.ndarray:
    """The trigonometric interpolant of the periodic samples g on m > g.size
    uniform points (the Nyquist term split evenly between +-g.size/2)."""
    spec = np.zeros(m // 2 + 1, dtype=complex)
    spec[: g.size // 2 + 1] = np.fft.rfft(g)
    spec[g.size // 2] *= 0.5
    return np.fft.irfft(spec, m) * (m / g.size)


def _orbit_samples(model: PointTrajectory, frame: TomographyFrame) -> np.ndarray:
    """g = mu q + nu p at the _ORBIT_SEGMENTS uniform times of one period.

    An analytic periodic g is a trigonometric series whose interpolants
    converge geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014)
    385), so the mesh is filled by doubling from 16 points: each level
    predicts the next level's midpoints from the rFFT of the samples so
    far, then evaluates them.  Once the prediction matches the fresh
    samples to roundoff, and the interpolant also matches a few
    finest-mesh probes (a harmonic that aliases onto every coarse level
    shows there), the samples are resampled onto the whole mesh.  An
    orbit not converged by _ORBIT_CHECKED samples (a kink, a wrap gap)
    is evaluated at every mesh time, exactly as a plain loop would.
    """
    tmesh = np.linspace(0.0, model.period, _ORBIT_SEGMENTS, endpoint=False)

    def sample(times: np.ndarray) -> np.ndarray:
        g = np.array([frame.mu * model.q_of_t(t) + frame.nu * model.p_of_t(t)
                      for t in times.tolist()])
        if not np.all(np.isfinite(g)):
            raise TomogramError("orbit yields a non-finite mu q + nu p")
        return g

    g = np.empty(_ORBIT_SEGMENTS)
    step = _ORBIT_SEGMENTS // 16
    g[::step] = sample(tmesh[::step])
    while _ORBIT_SEGMENTS // step <= _ORBIT_CHECKED:
        predicted = _trig_resample(g[::step], 2 * _ORBIT_SEGMENTS // step)[1::2]
        step //= 2
        fresh = g[step::2 * step] = sample(tmesh[step::2 * step])
        tol = 1e-13 * float(np.max(np.abs(g[::step])))
        if np.max(np.abs(predicted - fresh)) <= tol:
            full = _trig_resample(g[::step], _ORBIT_SEGMENTS)
            if np.max(np.abs(full[_ORBIT_PROBES] - sample(tmesh[_ORBIT_PROBES]))) <= tol:
                full[::step] = g[::step]
                return full
    while step > 1:
        step //= 2
        g[step::2 * step] = sample(tmesh[step::2 * step])
    return g


def _orbit_average(model: PointTrajectory, frame: TomographyFrame, x: np.ndarray) -> Tomogram:
    """The PointTrajectory route of :func:`time_averaged_tomogram`."""
    if not math.isfinite(model.period):
        raise TomogramError("time averaging needs a finite period")
    g = _orbit_samples(model, frame)
    dx = x[1] - x[0]
    if float(np.max(g) - np.min(g)) < dx:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, float(np.mean(g))),))
    cdf = _orbit_cdf(np.append(g, g[0]), _cell_edges(x))
    return Tomogram(frame, x, np.diff(cdf) / dx)


# The time average of each classical model, keyed by class; the entries
# call the module functions by global name, so rebinding one of those
# names (tracing, tests) reaches every route.
_TIME_AVERAGES = {
    DensityGrid: lambda m, fr, x: radon_density(m, fr, x),
    OscillatorTrajectory: lambda m, fr, x: classical_oscillator_tomogram_build(fr, m.E, x),
    BoxTrajectory: lambda m, fr, x: classical_box_tomogram_build(fr, m.L, x, m.E),
    PointTrajectory: lambda m, fr, x: _orbit_average(m, fr, x),
    RestPoint: lambda m, fr, x: Tomogram(fr, x, np.zeros_like(x), (trajectory_tomogram(m, 0, fr),)),
}


# X points whose hull is the time-average support of each model a descriptor
# names, keyed like _TIME_AVERAGES: a density grid's projected corners, +-R,
# the ends of the box plateaus, the rest point's atom.
_TIME_AVERAGE_HULLS = {
    DensityGrid: lambda m, fr: np.add.outer(fr.mu * m.f.x_grid[[0, -1]], fr.nu * m.f.y_grid[[0, -1]]),
    OscillatorTrajectory: lambda m, fr: [-_oscillator_radius(fr, m.E), _oscillator_radius(fr, m.E)],
    BoxTrajectory: lambda m, fr: [x for plateau in box_plateaus(fr, m.L, m.E) for x in plateau],
    RestPoint: lambda m, fr: [trajectory_tomogram(m, 0, fr).location],
}


def time_average_support(model, frame: TomographyFrame) -> tuple[float, float]:
    """The X interval [lo, hi] that the time average of a model a classical
    descriptor names occupies in a nonzero frame."""
    xs = _TIME_AVERAGE_HULLS[type(model)](model, frame)
    return float(np.min(xs)), float(np.max(xs))


def time_averaged_tomogram(model, frame: TomographyFrame, x_grid) -> Tomogram:
    """Time average (1/T) int_0^T delta(X - mu q(t) - nu p(t)) dt of any
    classical model, and the one place its route is chosen: the zero frame
    is the unit atom delta(X) for every model, before any route is taken.

    A stationary DensityGrid gives its Radon transform; the trajectory
    variants return cell masses over the cell width, the differences of a
    time CDF at the cell edges.  Closed variants (BoxTrajectory,
    OscillatorTrajectory) use their analytic CDFs; a generic PointTrajectory
    fills a uniform mesh of _ORBIT_SEGMENTS values of mu q + nu p per period
    and takes the CDF of the piecewise-linear orbit through them, so the
    mass is exact whenever the grid covers the orbit, turning points
    included.  The mesh is filled by spectral doubling (a smooth orbit costs
    a few dozen calls of q_of_t and p_of_t, the rest is its verified
    trigonometric interpolant); an orbit that does not converge (kinks, a
    wrap gap) is sampled at every mesh time instead.  An orbit spanning less
    than one cell becomes a unit atom at its time mean; a RestPoint is its
    unit atom, with no mesh.
    """
    route = _TIME_AVERAGES.get(type(model))
    if route is None:
        raise TypeError(f"unsupported classical model {model!r}")
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    return route(model, frame, x)


def _parse_density_file(text: str, body: str, off: int) -> DensityGrid:
    from .states import DescriptorError

    if not os.path.exists(body):
        raise DescriptorError(text, off, f"density file not found: {body!r}")
    return read_density_csv(body)


# every classical descriptor kind, a row of states._scan_descriptor
_CLASSICAL_KINDS = {
    "oscillator": (OscillatorTrajectory, {"E": float}),
    "box": (BoxTrajectory, {"L": float, "E": float}),
    "point": (RestPoint, {"q0": float, "p0": float}),
    "grid": _parse_density_file,
}


def parse_classical(text: str):
    """Parse a classical model descriptor, one scan of the state
    descriptors' scanner over _CLASSICAL_KINDS:

        oscillator:E=<f>    box:L=<f>,E=<f>    point:q0=<f>,p0=<f>
        grid:<path.csv>

    point is the phase-space point (q0, p0) at rest; grid loads a
    phase-space density written by :func:`write_density_csv`.
    """
    from .states import _scan_descriptor  # here: importing this module loads no states

    return _scan_descriptor(text, "classical", _CLASSICAL_KINDS)


# ---------------------------------------------------------------------------
# gridded-density CSV exchange format: rows q,p,f plus a JSON axes sidecar
# ---------------------------------------------------------------------------

def write_density_csv(model: DensityGrid, csv_path: str) -> str:
    """Write the density as CSV rows `q,p,f` (p fastest) with a JSON
    sidecar declaring both axes; returns the sidecar path."""
    g = model.f
    iq, ip = np.divmod(np.arange(g.values.size), g.y_grid.size)
    _write_csv(csv_path, "q,p,f", ((g.x_grid, iq), (g.y_grid, ip), g.values))
    meta = {
        "q_grid": {"min": float(g.x_grid[0]), "max": float(g.x_grid[-1]), "count": int(g.x_grid.size)},
        "p_grid": {"min": float(g.y_grid[0]), "max": float(g.y_grid[-1]), "count": int(g.y_grid.size)},
    }
    return _write_json(_sidecar(csv_path), meta)


def read_density_csv(csv_path: str) -> DensityGrid:
    """Read a density written by :func:`write_density_csv`: header `q,p,f`,
    q and p columns within 1e-6 of a step of the sidecar's axes, p fastest."""
    side = _sidecar(csv_path)
    if not os.path.exists(side):
        raise TomogramError(f"density file {csv_path!r} has no JSON sidecar {side!r}")
    meta = _read_json(side)
    qg = np.linspace(meta["q_grid"]["min"], meta["q_grid"]["max"], meta["q_grid"]["count"])
    pg = np.linspace(meta["p_grid"]["min"], meta["p_grid"]["max"], meta["p_grid"]["count"])

    def bad_shape(_, shape):
        return TomogramError(f"density CSV has shape {shape}, axes declare ({qg.size * pg.size}, 3)")

    col = _read_table(
        csv_path, lambda line, _: None if line.strip() == "q,p,f" else TomogramError(
            f"density CSV header must be q,p,f, got {line.strip()!r}"), bad_shape)
    if col["f"].size != qg.size * pg.size:
        raise bad_shape(None, (col["f"].size, 3))
    want = np.stack(np.meshgrid(qg, pg, indexing="ij"), axis=-1)
    step = np.array([np.ptp(qg), np.ptp(pg)]) / np.maximum([qg.size - 1, pg.size - 1], 1)
    if not np.all(np.abs(np.stack((col["q"], col["p"]), axis=-1).reshape(want.shape) - want) <= 1e-6 * step):
        raise TomogramError("density CSV q and p columns must be the sidecar's axes, p fastest")
    vals = col["f"].reshape(qg.size, pg.size)
    return DensityGrid(GridFunction2D(qg, pg, vals))
