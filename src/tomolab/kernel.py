"""Core value types for symplectic tomography.

A tomogram is the probability density of the rotated/scaled phase-space
coordinate X = mu*q + nu*p.  This module holds the frame label (mu, nu),
the sampled tomogram container (smooth grid values plus exact point
masses), 2D grid carriers for phase-space functions, and the
normalization / distance utilities every other module relies on.

All types are immutable after construction and every function is pure;
grid arrays are marked read-only so instances can be shared freely.
Integrals over X use the trapezoid rule on the uniform grid throughout.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TomographyFrame",
    "DeltaAtom",
    "Tomogram",
    "GridFunction2D",
    "TomogramError",
    "MassDeficitError",
    "frame_from_scaling",
    "normalization_residual",
    "tomogram_distance_l1",
    "resample_tomogram",
    "spread_atoms",
    "trapezoid_mass",
    "write_tomogram",
    "read_tomogram",
]

# Values more negative than this are rejected; small quadrature noise in
# [-_VALUE_FLOOR, 0) is clipped to zero so tomograms stay densities.
_VALUE_FLOOR = 1e-7


class TomogramError(ValueError):
    """Invalid tomogram construction or incompatible tomogram pair."""


class MassDeficitError(TomogramError):
    """A produced tomogram misses probability mass beyond tolerance."""

    def __init__(self, deficit: float, message: str | None = None):
        self.deficit = float(deficit)
        super().__init__(message or f"tomogram mass deficit {deficit:.3e} exceeds tolerance")


@dataclass(frozen=True)
class TomographyFrame:
    """Axis label (mu, nu) of the coordinate X = mu*q + nu*p.

    mu carries units 1/[q], nu units 1/[p]; any real pair is allowed.
    Operations that divide by |mu| or |nu| document their own domain.
    """

    mu: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "nu", float(self.nu))
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise TomogramError("frame parameters must be finite")

    @property
    def is_zero(self) -> bool:
        return self.mu == 0.0 and self.nu == 0.0

    def norm(self) -> float:
        return math.hypot(self.mu, self.nu)

    def scaled(self, lam: float) -> "TomographyFrame":
        return TomographyFrame(lam * self.mu, lam * self.nu)


def frame_from_scaling(s: float, theta: float) -> TomographyFrame:
    """Frame from a canonical scaling s > 0 and rotation angle theta.

    mu = s*cos(theta), nu = sin(theta)/s.
    """
    if not s > 0:
        raise TomogramError(f"scaling parameter must be positive, got {s}")
    return TomographyFrame(s * math.cos(theta), math.sin(theta) / s)


@dataclass(frozen=True)
class DeltaAtom:
    """Exact point mass (weight at location) carried by a tomogram."""

    weight: float
    location: float

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "location", float(self.location))
        if self.weight < 0:
            raise TomogramError(f"atom weight must be nonnegative, got {self.weight}")


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_uniform_grid(x: np.ndarray, what: str = "x_grid") -> float:
    """Validate a uniformly spaced increasing grid; return its spacing."""
    if x.ndim != 1:
        raise TomogramError(f"{what} must be one-dimensional")
    if x.size == 0:
        return 0.0
    if x.size == 1:
        return 0.0
    d = np.diff(x)
    if np.any(d <= 0):
        raise TomogramError(f"{what} must be strictly increasing")
    h = (x[-1] - x[0]) / (x.size - 1)
    if not np.allclose(d, h, rtol=1e-9, atol=1e-12 * max(abs(h), 1.0)):
        raise TomogramError(f"{what} must be uniformly spaced")
    return float(h)


@dataclass(frozen=True)
class Tomogram:
    """Sampled tomogram: smooth density values on a uniform X grid plus
    explicit delta atoms for distributional components.

    Values are nonnegative (quadrature noise down to -1e-7 is clipped);
    a state tomogram carries total mass 1 within the producing module's
    tolerance, checked by :func:`normalization_residual`.
    """

    frame: TomographyFrame
    x_grid: np.ndarray
    values: np.ndarray
    atoms: tuple[DeltaAtom, ...] = ()

    def __post_init__(self):
        x = _as_readonly(self.x_grid)
        v = np.array(self.values, dtype=float, copy=True)
        _check_uniform_grid(x)
        if v.shape != x.shape:
            raise TomogramError("values and x_grid must have matching shape")
        if v.size and float(np.min(v)) < -_VALUE_FLOOR:
            raise TomogramError(
                f"negative tomogram value {float(np.min(v)):.3e} below noise floor -{_VALUE_FLOOR:.0e}"
            )
        np.maximum(v, 0.0, out=v)
        v.setflags(write=False)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def dx(self) -> float:
        if self.x_grid.size < 2:
            return 0.0
        return float(self.x_grid[1] - self.x_grid[0])

    def grid_mass(self) -> float:
        return trapezoid_mass(self.values, self.dx)

    def atom_mass(self) -> float:
        return float(sum(a.weight for a in self.atoms))

    def total_mass(self) -> float:
        return self.grid_mass() + self.atom_mass()


@dataclass(frozen=True)
class GridFunction2D:
    """Real or complex samples of a two-variable function on a uniform
    rectangular grid; used for f(q, p), W(p, q) and rho(x, x').

    values[i, j] = f(x_grid[i], y_grid[j]).
    """

    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = _as_readonly(self.x_grid)
        y = _as_readonly(self.y_grid)
        if x.size < 2 or y.size < 2:
            raise TomogramError("GridFunction2D axes need at least two points")
        _check_uniform_grid(x, "x_grid")
        _check_uniform_grid(y, "y_grid")
        v = np.array(self.values, copy=True)
        if v.shape != (x.size, y.size):
            raise TomogramError(
                f"values shape {v.shape} does not match axes ({x.size}, {y.size})"
            )
        v.setflags(write=False)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "y_grid", y)
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def dy(self) -> float:
        return float(self.y_grid[1] - self.y_grid[0])

    def interp(self, x, y):
        """Bilinear interpolation, zero outside the grid."""
        return bilinear_interp(self.x_grid, self.y_grid, self.values, x, y)


def bilinear_interp(xg: np.ndarray, yg: np.ndarray, vals: np.ndarray, x, y):
    """Bilinear interpolation of vals[i, j] = f(xg[i], yg[j]); zero outside."""
    from scipy import ndimage

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx = (xg[-1] - xg[0]) / (xg.size - 1)
    hy = (yg[-1] - yg[0]) / (yg.size - 1)
    coords = np.stack([(x - xg[0]) / hx, (y - yg[0]) / hy])
    if np.iscomplexobj(vals):
        re = ndimage.map_coordinates(vals.real, coords, order=1, mode="constant", cval=0.0)
        im = ndimage.map_coordinates(vals.imag, coords, order=1, mode="constant", cval=0.0)
        return re + 1j * im
    return ndimage.map_coordinates(vals, coords, order=1, mode="constant", cval=0.0)


def trapezoid_mass(values: np.ndarray, dx: float) -> float:
    """Trapezoid-rule integral of uniformly sampled values, fixed summation order."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    if v.size == 1:
        return 0.0
    return float(dx * (np.add.reduce(v) - 0.5 * (v[0] + v[-1])))


def normalization_residual(t: Tomogram) -> float:
    """|integral of values + sum of atom weights - 1|.

    The grid must cover the smooth support up to the caller's tail
    tolerance; an empty tomogram (no grid points, no atoms) is rejected.
    """
    if t.x_grid.size == 0 and not t.atoms:
        raise TomogramError("empty tomogram has no normalization")
    return abs(t.total_mass() - 1.0)


def resample_tomogram(t: Tomogram, new_grid: Sequence[float]) -> Tomogram:
    """Linear-interpolation resample of the smooth part onto new_grid.

    Values outside the original grid are zero; atoms are carried over.
    """
    ng = np.asarray(new_grid, dtype=float)
    vals = np.interp(ng, t.x_grid, t.values, left=0.0, right=0.0)
    return Tomogram(t.frame, ng, vals, t.atoms)


def spread_atoms(t: Tomogram) -> Tomogram:
    """Fold delta atoms into their grid cells as cell-averaged density.

    Atoms outside the grid are rejected; used when a distributional
    tomogram must be compared against a smooth one on a common grid.
    """
    if not t.atoms:
        return t
    if t.x_grid.size < 2:
        raise TomogramError("cannot spread atoms on a degenerate grid")
    vals = np.array(t.values, dtype=float)
    dx = t.dx
    for a in t.atoms:
        if not (t.x_grid[0] - 0.5 * dx <= a.location <= t.x_grid[-1] + 0.5 * dx):
            raise TomogramError(f"atom at {a.location} lies outside the grid")
        j = int(np.clip(np.rint((a.location - t.x_grid[0]) / dx), 0, t.x_grid.size - 1))
        vals[j] += a.weight / dx
    return Tomogram(t.frame, t.x_grid, vals)


def _frames_equal(a: TomographyFrame, b: TomographyFrame) -> bool:
    return (
        math.isclose(a.mu, b.mu, rel_tol=1e-12, abs_tol=1e-15)
        and math.isclose(a.nu, b.nu, rel_tol=1e-12, abs_tol=1e-15)
    )


def tomogram_distance_l1(a: Tomogram, b: Tomogram) -> float:
    """L1 distance between two tomograms in the same frame.

    b's smooth part is resampled onto a's grid by linear interpolation
    (so a's grid should cover both supports); atoms must either be absent
    on both sides or pairable by nearest location within one grid cell,
    and matched pairs contribute |weight difference|.
    """
    if not _frames_equal(a.frame, b.frame):
        raise TomogramError(
            f"cannot compare tomograms of different frames "
            f"({a.frame.mu}, {a.frame.nu}) vs ({b.frame.mu}, {b.frame.nu})"
        )
    rb = np.interp(a.x_grid, b.x_grid, b.values, left=0.0, right=0.0)
    dist = trapezoid_mass(np.abs(a.values - rb), a.dx)
    if a.atoms or b.atoms:
        tol = a.dx if a.dx > 0 else b.dx
        remaining = list(b.atoms)
        for atom in a.atoms:
            if not remaining:
                raise TomogramError("unmatched delta atom in first tomogram")
            j = min(range(len(remaining)), key=lambda k: abs(remaining[k].location - atom.location))
            if abs(remaining[j].location - atom.location) > tol:
                raise TomogramError(
                    f"atom at {atom.location} has no partner within one grid cell"
                )
            dist += abs(atom.weight - remaining.pop(j).weight)
        if remaining:
            raise TomogramError("unmatched delta atom in second tomogram")
    return float(dist)


# ---------------------------------------------------------------------------
# serialization: CSV of (X, value) plus a JSON metadata sidecar
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: str, columns) -> None:
    """Write the header and one row per index of the equal-length columns,
    every value a float with 17 significant digits, in one format
    operation."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    body = (row * cols[0].size) % tuple(np.column_stack(cols).ravel().tolist())
    _atomic_write(path, header + "\n" + body)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tomogram(t: Tomogram, csv_path: str, hbar: float | None = None,
                   state: str | None = None) -> str:
    """Write the grid samples as CSV `X,value` and a JSON sidecar with the
    frame, hbar, state descriptor and delta atoms.  Floats are written with
    17 significant digits so the JSON fields round-trip bit-exactly.

    Returns the sidecar path (csv_path with extension .json).
    """
    _write_csv(csv_path, "X,value", (t.x_grid, t.values))
    meta = {
        "frame": {"mu": t.frame.mu, "nu": t.frame.nu},
        "hbar": hbar,
        "state": state,
        "atoms": [{"weight": a.weight, "location": a.location} for a in t.atoms],
    }
    side = os.path.splitext(csv_path)[0] + ".json"
    _atomic_write(side, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return side


def read_tomogram(csv_path: str) -> tuple[Tomogram, dict]:
    """Read a tomogram written by :func:`write_tomogram`; returns (tomogram, meta)."""
    with open(csv_path) as fh:
        header = fh.readline()
        if header.strip() != "X,value":
            raise TomogramError(f"unexpected CSV header {header!r}")
        xs, vs = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            sx, sv = line.split(",")
            xs.append(float(sx))
            vs.append(float(sv))
    side = os.path.splitext(csv_path)[0] + ".json"
    with open(side) as fh:
        meta = json.load(fh)
    frame = TomographyFrame(meta["frame"]["mu"], meta["frame"]["nu"])
    atoms = tuple(DeltaAtom(a["weight"], a["location"]) for a in meta.get("atoms", []))
    return Tomogram(frame, np.asarray(xs), np.asarray(vs), atoms), meta
