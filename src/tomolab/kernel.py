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

import functools
import json
import math
import os
import sys
from dataclasses import dataclass

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
    "spread_atoms",
    "trapezoid_mass",
    "trapezoid_weights",
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

    def __init__(self, deficit: float):
        self.deficit = float(deficit)
        super().__init__(f"tomogram mass deficit {deficit:.3e} exceeds tolerance")


_NORMAL_MIN = sys.float_info.min  # the smallest normal double


@dataclass(frozen=True)
class TomographyFrame:
    """Axis label (mu, nu) of the coordinate X = mu*q + nu*p.

    mu carries units 1/[q], nu units 1/[p]; any pair is allowed whose
    length |zeta| = sqrt(mu^2 + nu^2) is finite and is 0 (the zero frame)
    or has a normal square, so that 1/|zeta|^2 is finite.  Operations
    that divide by |mu| or |nu| document their own domain.
    """

    mu: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "nu", float(self.nu))
        if not math.isfinite(self.norm):
            raise TomogramError(f"frame ({self.mu!r}, {self.nu!r}) must have a finite length")
        if self.mu * self.mu + self.nu * self.nu < _NORMAL_MIN and not self.is_zero:
            raise TomogramError(f"frame ({self.mu!r}, {self.nu!r}) is too small: mu^2 + nu^2 underflows")

    @property
    def norm(self) -> float:
        """The frame length |zeta| = sqrt(mu^2 + nu^2), formed without overflow."""
        return math.hypot(self.mu, self.nu)

    @property
    def is_zero(self) -> bool:
        return self.mu == 0.0 and self.nu == 0.0

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
    if x.size < 2:
        return 0.0
    d = np.diff(x)
    if np.any(d <= 0):
        raise TomogramError(f"{what} must be strictly increasing")
    h = (x[-1] - x[0]) / (x.size - 1)
    # |dx - h| <= atol + rtol |h| in one test that an inf or NaN anywhere fails
    with np.errstate(invalid="ignore"):
        uniform = np.all(np.abs(d - h) <= 1e-12 * max(abs(h), 1.0) + 1e-9 * abs(h))
    if not uniform:
        raise TomogramError(f"{what} must be finite and uniformly spaced")
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


def trapezoid_mass(values: np.ndarray, dx: float) -> float:
    """Trapezoid-rule integral of uniformly sampled values, fixed summation order."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(dx * (np.add.reduce(v) - 0.5 * (v[0] + v[-1])))


def trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoid-rule weights (1/2, 1, ..., 1, 1/2) of n >= 1 samples at unit spacing."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _distinct(a) -> np.ndarray:
    """np.unique(a) without the numpy.ma import (16 ms) of its first call."""
    s = np.sort(np.ravel(a))
    first = np.ones(s.shape, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]


def normalization_residual(t: Tomogram) -> float:
    """|integral of values + sum of atom weights - 1|.

    The grid must cover the smooth support up to the caller's tail
    tolerance; an empty tomogram (no grid points, no atoms) is rejected.
    """
    if t.x_grid.size == 0 and not t.atoms:
        raise TomogramError("empty tomogram has no normalization")
    return abs(t.total_mass() - 1.0)


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
    """L1 distance between two atom-free tomograms in the same frame.

    b is resampled onto a's grid by linear interpolation (so a's grid
    should cover both supports); a tomogram with delta atoms is refused:
    fold them into its cells with spread_atoms first.
    """
    if not _frames_equal(a.frame, b.frame):
        raise TomogramError(
            f"cannot compare tomograms of different frames "
            f"({a.frame.mu}, {a.frame.nu}) vs ({b.frame.mu}, {b.frame.nu})"
        )
    if a.atoms or b.atoms:
        raise TomogramError("the L1 distance compares atom-free tomograms: spread_atoms them first")
    rb = np.interp(a.x_grid, b.x_grid, b.values, left=0.0, right=0.0)
    return float(trapezoid_mass(np.abs(a.values - rb), a.dx))


# ---------------------------------------------------------------------------
# serialization: CSV of (X, value) plus a JSON metadata sidecar
# ---------------------------------------------------------------------------

# Every CSV value is written as the bytes of '%.17g' % v, produced for a
# whole block at once: a double-double product gives the 17 rounded
# digits, each value is laid out in a fixed-width slot, and a byte mask
# looked up by layout code zeroes the slot bytes '%.17g' does not print.
# Slot: sign, "0.000" prefix, an 18-byte digit region (first digit,
# point, 16 digits; the point moves right for fixed-point values of 10
# and more), then the suffix "e+308" and the separator.
_SLOT = b"-0.000" + b"0." + b"0" * 16 + b"e+000,\0\0"
_WIDTH = len(_SLOT)  # 32: digits 2 to 17 and the suffix fill aligned words
_E_LO, _E_HI = -326, 310  # decimal exponents of the power table
_TINY_E = -200  # below this exponent values are scaled by 2**600 first
_SPLIT_MASK = np.uint64(0xFFFFFFFFF8000000)  # keeps 26 significant bits
_BLOCK_VALUES = 1 << 12  # values formatted per block, bounding memory
_TIE_GAP = 1e-6  # fractions this close to 1/2 take the per-value path
_GROUP_OFFSETS = np.array([[0], [10000], [20000], [30000]])
_GROUP_POWERS = np.array([[10 ** 16], [10 ** 12], [10 ** 8], [10 ** 4]])


@functools.cache
def _g17_tables():
    """Tables of the '%.17g' writer, built on first use.

    pow10[:, e - _E_LO] holds T = 10**(16 - e) / 2**s as the double t =
    th + tt (Veltkamp halves), the remainder tl = T - t and the scale 2**s
    (s = 600 for e < _TINY_E, else 0).  quads maps 0..9999 to four ASCII
    digits; last[10000 j + g] is the position, counting the leading digit
    as 1, of the last nonzero digit of group j (0..3) of the 16 digits
    after the leading one, if that group is g, and 1 if g = 0; suffix
    maps an exponent to the 8 bytes "e+308,"; point[w - 1] orders the
    digit region for w integer digits; keep[code] has all bits set on the
    slot bytes printed and none elsewhere, code = (class * 17 + digits
    printed - 1) * 2 + sign.
    """
    rows = []
    for e in range(_E_LO, _E_HI + 1):
        s = 600 if e < _TINY_E else 0
        # T = num / den exactly; int / int rounds correctly, as float(Fraction) does
        num, den = (10 ** (16 - e), 2 ** s) if e <= 16 else (1, 10 ** (e - 16))
        t = num / den
        c = 134217729.0 * t
        th = c - (c - t)
        tn, td = t.as_integer_ratio()
        rows.append((t, th, t - th, (num * td - tn * den) / (den * td), 2.0 ** s))
    pow10 = np.array(rows).T.copy()
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    digits4 = np.max((digits > 0) * np.arange(1, 5), axis=1)  # last nonzero digit, 0 for 0000
    last = np.concatenate([np.where(digits4 > 0, digits4 + 4 * j + 1, 1) for j in range(4)])
    suffix = np.frombuffer("".join(f"e{e:+04d},\0\0" for e in range(_E_LO, _E_HI + 1)).encode(),
                           np.uint64)
    point = np.array([[0, *range(2, w + 1), 1, *range(w + 1, 18)] for w in range(1, 18)])
    # keep[cls, kept - 1, sign, byte]: classes 21 and 22 lay the digits out as e = 0
    cls = np.arange(23)[:, None, None, None]
    e = np.where(cls < 21, cls - 4, 0)
    kept = np.arange(1, 18)[:, None, None]
    sign = np.arange(2)[:, None]
    b = np.arange(_WIDTH)
    # e < 0: "0." and zeros, then the digits without a point; e >= 0: the
    # digits in display order, the point if a digit follows
    small = ((b >= 1) & (b <= 1 - e)) | (b == 6) | ((b >= 8) & (b <= 6 + kept))
    large = (b >= 6) & (b < 6 + kept + (kept > e + 1))
    keep = (np.where(e < 0, small, large) | (b == 29) | ((sign == 1) & (b == 0))  # separator, sign
            | ((cls >= 21) & np.isin(b, (24, 25, 27, 28)))  # "e+", two exponent digits
            | ((cls == 22) & (b == 26)))  # third exponent digit
    keep = (keep * np.uint8(255)).reshape(-1, _WIDTH).view(np.uint64)
    tables = pow10, quads, last.astype(np.uint8), suffix, point, keep
    for a in tables:
        a.setflags(write=False)
    return tables


def _scaled_floor(a: np.ndarray, e: np.ndarray, pow10: np.ndarray):
    """(floor, fraction) of a * 10**(16 - e) for positive finite a, from
    Dekker's exact two-product of a and the double part of the table
    entry plus a times its remainder; the fraction is good to ~1e-14."""
    col = e - _E_LO
    t, th, tt, tl = np.take(pow10[:4], col, axis=1)
    x = a * pow10[4].take(col) if e.min(initial=0) < _TINY_E else a  # the scale row is 1 elsewhere
    xh = (x.view(np.uint64) & _SPLIT_MASK).view(np.float64)
    xl = x - xh
    p = x * t
    q = ((xh * th - p) + xh * tt + xl * th) + xl * tt
    pf = np.floor(p)
    r = (p - pf) + (q + x * tl)
    rf = np.floor(r)
    return pf.astype(np.int64) + rf.astype(np.int64), r - rf


def _decimal17(v: np.ndarray):
    """Round |v| to 17 significant digits: (D, E, exact) with |v| ~ D *
    10**(E - 16) and 10**16 <= D < 10**17, D = E = 0 for zeros.  exact is
    False where the vector path cannot decide the rounding: non-finite
    values and fractions within _TIE_GAP of a tie."""
    a = np.abs(v)
    # NaN fails both tests; a block without zeros or non-finite values skips the masks
    plain = a.min(initial=np.inf) > 0 and a.max(initial=0.0) < np.inf
    if not plain:
        nz = (a > 0) & (a < np.inf)
        a = np.where(nz, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    pow10 = _g17_tables()[0]
    n, f = _scaled_floor(a, e, pow10)
    # log10 can be one off next to a power of ten; the exponent follows
    # the floor of the product, never the rounded digits (1e-248 prints as
    # 9.9999999999999998e-249)
    step = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        n[fix], f[fix] = _scaled_floor(a[fix], e[fix], pow10)
    exact = (np.abs(f - 0.5) >= _TIE_GAP) & (n >= 10 ** 16) & (n < 10 ** 17)
    d = n + (f > 0.5)
    carry = np.flatnonzero(d == 10 ** 17)
    d[carry] = 10 ** 16
    e[carry] += 1
    if plain:
        return d, e, exact
    return np.where(nz, d, 0), np.where(nz, e, 0), np.where(nz, exact, v == 0)


def _slots(v: np.ndarray) -> np.ndarray:
    """The (v.size, _WIDTH) byte slots of a flat float array: each the
    bytes of '%.17g' % value and a ',' separator, zero-padded."""
    d, e, exact = _decimal17(v)
    _, quads, last, suffix, point, keep_table = _g17_tables()
    words = np.empty((v.size, _WIDTH // 8), np.uint64)
    words[:, 0] = np.frombuffer(_SLOT[:8], np.uint64)  # digits and suffix fill words 1 to 3
    words[:, 3] = suffix[e - _E_LO]
    buf = words.view(np.uint8)
    # digits: the leading one, then four groups of four from the table;
    # with q_i = D // 10**(16 - 4i) and q_4 = D, group i is q_{i+1} - 10**4 q_i
    q = d // _GROUP_POWERS
    buf[:, 6] = q[0] + ord("0")
    groups = np.empty((4, v.size), np.int64)
    groups[:3] = q[1:]
    groups[3] = d
    q *= 10 ** 4
    groups -= q
    buf.view(np.uint32)[:, 2:6] = np.take(quads, groups).T
    # digits printed: up to the last nonzero one, at least the integer
    # digits ('%g' drops trailing zeros and a bare point)
    fixed = (e >= -4) & (e < 17)
    whole = np.where(fixed, e + 1, 1)  # digits before the point
    kept = np.maximum(last.take(groups + _GROUP_OFFSETS).max(axis=0), whole)
    moved = np.flatnonzero(whole > 1)
    if moved.size:  # one gather of the digit regions of the whole block
        at, flat = moved[:, None] * _WIDTH + 6, buf.reshape(-1)
        flat[at + np.arange(18)] = flat.take(at + point[whole[moved] - 1])
    # layout code: '%g' prints fixed point for -4 <= E < 17 (class E + 4),
    # otherwise an exponent of two or three digits (class 21 or 22)
    cls = np.where(fixed, e + 4, np.where(np.abs(e) >= 100, 22, 21))
    words &= keep_table.take((cls * 17 + kept - 1) * 2 + np.signbit(v), axis=0)
    for i in np.flatnonzero(~exact):
        s = np.frombuffer(b"%.17g" % v[i], np.uint8)
        buf[i, :29] = 0
        buf[i, :s.size] = s
    return buf


def _write_csv(path: str, header: str, columns) -> None:
    """Write the header and one row per index of the equal-length columns,
    each value the bytes of '%.17g', in blocks of whole rows.  Leading
    columns may be indexed, (values, index) for values[index], their values
    formatted once, with the first block: a grid file passes its axes as
    (x, rows // ny) and (y, rows % ny)."""
    keyed = [c for c in columns if isinstance(c, tuple)]
    values = [np.asarray(v, dtype=float).ravel() for v, _ in keyed]
    table = np.column_stack([np.asarray(c, dtype=float).ravel() for c in columns[len(keyed):]])
    rows = max(1, _BLOCK_VALUES // table.shape[1])
    parts = []
    for k in range(0, table.shape[0], rows):
        block = table[k:k + rows]
        if k == 0 and keyed:  # the indexed values go with the first block, saving a call
            *formatted, slots = np.split(_slots(np.concatenate((*values, block.ravel()))),
                                         np.cumsum([v.size for v in values]))
        else:
            slots = _slots(block.ravel())
        lines = slots.reshape(block.shape[0], -1, _WIDTH)  # a plain table's slots in place
        if keyed:
            lines = np.concatenate([*(f.take(index[k:k + rows], axis=0)[:, None]
                                      for f, (_, index) in zip(formatted, keyed)), lines], axis=1)
        # the last separator of each row becomes a newline; the padding goes
        lines[:, -1, 29] = ord("\n")
        parts.append(lines.tobytes().translate(None, b"\0"))
    _atomic_write(path, header.encode() + b"\n" + b"".join(parts))


def _json_text(payload) -> str:
    """payload as indented JSON with sorted keys: the one JSON serializer."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_json(path: str, payload) -> str:
    """Write payload as :func:`_json_text` and a final newline; returns path."""
    _atomic_write(path, (_json_text(payload) + "\n").encode())
    return path


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _sidecar(csv_path: str) -> str:
    return os.path.splitext(csv_path)[0] + ".json"


def _read_table(path: str, bad_header, bad_width) -> dict[str, np.ndarray]:
    """The float columns of a CSV table by the names in its header, read by
    one np.loadtxt; a format's own errors are bad_header(header line, names),
    or None, checked before any row is read, and bad_width(names, shape)."""
    with open(path) as fh:
        header = fh.readline()
        names = [n.strip() for n in header.lstrip("#").split(",")]
        if (error := bad_header(header, names)) is not None:
            raise error
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != len(names):
        raise bad_width(names, rows.shape)
    return dict(zip(names, rows.T))


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to path (its folder made if missing) by one rename of a new
    file beside it, created like open() would create it: mode 0o666 less the umask."""
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".tmp_{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    return _write_json(_sidecar(csv_path), meta)


def read_tomogram(csv_path: str) -> tuple[Tomogram, dict]:
    """Read a tomogram written by :func:`write_tomogram`; returns (tomogram, meta)."""
    col = _read_table(
        csv_path, lambda line, _: None if line.strip() == "X,value" else TomogramError(
            f"unexpected CSV header {line!r}"),
        lambda *_: TomogramError("tomogram CSV rows need 2 columns"))
    meta = _read_json(_sidecar(csv_path))
    frame = TomographyFrame(meta["frame"]["mu"], meta["frame"]["nu"])
    atoms = tuple(DeltaAtom(a["weight"], a["location"]) for a in meta.get("atoms", []))
    return Tomogram(frame, col["X"], col["value"], atoms), meta
