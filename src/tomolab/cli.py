"""Command-line front end.

Subcommands: tomogram (evaluate one tomogram to CSV+JSON), limit (run a
quantum-classical limit study), reconstruct (invert a tomogram family
back to a Wigner function or density matrix), compare (quantum vs
classical L1 table), selftest (invariant battery).  All outputs are
plain CSV/JSON written atomically with 17-significant-digit floats, so a
rerun with the same configuration is byte-identical.  Each command takes
only the flags it reads; any other flag, or --config key, exits with status 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import classical as cl
from . import limits as lm
from . import quantum as qt
from . import specfun as sf
from . import states as st
from .kernel import (
    GridFunction2D,
    TomographyFrame,
    Tomogram,
    _read_json,
    _write_csv,
    _write_json,
    frame_from_scaling,
    normalization_residual,
    spread_atoms,
    tomogram_distance_l1,
    write_tomogram,
)

__all__ = ["main", "RunConfig", "build_parser", "run_selftest"]

# a written tomogram whose mass is further than this from 1 fails its command
TOMOGRAM_MASS_TOL = 1e-2
# a reconstruction further than this from the exact state, where one is
# known, fails its command (acceptance criterion 11's bound)
RECONSTRUCT_ERROR_TOL = 1e-3


@dataclass
class RunConfig:
    """One CLI invocation; mirrors the flag set so a JSON document can
    replay a run via --config, and holds the defaults of both."""

    command: str
    state: str | None = None
    classical: str | None = None
    frame: tuple[float, float] | None = None
    scaling: tuple[float, float] | None = None
    hbar: float = 1.0
    grid: tuple[float, float, int] | None = None
    study: str | None = None
    params: dict = field(default_factory=dict)
    frames: list[tuple[float, float]] = field(default_factory=list)
    target: str | None = None
    out: str = "."
    quick: bool = False

    def resolved_frame(self) -> TomographyFrame:
        if (self.frame is None) == (self.scaling is None):
            raise ValueError("exactly one of --frame MU,NU / --scaling S,THETA is required")
        if self.frame is not None:
            return TomographyFrame(*self.frame)
        return frame_from_scaling(*self.scaling)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        raw = _read_json(path)
        if not isinstance(raw, dict) or not isinstance(raw.get("params", {}), dict):
            raise ValueError("a config and its params must be JSON objects")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        command = raw.get("command")
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        unread = set(raw) - {"command", *COMMANDS[command].reads}
        if unread:
            raise ValueError(f"{command} does not read config keys {sorted(unread)}")
        cfg = cls(**_as_flags(raw))
        cfg.params = _as_flags(cfg.params)
        return cfg


def _flag_text(value) -> str:
    """A config value as flag text: a list joined by ',', a list of lists by ';'."""
    if not isinstance(value, list):
        return str(value)
    return (";" if any(isinstance(v, list) for v in value) else ",").join(map(_flag_text, value))


def _as_flags(raw: dict) -> dict:
    """Config values as their flags give them: the flag text, through the
    flag's parser when it has one (the command line's checks and messages)."""
    def value(flag: dict | None, v):
        if v is None or flag is None or "action" in flag:
            return v
        return flag.get("type", str)(_flag_text(v))
    return {k: value(_FLAGS.get(k), v) for k, v in raw.items()}


def _fields(text: str, types: tuple, what: str) -> tuple:
    """The comma-separated fields of text read by types, or an error saying what they must be."""
    parts = text.split(",")
    try:
        if len(parts) == len(types):
            return tuple(t(p) for t, p in zip(types, parts))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{what}, got {text!r}")


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    return _fields(text, (float, float), f"{what} must be two comma-separated numbers")


def _parse_grid(text: str) -> tuple[float, float, int]:
    lo, hi, n = _fields(text, (float, float, int), "grid must be min,max,count with an integer count")
    if n < 2:
        raise argparse.ArgumentTypeError("grid count must be at least 2")
    if hi <= lo:
        raise argparse.ArgumentTypeError("grid needs max > min")
    return lo, hi, n


def _integer(text: str, what: str) -> int:
    (v,) = _fields(text, (int,), f"{what} must be an integer")
    return v


def _number(text: str, what: str, ok=math.isfinite) -> float:
    """One number that ok accepts, or an error saying what it must be."""
    (v,) = _fields(text, (float,), what)
    if not ok(v):
        raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
    return v


def _hbar(text: str) -> float:
    """A value of hbar: only 0 < hbar < inf describes a quantum state."""
    return _number(text, "hbar must be positive and finite", lambda h: 0.0 < h < math.inf)


def parse_hbar_sequence(text: str) -> list[float]:
    """`a:b:geometric[:count]` - from a toward b; with no count the ratio
    is 1/2 and the sweep stops at the last value >= min(a, b)."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or parts[2] != "geometric":
        raise argparse.ArgumentTypeError(
            f"hbar sweep must look like a:b:geometric[:count], got {text!r}"
        )
    a, b = _hbar(parts[0]), _hbar(parts[1])
    if len(parts) == 4:
        n = _integer(parts[3], "hbar sweep count")
        if n < 2:
            raise argparse.ArgumentTypeError("hbar sweep needs at least 2 points")
        if not 0.0 < b / a < math.inf:  # b/a leaves double range: space the logarithms
            la, lb = math.log(a), math.log(b)
            return [a, *(math.exp(la + (lb - la) * k / (n - 1)) for k in range(1, n - 1)), b]
        ratio = (b / a) ** (1.0 / (n - 1))
        return [a * ratio ** k for k in range(n)]
    lo = min(a, b)
    seq = []
    h = a
    while h >= lo * (1.0 - 1e-12):
        seq.append(h)
        h *= 0.5
    return seq


def _parse_frames_list(text: str) -> list[tuple[float, float]]:
    return [_parse_pair(tok, "frame") for tok in text.split(";") if tok]


# ---------------------------------------------------------------------------
# tomogram
# ---------------------------------------------------------------------------

def cmd_tomogram(cfg: RunConfig) -> int:
    state = st.parse_state(cfg.state)
    frame = cfg.resolved_frame()
    grid = np.linspace(*cfg.grid) if cfg.grid else qt.default_x_grid(state, frame, cfg.hbar)
    tom = qt.state_tomogram(state, frame, grid, cfg.hbar)
    out = cfg.out if cfg.out.endswith(".csv") else os.path.join(cfg.out, "tomogram.csv")
    write_tomogram(tom, out, hbar=cfg.hbar, state=state.descriptor())
    print(f"tomogram written to {out}")
    resid = normalization_residual(tom)
    print(f"normalization residual: {resid:.3e}")
    return 0 if _within("tomogram", out, "normalization residual", resid, TOMOGRAM_MASS_TOL) else 1


def _within(command: str, path: str, what: str, value: float, tol: float) -> bool:
    """The gate of every written output: whether value, what was measured
    of the file at path, is within tol; if not, say so in one stderr line."""
    if value <= tol:
        return True
    print(f"{command}: {path}: {what} {value:.3e} exceeds the tolerance {tol:g}", file=sys.stderr)
    return False


# ---------------------------------------------------------------------------
# limit studies
# ---------------------------------------------------------------------------

def _hbars(p: dict, default: list[float]) -> list[float]:
    return parse_hbar_sequence(p["hbars"]) if "hbars" in p else default


def _ns(p: dict, default: str) -> list[int]:
    text = str(p.get("ns", default))
    ns = list(_fields(text, (int,) * len(text.split(",")), "ns must be comma-separated integers"))
    if min(ns) < 1:
        raise ValueError(f"quantum numbers must be positive, got {p['ns']!r}")
    return ns


def _fixed_energy(p: dict) -> tuple[float, float]:
    return float(p.get("q_alpha", 1.0)), float(p.get("p_alpha", 0.0))


def _planck_delta(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    return lm.weak_delta_convergence(st.parse_state(p.get("state") or "ho:n=3"),
                                     _hbars(p, [0.1 * 0.5 ** k for k in range(6)]),
                                     frame, center=float(p.get("center", 0.0)))


def _interference(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    return lm.interference_decay(int(p.get("n", 0)), int(p.get("m", 1)), frame,
                                 _hbars(p, [1e-1 * 0.5 ** k for k in range(8)]))


def _cat_interference(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    alpha = complex(float(p.get("re", 1.0)), float(p.get("im", 0.0)))
    return lm.cat_interference_planck(alpha, frame, _hbars(p, [0.1 * 0.5 ** k for k in range(4)]))


def _ehrenfest_coherent(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    return lm.ehrenfest_coherent(*_fixed_energy(p), frame, _hbars(p, [1e-2, 1e-3, 1e-4]))


def _ehrenfest_cat(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    return lm.ehrenfest_cat(*_fixed_energy(p), frame, _hbars(p, [1e-3, 5e-4, 2.5e-4]))


def _ehrenfest_box(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    return lm.ehrenfest_box(p.get("L", 1.0), _ns(p, "25,50,100,200"), frame,
                            momentum_check_n=p.get("momentum_check_n"))


def _ehrenfest_oscillator(p: dict, frame: TomographyFrame) -> lm.LimitReport:
    return lm.ehrenfest_oscillator(_ns(p, "25,50,100"), frame)


# Every limit study: the parameters it reads, the function that turns them
# and the frame into its report, and the frame it runs in without --frame
# or --scaling.  Each parameter value writes the report's curve, what the
# study measured there: a Tomogram (with its sidecar, and mass-checked),
# the X,value interference profile, or an n study's X,quantum,classical
# curve behind its distance.
_STUDIES = {
    "planck-delta": (("state", "hbars", "center"), _planck_delta, (1.0, 0.0)),
    "interference": (("n", "m", "hbars"), _interference, (0.6, 0.8)),
    "cat-interference": (("re", "im", "hbars"), _cat_interference, (0.6, 0.8)),
    "ehrenfest-coherent": (("q_alpha", "p_alpha", "hbars"), _ehrenfest_coherent, (1.0, 0.0)),
    "ehrenfest-cat": (("q_alpha", "p_alpha", "hbars"), _ehrenfest_cat, (1.0, 0.0)),
    "ehrenfest-box": (("ns", "L", "momentum_check_n"), _ehrenfest_box, (1.0, 0.3)),
    "ehrenfest-oscillator": (("ns",), _ehrenfest_oscillator, (1.0, 0.0)),
}
STUDIES = tuple(_STUDIES)


def cmd_limit(cfg: RunConfig) -> int:
    if cfg.study not in STUDIES:
        print(f"unknown study {cfg.study!r}; valid studies: {', '.join(STUDIES)}", file=sys.stderr)
        return 2
    reads, run, default_frame = _STUDIES[cfg.study]
    p = dict(cfg.params)
    if cfg.state is not None:
        p.setdefault("state", cfg.state)
    unread = sorted(set(p) - set(reads))
    if unread:
        print(f"limit: {cfg.study} does not read {', '.join(unread)}; it reads "
              f"{', '.join(reads)}", file=sys.stderr)
        return 2
    frame = cfg.resolved_frame() if (cfg.frame or cfg.scaling) else TomographyFrame(*default_frame)
    report = run(p, frame)

    on_hbar = report.parameter_name == "hbar"
    masses_ok = True
    for i, value in enumerate(report.parameter_values):
        value = value if on_hbar else int(value)
        label = f"{value:.6e}" if on_hbar else str(value)
        path = os.path.join(cfg.out, f"{cfg.study}_{report.parameter_name}_{label}.csv")
        curve = report.curves[i]
        if isinstance(curve, Tomogram):
            write_tomogram(curve, path, hbar=value, state=None)
            masses_ok = _within("limit", path, "normalization residual", normalization_residual(curve),
                                TOMOGRAM_MASS_TOL) and masses_ok
        else:
            _write_csv(path, "X,value" if on_hbar else "X,quantum,classical", curve[:3])
        report.artifacts.append(path)

    report_path = _write_json(os.path.join(cfg.out, f"{cfg.study}_report.json"), report.payload())
    print(f"report written to {report_path}")
    print(f"verdict: {report.verdict}")
    if report.fitted_exponent is not None:
        print(f"fitted exponent: {report.fitted_exponent:.4f} (R^2 = {report.r_squared:.5f})")
    return 0 if masses_ok else 1


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

# every reconstruction target: the library function that sizes, builds and
# inverts its frame family, and the header of its CSV
_TARGETS = {
    "wigner": (qt.reconstruct_wigner, "q,p,W"),
    "density": (qt.reconstruct_density, "x,xprime,re,im"),
}


def cmd_reconstruct(cfg: RunConfig) -> int:
    if cfg.target not in _TARGETS:
        print(f"unknown reconstruction target {cfg.target!r}; valid targets: {', '.join(_TARGETS)}",
              file=sys.stderr)
        return 2
    reconstruct, header = _TARGETS[cfg.target]
    state = st.parse_state(cfg.state)
    grid, fields = reconstruct(state, cfg.hbar, np.linspace(*cfg.grid) if cfg.grid else None)
    x, y, v = grid.x_grid, grid.y_grid, grid.values
    values = (v.real, v.imag) if np.iscomplexobj(v) else (v,)

    # one row per grid point, y fastest, each axis value formatted once
    out_csv = os.path.join(cfg.out, f"{cfg.target}.csv")
    ix, iy = np.divmod(np.arange(x.size * y.size), y.size)
    _write_csv(out_csv, header, ((x, ix), (y, iy), *values))
    print(f"{cfg.target} grid written to {out_csv}")
    report = {"state": state.descriptor(), "hbar": cfg.hbar, "target": cfg.target, **fields}
    _write_json(os.path.join(cfg.out, "reconstruct_report.json"), report)
    err = fields.get("max_error_vs_exact")
    if err is None:
        return 0
    print(f"max error vs exact: {err:.3e}")
    return 0 if _within("reconstruct", out_csv, "max error vs exact", err, RECONSTRUCT_ERROR_TOL) else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

class CompareInputError(ValueError):
    """compare inputs that the chosen comparison cannot honour."""


def _require_ehrenfest_values(kind: str, **values: tuple[float, float]) -> None:
    for name, (given, expected) in values.items():
        if abs(given - expected) > 1e-9 * abs(expected):
            raise CompareInputError(f"the windowed {kind} comparison holds at its Ehrenfest values "
                                    f"only: it needs {name} = {expected!r}, got {given!r}")


# the note of a plain-L1 row; the orbit models take the default
_PLAIN_NOTES = {cl.DensityGrid: "plain L1",
                cl.RestPoint: "plain L1 (point state spread to its cell)"}


def _compare_row(state, model, frame: TomographyFrame, hbar: float,
                 grid: np.ndarray | None, windowed) -> tuple[float, str, dict]:
    """One quantum-vs-classical L1 distance with the appropriate
    oscillation handling and exclusion zones, its note, and the mass
    residuals of the two tomograms a plain row compares.

    Eigenstate rows against matching orbits are compared after local
    averaging (turning zones / support edges excluded); those rows hold
    only at the studies' Ehrenfest values (hbar = 1/n against the E = 1
    orbit for ho, unit energy for box), so other hbar, E, varpi or L values
    raise CompareInputError.  Every other row is the plain L1 distance to the
    model's time average with its atoms spread to their cells, by default
    on a grid spanning both supports; a `point` model is at rest, so its
    average is the unit atom at mu q0 + nu p0.
    windowed(n) is the oscillator windowed distance, one for every frame.
    """
    pair = (type(state), type(model))
    if pair == (st.HOEigen, cl.OscillatorTrajectory):
        try:
            hbar_n = qt.oscillator_ehrenfest_hbar(state.n)
        except ValueError as exc:  # n = 0: no Ehrenfest value to compare at
            raise CompareInputError(exc) from None
        _require_ehrenfest_values("oscillator", hbar=(hbar, hbar_n),
                             E=(model.E, 1.0), varpi=(state.varpi, 1.0))
        if frame.is_zero:
            return math.nan, "zero frame not comparable", {}
        return windowed(state.n), "windowed; turning zones excluded", {}
    if pair == (st.BoxEigen, cl.BoxTrajectory):
        _require_ehrenfest_values("box", L=(state.L, model.L), E=(model.E, 1.0),
                             hbar=(hbar, qt.ehrenfest_hbar(state.n, model.L)))
        if frame.mu == 0.0 or frame.nu == 0.0:
            return math.nan, "frame needs mu != 0 and nu != 0", {}
        d = lm.box_windowed_distance(state.n, model.L, frame)
        return d, "windowed; support edges excluded", {}
    if frame.is_zero:
        return math.nan, "zero frame not comparable", {}
    if grid is None:  # both supports, padded by 1 % so the cells at their edges keep their mass
        grid = qt.default_x_grid(state, frame, hbar, count=4001)
        lo, hi = cl.time_average_support(model, frame)
        lo, hi = min(lo, grid[0]), max(hi, grid[-1])
        grid = np.linspace(lo - 0.01 * (hi - lo), hi + 0.01 * (hi - lo), grid.size)
    tomq = qt.state_tomogram(state, frame, grid, hbar)
    tomc = spread_atoms(cl.time_averaged_tomogram(model, frame, grid))
    note = _PLAIN_NOTES.get(type(model), "plain L1 (orbit average; atoms spread to cells)")
    masses = {"quantum": normalization_residual(tomq), "classical": normalization_residual(tomc)}
    return tomogram_distance_l1(tomq, tomc), note, masses


def cmd_compare(cfg: RunConfig) -> int:
    state = st.parse_state(cfg.state)
    model = cl.parse_classical(cfg.classical)
    frames = [TomographyFrame(*f) for f in cfg.frames] or [TomographyFrame(1.0, 0.0)]
    rows, notes, masses = [], [], []
    grid = np.linspace(*cfg.grid) if cfg.grid else None
    # the same in every nonzero frame, so computed at most once per command
    windowed = functools.cache(lambda n: lm.oscillator_windowed_distance(n, TomographyFrame(1.0, 0.0)))
    out_csv = os.path.join(cfg.out, "compare.csv")
    for fr in frames:
        try:
            d, note, mass = _compare_row(state, model, fr, cfg.hbar, grid, windowed)
        except CompareInputError:
            raise  # the whole command fails (exit 2), not just this row
        except Exception as exc:  # report per-row failures, keep going; the command exits 1
            d, note, mass = math.nan, f"failed: {exc}", {}
            print(f"compare: {out_csv}: frame ({fr.mu:g}, {fr.nu:g}) {note}", file=sys.stderr)
        rows.append((fr.mu, fr.nu, d))
        notes.append(note)
        masses.append(mass)
        print(f"frame ({fr.mu:g}, {fr.nu:g}): L1 = {d:.6g}   [{note}]")
    _write_csv(out_csv, "mu,nu,l1_distance", np.array(rows).T)
    meta = {
        "state": state.descriptor(),
        "classical": cfg.classical,
        "hbar": cfg.hbar,
        "notes": notes,
    }
    _write_json(os.path.join(cfg.out, "compare.json"), meta)
    print(f"table written to {out_csv}")
    ok = [_within("compare", out_csv, f"frame ({mu:g}, {nu:g}) {kind} tomogram mass residual",
                  resid, TOMOGRAM_MASS_TOL)
          for (mu, nu, _), mass in zip(rows, masses) for kind, resid in mass.items()]
    return 0 if all(ok) and not any(note.startswith("failed: ") for note in notes) else 1


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_rows(quick: bool):
    rng = np.random.default_rng(20240915)
    rows = []

    def check(name: str, value: float, threshold: float):
        value = float(value)
        rows.append((name, value, threshold, bool(value < threshold)))

    # normalization across the catalog
    n_frames = 8 if quick else 50
    catalog = [st.HOEigen(0), st.HOEigen(5), st.Coherent(1 + 0.5j),
               st.CatEven(1.2 + 0j), st.CatOdd(0.8 + 0.3j), st.Superposition(1, 4)]
    worst = 0.0
    for state in catalog:
        for _ in range(n_frames):
            fr = frame_from_scaling(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
            g = qt.default_x_grid(state, fr, 0.7, count=3001)
            worst = max(worst, normalization_residual(qt.state_tomogram(state, fr, g, 0.7)))
    check("normalization(closed forms)", worst, 1e-6)

    nbox = 5
    hb = qt.ehrenfest_hbar(nbox)
    worst = 0.0
    for _ in range(3 if quick else 8):
        fr = frame_from_scaling(rng.uniform(0.7, 1.4), rng.uniform(0.2, 1.2))
        lo, hi = st.BoxEigen(nbox, 1.0).x_extent(fr, hb, mass_tol=2e-4)
        dx = 2.0 * math.pi * hb * max(abs(fr.nu), 0.05) / 14.0
        g = np.arange(lo, hi, dx)
        worst = max(worst, normalization_residual(qt.box_tomogram(nbox, 1.0, fr, g, hb)))
    check("normalization(box)", worst, 1e-3)

    # marginal identities
    worst = 0.0
    for state in catalog:
        for fr, wf in ((TomographyFrame(1, 0), st.position_wavefunction(state, 0.7)),
                       (TomographyFrame(0, 1), st.momentum_wavefunction(state, 0.7))):
            g = qt.default_x_grid(state, fr, 0.7, count=1501)
            tom = qt.state_tomogram(state, fr, g, 0.7)
            worst = max(worst, float(np.max(np.abs(tom.values - np.abs(wf(g)) ** 2))))
    check("marginal identities", worst, 1e-6)

    # homogeneity W(lX, lmu, lnu) = |l|^-1 W(X, mu, nu)
    worst = 0.0
    for lam in (-2.0, 0.5, 3.0):
        fr = TomographyFrame(0.8, -0.5)
        frl = fr.scaled(lam)
        for state in catalog:
            x = np.linspace(-2, 2, 41)
            w1 = qt.state_tomogram(state, fr, x, 0.7).values
            w2 = qt.state_tomogram(state, frl, lam * x if lam > 0 else (lam * x)[::-1], 0.7).values
            if lam < 0:
                w2 = w2[::-1]
            worst = max(worst, float(np.max(np.abs(w2 - w1 / abs(lam)))))
    check("homogeneity", worst, 1e-8)

    # amplitude overlap identity against the Kronecker delta
    worst = 0.0
    fr = TomographyFrame(0.6, 0.8)
    for hbar in (0.3, 1.0):
        x = np.linspace(-30, 30, 6001)
        amps = [qt.hermite_amplitude(k, fr, x, hbar) for k in range(6 if quick else 9)]
        for a in range(len(amps)):
            for b in range(len(amps)):
                val = np.trapezoid(amps[a] * np.conj(amps[b]), x) / (2 * math.pi * hbar * abs(fr.nu))
                worst = max(worst, abs(val - (1.0 if a == b else 0.0)))
    check("amplitude overlap (Kronecker)", worst, 1e-6)

    # dual route: density -> Wigner -> tomogram vs closed form
    state = st.HOEigen(1)
    xr = np.linspace(-7, 7, 601 if quick else 701)
    rho = qt.rho_grid(state, 1.0, xr)
    qg = np.linspace(-5.5, 5.5, 201 if quick else 221)
    wg, _ = qt.wigner_grid_from_density(rho, qg, qg, 1.0)
    fr = TomographyFrame(0.7, -0.6)
    xt = np.linspace(-6, 6, 401)
    tom = qt.tomogram_from_wigner(wg, fr, xt, 1.0)
    check("dual route (Wigner path)",
          float(np.max(np.abs(tom.values - qt.hermite_tomogram(1, fr, xt, 1.0)))), 1e-3)

    # classical radon of a Gaussian against the analytic convolution
    qq = np.linspace(-8, 8, 321)
    F = np.exp(-qq[:, None] ** 2 / 2 - qq[None, :] ** 2 / 2) / (2 * math.pi)
    dens = cl.DensityGrid(GridFunction2D(qq, qq, F))
    fr = TomographyFrame(1.0, 1.0)
    xt = np.linspace(-12, 12, 601)
    tomc = cl.radon_density(dens, fr, xt)
    refc = np.exp(-xt ** 2 / 4) / math.sqrt(4 * math.pi)
    check("classical radon (Gaussian)", float(np.max(np.abs(tomc.values - refc))), 1e-3)

    if not quick:
        # round trips through the inverse maps
        mu_g = np.linspace(-5, 5, 21)
        xg = np.linspace(-60, 60, 1201)
        fam = cl.build_radon_family(dens, mu_g, mu_g, xg, q_extent=6.0, p_extent=6.0)
        qr = np.linspace(-3, 3, 25)
        f_rec, _ = cl.inverse_radon_grid(fam, qr, qr)
        f_ref = np.exp(-qr[:, None] ** 2 / 2 - qr[None, :] ** 2 / 2) / (2 * math.pi)
        check("radon round trip", float(np.max(np.abs(f_rec - f_ref))), 1e-3)

        _, fields = qt.reconstruct_wigner(st.HOEigen(0), 1.0, np.linspace(-3, 3, 31))
        check("wigner round trip", fields["max_error_vs_exact"], 1e-3)
        _, fields = qt.reconstruct_density(st.Coherent(1), 1.0, np.linspace(-3, 3, 25))
        check("density round trip", fields["max_error_vs_exact"], 1e-3)

    # special-function spot checks
    # the series just inside each seam against the expansion on it
    for side, seam in (("positive", sf.AIRY_SWITCH_POS), ("negative", sf.AIRY_SWITCH_NEG)):
        check(f"airy seam ({side})", abs(sf.airy_ai(seam) - sf.airy_ai(math.nextafter(seam, 0.0))), 1e-9)
    # |2 c k m| <= 120 keeps the direct sum's own rounding near 1e-14
    c = rng.uniform(-1e-3, 1e-3)
    u = rng.normal(size=200) + 1j * rng.normal(size=200)
    direct = np.exp(2j * c * np.outer(np.arange(300), np.arange(200))) @ u
    check("chirp sum",
          float(np.max(np.abs(sf.chirp_sum(u, c, 300) - direct))) / float(np.sum(np.abs(u))), 1e-12)

    # characteristic functions against the trapezoid of each frame's
    # tomogram: the box closed form and the sampled-state overlap quadrature;
    # the default box grid holds the tomogram mass to 1e-4 (BoxEigen.x_extent),
    # which bounds that reference
    mu_c, nu_c = np.array([0.8, -1.1]), np.array([-0.5, 0.0, 1.2])
    xp = np.linspace(-6.0, 6.0, 201)
    psi = np.exp(-(xp - 0.4) ** 2 / 2.0 + 0.6j * xp)
    packet = st.CustomGrid(xp, psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, xp)))
    worst = 0.0
    for state in (st.BoxEigen(2, 1.5), packet):
        G = qt.build_state_family(state, 0.7, mu_c, nu_c).values
        for i, j in np.ndindex(G.shape):
            fr = TomographyFrame(mu_c[i], nu_c[j])
            x = qt.default_x_grid(state, fr, 0.7, count=4001)
            ref = np.trapezoid(qt.state_tomogram(state, fr, x, 0.7).values * np.exp(1j * x), x)
            worst = max(worst, abs(G[i, j] - ref))
    check("characteristic overlap", worst, 1e-4)

    # determinism of serialized output
    import hashlib
    import pathlib
    import tempfile

    state = st.Coherent(0.5 + 0.5j)
    fr = TomographyFrame(0.6, 0.8)
    g = qt.default_x_grid(state, fr, 1.0, count=501)
    digests = []
    for _ in range(2):
        tom = qt.state_tomogram(state, fr, g, 1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            side = write_tomogram(tom, path, hbar=1.0, state="coherent:re=0.5,im=0.5")
            blob = b"".join(pathlib.Path(p).read_bytes() for p in (path, side))
        digests.append(hashlib.sha256(blob).hexdigest())
    check("byte determinism", 0.0 if digests[0] == digests[1] else 1.0, 0.5)
    return rows


def run_selftest(quick: bool = False, out: str | None = None) -> int:
    rows = _selftest_rows(quick)
    width = max(len(r[0]) for r in rows) + 2
    lines = []
    ok = True
    for name, value, threshold, passed in rows:
        ok = ok and passed
        status = "PASS" if passed else "FAIL"
        line = f"{name:<{width}} {value:>12.3e}  < {threshold:<8.0e} {status}"
        lines.append(line)
        print(line)
    print(f"selftest: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    if out:
        payload = [
            {"check": name, "value": value, "threshold": threshold, "passed": passed}
            for name, value, threshold, passed in rows
        ]
        _write_json(os.path.join(out, "selftest.json"), payload)
    return 0 if ok else 1


def cmd_selftest(cfg: RunConfig) -> int:
    return run_selftest(quick=cfg.quick, out=cfg.out if cfg.out != "." else None)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# every flag: its RunConfig field (or, for the limit study parameters,
# its params key) and its argparse settings
_FLAGS = {
    "state": dict(help="state descriptor, e.g. ho:n=3 or coherent:re=1,im=0"),
    "classical": dict(help="classical descriptor, e.g. oscillator:E=1 or box:L=1,E=1"),
    "frame": dict(type=lambda s: _parse_pair(s, "frame"), help="mu,nu"),
    "scaling": dict(type=lambda s: _parse_pair(s, "scaling"), help="s,theta"),
    "frames": dict(type=_parse_frames_list, help="semicolon-separated frames, e.g. '1,0;0,1'"),
    "hbar": dict(type=_hbar),
    "grid": dict(type=_parse_grid, help="min,max,count"),
    "target": dict(choices=tuple(_TARGETS)),
    "quick": dict(action="store_true"),
    "out": dict(help="output file or directory"),
    "hbars": dict(help="hbar sweep a:b:geometric[:count]"),
    "ns": dict(help="comma-separated quantum numbers"),
    **{k: dict(type=lambda s, k=k: _integer(s, k)) for k in ("n", "m", "momentum_check_n")},
    **{k: dict(type=lambda s, k=k: _number(s, f"{k} must be a finite number"))
       for k in ("re", "im", "q_alpha", "p_alpha", "L", "center")},
}


# Every command, described once for the command line and --config: its
# handler, its help line, the RunConfig fields it reads (its flags and the
# keys its --config document may hold; any other is rejected, not ignored)
# and the fields it cannot run without, which main checks for both.  limit
# takes its study as a positional argument and each study parameter as a
# flag that goes to params.
Command = namedtuple("Command", "run help reads needs", defaults=((),))

COMMANDS = {
    "tomogram": Command(cmd_tomogram, "evaluate one tomogram to CSV + JSON sidecar",
                        ("state", "frame", "scaling", "hbar", "grid", "out"), ("state",)),
    "limit": Command(cmd_limit, "run a quantum-classical limit study",
                     ("study", "state", "frame", "scaling", "params", "out")),
    "reconstruct": Command(cmd_reconstruct, "invert tomograms to a Wigner function or density matrix",
                           ("state", "target", "hbar", "grid", "out"), ("state", "target")),
    "compare": Command(cmd_compare, "quantum vs classical L1 table",
                       ("state", "classical", "frames", "hbar", "grid", "out"), ("state", "classical")),
    "selftest": Command(cmd_selftest, "run the invariant battery", ("quick", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: compare would read --frame as --frames
    ap = argparse.ArgumentParser(
        prog="tomolab",
        description="symplectic tomograms of classical and quantum states",
        allow_abbrev=False,
    )
    ap.add_argument("--config", help="JSON run configuration replacing all other flags")
    sub = ap.add_subparsers(dest="command")
    # let values like "-5,5,1001", "-.5" and "-inf" pass as option arguments
    matcher = re.compile(r"^-(\.?\d|inf|nan)[\w,;:.+\-]*$", re.IGNORECASE)
    ap._negative_number_matcher = matcher
    study_params = [k for k in _FLAGS if k not in RunConfig.__dataclass_fields__]
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p._negative_number_matcher = matcher
        for key in command.reads:
            if key == "study":
                p.add_argument("study", choices=STUDIES)
                continue
            for flag in study_params if key == "params" else (key,):
                p.add_argument("--" + flag.replace("_", "-"), dest=flag, **_FLAGS[flag])
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of a parsed command line: each flag given sets its
    field, and the limit study parameters go to params."""
    cfg = RunConfig(command=args.command)
    for key, value in vars(args).items():
        if value is None or key in ("config", "command"):
            continue
        if key in RunConfig.__dataclass_fields__:
            setattr(cfg, key, value)
        else:
            cfg.params[key] = value
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses across calls; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.config:
        try:
            cfg = RunConfig.from_json(args.config)
        # unreadable, malformed, unread keys or values their flags reject
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"--config: {exc}", file=sys.stderr)
            return 2
    elif not args.command:
        ap.print_help()
        return 2
    else:
        cfg = _config_from_args(args)
    command = COMMANDS[cfg.command]
    missing = [name for name in command.needs if getattr(cfg, name) is None]
    if missing:
        print(f"{cfg.command}: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        return command.run(cfg)
    # bad descriptors, frames, grids, hbar sweeps and tomogram inputs, and
    # integrals past the quadrature panel cap
    except (ValueError, argparse.ArgumentTypeError, qt.ChirpResolutionError) as exc:
        print(f"{cfg.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
