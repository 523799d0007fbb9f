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
import json
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
    _atomic_write,
    _write_csv,
    frame_from_scaling,
    normalization_residual,
    spread_atoms,
    tomogram_distance_l1,
    write_tomogram,
)

__all__ = ["main", "RunConfig", "build_parser", "run_selftest"]

# a written tomogram whose mass is further than this from 1 fails its command
TOMOGRAM_MASS_TOL = 1e-2
# largest |G| a Wigner reconstruction may leave on the edge of its frame
# box, and how often each axis may double to get there
FRAME_TAIL_TOL = 1e-3
FRAME_BOX_DOUBLINGS = 6
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
        with open(path) as fh:
            raw = json.load(fh)
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
    """Config values through their flags' parsers: the command line's checks and messages."""
    return {k: v if v is None or "type" not in _FLAGS.get(k, {}) else _FLAGS[k]["type"](_flag_text(v))
            for k, v in raw.items()}


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


def _hbar(text: str) -> float:
    """A value of hbar: only 0 < hbar < inf describes a quantum state."""
    what = "hbar must be positive and finite"
    (h,) = _fields(text, (float,), what)
    if not 0.0 < h < math.inf:
        raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
    return h


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
        n = int(parts[3])
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


def _centred_grid(m: float, n: int) -> np.ndarray:
    """n points from -m to m, exactly symmetric, whose centre point (odd n)
    is exactly 0: np.linspace can leave it at +-4e-16, a frame whose
    tomogram is a needle of width ~1e-15 that no X grid resolves."""
    h = (n - 1) / 2
    return m * (np.arange(n) - h) / h if n > 1 else np.zeros(1)


# ---------------------------------------------------------------------------
# tomogram
# ---------------------------------------------------------------------------

def cmd_tomogram(cfg: RunConfig) -> int:
    state = st.parse_state(cfg.state)
    frame = cfg.resolved_frame()
    grid = np.linspace(*cfg.grid) if cfg.grid else qt.default_x_grid(state, frame, cfg.hbar)
    tom = qt.state_tomogram(state, frame, grid, cfg.hbar)
    out = cfg.out if cfg.out.endswith(".csv") else os.path.join(cfg.out, "tomogram.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    write_tomogram(tom, out, hbar=cfg.hbar, state=state.descriptor())
    print(f"tomogram written to {out}")
    print(f"normalization residual: {normalization_residual(tom):.3e}")
    return 0 if _mass_ok("tomogram", out, tom) else 1


def _mass_ok(command: str, path: str, tom: Tomogram) -> bool:
    """Whether the tomogram written to path has its mass within
    TOMOGRAM_MASS_TOL of 1; if not, say so in one stderr line."""
    resid = normalization_residual(tom)
    if resid <= TOMOGRAM_MASS_TOL:
        return True
    print(f"{command}: {path}: normalization residual {resid:.3e} exceeds the tolerance "
          f"{TOMOGRAM_MASS_TOL:g}", file=sys.stderr)
    return False


# ---------------------------------------------------------------------------
# limit studies
# ---------------------------------------------------------------------------

def _hbars(p: dict, default: list[float]) -> list[float]:
    return parse_hbar_sequence(p["hbars"]) if "hbars" in p else default


def _ns(p: dict, default: str) -> list[int]:
    return [int(v) for v in str(p.get("ns", default)).split(",")]


def _fixed_energy(p: dict) -> tuple[float, float]:
    return float(p.get("q_alpha", 1.0)), float(p.get("p_alpha", 0.0))


def _tomogram_at(state, frame: TomographyFrame, hbar: float) -> Tomogram:
    return qt.state_tomogram(state, frame, qt.default_x_grid(state, frame, hbar), hbar)


def _planck_delta(p: dict, frame: TomographyFrame):
    state = st.parse_state(p.get("state") or "ho:n=3")
    report = lm.weak_delta_convergence(state, _hbars(p, [0.1 * 0.5 ** k for k in range(6)]),
                                       frame, center=float(p.get("center", 0.0)))
    return report, lambda h: _tomogram_at(state, frame, h)


def _interference(p: dict, frame: TomographyFrame):
    n, m = int(p.get("n", 0)), int(p.get("m", 1))
    report = lm.interference_decay(n, m, frame, _hbars(p, [1e-1 * 0.5 ** k for k in range(8)]))

    def profile(h):
        kappa = 1.0 / (h * (frame.mu ** 2 + frame.nu ** 2))
        sig = 1.0 / math.sqrt(kappa)
        x = np.linspace(-10 * sig, 10 * sig, 2001)
        return x, qt.superposition_cross_term(n, m, frame, x, h)
    return report, profile


def _cat_interference(p: dict, frame: TomographyFrame):
    alpha = complex(float(p.get("re", 1.0)), float(p.get("im", 0.0)))
    report = lm.cat_interference_planck(alpha, frame, _hbars(p, [0.1 * 0.5 ** k for k in range(4)]))
    return report, lambda h: _tomogram_at(st.CatEven(alpha), frame, h)


def _ehrenfest_coherent(p: dict, frame: TomographyFrame):
    qa, pa = _fixed_energy(p)
    report = lm.ehrenfest_coherent(qa, pa, frame, _hbars(p, [1e-2, 1e-3, 1e-4]))
    return report, lambda h: _tomogram_at(st.Coherent(complex(qa, pa) / math.sqrt(2.0 * h)), frame, h)


def _ehrenfest_cat(p: dict, frame: TomographyFrame):
    qa, pa = _fixed_energy(p)
    report = lm.ehrenfest_cat(qa, pa, frame, _hbars(p, [1e-3, 5e-4, 2.5e-4]))
    f2 = frame.mu ** 2 + frame.nu ** 2
    # the fringes between the components at +-(mu qa + nu pa) have period
    # pi hbar f2/|nu qa - mu pa| and weight exp(-(mu qa + nu pa)^2/(hbar f2)):
    # where that weight passes 1e-6 and the default grid has fewer than two
    # samples a period, it takes four
    cross = abs(frame.nu * qa - frame.mu * pa)

    def artifact(h):
        state = st.CatEven(complex(qa, pa) / math.sqrt(2.0 * h))
        x = qt.default_x_grid(state, frame, h)
        fringes = (x[-1] - x[0]) * cross / (math.pi * h * f2)
        if (frame.mu * qa + frame.nu * pa) ** 2 < h * f2 * math.log(1e6) and 2 * fringes > x.size - 1:
            x = np.linspace(x[0], x[-1], math.ceil(4 * fringes) + 1)
        return qt.state_tomogram(state, frame, x, h)
    return report, artifact


def _ehrenfest_box(p: dict, frame: TomographyFrame):
    L = float(p.get("L", 1.0))
    mom_n = int(p["momentum_check_n"]) if "momentum_check_n" in p else None
    report = lm.ehrenfest_box(L, _ns(p, "25,50,100,200"), [frame], momentum_check_n=mom_n)

    def profile(n):
        edges = np.ravel(cl.box_plateaus(frame, L))
        x = np.arange(edges.min() - 0.5, edges.max() + 0.5, abs(frame.mu) * L / n / 8.0)
        return x, np.asarray(lm.box_tomogram_stationary_phase(n, L, frame, x))
    return report, profile


def _ehrenfest_oscillator(p: dict, frame: TomographyFrame):
    def profile(n):
        x = np.linspace(-2.2, 2.2, 4001) * frame.norm()
        return x, np.asarray(qt.hermite_tomogram(n, frame, x, 1.0 / n))
    return lm.ehrenfest_oscillator(_ns(p, "25,50,100"), frame), profile


# Every limit study: the parameters it reads, the function that turns them
# and the frame into (report, artifact), and the frame it runs in without
# --frame or --scaling.  artifact(value) is the study's output at one
# parameter value: a Tomogram (written with its sidecar and mass-checked)
# or an (X, value) profile.
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
    report, artifact = run(p, frame)

    os.makedirs(cfg.out, exist_ok=True)
    on_hbar = report.parameter_name == "hbar"
    masses_ok = True
    for value in report.parameter_values:
        value = value if on_hbar else int(value)
        label = f"{value:.6e}" if on_hbar else str(value)
        path = os.path.join(cfg.out, f"{cfg.study}_{report.parameter_name}_{label}.csv")
        made = artifact(value)
        if isinstance(made, Tomogram):  # the artifacts of hbar sweeps
            write_tomogram(made, path, hbar=value, state=None)
            masses_ok = _mass_ok("limit", path, made) and masses_ok
        else:
            _write_csv(path, "X,value", made)
        report.artifacts.append(path)

    report_path = os.path.join(cfg.out, f"{cfg.study}_report.json")
    _atomic_write(report_path, report.to_json() + "\n")
    print(f"report written to {report_path}")
    print(f"verdict: {report.verdict}")
    if report.fitted_exponent is not None:
        print(f"fitted exponent: {report.fitted_exponent:.4f} (R^2 = {report.r_squared:.5f})")
    return 0 if masses_ok else 1


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def cmd_reconstruct(cfg: RunConfig) -> int:
    state = st.parse_state(cfg.state)
    hbar = cfg.hbar
    os.makedirs(cfg.out, exist_ok=True)
    report: dict = {"state": state.descriptor(), "hbar": hbar, "target": cfg.target}

    if cfg.target == "wigner":
        qlo, qhi = st.position_extent(state, hbar, tails=4.0)
        plo, phi = st.momentum_extent(state, hbar, tails=4.0)
        qext = max(abs(qlo), abs(qhi))
        pext = max(abs(plo), abs(phi))
        # the characteristic function of |n> decays like L_n(lam) e^{-lam/2}
        # with lam = (mu^2 sq^2 + nu^2 sp^2); size the frame box so the
        # discarded tail is ~1e-6
        lam_cut = 32.0 + 8.0 * state.max_order()
        sq, sp = st.natural_scales(state, hbar)
        mu_max = math.sqrt(lam_cut) / (sq / math.sqrt(2.0))
        nu_max = math.sqrt(lam_cut) / (sp / math.sqrt(2.0))
        # double each axis whose edge frames still carry |G| over
        # FRAME_TAIL_TOL: a box eigenstate's G decays only like 1/mu^2
        for _ in range(FRAME_BOX_DOUBLINGS + 1):
            fam = qt.build_state_family(
                state, hbar, _centred_grid(mu_max, 2 * int(math.ceil(mu_max * qext / 2.5)) + 1),
                _centred_grid(nu_max, 2 * int(math.ceil(nu_max * pext / 2.5)) + 1), None)
            G = np.abs(fam.values)
            wide_mu = max(G[0].max(), G[-1].max()) > FRAME_TAIL_TOL
            wide_nu = max(G[:, 0].max(), G[:, -1].max()) > FRAME_TAIL_TOL
            if not (wide_mu or wide_nu):
                break
            mu_max *= 2.0 if wide_mu else 1.0
            nu_max *= 2.0 if wide_nu else 1.0
        qg = np.linspace(*cfg.grid) if cfg.grid else np.linspace(-0.6 * qext, 0.6 * qext, 41)
        pg = qg * pext / qext
        wrec, resid = qt.wigner_from_tomogram_grid(fam, qg, pg, hbar)
        out_csv = os.path.join(cfg.out, "wigner.csv")
        _write_csv(out_csv, "q,p,W",
                   (np.repeat(qg, pg.size), np.tile(pg, qg.size), wrec.values))
        report["imag_residual"] = resid
        report["frame_box_tail"] = fam.edge_tail()
        exact = state.exact_wigner(hbar)
        if exact is not None:
            ref = exact(pg[None, :], qg[:, None])
            report["max_error_vs_exact"] = float(np.max(np.abs(wrec.values - ref)))
        print(f"wigner grid written to {out_csv}")
    elif cfg.target == "density":
        xs = (np.linspace(*cfg.grid) if cfg.grid
              else np.linspace(*st.position_extent(state, hbar, tails=3.0), 31))
        nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
        sq, sp = st.natural_scales(state, hbar)
        mu_max = 6.0 / sq
        n_mu = 2 * int(math.ceil(mu_max * max(np.abs(xs)) / 2.5)) + 1
        slices = qt.build_state_slices(state, hbar, nus, _centred_grid(mu_max, n_mu), None)
        rho, herm = qt.density_grid_from_tomogram(slices, xs, hbar)
        out_csv = os.path.join(cfg.out, "density.csv")
        _write_csv(out_csv, "x,xprime,re,im",
                   (np.repeat(xs, xs.size), np.tile(xs, xs.size), rho.real, rho.imag))
        report["hermiticity_residual"] = herm
        report["frame_box_tail"] = slices.edge_tail()
        diag = np.real(np.diag(rho))
        report["trace"] = float(np.trapezoid(diag, xs))
        if not state.sampled:
            psi = st.position_wavefunction(state, hbar)(xs)
            report["max_error_vs_exact"] = float(np.max(np.abs(rho - np.outer(psi, psi.conj()))))
        print(f"density grid written to {out_csv}")
    else:
        print(f"unknown reconstruction target {cfg.target!r} (wigner | density)", file=sys.stderr)
        return 2

    rep_path = os.path.join(cfg.out, "reconstruct_report.json")
    _atomic_write(rep_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    err = report.get("max_error_vs_exact")
    if err is None:
        return 0
    print(f"max error vs exact: {err:.3e}")
    if err <= RECONSTRUCT_ERROR_TOL:
        return 0
    print(f"reconstruct: {out_csv}: max error vs exact {err:.3e} exceeds the tolerance "
          f"{RECONSTRUCT_ERROR_TOL:g}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

class CompareInputError(ValueError):
    """compare inputs that the chosen comparison cannot honour."""


def _require_unit_energy(kind: str, **values: tuple[float, float]) -> None:
    for name, (given, expected) in values.items():
        if abs(given - expected) > 1e-9 * abs(expected):
            raise CompareInputError(f"the windowed {kind} comparison holds at unit energy only: "
                                    f"it needs {name} = {expected!r}, got {given!r}")


# the note of a plain-L1 row; the orbit models take the default
_PLAIN_NOTES = {cl.DensityGrid: "plain L1",
                cl.RestPoint: "plain L1 (point state spread to its cell)"}


def _compare_row(state, model, frame: TomographyFrame, hbar: float,
                 grid: np.ndarray | None) -> tuple[float, str]:
    """One quantum-vs-classical L1 distance with the appropriate
    oscillation handling and exclusion zones.

    Eigenstate rows against matching orbits are compared after local
    averaging (turning zones / support edges excluded); those rows hold
    at unit energy only, so other hbar, E, varpi or L values raise
    CompareInputError.  Every other row is the plain L1 distance to the
    model's time average with its atoms spread to their cells; a `point`
    model is at rest, so its average is the unit atom at mu q0 + nu p0.
    """
    pair = (type(state), type(model))
    if pair == (st.HOEigen, cl.OscillatorTrajectory):
        _require_unit_energy("oscillator", hbar=(hbar, 1.0 / state.n), E=(model.E, 1.0),
                             varpi=(state.varpi, 1.0))
        d = lm.oscillator_windowed_distance(state.n, frame)
        return d, "windowed; turning zones excluded"
    if pair == (st.BoxEigen, cl.BoxTrajectory):
        _require_unit_energy("box", L=(state.L, model.L), E=(model.E, 1.0),
                             hbar=(hbar, qt.ehrenfest_hbar(state.n, model.L)))
        if frame.mu == 0.0 or frame.nu == 0.0:
            return math.nan, "frame needs mu != 0 and nu != 0"
        d = lm.box_windowed_distance(state.n, model.L, frame)
        return d, "windowed; support edges excluded"
    if frame.is_zero:
        return math.nan, "zero frame not comparable"
    if grid is None:
        grid = qt.default_x_grid(state, frame, hbar, count=4001)
    tomq = qt.state_tomogram(state, frame, grid, hbar)
    tomc = spread_atoms(cl.time_averaged_tomogram(model, frame, grid))
    note = _PLAIN_NOTES.get(type(model), "plain L1 (orbit average; atoms spread to cells)")
    return tomogram_distance_l1(tomq, tomc), note


def cmd_compare(cfg: RunConfig) -> int:
    state = st.parse_state(cfg.state)
    model = cl.parse_classical(cfg.classical)
    frames = [TomographyFrame(*f) for f in cfg.frames] or [TomographyFrame(1.0, 0.0)]
    rows = []
    notes = []
    grid = np.linspace(*cfg.grid) if cfg.grid else None
    for fr in frames:
        try:
            d, note = _compare_row(state, model, fr, cfg.hbar, grid)
        except CompareInputError:
            raise  # the whole command fails (exit 2), not just this row
        except Exception as exc:  # report per-row failures, keep going
            d, note = math.nan, f"failed: {exc}"
        rows.append((fr.mu, fr.nu, d))
        notes.append(note)
        print(f"frame ({fr.mu:g}, {fr.nu:g}): L1 = {d:.6g}   [{note}]")
    os.makedirs(cfg.out, exist_ok=True)
    out_csv = os.path.join(cfg.out, "compare.csv")
    _write_csv(out_csv, "mu,nu,l1_distance", zip(*rows))
    meta = {
        "state": state.descriptor(),
        "classical": cfg.classical,
        "hbar": cfg.hbar,
        "notes": notes,
    }
    _atomic_write(os.path.join(cfg.out, "compare.json"),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"table written to {out_csv}")
    return 0


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

    # Hermite orthonormality by quadrature
    nmax = 8 if quick else 20
    x = np.linspace(-25, 25, 8001)
    phis = np.array([sf.hermite_phi(k, x) for k in range(nmax + 1)])
    gram = (phis * np.concatenate(([0.5], np.ones(x.size - 2), [0.5]))) @ phis.T * (x[1] - x[0])
    check("hermite orthonormality", float(np.max(np.abs(gram - np.eye(nmax + 1)))), 1e-8)

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

        gs = st.HOEigen(0)
        mu_g = np.linspace(-8, 8, 33)
        fam = qt.build_state_family(gs, 1.0, mu_g, mu_g, None)
        qg = np.linspace(-3, 3, 31)
        wrec, _ = qt.wigner_from_tomogram_grid(fam, qg, qg, 1.0)
        wref = gs.exact_wigner(1.0)(qg[None, :], qg[:, None])
        check("wigner round trip", float(np.max(np.abs(wrec.values - wref))), 1e-3)

        cst = st.Coherent(1 + 0j)
        xs = np.linspace(-3, 3, 25)
        nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel(), 12))
        slices = qt.build_state_slices(cst, 1.0, nus, np.linspace(-8, 8, 41), None)
        rho_rec, _ = qt.density_grid_from_tomogram(slices, xs, 1.0)
        psi = st.position_wavefunction(cst, 1.0)(xs)
        check("density round trip", float(np.max(np.abs(rho_rec - np.outer(psi, psi.conj())))), 1e-3)

    # special-function spot checks
    # the series just inside each seam against the expansion on it
    for side, seam in (("positive", sf.AIRY_SWITCH_POS), ("negative", sf.AIRY_SWITCH_NEG)):
        check(f"airy seam ({side})", abs(sf.airy_ai(seam) - sf.airy_ai(math.nextafter(seam, 0.0))), 1e-9)
    check("hermite ground value", abs(sf.hermite_phi(0, 0.0) - math.pi ** -0.25), 1e-14)
    check("log_gamma(5) = log 24", abs(sf.log_gamma(5.0) - math.log(24.0)), 1e-12)
    # |k theta| <= 300 pi keeps the direct sum's own rounding near 1e-13
    theta = rng.uniform(-math.pi, math.pi, 200)
    c = rng.normal(size=200) + 1j * rng.normal(size=200)
    direct = np.exp(1j * np.outer(np.arange(300), theta)) @ c
    check("uniform sum",
          float(np.max(np.abs(sf.uniform_sum(c, theta, 300) - direct))) / float(np.sum(np.abs(c))), 1e-12)

    # characteristic functions against the trapezoid of each frame's
    # tomogram: the oscillator closed forms, and the box closed form and
    # sampled-state overlap quadrature; the default box grid holds the
    # tomogram mass to 1e-4 (BoxEigen.x_extent), which bounds that reference
    mu_c, nu_c = np.array([0.8, -1.1]), np.array([-0.5, 0.0, 1.2])
    xp = np.linspace(-6.0, 6.0, 201)
    psi = np.exp(-(xp - 0.4) ** 2 / 2.0 + 0.6j * xp)
    packet = st.CustomGrid(xp, psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, xp)))
    for name, states, threshold in (
            ("characteristic closed form", (st.CatOdd(0.8 + 0.3j), st.Superposition(1, 4)), 1e-10),
            ("characteristic overlap", (st.BoxEigen(2, 1.5), packet), 1e-4)):
        worst = 0.0
        for state in states:
            G = qt.build_state_family(state, 0.7, mu_c, nu_c, None).values
            for i, j in np.ndindex(G.shape):
                fr = TomographyFrame(mu_c[i], nu_c[j])
                x = qt.default_x_grid(state, fr, 0.7, count=4001)
                ref = np.trapezoid(qt.state_tomogram(state, fr, x, 0.7).values * np.exp(1j * x), x)
                worst = max(worst, abs(G[i, j] - ref))
        check(name, worst, threshold)

    # determinism of serialized output
    import hashlib
    import tempfile

    state = st.Coherent(0.5 + 0.5j)
    fr = TomographyFrame(0.6, 0.8)
    g = qt.default_x_grid(state, fr, 1.0, count=501)
    digests = []
    for _ in range(2):
        tom = qt.state_tomogram(state, fr, g, 1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_tomogram(tom, path, hbar=1.0, state="coherent:re=0.5,im=0.5")
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(os.path.join(tmp, "t.json"), "rb") as fh:
                blob += fh.read()
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
        os.makedirs(out, exist_ok=True)
        payload = [
            {"check": name, "value": value, "threshold": threshold, "passed": passed}
            for name, value, threshold, passed in rows
        ]
        _atomic_write(os.path.join(out, "selftest.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    "target": dict(choices=("wigner", "density")),
    "quick": dict(action="store_true"),
    "out": dict(help="output file or directory"),
    "hbars": dict(help="hbar sweep a:b:geometric[:count]"),
    "ns": dict(help="comma-separated quantum numbers"),
    **dict.fromkeys(("n", "m", "momentum_check_n"), dict(type=int)),
    **dict.fromkeys(("re", "im", "q_alpha", "p_alpha", "L", "center"), dict(type=float)),
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
    # let values like "-5,5,1001" pass as option arguments
    matcher = re.compile(r"^-\d+(\.\d+)?([,:eE+\-.\d]*)$")
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
    # bad descriptors, frames, grids, hbar sweeps and tomogram inputs
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"{cfg.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
