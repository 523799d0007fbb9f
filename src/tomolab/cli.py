"""Command-line front end.

Subcommands: tomogram (evaluate one tomogram to CSV+JSON), limit (run a
quantum-classical limit study), reconstruct (invert a tomogram family
back to a Wigner function or density matrix), compare (quantum vs
classical L1 table), selftest (invariant battery).  All outputs are
plain CSV/JSON written atomically with 17-significant-digit floats, so a
rerun with the same configuration is byte-identical; the environment
variable TOMOLAB_THREADS caps study parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
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

STUDIES = (
    "planck-delta",
    "interference",
    "cat-interference",
    "ehrenfest-coherent",
    "ehrenfest-cat",
    "ehrenfest-box",
    "ehrenfest-oscillator",
)

# a written tomogram whose mass is further than this from 1 fails its command
TOMOGRAM_MASS_TOL = 1e-2


@dataclass
class RunConfig:
    """One CLI invocation; mirrors the flag set so a JSON document can
    replay a run via --config."""

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
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        if cfg.frame is not None:
            cfg.frame = tuple(cfg.frame)
        if cfg.scaling is not None:
            cfg.scaling = tuple(cfg.scaling)
        if cfg.grid is not None:
            cfg.grid = (float(cfg.grid[0]), float(cfg.grid[1]), int(cfg.grid[2]))
        cfg.frames = [tuple(f) for f in cfg.frames]
        return cfg


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{what} must be two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be min,max,count, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2:
        raise argparse.ArgumentTypeError("grid count must be at least 2")
    if hi <= lo:
        raise argparse.ArgumentTypeError("grid needs max > min")
    return lo, hi, n


def parse_hbar_sequence(text: str) -> list[float]:
    """`a:b:geometric[:count]` - from a toward b; with no count the ratio
    is 1/2 and the sweep stops at the last value >= min(a, b)."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or parts[2] != "geometric":
        raise argparse.ArgumentTypeError(
            f"hbar sweep must look like a:b:geometric[:count], got {text!r}"
        )
    a, b = float(parts[0]), float(parts[1])
    if a <= 0 or b <= 0:
        raise argparse.ArgumentTypeError("hbar endpoints must be positive")
    if len(parts) == 4:
        n = int(parts[3])
        if n < 2:
            raise argparse.ArgumentTypeError("hbar sweep needs at least 2 points")
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


def _grid_from_config(cfg: RunConfig, state, frame: TomographyFrame) -> np.ndarray:
    if cfg.grid is not None:
        lo, hi, n = cfg.grid
        return np.linspace(lo, hi, n)
    return qt.default_x_grid(state, frame, cfg.hbar)


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
    grid = _grid_from_config(cfg, state, frame)
    tom = qt.state_tomogram(state, frame, grid, cfg.hbar)
    out = cfg.out if cfg.out.endswith(".csv") else os.path.join(cfg.out, "tomogram.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    write_tomogram(tom, out, hbar=cfg.hbar, state=st.state_descriptor(state))
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

def _study_artifacts(cfg: RunConfig, report: lm.LimitReport, state_for_param) -> bool:
    """Write one tomogram CSV per study point and attach the paths;
    False when any written tomogram fails its mass check."""
    os.makedirs(cfg.out, exist_ok=True)
    ok = True
    for value in report.parameter_values:
        tom, label = state_for_param(value)
        if tom is None:
            continue
        path = os.path.join(cfg.out, f"{report.study}_{label}.csv")
        write_tomogram(tom, path, hbar=value if report.parameter_name == "hbar" else None,
                       state=None)
        report.artifacts.append(path)
        ok = _mass_ok("limit", path, tom) and ok
    return ok


def cmd_limit(cfg: RunConfig) -> int:
    if cfg.study not in STUDIES:
        print(f"unknown study {cfg.study!r}; valid studies: {', '.join(STUDIES)}", file=sys.stderr)
        return 2
    frame = cfg.resolved_frame() if (cfg.frame or cfg.scaling) else TomographyFrame(1.0, 0.0)
    p = cfg.params
    hbars = parse_hbar_sequence(p["hbars"]) if "hbars" in p else None
    masses_ok = True

    def tom_for_hbar(state_of):
        def build(h):
            state = state_of(h)
            g = qt.default_x_grid(state, frame, h)
            return qt.state_tomogram(state, frame, g, h), f"hbar_{h:.6e}"
        return build

    if cfg.study == "planck-delta":
        state = st.parse_state(p.get("state") or cfg.state or "ho:n=3")
        hbars = hbars or [0.1 * 0.5 ** k for k in range(6)]
        center = float(p.get("center", 0.0))
        report = lm.weak_delta_convergence(state, hbars, frame, center=center)
        masses_ok = _study_artifacts(cfg, report, tom_for_hbar(lambda h: state))
    elif cfg.study == "interference":
        n, m = int(p.get("n", 0)), int(p.get("m", 1))
        hbars = hbars or [1e-1 * 0.5 ** k for k in range(8)]
        report = lm.interference_decay(n, m, frame, hbars)
        os.makedirs(cfg.out, exist_ok=True)
        for h in hbars:
            kappa = 1.0 / (h * (frame.mu ** 2 + frame.nu ** 2))
            sig = 1.0 / math.sqrt(kappa)
            x = np.linspace(-10 * sig, 10 * sig, 2001)
            cross = qt.superposition_cross_term(n, m, frame, x, h)
            path = os.path.join(cfg.out, f"interference_hbar_{h:.6e}.csv")
            _write_csv(path, "X,value", (x, cross))
            report.artifacts.append(path)
    elif cfg.study == "cat-interference":
        alpha = complex(float(p.get("re", 1.0)), float(p.get("im", 0.0)))
        hbars = hbars or [0.1 * 0.5 ** k for k in range(4)]
        report = lm.cat_interference_planck(alpha, frame, hbars)
        masses_ok = _study_artifacts(cfg, report, tom_for_hbar(lambda h: st.CatEven(alpha)))
    elif cfg.study == "ehrenfest-coherent":
        qa, pa = float(p.get("q_alpha", 1.0)), float(p.get("p_alpha", 0.0))
        hbars = hbars or [1e-2, 1e-3, 1e-4]
        report = lm.ehrenfest_coherent(qa, pa, frame, hbars)
        masses_ok = _study_artifacts(cfg, report, tom_for_hbar(
            lambda h: st.Coherent(complex(qa, pa) / math.sqrt(2.0 * h))))
    elif cfg.study == "ehrenfest-cat":
        qa, pa = float(p.get("q_alpha", 1.0)), float(p.get("p_alpha", 0.0))
        hbars = hbars or [1e-3, 5e-4, 2.5e-4]
        report = lm.ehrenfest_cat(qa, pa, frame, hbars)
        masses_ok = _study_artifacts(cfg, report, tom_for_hbar(
            lambda h: st.CatEven(complex(qa, pa) / math.sqrt(2.0 * h))))
    elif cfg.study == "ehrenfest-box":
        ns = [int(v) for v in str(p.get("ns", "25,50,100,200")).split(",")]
        L = float(p.get("L", 1.0))
        mom_n = int(p["momentum_check_n"]) if "momentum_check_n" in p else None
        report = lm.ehrenfest_box(L, ns, [frame], momentum_check_n=mom_n)
        os.makedirs(cfg.out, exist_ok=True)
        for n in ns:
            period = abs(frame.mu) * L / n
            x = np.arange(-0.5 - math.sqrt(2) * abs(frame.nu),
                          abs(frame.mu) * L + math.sqrt(2) * abs(frame.nu) + 0.5,
                          period / 8.0)
            w = np.asarray(lm.box_tomogram_stationary_phase(n, L, frame, x))
            path = os.path.join(cfg.out, f"ehrenfest-box_n_{n}.csv")
            _write_csv(path, "X,value", (x, w))
            report.artifacts.append(path)
    else:  # ehrenfest-oscillator
        ns = [int(v) for v in str(p.get("ns", "25,50,100")).split(",")]
        report = lm.ehrenfest_oscillator(ns, frame)
        os.makedirs(cfg.out, exist_ok=True)
        for n in ns:
            x = np.linspace(-2.2, 2.2, 4001) * frame.norm()
            w = np.asarray(qt.hermite_tomogram(n, frame, x, 1.0 / n))
            path = os.path.join(cfg.out, f"ehrenfest-oscillator_n_{n}.csv")
            _write_csv(path, "X,value", (x, w))
            report.artifacts.append(path)

    os.makedirs(cfg.out, exist_ok=True)
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
    report: dict = {"state": st.state_descriptor(state), "hbar": hbar, "target": cfg.target}

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
        n_mu = 2 * int(math.ceil(mu_max * qext / 2.5)) + 1
        n_nu = 2 * int(math.ceil(nu_max * pext / 2.5)) + 1
        xmax = mu_max * qext + nu_max * pext
        xg = np.linspace(-xmax, xmax, max(1201, int(xmax / 0.05)))
        fam = qt.build_state_family(state, hbar, _centred_grid(mu_max, n_mu),
                                    _centred_grid(nu_max, n_nu), xg)
        if cfg.grid is not None:
            lo, hi, n = cfg.grid
            qg = np.linspace(lo, hi, n)
        else:
            qg = np.linspace(-0.6 * qext, 0.6 * qext, 41)
        pg = qg * pext / qext
        wrec, resid = qt.wigner_from_tomogram_grid(fam, qg, pg, hbar)
        out_csv = os.path.join(cfg.out, "wigner.csv")
        _write_csv(out_csv, "q,p,W",
                   (np.repeat(qg, pg.size), np.tile(pg, qg.size), wrec.values))
        report["imag_residual"] = resid
        exact = qt.exact_wigner(state, hbar)
        if exact is not None:
            ref = exact(pg[None, :], qg[:, None])
            report["max_error_vs_exact"] = float(np.max(np.abs(wrec.values - ref)))
        print(f"wigner grid written to {out_csv}")
    elif cfg.target == "density":
        if cfg.grid is not None:
            lo, hi, n = cfg.grid
            xs = np.linspace(lo, hi, n)
        else:
            qlo, qhi = st.position_extent(state, hbar, tails=3.0)
            xs = np.linspace(qlo, qhi, 31)
        nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel() / hbar, 12))
        sq, sp = st.natural_scales(state, hbar)
        mu_max = 6.0 / sq
        n_mu = 2 * int(math.ceil(mu_max * max(np.abs(xs)) / 2.5)) + 1
        plo, phi = st.momentum_extent(state, hbar, tails=4.0)
        pext = max(abs(plo), abs(phi))
        xmax = mu_max * max(np.abs(xs)) + float(np.max(np.abs(nus))) * pext + 8.0 * math.sqrt(hbar)
        xg = np.linspace(-xmax, xmax, max(2401, int(xmax / 0.05)))
        slices = qt.build_state_slices(state, hbar, nus, _centred_grid(mu_max, n_mu), xg)
        rho, herm = qt.density_grid_from_tomogram(slices, xs, hbar)
        out_csv = os.path.join(cfg.out, "density.csv")
        _write_csv(out_csv, "x,xprime,re,im",
                   (np.repeat(xs, xs.size), np.tile(xs, xs.size), rho.real, rho.imag))
        report["hermiticity_residual"] = herm
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
    if "max_error_vs_exact" in report:
        print(f"max error vs exact: {report['max_error_vs_exact']:.3e}")
    return 0


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


def _compare_row(state, model, frame: TomographyFrame, hbar: float,
                 grid: np.ndarray | None) -> tuple[float, str]:
    """One quantum-vs-classical L1 distance with the appropriate
    oscillation handling and exclusion zones.

    Eigenstate rows against matching orbits are compared after local
    averaging (turning zones / support edges excluded); those rows hold
    at unit energy only, so other hbar, E, varpi or L values raise
    CompareInputError.  A `point` classical model stands for the static
    phase-space point (q0, p0), whose tomogram is the delta atom at
    mu q0 + nu p0 spread over its grid cell.
    """
    if isinstance(state, st.HOEigen) and isinstance(model, cl.OscillatorTrajectory):
        _require_unit_energy("oscillator", hbar=(hbar, 1.0 / state.n), E=(model.E, 1.0),
                             varpi=(state.varpi, 1.0))
        d = lm.oscillator_windowed_distance(state.n, frame)
        return d, "windowed; turning zones excluded"
    if isinstance(state, st.BoxEigen) and isinstance(model, cl.BoxTrajectory):
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
    if isinstance(model, cl.DensityGrid):
        tomc = cl.radon_density(model, frame, grid)
        note = "plain L1"
    elif isinstance(model, cl.PointTrajectory):
        atom = cl.trajectory_tomogram(model, 0.0, frame)
        tomc = spread_atoms(Tomogram(frame, grid, np.zeros_like(grid), (atom,)))
        note = "plain L1 (point state spread to its cell)"
    else:
        tomc = spread_atoms(cl.time_averaged_tomogram(model, frame, grid))
        note = "plain L1 (orbit average; atoms spread to cells)"
    return tomogram_distance_l1(tomq, tomc), note


def cmd_compare(cfg: RunConfig) -> int:
    state = st.parse_state(cfg.state)
    model = cl.parse_classical(cfg.classical)
    frames = [TomographyFrame(*f) for f in cfg.frames] or [TomographyFrame(1.0, 0.0)]
    rows = []
    notes = []
    grid = np.linspace(*cfg.grid) if cfg.grid is not None else None
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
        "state": st.state_descriptor(state),
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
        lo, hi = qt.box_x_extent(st.BoxEigen(nbox, 1.0), fr, hb, mass_tol=2e-4)
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
        xg = np.linspace(-40, 40, 1601)
        fam = qt.build_state_family(gs, 1.0, mu_g, mu_g, xg)
        qg = np.linspace(-3, 3, 31)
        wrec, _ = qt.wigner_from_tomogram_grid(fam, qg, qg, 1.0)
        wref = qt.exact_wigner(gs, 1.0)(qg[None, :], qg[:, None])
        check("wigner round trip", float(np.max(np.abs(wrec.values - wref))), 1e-3)

        cst = st.Coherent(1 + 0j)
        xs = np.linspace(-3, 3, 25)
        nus = np.unique(np.round((xs[:, None] - xs[None, :]).ravel(), 12))
        slices = qt.build_state_slices(cst, 1.0, nus, np.linspace(-8, 8, 41),
                                       np.linspace(-60, 60, 2401))
        rho_rec, _ = qt.density_grid_from_tomogram(slices, xs, 1.0)
        psi = st.position_wavefunction(cst, 1.0)(xs)
        check("density round trip", float(np.max(np.abs(rho_rec - np.outer(psi, psi.conj())))), 1e-3)

    # special-function spot checks
    check("airy seam (positive)",
          abs(sf._airy_series(sf.AIRY_SWITCH_POS) - sf._airy_asym_pos(sf.AIRY_SWITCH_POS)), 1e-9)
    check("airy seam (negative)",
          abs(sf._airy_series(sf.AIRY_SWITCH_NEG) - sf._airy_asym_neg(sf.AIRY_SWITCH_NEG)), 1e-9)
    check("hermite ground value", abs(sf.hermite_phi(0, 0.0) - math.pi ** -0.25), 1e-14)
    check("log_gamma(5) = log 24", abs(sf.log_gamma(5.0) - math.log(24.0)), 1e-12)

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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tomolab",
        description="symplectic tomograms of classical and quantum states",
    )
    ap.add_argument("--config", help="JSON run configuration replacing all other flags")
    sub = ap.add_subparsers(dest="command")

    def common(p, state=True):
        if state:
            p.add_argument("--state", help="state descriptor, e.g. ho:n=3 or coherent:re=1,im=0")
        p.add_argument("--frame", type=lambda s: _parse_pair(s, "frame"), help="mu,nu")
        p.add_argument("--scaling", type=lambda s: _parse_pair(s, "scaling"), help="s,theta")
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--grid", type=_parse_grid, help="min,max,count")
        p.add_argument("--out", default=".", help="output file or directory")

    p = sub.add_parser("tomogram", help="evaluate one tomogram to CSV + JSON sidecar")
    common(p)

    p = sub.add_parser("limit", help="run a quantum-classical limit study")
    p.add_argument("study", choices=STUDIES)
    common(p)
    p.add_argument("--hbars", help="hbar sweep a:b:geometric[:count]")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--re", type=float)
    p.add_argument("--im", type=float)
    p.add_argument("--q-alpha", type=float, dest="q_alpha")
    p.add_argument("--p-alpha", type=float, dest="p_alpha")
    p.add_argument("--ns", help="comma-separated quantum numbers")
    p.add_argument("--L", type=float)
    p.add_argument("--center", type=float)
    p.add_argument("--momentum-check-n", type=int, dest="momentum_check_n")

    p = sub.add_parser("reconstruct", help="invert tomograms to a Wigner function or density matrix")
    common(p)
    p.add_argument("--target", choices=("wigner", "density"), required=True)

    p = sub.add_parser("compare", help="quantum vs classical L1 table")
    common(p)
    p.add_argument("--classical", required=True,
                   help="classical descriptor, e.g. oscillator:E=1 or box:L=1,E=1")
    p.add_argument("--frames", type=_parse_frames_list, default=[],
                   help="semicolon-separated frames, e.g. '1,0;0,1'")

    p = sub.add_parser("selftest", help="run the invariant battery")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", default=".")

    # let values like "-5,5,1001" pass as option arguments
    matcher = re.compile(r"^-\d+(\.\d+)?([,:eE+\-.\d]*)$")
    ap._negative_number_matcher = matcher
    for action in ap._subparsers._group_actions:
        for p in action.choices.values():
            p._negative_number_matcher = matcher
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("state", "classical", "frame", "scaling", "hbar", "grid", "target", "out"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "frames", None):
        cfg.frames = args.frames
    if args.command == "limit":
        cfg.study = args.study
        for key in ("hbars", "n", "m", "re", "im", "q_alpha", "p_alpha", "ns", "L",
                    "center", "momentum_check_n"):
            val = getattr(args, key, None)
            if val is not None:
                cfg.params[key] = val
    if args.command == "selftest":
        cfg.quick = args.quick
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        cfg = RunConfig.from_json(args.config)
    else:
        if not args.command:
            ap.print_help()
            return 2
        cfg = _config_from_args(args)
    handlers = {
        "tomogram": cmd_tomogram,
        "limit": cmd_limit,
        "reconstruct": cmd_reconstruct,
        "compare": cmd_compare,
        "selftest": cmd_selftest,
    }
    if cfg.command not in handlers:
        print(f"unknown command {cfg.command!r}", file=sys.stderr)
        return 2
    try:
        return handlers[cfg.command](cfg)
    except ValueError as exc:  # bad descriptors, frames, grids and tomogram inputs
        print(f"{cfg.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
