"""Seeded job streams of the three workloads: forward, reconstruct, studies.

A workload is a list of rounds, and every round holds the same mix of job
kinds.  Each parameter of a kind is drawn by stratified sampling over the
whole run: one draw in each equal-width stratum of its range.  The seed
places each draw inside its stratum and picks the cost-neutral parameters
(phases, signs, parities, the job order); which stratum goes to which job
follows a fixed layout, the same for every seed.  Two seeds thus give
different inputs with the same pairing of job sizes, which keeps the
figures steady from seed to seed.  The program sees only the generated inputs: command lines, the
custom-state CSV files written here, and arrays handed to library calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck

# Known defect bounds (see README.md).  Above these the seed returns wrong
# answers without failing, so the job streams stop below them.
HO_N_MAX = 700           # hermite_phi underflow loses mass for n >~ 720
OSCILLATOR_STUDY_N_MAX = 700
DENSITY_FOCK_N_MAX = 1   # default density reconstruct misses 1e-3 for n >= 2
TIME_AVERAGE_A2_MAX = 0.1  # generic time average loses mass at near-inflections


@dataclass
class Job:
    kind: str
    label: str                                   # command line or library call
    run: Callable[[str], object]                 # timed: run(out_dir) -> result
    check: Callable[[str, object], str | None]   # untimed: failure reason or None


LAYOUT_SEED = 20240915


class Draws:
    """n stratified draws per parameter: one value in each of n equal-width
    strata of the range.  `rng` (seeded) places the values inside their
    strata; `layout` (fixed) orders the strata."""

    def __init__(self, rng: np.random.Generator, layout: np.random.Generator, n: int):
        self.rng = rng
        self.layout = layout
        self.n = n

    def uniform(self, lo: float, hi: float) -> np.ndarray:
        u = (self.layout.permutation(self.n) + self.rng.random(self.n)) / self.n
        return lo + (hi - lo) * u

    def log(self, lo: float, hi: float) -> np.ndarray:
        return np.exp(self.uniform(math.log(lo), math.log(hi)))

    def ints(self, lo: int, hi: int) -> np.ndarray:
        return np.minimum(np.floor(self.uniform(lo, hi + 1)), hi).astype(int)

    def cycle(self, values) -> list:
        """Each value equally often (up to the remainder), in layout order."""
        reps = -(-self.n // len(values))
        return list(self.layout.permutation(np.array(list(values) * reps, dtype=object))[: self.n])


def cli_call(argv: list[str]) -> tuple[int, str]:
    """tomolab.cli.main in-process; returns (exit code, captured output)."""
    from tomolab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_job(kind: str, argv: list[str], check: Callable[[str], str | None],
            out_file: str | None = None) -> Job:
    """A CLI job writing into its own output directory; `check(out_dir)` runs
    only when the command exited 0."""

    def run(out: str):
        return cli_call(argv + ["--out", os.path.join(out, out_file) if out_file else out])

    def verify(out: str, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}: {(text.strip().splitlines() or [''])[-1]}"
        return check(out)

    return Job(kind, "tomolab " + " ".join(argv), run, verify)


def fmt(v: float) -> str:
    return repr(float(v))


def grid_arg(lo: float, hi: float, count: int) -> str:
    return f"{lo:.12g},{hi:.12g},{int(count)}"


def frame_of(s: float, theta: float) -> tuple[float, float]:
    """(mu, nu) of tomolab's canonical scaling parametrization."""
    return s * math.cos(theta), math.sin(theta) / s


class Frames:
    """Frames for one job kind: with `marginals`, every fifth job takes an
    exact marginal frame ((1,0) or (0,1), alternately); the rest are
    `--scaling s,theta` draws with |mu/nu| = s^2 |cot theta| inside `ratio`.
    The ratio bounds the phase the quadrature routes must resolve and keeps
    the studies off their mu = 0 and nu = 0 edge cases.  The seed picks the
    quadrant."""

    def __init__(self, d: Draws, ratio: tuple[float, float] = (0.0, math.inf),
                 marginals: bool = True):
        self.s = d.log(0.5, 2.0)
        self.u = d.uniform(0.0, 1.0)
        self.quadrant = d.rng.integers(0, 4, d.n)
        self.ratio = ratio
        self.marginals = marginals

    def __call__(self, i: int) -> tuple[list[str], float, float]:
        if self.marginals and i % 5 == 2:
            mu, nu = ((1.0, 0.0), (0.0, 1.0))[(i // 5) % 2]
            return ["--frame", f"{mu:g},{nu:g}"], mu, nu
        s = float(self.s[i])
        lo, hi = math.atan2(s * s, self.ratio[1]), math.atan2(s * s, self.ratio[0])
        t = lo + float(self.u[i]) * (hi - lo)  # in [0, pi/2]
        theta = (t, math.pi - t, math.pi + t, 2.0 * math.pi - t)[self.quadrant[i]]
        mu, nu = frame_of(s, theta)
        return ["--scaling", f"{fmt(s)},{fmt(theta)}"], mu, nu


def spread(frac: float, lo: int, hi: int) -> int:
    return int(round(lo + frac * (hi - lo)))


def interleave(rng: np.random.Generator, rounds: int, per_kind: list[list[Job]]) -> list[list[Job]]:
    """Deal each kind's jobs evenly over the rounds (job k of n to round
    k * rounds // n), shuffled within a round."""
    out = [[] for _ in range(rounds)]
    for kind_jobs in per_kind:
        for k, job in enumerate(kind_jobs):
            out[k * rounds // len(kind_jobs)].append(job)
    return [[jobs[k] for k in rng.permutation(len(jobs))] for jobs in out]


# ---------------------------------------------------------------------------
# forward: tomolab tomogram over the state catalog
# ---------------------------------------------------------------------------

def descriptor(kind: str, params: dict) -> str:
    if kind == "ho":
        return f"ho:n={params['n']}"
    if kind == "superpos":
        return f"superpos:n={params['n']},m={params['m']}"
    a = params["alpha"]
    head = "coherent:" if kind == "coherent" else f"cat:{params['parity']},"
    return f"{head}re={fmt(a.real)},im={fmt(a.imag)}"


def fock_window(nmax: int, hbar: float):
    """X window of oscillator eigenstates up to nmax: |Q| <= sqrt(2 nmax + 1) + 8
    with Q = X / sqrt(hbar (mu^2 + nu^2))."""
    def window(mu, nu):
        r = math.sqrt(hbar * (mu * mu + nu * nu)) * (math.sqrt(2 * nmax + 1) + 8.0)
        return -r, r
    return window


def _box_momentum_reach(n: int, L: float, hbar: float, tail_mass: float) -> float:
    """|p| beyond which a box eigenstate holds tail_mass: the momentum
    density falls as 2 k^2 hbar^3 / (pi L p^4), so the two tails beyond P
    hold 4 k^2 hbar^3 / (3 pi L P^3)."""
    k = n * math.pi / L
    return hbar * k + (4.0 * k * k * hbar ** 3 / (3.0 * math.pi * L * tail_mass)) ** (1.0 / 3.0)


def _corners(mu: float, nu: float, q: tuple[float, float], p: tuple[float, float]) -> tuple[float, float]:
    vals = [mu * a + nu * b for a in q for b in p]
    return min(vals), max(vals)


def write_custom_state(path: str, rng: np.random.Generator, count: int,
                       wmin: float, kmax: float) -> float:
    """Write a normalized sum of three Gaussian packets sampled on [-8, 8],
    the narrowest of width wmin and the fastest with wave number kmax;
    returns the squared norm of its linear interpolant."""
    x = np.linspace(-8.0, 8.0, count)
    centers = rng.uniform(-1.5, 1.5, 3)
    widths = wmin + np.array([0.0, *rng.uniform(0.0, 0.4, 2)])
    kicks = kmax * np.array([rng.choice([-1.0, 1.0]), *rng.uniform(-1.0, 1.0, 2)])
    weights = rng.uniform(0.3, 1.0, 3) * np.exp(2j * math.pi * rng.random(3))
    psi = sum(w * np.exp(-(x - c) ** 2 / (2 * s * s) + 1j * k * x)
              for w, c, s, k in zip(weights, centers, widths, kicks))
    psi = write_samples(path, x, psi)
    # tomolab's position routes integrate the linear interpolant of the
    # samples, whose squared norm differs from the samples' trapezoid norm
    # (1) by O(dx^2); the exact momentum marginal integrates the samples
    a, b = psi[:-1], psi[1:]
    return float(np.sum(np.abs(a) ** 2 + (a * b.conj()).real + np.abs(b) ** 2) * (x[1] - x[0]) / 3.0)


def write_samples(path: str, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Normalize psi on x and write it as a custom-state CSV; returns psi."""
    psi = psi / math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for xv, pv in zip(x, psi):
            fh.write(f"{fmt(xv)},{fmt(pv.real)},{fmt(pv.imag)}\n")
    return psi


def forward(rng: np.random.Generator, rounds: int, inputs: str) -> list[list[Job]]:
    layout = np.random.default_rng(LAYOUT_SEED)
    per_round = {"ho": 4, "coherent": 2, "cat": 3, "superpos": 3, "box": 3, "custom": 2}
    kinds = []

    def tomogram(kind, i, state, frames, hbar, window, count, tol, mass=(1.0, 1.0)):
        fargs, mu, nu = frames(i)
        lo, hi = window(mu, nu)
        argv = ["tomogram", "--state", state, *fargs, "--hbar", fmt(hbar),
                "--grid", grid_arg(lo, hi, count)]
        return cli_job(f"tomogram/{kind}", argv,
                       lambda out: ck.check_mass(os.path.join(out, "tomogram.csv"), tol, mass),
                       out_file="tomogram.csv")

    # oscillator eigenstates
    d = Draws(rng, layout, per_round["ho"] * rounds)
    ns, hbars, frames, fill = d.ints(0, HO_N_MAX), d.log(1e-3, 1.0), Frames(d), d.uniform(0, 1)
    kinds.append([tomogram("ho", i, descriptor("ho", {"n": n}), frames, h, fock_window(n, h),
                           spread(fill[i], min(8001, max(1001, 12 * n + 1)), 8001), ck.MASS_TOL_CLOSED)
                  for i, (n, h) in enumerate(zip(map(int, ns), map(float, hbars)))])

    # coherent states and cats: Gaussian peaks at +-(mu qbar + nu pbar), width sqrt(hbar (mu^2+nu^2)/2)
    for kind in ("coherent", "cat"):
        d = Draws(rng, layout, per_round[kind] * rounds)
        amp, phase = d.uniform(0.0 if kind == "coherent" else 0.3, 3.0), d.uniform(0, 2 * math.pi)
        hbars, frames, fill = d.log(1e-3, 1.0), Frames(d), d.uniform(0, 1)
        jobs = []
        for i in range(d.n):
            a = complex(amp[i] * math.cos(phase[i]), amp[i] * math.sin(phase[i]))
            h = float(hbars[i])
            state = descriptor(kind, {"alpha": a, "parity": ("even", "odd")[i % 2]})

            def window(mu, nu, a=a, h=h, both=(kind == "cat")):
                c = math.sqrt(2 * h) * (mu * a.real + nu * a.imag)
                w = 10.0 * math.sqrt(h * (mu * mu + nu * nu) / 2.0)
                return (-abs(c) - w, abs(c) + w) if both else (c - w, c + w)
            jobs.append(tomogram(kind, i, state, frames, h, window, spread(fill[i], 1001, 8001),
                                 ck.MASS_TOL_CLOSED))
        kinds.append(jobs)

    # two-eigenstate superpositions
    d = Draws(rng, layout, per_round["superpos"] * rounds)
    ns, gaps, hbars, frames, fill = d.ints(0, 40), d.ints(1, 20), d.log(1e-3, 1.0), Frames(d), d.uniform(0, 1)
    jobs = []
    for i in range(d.n):
        n, m, h = int(ns[i]), int(ns[i] + gaps[i]), float(hbars[i])
        jobs.append(tomogram("superpos", i, descriptor("superpos", {"n": n, "m": m}), frames, h,
                             fock_window(m, h), spread(fill[i], max(1001, 12 * m + 1), 8001),
                             ck.MASS_TOL_CLOSED))
    kinds.append(jobs)

    # box eigenstates near unit energy (hbar = sqrt2 L/(n pi) times a factor in [1/2, 2])
    d = Draws(rng, layout, per_round["box"] * rounds)
    ns, factor, frames, fill = d.ints(5, 400), d.log(0.5, 2.0), Frames(d, ratio=(0.0, 2.0)), d.uniform(0, 1)
    jobs = []
    for i in range(d.n):
        n = int(ns[i])
        h = float(factor[i]) * math.sqrt(2.0) / (n * math.pi)
        P = _box_momentum_reach(n, 1.0, h, 1e-4)

        def window(mu, nu, P=P):
            lo, hi = _corners(mu, nu, (0.0, 1.0), (-P, P))
            return lo - 0.05, hi + 0.05
        jobs.append(tomogram("box", i, f"box:n={n},L=1", frames, h, window,
                             spread(fill[i], min(4001, max(1001, 8 * n + 1)), 4001),
                             ck.MASS_TOL_QUADRATURE))
    kinds.append(jobs)

    # custom wave functions written from the seed
    d = Draws(rng, layout, per_round["custom"] * rounds)
    samples, hbars, frames, fill = d.ints(401, 1201), d.log(0.25, 1.0), Frames(d, ratio=(0.0, 2.0)), d.uniform(0, 1)
    wmin, kmax = d.uniform(0.4, 1.0), d.uniform(0.0, 2.0)
    jobs = []
    for i in range(d.n):
        path = os.path.join(inputs, f"custom_{i}.csv")
        norm2 = write_custom_state(path, rng, int(samples[i]), wmin[i], kmax[i])
        h = float(hbars[i])
        P = h * (kmax[i] + 8.0 / (math.sqrt(2.0) * wmin[i]))

        def window(mu, nu, P=P):
            lo, hi = _corners(mu, nu, (-8.0, 8.0), (-P, P))
            return lo - 0.05, hi + 0.05
        jobs.append(tomogram("custom", i, f"custom:{path}", frames, h, window,
                             spread(fill[i], 1001, 8001), ck.MASS_TOL_QUADRATURE, (min(1.0, norm2), max(1.0, norm2))))
    kinds.append(jobs)
    return interleave(rng, rounds, kinds)


# ---------------------------------------------------------------------------
# reconstruct: inverse maps
# ---------------------------------------------------------------------------

def _reconstruct_job(kind: str, target: str, state: str, hbar: float,
                     extra: list[str], psi) -> Job:
    argv = ["reconstruct", "--state", state, "--target", target, "--hbar", fmt(hbar), *extra]

    def check(out):
        if target == "wigner":
            return ck.check_wigner_csv(os.path.join(out, "wigner.csv"), psi, hbar, ck.RECONSTRUCT_TOL)
        return ck.check_density_csv(os.path.join(out, "density.csv"), psi, ck.RECONSTRUCT_TOL)
    return cli_job(f"reconstruct/{target}/{kind}", argv, check)


def radon_round_trip_job(comps, q: np.ndarray, mu_grid: np.ndarray, x_grid: np.ndarray,
                         q_rec: np.ndarray) -> Job:
    """build_radon_family then inverse_radon_grid on a sum-of-Gaussians density."""
    f = ck.gaussian_mixture(q, q, comps)
    mass = float(np.trapezoid(np.trapezoid(f, q, axis=1), q))
    f /= mass

    def run(out):
        from tomolab import classical as cl
        from tomolab.kernel import GridFunction2D

        dens = cl.DensityGrid(GridFunction2D(q, q, f))
        fam = cl.build_radon_family(dens, mu_grid, mu_grid, x_grid, q_extent=6.0, p_extent=6.0)
        rec, _ = cl.inverse_radon_grid(fam, q_rec, q_rec)
        return rec

    def check(out, rec):
        # the reference carries the normalization of the sampled input
        ref = ck.gaussian_mixture(q_rec, q_rec, comps) / mass
        return ck.check_max_error("radon round trip", float(np.max(np.abs(rec - ref))), ck.RECONSTRUCT_TOL)

    label = f"build_radon_family({mu_grid.size}x{mu_grid.size} frames, {x_grid.size} X) + inverse_radon_grid"
    return Job("lib/radon-round-trip", label, run, check)


def dual_route_job(n: int, hbar: float, mu: float, nu: float) -> Job:
    """rho_grid -> wigner_grid_from_density -> tomogram_from_wigner for |n>."""
    s = math.sqrt(hbar)
    x_rho = np.linspace(-6.0 * s, 6.0 * s, 401)
    q = np.linspace(-4.5 * s, 4.5 * s, 161)
    r = math.sqrt(hbar * (mu * mu + nu * nu))
    xt = np.linspace(-6.0 * r, 6.0 * r, 401)

    def run(out):
        from tomolab import quantum as qt, states as st
        from tomolab.kernel import TomographyFrame

        rho = qt.rho_grid(st.HOEigen(n), hbar, x_rho)
        w, _ = qt.wigner_grid_from_density(rho, q, q, hbar)
        return qt.tomogram_from_wigner(w, TomographyFrame(mu, nu), xt, hbar)

    def check(out, tom):
        ref = ck.oscillator_tomogram(n, mu, nu, hbar, xt)
        # compare in the units of the hbar = 1 tomogram (values scale as 1/r)
        return ck.check_max_error("dual route", float(np.max(np.abs(tom.values - ref))) * r,
                                  ck.RECONSTRUCT_TOL)

    return Job("lib/dual-route", f"rho_grid(ho:n={n}) + wigner_grid_from_density + tomogram_from_wigner",
               run, check)


# Reconstruction cases that meet the 1e-3 tolerance at this commit, each with
# the hbar values it was verified at.  The rest of the catalog is left out
# because of the reconstruct defects listed in README.md.
H = (1.0, 0.5, 0.25)
COHERENT_ALPHAS = (1.0, 0.5 + 0.5j, -0.8 + 0.3j, 0.3 - 1.0j, 1.2 + 0.6j)
RECONSTRUCT_CASES = {
    ("wigner", "ho"): [({"n": 0}, H), ({"n": 1}, H), ({"n": 2}, H), ({"n": 3}, (1.0, 0.25))],
    ("wigner", "coherent"): [({"alpha": a}, H) for a in COHERENT_ALPHAS],
    ("wigner", "cat"): [({"alpha": a, "parity": p}, H)
                        for a in (1.0, 0.8 + 0.4j, 0.6 - 0.6j) for p in ("even", "odd")],
    ("wigner", "superpos"): [({"n": n, "m": m}, H) for n, m in ((0, 1), (0, 2), (1, 2))],
    ("density", "ho"): [({"n": n}, H) for n in range(DENSITY_FOCK_N_MAX + 1)],
    ("density", "coherent"): [({"alpha": a}, H) for a in COHERENT_ALPHAS],
    ("density", "cat"): [({"alpha": a, "parity": p}, H) for a in (1.0, 0.8 + 0.4j, 1.2)
                         for p in ("even", "odd")]
                        + [({"alpha": 0.6 - 0.6j, "parity": "even"}, H),
                           ({"alpha": 0.6 - 0.6j, "parity": "odd"}, (1.0, 0.5))],
    ("density", "superpos"): [({"n": 0, "m": 1}, H)],
}
# custom packets (center, width, kick) whose density reconstruct on the
# 7-point grid below meets the tolerance
CUSTOM_DENSITY_PACKETS = ((0.3, 1.0, 0.0), (0.0, 0.9, 0.0), (0.1, 1.0, 0.3))


def write_packet_state(path: str, center: float, width: float, kick: float, count: int):
    """A normalized Gaussian packet sampled on [-8, 8]; returns its
    linearly interpolated wave function (what tomolab reads)."""
    x = np.linspace(-8.0, 8.0, count)
    psi = write_samples(path, x, np.exp(-(x - center) ** 2 / (2 * width * width) + 1j * kick * x))
    return lambda y: np.interp(y, x, psi.real) + 1j * np.interp(y, x, psi.imag)


def reconstruct(rng: np.random.Generator, rounds: int, inputs: str) -> list[list[Job]]:
    layout = np.random.default_rng(LAYOUT_SEED)
    kinds = []
    for (target, kind), cases in RECONSTRUCT_CASES.items():
        # two cat density jobs per round put the median job inside one
        # cluster of similar jobs instead of at the edge between two
        jobs = []
        per_round = 2 if (target, kind) == ("density", "cat") else 1
        for params, hbars in Draws(rng, layout, per_round * rounds).cycle(cases):
            h = float(rng.choice(hbars))
            jobs.append(_reconstruct_job(kind, target, descriptor(kind, params), h, [],
                                         ck.catalog_psi(kind, params, h)))
        kinds.append(jobs)

    # one custom-state density matrix per run, on a small output grid
    path = os.path.join(inputs, "custom_packet.csv")
    psi = write_packet_state(path, *CUSTOM_DENSITY_PACKETS[rng.integers(len(CUSTOM_DENSITY_PACKETS))], 281)
    kinds.append([_reconstruct_job("custom", "density", f"custom:{path}", 1.0,
                                   ["--grid", "-1.5,1.5,7"], psi)])

    # classical Radon round trips
    d = Draws(rng, layout, rounds)
    qc, pc, width, w2 = d.uniform(-1, 1), d.uniform(-1, 1), d.uniform(1.2, 1.5), d.uniform(0.2, 0.5)
    q = np.linspace(-8.0, 8.0, 121)
    mu_grid = np.linspace(-3.0, 3.0, 13)
    x_grid = np.linspace(-48.0, 48.0, 961)
    q_rec = np.linspace(-3.0, 3.0, 25)
    kinds.append([radon_round_trip_job(
        [(1.0 - w2[i], qc[i], pc[i], width[i]), (w2[i], -pc[i], qc[i], width[i])],
        q, mu_grid, x_grid, q_rec) for i in range(d.n)])

    # Wigner-from-density dual route
    hbars, s, theta = d.log(0.3, 1.0), d.log(0.7, 1.4), d.uniform(0, 2 * math.pi)
    kinds.append([dual_route_job(int(n), float(hbars[i]), *frame_of(s[i], theta[i]))
                  for i, n in enumerate(d.cycle(range(2)))])
    return interleave(rng, rounds, kinds)


# ---------------------------------------------------------------------------
# studies: tomolab limit, compare, and the generic time average
# ---------------------------------------------------------------------------

def _study_job(study: str, args: list[str], frames: Frames, i: int) -> Job:
    fargs, _, _ = frames(i)
    argv = ["limit", study, *fargs, *args]

    def check(out):
        report, err = ck.check_report_verdict(os.path.join(out, f"{study}_report.json"), "converged")
        if err:
            return err
        for path in report["artifacts"]:
            if os.path.exists(os.path.splitext(path)[0] + ".json"):  # written tomograms
                err = ck.check_mass(path, ck.MASS_TOL_STUDY)
                if err:
                    return err
        return None
    return cli_job(f"limit/{study}", argv, check)


def _sweep(a: float, points: int) -> str:
    """hbar sweep from a down by halves, exactly `points` values."""
    return f"{fmt(a)}:{fmt(a * 0.5 ** (points - 1))}:geometric:{int(points)}"


def _compare_job(kind: str, state: str, classical: str, hbar: float,
                 frames: list[tuple[float, float]], bound: float) -> Job:
    argv = ["compare", "--state", state, "--classical", classical, "--hbar", fmt(hbar),
            "--frames", ";".join(f"{fmt(m)},{fmt(n)}" for m, n in frames)]

    def check(out):
        data = np.loadtxt(os.path.join(out, "compare.csv"), delimiter=",", skiprows=1, ndmin=2)
        worst = float(np.max(data[:, 2]))
        if not (np.all(np.isfinite(data[:, 2])) and worst < bound):
            return f"compare: L1 {worst:.3e} not below {bound:g}"
        return None
    return cli_job(f"compare/{kind}", argv, check)


def time_average_job(a1: float, a2: float, phi: float, mu: float, nu: float) -> Job:
    """time_averaged_tomogram of the periodic orbit
    q = a1 cos t + a2 cos(2t + phi), p = -a1 sin t."""
    T = 2.0 * math.pi
    tt = np.linspace(0.0, T, 1 << 20, endpoint=False)
    g = mu * (a1 * np.cos(tt) + a2 * np.cos(2 * tt + phi)) - nu * a1 * np.sin(tt)
    span = float(g.max() - g.min())
    x = np.linspace(g.min() - 0.05 * span, g.max() + 0.05 * span, 401)
    ref = ck.trajectory_histogram(g, x)

    def run(out):
        from tomolab import classical as cl
        from tomolab.kernel import TomographyFrame

        traj = cl.PointTrajectory(lambda t: a1 * math.cos(t) + a2 * math.cos(2 * t + phi),
                                  lambda t: -a1 * math.sin(t), T)
        return cl.time_averaged_tomogram(traj, TomographyFrame(mu, nu), x)

    def check(out, tom):
        dx = x[1] - x[0]
        mass = ck.trapezoid(tom.values, dx) + sum(at.weight for at in tom.atoms)
        if not abs(mass - 1.0) <= ck.MASS_TOL_STUDY:
            return f"time average: mass residual {abs(mass - 1.0):.3e} > {ck.MASS_TOL_STUDY:.0e}"
        l1 = float(np.sum(np.abs(tom.values - ref)) * dx)
        return ck.check_max_error("time average L1 vs histogram", l1, ck.TIME_AVERAGE_L1_TOL)
    return Job("lib/time-average", f"time_averaged_tomogram(PointTrajectory(a1={a1:.6g}, a2={a2:.6g}, "
               f"phi={phi:.6g}), frame=({mu:.6g}, {nu:.6g}), 401 X)", run, check)


def studies(rng: np.random.Generator, rounds: int, inputs: str) -> list[list[Job]]:
    layout = np.random.default_rng(LAYOUT_SEED)
    kinds = []
    d = Draws(rng, layout, 2 * rounds)
    frames, start, points, n, amp = Frames(d, marginals=False), d.log(0.02, 0.08), d.ints(4, 7), d.ints(0, 3), d.uniform(0.2, 1.0)
    jobs = []
    for i in range(d.n):
        state = (descriptor("ho", {"n": int(n[i])}) if i % 2
                 else descriptor("coherent", {"alpha": complex(amp[i], amp[i] / 2)}))
        jobs.append(_study_job("planck-delta", ["--state", state, "--hbars", _sweep(start[i], points[i])],
                               frames, i))
    kinds.append(jobs)

    d = Draws(rng, layout, rounds)
    frames, start, points, n, gap = Frames(d, ratio=(0.0, 4.0), marginals=False), d.log(0.02, 0.1), d.ints(5, 8), d.ints(0, 5), d.ints(1, 5)
    kinds.append([_study_job("interference", ["--n", str(n[i]), "--m", str(n[i] + gap[i]),
                                              "--hbars", _sweep(start[i], points[i])], frames, i)
                  for i in range(d.n)])

    d = Draws(rng, layout, rounds)
    frames, re, im = Frames(d, ratio=(0.0, 4.0), marginals=False), d.uniform(0.5, 1.5), d.uniform(-0.5, 0.5)
    kinds.append([_study_job("cat-interference", ["--re", fmt(re[i]), "--im", fmt(im[i])], frames, i)
                  for i in range(d.n)])

    for study in ("ehrenfest-coherent", "ehrenfest-cat"):
        d = Draws(rng, layout, rounds)
        frames, qa, pa = Frames(d, marginals=False), d.uniform(0.5, 1.5), d.uniform(-1.0, 1.0)
        jobs = []
        for i in range(d.n):
            if study == "ehrenfest-cat":
                # frames within ~15 degrees of the fringe frame get artifacts
                # too coarse for their fringes (defect listed in README.md)
                _, mu, nu = frames(i)
                if abs(mu * qa[i] + nu * pa[i]) < 0.25 * math.hypot(mu, nu) * math.hypot(qa[i], pa[i]):
                    frames.quadrant[i] ^= 1  # mirror mu -> -mu
            jobs.append(_study_job(study, ["--q-alpha", fmt(qa[i]), "--p-alpha", fmt(pa[i])], frames, i))
        kinds.append(jobs)

    d = Draws(rng, layout, rounds)
    frames, n0, check_n = Frames(d, ratio=(0.25, 4.0), marginals=False), d.ints(10, 40), d.ints(100, 400)
    kinds.append([_study_job("ehrenfest-box", [
        "--ns", ",".join(str(int(n0[i]) * 2 ** k) for k in range(4)),
        "--momentum-check-n", str(check_n[i])], frames, i) for i in range(d.n)])

    d = Draws(rng, layout, rounds)
    frames, n0, growth = Frames(d), d.ints(20, 60), d.uniform(1.5, 2.2)
    jobs = []
    for i in range(d.n):
        ns = [int(n0[i] * growth[i] ** k) for k in range(4)]
        ns = [v for v in ns if v <= OSCILLATOR_STUDY_N_MAX]
        jobs.append(_study_job("ehrenfest-oscillator", ["--ns", ",".join(map(str, ns))], frames, i))
    kinds.append(jobs)

    # compare rows of eigenstates against their unit-energy orbits (hbar = 1/n, E = 1)
    d = Draws(rng, layout, rounds)
    n_ho, n_box, s, theta = d.ints(100, HO_N_MAX), d.ints(20, 400), d.log(0.7, 1.4), d.uniform(0.2, 1.3)
    kinds.append([_compare_job("oscillator", descriptor("ho", {"n": n_ho[i]}), "oscillator:E=1", 1.0 / n_ho[i],
                               [(1.0, 0.0), frame_of(s[i], theta[i])], ck.COMPARE_OSCILLATOR_L1)
                  for i in range(d.n)])
    kinds.append([_compare_job("box", f"box:n={n_box[i]},L=1", "box:L=1,E=1",
                               math.sqrt(2.0) / (n_box[i] * math.pi),
                               [frame_of(s[i], theta[i])], ck.COMPARE_BOX_L1)
                  for i in range(d.n)])

    d = Draws(rng, layout, rounds)
    # a2 < a1 / 8 keeps mu q + nu p free of near-inflections, where the
    # time average loses mass (defect listed in README.md)
    a1, a2, phi = d.uniform(0.8, 1.2), d.uniform(0.03, TIME_AVERAGE_A2_MAX), d.uniform(0, 2 * math.pi)
    s, theta = d.log(0.7, 1.4), d.uniform(0, 2 * math.pi)
    kinds.append([time_average_job(a1[i], a2[i], phi[i], *frame_of(s[i], theta[i])) for i in range(d.n)])
    return interleave(rng, rounds, kinds)


WORKLOADS = {"forward": forward, "reconstruct": reconstruct, "studies": studies}
